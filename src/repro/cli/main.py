"""The unified ``repro`` command line: ``python -m repro <command>``.

Commands
--------

``run <experiment | spec.json>``
    Run a registered experiment (overriding parameters with ``--set k=v``) or
    a declarative :class:`~repro.core.spec.RunSpec` file, store the run as a
    versioned artifact directory, and print the report.  ``--executor`` /
    ``--max-workers`` override the spec's engine parallelism and
    ``--backend`` its DSL execution backend without editing the JSON;
    ``--pipeline`` turns on generation/evaluation overlap and ``--provider``
    layers an LLM provider block (retries, timeouts, batch size, prompt
    cache) onto the spec -- none of which change the run's results.
``sweep <spec.json>``
    Run the spec once per seed (``--seeds`` overrides the spec's list),
    seeds in parallel, and print the sweep table.
``resume <run dir>``
    Continue an interrupted checkpointed search from its artifact directory.
``experiments list``
    The experiment registry with defaults and descriptions.
``workloads list [--domain D]`` / ``workloads show <name>``
    The workload registry: every named evaluation scenario (cache traces,
    netsim topologies) a spec's ``domain_kwargs["workloads"]`` matrix can
    reference.
``store stats|gc|clear``
    Inspect and maintain the persistent evaluation store (the engine's disk
    memo tier, default ``<artifact root>/evalstore``); searches warm-start
    from it across processes.  ``--eval-store PATH`` / ``--no-eval-store``
    on ``run``/``sweep``/``resume`` redirect or disable it.  With
    ``--prompt-cache`` the same subcommands maintain the on-disk LLM prompt
    cache (default ``<artifact root>/promptcache``) instead.  ``stats``
    reports the distinct registered ``writers`` (runs and sweep seeds) that
    have shared the tree.
``report <run dir>``
    Re-render a stored run's report from its artifacts, byte-identical to
    the original ``run`` output, without re-running anything.
``certify <run dir | program file>``
    Certify interval bounds on a run's winning candidate (or any DSL
    program file) with the abstract interpreter: the output's provable
    ``[lo, hi]`` range over the domain's declared input intervals, whether
    it is constant or input-independent, and the window the evaluator's
    output clamp forces it into.  ``--static-screen`` on ``run``/``sweep``
    uses the same analysis to reject degenerate candidates before
    evaluation.

Reports go to stdout; progress and artifact paths go to stderr, so stdout
can be diffed between ``run`` and ``report``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cli.render import render_search_report, render_sweep_report
from repro.core import artifacts
from repro.core.artifacts import search_result_from_dict
from repro.core.events import ProgressPrinter
from repro.core.executors import available_executors
from repro.dsl.compile import BACKENDS as DSL_BACKENDS
from repro.core.spec import EVAL_STORE_DIRNAME, RunSpec, run, run_sweep
from repro.core.store import EvaluationStore
from repro.llm.cache import PROMPT_CACHE_DIRNAME, PromptCache
from repro.experiments import registry

DEFAULT_ARTIFACT_ROOT = "runs"


class CliError(Exception):
    """User-facing CLI failure (printed without a traceback)."""


def _parse_set(values: List[str]) -> Dict[str, Any]:
    """``--set key=value`` pairs; values are parsed as JSON when possible."""
    overrides: Dict[str, Any] = {}
    for item in values:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise CliError(f"--set expects key=value, got {item!r}")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _store(args: argparse.Namespace) -> Optional[artifacts.ArtifactStore]:
    if getattr(args, "no_artifacts", False):
        return None
    return artifacts.ArtifactStore(args.artifacts)


def _note(text: str) -> None:
    try:
        print(text, file=sys.stderr)
    except BrokenPipeError:
        # A consumer closed stderr; the run itself succeeded and the report
        # already reached stdout -- losing the side note must not fail the run.
        pass


def _progress_subscribers(args: argparse.Namespace) -> list:
    if getattr(args, "quiet", False):
        return []
    return [ProgressPrinter(sys.stderr, verbose=getattr(args, "verbose", False))]


def _eval_store_arg(args: argparse.Namespace):
    """The ``eval_store`` argument for run()/run_sweep() from the CLI flags."""
    if getattr(args, "no_eval_store", False):
        return None
    explicit = getattr(args, "eval_store", None)
    return explicit if explicit is not None else "auto"


def _engine_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    if getattr(args, "executor", None) is not None:
        # Validated here (not via argparse choices) so an unknown name gets
        # the same "unknown <thing> ...; available: ..." message and exit
        # code every other registry miss produces.
        if args.executor not in available_executors():
            raise CliError(
                f"unknown executor {args.executor!r}; "
                f"available: {available_executors()}"
            )
        overrides["executor"] = args.executor
    if getattr(args, "max_workers", None) is not None:
        if args.max_workers <= 0:
            raise CliError("--max-workers must be positive")
        overrides["max_workers"] = args.max_workers
    if getattr(args, "backend", None) is not None:
        overrides["dsl_backend"] = args.backend
    if getattr(args, "static_screen", False):
        overrides["static_screen"] = True
    return overrides


def _apply_engine_overrides(spec: RunSpec, args: argparse.Namespace) -> RunSpec:
    """Layer ``--executor`` / ``--max-workers`` / ``--backend`` onto a spec's
    engine block."""
    overrides = _engine_overrides(args)
    if not overrides:
        return spec
    data = spec.to_dict()
    data["engine"] = {**data["engine"], **overrides}
    return RunSpec.from_dict(data)


def _apply_pipeline_overrides(spec: RunSpec, args: argparse.Namespace) -> RunSpec:
    """Layer ``--pipeline`` / ``--provider`` onto a spec without editing the
    JSON.

    ``--provider`` accepts a bare provider name (``synthetic``) or a JSON
    object (``{"name": "synthetic", "retries": 2, "batch_size": 4,
    "prompt_cache": "runs/promptcache"}``); it lands in the spec's
    ``llm["provider"]`` block and is validated by
    :class:`~repro.llm.client.ProviderConfig`.
    """
    data: Optional[Dict[str, Any]] = None
    if getattr(args, "pipeline", False):
        data = spec.to_dict()
        data["search"] = {**data["search"], "pipeline": True}
    raw = getattr(args, "provider", None)
    if raw is not None:
        try:
            ref: Any = json.loads(raw)
        except json.JSONDecodeError:
            ref = raw  # a bare provider name
        if not isinstance(ref, (str, dict)):
            raise CliError(
                f"--provider expects a provider name or a JSON object, got {raw!r}"
            )
        if data is None:
            data = spec.to_dict()
        data["llm"] = {**data["llm"], "provider": ref}
    if data is None:
        return spec
    return RunSpec.from_dict(data)


def _apply_fidelity_override(spec: RunSpec, args: argparse.Namespace) -> RunSpec:
    """Layer ``--fidelity`` onto a spec without editing the JSON.

    Accepted forms: ``off`` (disable the spec's ladder), a comma-separated
    rung list (``0.1,0.3,1.0``), or a JSON object
    (``{"rungs": [...], "eta": 4, "mode": "shadow"}``).
    """
    raw = getattr(args, "fidelity", None)
    if raw is None:
        return spec
    if raw.strip().lower() in ("off", "none"):
        ref = None
    else:
        try:
            ref = json.loads(raw)
        except json.JSONDecodeError:
            try:
                ref = [float(part) for part in raw.split(",") if part.strip()]
            except ValueError:
                raise CliError(
                    f"--fidelity expects 'off', a comma-separated rung list "
                    f"or a JSON object, got {raw!r}"
                ) from None
        if not isinstance(ref, (list, dict)):
            # e.g. a bare number: json.loads accepts it but a schedule needs
            # a rung list or a mapping.
            raise CliError(
                f"--fidelity expects 'off', a comma-separated rung list "
                f"or a JSON object, got {raw!r}"
            )
    data = spec.to_dict()
    data["fidelity"] = ref
    return RunSpec.from_dict(data)


def _search_report(outcome) -> str:
    """Render a finished search run's report.

    When artifacts were written, render from the stored spec.json/result.json
    -- the same files `repro report` reads -- so run/report byte-identity
    holds by construction (and the result is not serialized a second time).
    """
    if outcome.artifact_dir is not None:
        artifact = artifacts.RunArtifact(outcome.artifact_dir)
        return render_search_report(artifact.spec, artifact.result)
    return render_search_report(
        outcome.spec.for_seed(outcome.seed).to_dict(),
        artifacts.search_result_to_dict(outcome.result),
    )


# -- commands -----------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    target = args.target
    overrides = _parse_set(args.set or [])
    store = _store(args)

    # A target is a spec file when it *looks* like a path (a .json suffix or
    # a path separator); bare names always go to the experiment registry, so
    # a stray file or directory in cwd cannot shadow an experiment.
    spec_path = Path(target)
    looks_like_path = target.endswith(".json") or os.sep in target
    if looks_like_path:
        if not spec_path.is_file():
            hint = (
                "; for a run directory use `repro report` or `repro resume`"
                if spec_path.is_dir()
                else ""
            )
            raise CliError(f"{target} is not a RunSpec file{hint}")
        if overrides:
            raise CliError(
                "--set overrides apply to registered experiments; "
                "edit the spec file to change a RunSpec"
            )
        spec = RunSpec.from_file(spec_path)
        if spec.is_sweep and args.seed is None:
            raise CliError(
                f"spec {spec.name!r} declares a seed sweep {spec.seeds}; "
                "use `python -m repro sweep` (or pass --seed to run one)"
            )
        if args.seed is not None:
            spec = spec.for_seed(args.seed)
        spec = _apply_engine_overrides(spec, args)
        spec = _apply_fidelity_override(spec, args)
        spec = _apply_pipeline_overrides(spec, args)
        outcome = run(
            spec,
            store=store,
            subscribers=_progress_subscribers(args),
            eval_store=_eval_store_arg(args),
        )
        print(_search_report(outcome))
        if outcome.artifact_dir is not None:
            _note(f"artifacts: {outcome.artifact_dir}")
        return 0

    if _engine_overrides(args):
        raise CliError(
            "--executor/--max-workers/--backend/--static-screen apply to "
            "RunSpec runs; registered experiments manage their own engine "
            "configuration"
        )
    if getattr(args, "fidelity", None) is not None:
        raise CliError(
            "--fidelity applies to RunSpec runs; registered experiments "
            "do not use the multi-fidelity scheduler"
        )
    if getattr(args, "pipeline", False) or getattr(args, "provider", None) is not None:
        raise CliError(
            "--pipeline/--provider apply to RunSpec runs; registered "
            "experiments do not use the pipelined round scheduler"
        )
    if getattr(args, "eval_store", None) is not None or getattr(
        args, "no_eval_store", False
    ):
        raise CliError(
            "--eval-store/--no-eval-store apply to RunSpec runs; registered "
            "experiments do not use the evaluation store"
        )
    try:
        experiment = registry.get_experiment(target)
    except KeyError as exc:
        raise CliError(str(exc)) from exc
    if args.seed is not None:
        if "seed" not in experiment.params:
            raise CliError(
                f"experiment {experiment.name!r} has no seed parameter; "
                "see `repro experiments list` for its --set options"
            )
        overrides["seed"] = args.seed
    params = registry.merge_params(experiment, overrides)
    runner_kwargs = dict(params)
    if experiment.accepts_progress:
        # Presentation-only: not part of params, so it does not enter the
        # stored spec.json or the run directory's config hash.
        runner_kwargs["progress"] = not args.quiet
    payload = experiment.runner(**runner_kwargs)
    print(experiment.renderer(payload))
    if store is not None:
        config_hash = registry.params_hash(experiment.name, params)
        run_dir = artifacts.write_experiment_dir(
            store.experiment_dir(experiment.name, config_hash),
            experiment=experiment.name,
            params=params,
            payload=payload,
            config_hash=config_hash,
        )
        _note(f"artifacts: {run_dir}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = RunSpec.from_file(args.spec)
    if args.seeds:
        seeds = [int(s) for s in args.seeds]
        spec = RunSpec.from_dict({**spec.to_dict(), "seeds": seeds})
    spec = _apply_engine_overrides(spec, args)
    spec = _apply_fidelity_override(spec, args)
    spec = _apply_pipeline_overrides(spec, args)
    # Progress printing only when seeds run one at a time: concurrent seeds
    # would interleave unattributed lines through one shared printer.
    serial = args.parallel == 1 or len(spec.seed_list) == 1
    outcome = run_sweep(
        spec,
        store=_store(args),
        subscribers=_progress_subscribers(args) if serial else (),
        max_parallel=args.parallel,
        eval_store=_eval_store_arg(args),
    )
    if outcome.artifact_dir is not None:
        print(render_sweep_report(artifacts.load_sweep(outcome.artifact_dir)))
        _note(f"artifacts: {outcome.artifact_dir}")
    else:
        runs = [
            {
                "seed": o.seed,
                "dir": "-",
                "best_score": o.result.best.score if o.result.best else None,
                "valid_candidates": len(o.result.valid_candidates()),
                "total_candidates": o.result.total_candidates,
            }
            for o in outcome.outcomes
        ]
        best = outcome.best
        print(
            render_sweep_report(
                {"spec": spec.to_dict(), "runs": runs,
                 "best_seed": best.seed if best else None}
            )
        )
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    spec_file = run_dir / artifacts.SPEC_FILE
    if not spec_file.exists():
        raise CliError(
            f"{run_dir} is not a run directory (no {artifacts.SPEC_FILE}); "
            "for a sweep, resume one seed-<n> subdirectory"
        )
    spec_data = json.loads(spec_file.read_text(encoding="utf-8"))
    if "experiment" in spec_data:
        raise CliError(
            "experiment runs are not resumable; re-run with "
            f"`python -m repro run {spec_data['experiment']}`"
        )
    spec = RunSpec.from_dict(spec_data)
    if not spec.checkpoint:
        raise CliError(
            f"spec {spec.name!r} was run without checkpointing; nothing to resume"
        )
    outcome = run(
        spec,
        run_dir=run_dir,
        subscribers=_progress_subscribers(args),
        eval_store=_eval_store_arg(args),
    )
    print(_search_report(outcome))
    _note(f"artifacts: {outcome.artifact_dir}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.action != "list":  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown experiments action {args.action!r}")
    names = registry.available_experiments()
    width = max(len(name) for name in names)
    for name in names:
        experiment = registry.get_experiment(name)
        print(f"{name:<{width}}  {experiment.description}")
        defaults = " ".join(f"{k}={json.dumps(v)}" for k, v in experiment.params.items())
        print(f"{'':<{width}}  defaults: {defaults}")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import available_workloads, get_workload

    if args.action == "list":
        names = available_workloads(domain=args.domain)
        if not names:
            raise CliError(
                f"no workloads registered"
                + (f" for domain {args.domain!r}" if args.domain else "")
            )
        width = max(len(name) for name in names)
        print(f"{'name':<{width}}  {'domain':<8} {'kind':<12} {'est. length':<12} description")
        for name in names:
            spec = get_workload(name)
            print(
                f"{name:<{width}}  {spec.domain:<8} {spec.kind:<12} "
                f"{spec.estimated_length():<12} {spec.description}"
            )
        return 0
    # show
    if not args.name:
        raise CliError("workloads show needs a workload name")
    try:
        spec = get_workload(args.name)
    except KeyError as exc:
        raise CliError(str(exc).strip('"')) from exc
    print(f"workload   : {spec.name}")
    print(f"domain     : {spec.domain}")
    print(f"kind       : {spec.kind}")
    print(f"est. length: {spec.estimated_length()}")
    if spec.description:
        print(f"description: {spec.description}")
    print("params:")
    for key, value in spec.params:
        print(f"  {key} = {json.dumps(value)}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    prompt_cache = getattr(args, "prompt_cache", False)
    root = args.store
    if root is None:
        dirname = PROMPT_CACHE_DIRNAME if prompt_cache else EVAL_STORE_DIRNAME
        root = os.path.join(DEFAULT_ARTIFACT_ROOT, dirname)
    store = PromptCache(root) if prompt_cache else EvaluationStore(root)
    if args.action == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
            return 0
        print(f"store         : {stats.root}")
        print(f"schema version: {stats.schema_version}")
        print(f"entries       : {stats.entries}")
        print(f"total bytes   : {stats.total_bytes}")
        # The prompt cache's first-level directories are key shards, not
        # per-eval-config partitions -- label them honestly.
        label = "key shards" if prompt_cache else "eval configs"
        print(f"{label:<14}: {stats.eval_configs}")
        print(f"writers       : {stats.writers}")
        return 0
    if args.action == "gc":
        if args.max_bytes is None and args.max_entries is None:
            raise CliError(
                "store gc needs a bound: --max-bytes and/or --max-entries"
            )
        outcome = store.gc(max_entries=args.max_entries, max_bytes=args.max_bytes)
        print(
            f"removed {outcome.removed_entries} entries "
            f"({outcome.freed_bytes} bytes); "
            f"{outcome.remaining_entries} entries "
            f"({outcome.remaining_bytes} bytes) remain"
        )
        return 0
    # clear
    removed = store.clear()
    print(f"removed {removed} entries from {store.root}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.run_dir)
    if artifacts.is_sweep_dir(path):
        print(render_sweep_report(artifacts.load_sweep(path)))
        return 0
    try:
        artifact = artifacts.RunArtifact(path)
        artifact.metadata  # enforces the artifact-format version gate
    except FileNotFoundError as exc:
        if (path / artifacts.SPEC_FILE).exists():
            raise CliError(
                f"{path} is incomplete (no metadata.json) -- was the run "
                "interrupted? `repro resume` can finish a checkpointed run"
            ) from exc
        raise CliError(str(exc)) from exc
    result = _load_result(artifact)
    if artifact.kind == "experiment":
        name = artifact.spec["experiment"]
        try:
            experiment = registry.get_experiment(name)
        except KeyError as exc:
            raise CliError(str(exc)) from exc
        print(experiment.renderer(result))
    else:
        print(render_search_report(artifact.spec, result))
    return 0


def _load_result(artifact: artifacts.RunArtifact) -> Dict[str, Any]:
    """The run's stored result, with missing/corrupt files named explicitly."""
    result_path = artifact.path / artifacts.RESULT_FILE
    try:
        return artifact.result
    except FileNotFoundError as exc:
        raise CliError(
            f"{result_path} is missing -- was the run interrupted? "
            "`repro resume` can finish a checkpointed run"
        ) from exc
    except ValueError as exc:  # json.JSONDecodeError: truncated/corrupt file
        raise CliError(f"{result_path} is corrupt or truncated: {exc}") from exc


def _infer_certify_domain(function_name: str) -> str:
    """Map a program's function name to the domain that evaluates it."""
    inferred = {"priority": "caching", "cong_control": "cc"}.get(function_name)
    if inferred is None:
        raise CliError(
            f"cannot infer a domain from function {function_name!r}; "
            "pass --domain (e.g. caching or cc)"
        )
    return inferred


def _certify_intervals(domain_name: str):
    from repro.core.domain import get_domain

    try:
        domain = get_domain(domain_name)
    except KeyError as exc:
        raise CliError(str(exc).strip('"')) from exc
    intervals = domain.input_intervals()
    if intervals is None:
        raise CliError(
            f"domain {domain_name!r} declares no input intervals; "
            "nothing to certify"
        )
    return intervals


def _parse_certify_program(source: str, origin: str):
    from repro.dsl.errors import DslError
    from repro.dsl.parser import parse

    try:
        return parse(source)
    except DslError as exc:
        raise CliError(f"{origin} is not a valid DSL program: {exc}") from exc


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.dsl.abstract import certify_program

    path = Path(args.target)
    if path.is_dir():
        artifact = artifacts.RunArtifact(path)
        artifact.metadata  # enforces the artifact-format version gate
        if artifact.kind != "search":
            raise CliError(
                f"{path} holds an experiment run; certify needs a search "
                "run directory or a DSL program file"
            )
        result = search_result_from_dict(_load_result(artifact))
        if result.best is None:
            raise CliError(f"{path} has no winning candidate to certify")
        program = _parse_certify_program(result.best.source, f"{path} winner")
        domain_name = args.domain or artifact.spec.get("domain", "")
    elif path.is_file():
        program = _parse_certify_program(
            path.read_text(encoding="utf-8"), str(path)
        )
        domain_name = args.domain or _infer_certify_domain(program.name)
    else:
        raise CliError(
            f"{path} is neither a run directory nor a DSL program file"
        )
    certificate = certify_program(program, _certify_intervals(domain_name))
    if args.json:
        print(json.dumps(certificate.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"domain     : {domain_name}")
    print(f"program    : {program.name}")
    print(f"certificate: {certificate.describe()}")
    return 0


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified runner for PolicySmith searches and paper experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--artifacts",
            default=DEFAULT_ARTIFACT_ROOT,
            help=f"artifact store root (default: ./{DEFAULT_ARTIFACT_ROOT})",
        )
        p.add_argument(
            "--no-artifacts",
            action="store_true",
            help="do not write a run directory",
        )
        p.add_argument("--quiet", action="store_true", help="no progress on stderr")
        p.add_argument(
            "--verbose", action="store_true", help="per-candidate progress lines"
        )
        add_eval_store(p)

    def add_eval_store(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--eval-store",
            default=None,
            metavar="PATH",
            help="evaluation-store directory (default: <artifacts>/"
            f"{EVAL_STORE_DIRNAME}; searches warm-start from it)",
        )
        p.add_argument(
            "--no-eval-store",
            action="store_true",
            help="disable the persistent evaluation store for this run",
        )

    def add_engine_overrides(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--executor",
            default=None,
            metavar="NAME",
            help="override the spec's engine executor backend "
            f"(one of: {', '.join(available_executors())})",
        )
        p.add_argument(
            "--max-workers",
            type=int,
            default=None,
            help="override the spec's engine worker count",
        )
        p.add_argument(
            "--backend",
            default=None,
            choices=DSL_BACKENDS,
            help="override the DSL execution backend candidates are "
            "evaluated with (scores are bit-identical across backends)",
        )
        p.add_argument(
            "--fidelity",
            default=None,
            metavar="LADDER",
            help="override the spec's multi-fidelity schedule: 'off', a "
            "comma-separated rung list (e.g. 0.1,0.3,1.0) or a JSON object "
            '(e.g. {"rungs": [0.1, 1.0], "eta": 4, "mode": "shadow"})',
        )
        p.add_argument(
            "--static-screen",
            action="store_true",
            help="reject provably-degenerate candidates (constant, "
            "input-independent or clamp-pinned output) with the interval "
            "abstract interpreter before any evaluation",
        )
        p.add_argument(
            "--pipeline",
            action="store_true",
            help="overlap candidate generation with evaluation (results are "
            "byte-identical to the serial schedule)",
        )
        p.add_argument(
            "--provider",
            default=None,
            metavar="NAME|JSON",
            help="LLM provider block: a bare name ('synthetic') or a JSON "
            'object (e.g. {"name": "synthetic", "retries": 2, '
            '"batch_size": 4, "prompt_cache": "runs/promptcache"})',
        )

    p_run = sub.add_parser("run", help="run an experiment by name or a RunSpec file")
    p_run.add_argument("target", help="registered experiment name or path to spec.json")
    p_run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override an experiment parameter (repeatable; values parsed as JSON)",
    )
    p_run.add_argument("--seed", type=int, default=None, help="override the spec seed")
    add_common(p_run)
    add_engine_overrides(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a RunSpec once per seed, in parallel")
    p_sweep.add_argument("spec", help="path to a RunSpec JSON file")
    p_sweep.add_argument(
        "--seeds", nargs="+", default=None, help="override the spec's seed list"
    )
    p_sweep.add_argument(
        "--parallel", type=int, default=None, help="max concurrent seeds"
    )
    add_common(p_sweep)
    add_engine_overrides(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_resume = sub.add_parser(
        "resume", help="resume a checkpointed search from its run directory"
    )
    p_resume.add_argument("run_dir", help="artifact directory of the interrupted run")
    p_resume.add_argument("--quiet", action="store_true", help="no progress on stderr")
    p_resume.add_argument(
        "--verbose", action="store_true", help="per-candidate progress lines"
    )
    add_eval_store(p_resume)
    p_resume.set_defaults(func=_cmd_resume)

    p_store = sub.add_parser(
        "store", help="inspect/maintain the persistent evaluation store"
    )
    p_store.add_argument("action", choices=["stats", "gc", "clear"])
    p_store.add_argument(
        "--store",
        default=None,
        help="store directory (default: "
        f"./{os.path.join(DEFAULT_ARTIFACT_ROOT, EVAL_STORE_DIRNAME)}, or "
        f"./{os.path.join(DEFAULT_ARTIFACT_ROOT, PROMPT_CACHE_DIRNAME)} "
        "with --prompt-cache)",
    )
    p_store.add_argument(
        "--prompt-cache",
        action="store_true",
        help="operate on the LLM prompt cache instead of the evaluation store",
    )
    p_store.add_argument(
        "--max-bytes", type=int, default=None, help="gc: byte budget to shrink to"
    )
    p_store.add_argument(
        "--max-entries", type=int, default=None, help="gc: entry budget to shrink to"
    )
    p_store.add_argument(
        "--json", action="store_true", help="stats: machine-readable output"
    )
    p_store.set_defaults(func=_cmd_store)

    p_exp = sub.add_parser("experiments", help="inspect the experiment registry")
    p_exp.add_argument("action", choices=["list"])
    p_exp.set_defaults(func=_cmd_experiments)

    p_wl = sub.add_parser("workloads", help="inspect the workload registry")
    p_wl.add_argument("action", choices=["list", "show"])
    p_wl.add_argument("name", nargs="?", help="workload name (for show)")
    p_wl.add_argument(
        "--domain", default=None, help="restrict the listing to one domain"
    )
    p_wl.set_defaults(func=_cmd_workloads)

    p_report = sub.add_parser(
        "report", help="re-render a stored run's report without re-running"
    )
    p_report.add_argument("run_dir", help="artifact directory (or sweep directory)")
    p_report.set_defaults(func=_cmd_report)

    p_certify = sub.add_parser(
        "certify",
        help="certify interval bounds of a run's winner or a DSL program file",
    )
    p_certify.add_argument(
        "target", help="run directory (certifies the winner) or DSL program file"
    )
    p_certify.add_argument(
        "--domain",
        default=None,
        help="domain whose input intervals to certify against (default: the "
        "run's domain, or inferred from the program's function name)",
    )
    p_certify.add_argument(
        "--json", action="store_true", help="machine-readable certificate"
    )
    p_certify.set_defaults(func=_cmd_certify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # Registry misses (unknown workload/domain/experiment names) raise
        # KeyError with an "unknown <thing> ...; available: ..." message;
        # surface those without a traceback.  Any other KeyError is an
        # internal bug and must stay loud and debuggable.
        message = exc.args[0] if exc.args else ""
        if isinstance(message, str) and message.startswith("unknown "):
            print(f"error: {message}", file=sys.stderr)
            return 2
        raise
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
