"""One measured run, in a fresh interpreter.

Reads a job (see :mod:`workloads`) as JSON on stdin, sets up, runs the job's
specs back to back through the real ``repro.core.run(spec, store=<tmp>)`` path
-- the timed region -- and prints one JSON sample as the last line of stdout.
``setup_s`` runs from the moment the parent spawned this process to the start
of the timed region: interpreter start, ``import repro``, building the specs
and -- for a job with ``populate`` specs -- filling the evaluation store.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import probe
import spans


def result_digest(result: Any) -> str:
    """sha256 over what the search found, not over the ``result.json`` bytes,
    so an artifact-schema change does not invalidate the benchmark."""
    payload = {
        "round_best": [repr(r.best_score) for r in result.rounds],
        "total": result.total_candidates,
        "valid": len(result.valid_candidates()),
        "winner": result.best_source() if result.best is not None else None,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def cache_hit_split(result: Any) -> Tuple[int, int]:
    """``(memo hits, in-batch dedup hits)`` of a finished search.

    The engine reports both as one ``eval_cache_hits`` counter, so the split
    is re-derived from the candidates in batch order by the engine's own
    rule: a program already evaluated at full fidelity by an earlier batch is
    a memo hit, a repeat inside its batch a dedup hit.  Statically screened
    candidates never reach the cache and are skipped.
    """
    memo = dedup = 0
    known: set = set()
    batches = itertools.groupby(result.candidates, key=lambda c: c.candidate.round_index)
    for _round, batch in batches:
        fresh: Dict[str, Any] = {}
        for item in batch:
            evaluation = item.evaluation
            if not item.check_ok or item.program is None or evaluation is None:
                continue
            if (evaluation.error or "").startswith("static-screen:"):
                continue
            key = item.source
            if key in known:
                memo += 1
            elif key in fresh:
                dedup += 1
            else:
                fresh[key] = evaluation
        known.update(
            key
            for key, evaluation in fresh.items()
            if evaluation.full_fidelity and not evaluation.transient
        )
    return memo, dedup


def lowering_fallbacks(result: Any, requested: str) -> Tuple[int, int]:
    """``(programs, fallbacks)``: how many of the search's distinct checked
    programs ``make_runner`` lowers, and how many of them to another backend
    than the ``requested`` one (``compiled`` hands loops to the interpreter).

    Resolved here, after the timed region, from the programs themselves:
    ``evaluator.backend_stats`` counts in-process evaluations only, so under
    the process executor it would read 0 whatever the workers ran.
    """
    from repro.dsl.compile import make_runner

    programs = {
        item.source: item.program
        for item in result.candidates
        if item.check_ok and item.program is not None
    }
    resolved = [make_runner(program, requested)[1] for program in programs.values()]
    return len(resolved), sum(1 for backend in resolved if backend != requested)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; worker processes count once they are reaped.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core import RunSpec, run

    root = Path(job["root"])
    warm_store = root / "evalstore"
    specs = [RunSpec.from_dict(spec) for spec in job["specs"]]
    expect = job.get("expect", {})
    checks: Dict[str, bool] = {}

    # One store for every run when set-up fills it, else a cold one per run.
    populate_digests = [
        result_digest(
            run(RunSpec.from_dict(spec), store=root / f"populate-{index}", eval_store=warm_store).result
        )
        for index, spec in enumerate(job["populate"])
    ]

    if job.get("setup_only"):
        # An extra reading of set-up time alone, for invocations with too few
        # timed children to take a median over.
        return {"setup_s": time.time() - job["spawned_at"]}

    tracer = spans.Tracer() if job.get("traced") else None
    # Only the last outcome is kept whole: holding every run's trace and
    # engine alive would show up in peak_rss_mb.
    outcome = None
    results: List[Any] = []
    raised = 0  # candidates of runs that raised: all of them failed
    errors: List[str] = []
    if tracer is not None:
        tracer.install()
    try:
        cpu_before = _cpu_s()
        timed_from = time.time()
        start = time.perf_counter()
        with tracer.span(spans.ROOT_LAYER) if tracer else contextlib.nullcontext():
            for index, spec in enumerate(specs):
                store = warm_store if populate_digests else root / f"evalstore-{index}"
                try:
                    outcome = run(spec, store=root / f"run-{index}", eval_store=store)
                except Exception as exc:  # noqa: BLE001 - a run that raises fails all its candidates
                    errors.append(f"{type(exc).__name__}: {exc}")
                    raised += spec.search["rounds"] * spec.search["candidates_per_round"]
                    continue
                results.append(outcome.result)
        wall_s = time.perf_counter() - start
        cpu_s = _cpu_s() - cpu_before
    finally:
        if tracer is not None:
            tracer.uninstall()
    if outcome is None:
        raise RuntimeError(f"every timed run raised: {errors}")

    # Bookkeeping stays outside the timed region.
    candidates = sum(r.total_candidates for r in results)
    transient = sum(
        1
        for r in results
        for c in r.candidates
        if c.evaluation is not None and c.evaluation.transient
    )
    digests = [result_digest(r) for r in results]
    totals = {
        name: sum(getattr(r, name) for r in results)
        for name in (
            "store_lookups", "store_hits",
            "rung_evaluations", "rung_promotions", "rung_eliminations",
        )
    }
    splits = [cache_hit_split(r) for r in results]
    totals["memo_hits"] = sum(memo for memo, _dedup in splits)
    totals["dedup_hits"] = sum(dedup for _memo, dedup in splits)
    evaluator = outcome.setup.evaluator
    lowered = [lowering_fallbacks(r, evaluator.backend) for r in results]
    totals["lowered_programs"] = sum(programs for programs, _fallbacks in lowered)
    totals["lower_fallbacks"] = sum(fallbacks for _programs, fallbacks in lowered)
    engine_config = outcome.setup.engine.config
    best_scores = [r.best.score for r in results if r.best is not None]

    checks["no_run_raised"] = not errors
    checks["has_winner"] = len(best_scores) == len(results)
    if populate_digests:
        passes = len(digests) // len(populate_digests)
        checks["warm_digest_matches_cold"] = digests == passes * populate_digests
    if expect.get("all_store_hits"):
        checks["all_store_hits"] = (
            totals["store_lookups"] > 0 and totals["store_hits"] == totals["store_lookups"]
        )
    if "backend" in expect:
        # The configured backend is the expected one, and it is what most
        # programs run on; the fallbacks themselves are lower.fallbacks.
        checks["requested_backend"] = (
            evaluator.backend == expect["backend"]
            and 2 * totals["lower_fallbacks"] < totals["lowered_programs"]
        )
    if "executor" in expect:
        checks["requested_executor"] = (
            engine_config.executor == expect["executor"]
            and engine_config.max_workers == expect["max_workers"]
        )

    best_score = statistics.fmean(best_scores) if best_scores else None
    sample: Dict[str, Any] = {
        "workload": job["workload"],
        "traced": bool(tracer),
        "setup_s": timed_from - job["spawned_at"],
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "candidates": candidates,
        "candidates_per_s": candidates / wall_s,
        "attempted": candidates + raised,
        "failed": transient + raised,
        # Mean over the timed runs' winners.
        "best_score": best_score,
        "best_score_margin": (
            best_score - evaluator.failure_score if best_score is not None else None
        ),
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "errors": errors,
    }
    if tracer is not None:
        checks["wrappers_restored"] = not spans.leftover_wrappers()
        sample["layers"] = layer_metrics(tracer, totals, wall_s)
        if job.get("probe"):
            probe_metrics, agreed = probe.run_probe(outcome, root)
            checks["probe_backends_agree"] = agreed
            sample["layers"].update(probe_metrics)
    sample["checks"] = checks
    return sample


def layer_metrics(
    tracer: spans.Tracer, totals: Dict[str, int], wall_s: float
) -> Dict[str, float]:
    """The traced run's per-layer metrics, by their BENCHMARK.json names."""
    budget = tracer.budget()
    empty = {"count": 0, "busy_s": 0.0, "self_s": 0.0}

    def row(layer: str) -> Dict[str, float]:
        return budget.get(layer, empty)

    def counter(layer: str, name: str) -> float:
        return tracer.counters.get(layer, {}).get(name, 0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    span_count = len(tracer.spans)
    metrics = {
        "generate.calls": row("generate")["count"],
        "generate.busy_s": row("generate")["busy_s"],
        "generate.candidates": counter("generate", "candidates"),
        "repair.calls": row("repair")["count"],
        "repair.busy_s": row("repair")["busy_s"],
        "check.calls": row("check")["count"],
        "check.busy_s": row("check")["busy_s"],
        "check.pass_share": share(counter("check", "passed"), row("check")["count"]),
        "engine.batches": row("engine")["count"],
        "engine.self_s": row("engine")["self_s"],
        "engine.memo_hits": totals["memo_hits"],
        "engine.dedup_hits": totals["dedup_hits"],
        "screen.checks": row("screen")["count"],
        "screen.busy_s": row("screen")["busy_s"],
        "screen.screened": counter("screen", "screened"),
        "ladder.rung_evaluations": totals["rung_evaluations"],
        "ladder.promotions": totals["rung_promotions"],
        "ladder.eliminations": totals["rung_eliminations"],
        "store.get_calls": row("store.get")["count"],
        "store.get_busy_s": row("store.get")["busy_s"],
        "store.hit_share": share(counter("store.get", "hits"), row("store.get")["count"]),
        "store.put_calls": row("store.put")["count"],
        "store.put_busy_s": row("store.put")["busy_s"],
        "executors.units": counter("executors", "units"),
        "executors.busy_s": row("executors")["busy_s"],
        "evaluate.calls": row("evaluate")["count"],
        "evaluate.busy_s": row("evaluate")["busy_s"],
        "evaluate.failed": counter("evaluate", "failed"),
        "lower.calls": row("lower")["count"],
        "lower.busy_s": row("lower")["busy_s"],
        "lower.fallbacks": totals["lower_fallbacks"],
        "simulate.calls": row("simulate")["count"],
        "simulate.busy_s": row("simulate")["busy_s"],
        "simulate.work": counter("simulate", "work"),
        "simulate.work_per_s": share(counter("simulate", "work"), row("simulate")["busy_s"]),
        "write.calls": row("write")["count"],
        "write.busy_s": row("write")["busy_s"],
        "write.bytes": counter("write", "bytes"),
        "trace_build.busy_s": row("trace_build")["busy_s"],
        "build.busy_s": row("build")["busy_s"],
        "search.self_s": row("search")["self_s"],
        "certify.busy_s": row("certify")["busy_s"],
        "trace.coverage": tracer.coverage(),
        "trace.wall_s": wall_s,
        "trace.spans": span_count,
        "trace.span_cost_share": share(span_count * spans.span_cost_s(), wall_s),
    }
    return metrics


def main() -> int:
    job = json.load(sys.stdin)
    sample = run_job(job)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
