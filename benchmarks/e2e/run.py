"""The repo benchmark: four end-to-end ``run(spec)`` workloads, one client.

Two ways to call it, both from the root of a checkout::

    # one workload, time-boxed -- what BENCHMARK.json's driver runs
    python3 benchmarks/e2e/run.py --workload caching-warm --seed 3 --seconds 28 --trace 0

    # every workload: k = 5 such invocations interleaved round-robin, then a traced one each
    python3 benchmarks/e2e/run.py [--seed N] [--out FILE]

The load is a closed loop with one client: each timed run is one fresh child
interpreter (:mod:`child`), launched only after the previous one has ended.
One time-boxed :func:`invocation` is the only way anything is sampled: its
children are all untraced (end-to-end metrics) or all run with the wrappers
of :mod:`spans` installed (per-layer metrics), and each value it reports is
the median over its children.  The second form repeats that invocation, so
its numbers and the driver's are the same measurement.

Either form exits non-zero if a check failed.  The first prints one JSON
object as its last line (``correct``, ``attempted``, ``failed``,
``metrics``); the second prints every metric of every workload by name with
its unit, median, min, max and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
#: Every run, store and scratch directory lives under one temporary root here
#: (inside the checkout, ignored by git) and is removed on exit.
WORK_PARENT = REPO_ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
#: Fewest set-ups an untraced invocation reports the median ``setup_s`` over.
SETUP_REPEATS = 3
#: k: untraced invocations per workload in the every-workload form.
REPEATS = 5

Sample = Dict[str, Any]


def load_contract() -> Dict[str, Any]:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- children ------------------------------------------------------------------------


def run_child(job: Dict[str, Any], work_root: Path) -> Sample:
    """Run one job in a fresh interpreter and return its sample.

    The child gets its own session, so that any worker process it leaves
    behind can be killed with it; nothing this function starts outlives it.
    """
    root = Path(tempfile.mkdtemp(prefix=f"{job['workload']}-", dir=work_root))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR), str(BENCH_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["TMPDIR"] = str(root)
    job = {**job, "root": str(root), "spawned_at": time.time()}
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(root, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(
            f"child for {job['workload']} exited {proc.returncode}:\n{err[-4000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


@contextlib.contextmanager
def work_root() -> Iterator[Path]:
    WORK_PARENT.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="e2e-", dir=WORK_PARENT))
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()  # only when no other invocation is using it


# -- one invocation -------------------------------------------------------------------


def verdict(samples: List[Sample]) -> Tuple[bool, int, int, List[str]]:
    """``(correct, attempted, failed, reasons)`` over one invocation's children."""
    reasons = [
        f"{s['workload']}: check {name} failed"
        for s in samples
        for name, ok in s["checks"].items()
        if not ok
    ]
    reasons += [f"{s['workload']}: {e}" for s in samples for e in s["errors"]]
    if len({s["digest"] for s in samples}) != 1:
        reasons.append(f"{samples[0]['workload']}: children disagree on the result digest")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    return not reasons, attempted, failed, reasons


def invocation(
    workload: str, seed: int, seconds: float, trace: bool, contract: Dict[str, Any]
) -> Dict[str, Any]:
    """Children of one workload, one at a time, for about ``seconds`` seconds.

    All untraced, or all traced (the first also runs the layer probe).  One
    child always runs; another starts only while the mean so far still fits
    in the budget.  An untraced invocation that timed fewer than
    :data:`SETUP_REPEATS` children sets up that many times in all, without a
    timed region, so that ``setup_s`` is a median too.  Each declared metric
    of the group is reported as the median over the children, beside the
    children's own readings.
    """
    start = time.perf_counter()
    samples: List[Sample] = []
    setups: List[float] = []
    with work_root() as root:
        while True:
            job = workloads.build_job(workload, seed)
            job["traced"] = trace
            job["probe"] = trace and not samples
            samples.append(run_child(job, root))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(samples) > seconds:
                break
        for _ in range(0 if trace else SETUP_REPEATS - len(samples)):
            job = workloads.build_job(workload, seed)
            job["setup_only"] = True
            setups.append(run_child(job, root)["setup_s"])

    if trace:
        declared = contract["per_layer"]
        series = {
            m["name"]: [s["layers"][m["name"]] for s in samples if m["name"] in s["layers"]]
            for m in declared
        }
    else:
        declared = contract["end_to_end"]
        series = {m["name"]: [s[m["name"]] for s in samples] for m in declared}
        series["setup_s"] += setups
    correct, attempted, failed, reasons = verdict(samples)
    return {
        "workload": workload,
        "traced": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "digest": samples[0]["digest"],
        "best_score": samples[0]["best_score"],
        "metrics": {
            m["name"]: {
                "value": statistics.median(series[m["name"]]),
                "unit": m["unit"],
                "samples": series[m["name"]],
            }
            for m in declared
        },
    }


# -- every workload ------------------------------------------------------------------


def suite(seed: int, seconds: float, contract: Dict[str, Any]) -> Dict[str, List[Dict[str, Any]]]:
    """Per workload: :data:`REPEATS` untraced invocations, interleaved
    round-robin over the workloads, then one traced invocation."""
    names = workloads.workload_names()
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for trace, rounds in ((False, REPEATS), (True, 1)):
        for _ in range(rounds):
            for name in names:
                runs[name].append(invocation(name, seed, seconds, trace, contract))
                print(".", end="", file=sys.stderr, flush=True)
    print(file=sys.stderr)
    return runs


def _stat(values: List[float], unit: str) -> Dict[str, Any]:
    return {
        "value": statistics.median(values),
        "unit": unit,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "samples": values,
    }


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One workload's report entry from its invocations (the traced one last)."""
    *untraced, traced = runs
    reasons = [reason for inv in runs for reason in inv["reasons"]]
    if len({inv["digest"] for inv in runs}) != 1:
        reasons.append(f"{traced['workload']}: repeats disagree on the result digest")
    attempted = sum(inv["attempted"] for inv in runs)
    failed = sum(inv["failed"] for inv in runs)
    end_to_end = {
        name: _stat([inv["metrics"][name]["value"] for inv in untraced], metric["unit"])
        for name, metric in untraced[0]["metrics"].items()
    }
    per_layer = {
        name: _stat(metric["samples"], metric["unit"])
        for name, metric in traced["metrics"].items()
    }
    # The guide's tracing overhead: traced against untraced wall.  Only here
    # are both kinds of run at hand; an invocation has one kind.
    untraced_wall = end_to_end["wall_s"]["value"]
    per_layer["trace.overhead_share"] = _stat(
        [(per_layer["trace.wall_s"]["value"] - untraced_wall) / untraced_wall], "ratio"
    )
    return {
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "digest": traced["digest"],
        "best_score": traced["best_score"],
        "reasons": reasons,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def environment(seed: int, seconds: float) -> Dict[str, Any]:
    """What two result files must share to be comparable."""
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": commit,
        "seed": seed,
        "k": REPEATS,
        "seconds": seconds,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir():
        print(f"no program to measure: {SRC_DIR / 'repro'} is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]

    if args.workload is not None:
        result = invocation(args.workload, args.seed, seconds, bool(args.trace), contract)
        for reason in result["reasons"]:
            print(reason, file=sys.stderr)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in result["metrics"].items()
            },
        }))
        return 0 if result["correct"] else 1

    runs = suite(args.seed, seconds, contract)
    report: Dict[str, Any] = {
        "environment": environment(args.seed, seconds),
        "workloads": {name: summarise(invocations) for name, invocations in runs.items()},
        "invocations": runs,
    }
    for name, entry in report["workloads"].items():
        print(f"\n== {name}: {'ok' if entry['correct'] else 'FAILED'}  "
              f"attempted {entry['attempted']} failed {entry['failed']}  "
              f"digest {entry['digest'][:12]}")
        for reason in entry["reasons"]:
            print(f"   ! {reason}")
        for group in ("end_to_end", "per_layer"):
            for metric, stat in entry[group].items():
                print(f"{metric:48s} {stat['value']:>16.6g} {stat['unit']:<8s}"
                      f" [{stat['min']:.6g} .. {stat['max']:.6g}] n={stat['n']}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(entry["correct"] for entry in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
