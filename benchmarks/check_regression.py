"""Benchmark-regression gate: compare BENCH_engine.json against a baseline.

The benchmark suite writes its headline numbers (requests/s, candidates/s,
warm-start speedups, hit rates) to ``BENCH_engine.json`` at the repo root.
Until now a rerun silently overwrote that file; this comparator is what
turns the committed file into a guarded baseline:

    python benchmarks/check_regression.py \
        --baseline /tmp/baseline.json --current BENCH_engine.json

exits non-zero when any tracked metric regresses by more than ``--threshold``
(default 20%) versus the baseline.  The nightly ``benchmark-nightly``
workflow snapshots the committed file before running the suite and feeds
both to this script; it is equally runnable locally (snapshot, rerun, compare).

Tracked metrics are the *rate-shaped* numbers -- throughputs, speedups, hit
rates -- where direction is unambiguous (higher is better).  Raw wall-clock
seconds (``*_s``) are deliberately untracked: they also vary with workload
scale knobs and machine load, and every one of them already has a rate or
speedup twin that is tracked.  Counters (``screened_out``, rung lists, the
``bench_full`` flag) are context, not metrics.  The ``static_screen``
section follows the same pattern: ``eval_over_screen_speedup`` (how many
times cheaper screening a batch is than one rung-0 evaluation of it) is the
gated metric; its ``screen_s`` / ``rung0_eval_s`` inputs are untracked
wall-clock context.

Absolute throughputs (``*_per_sec``) are only comparable across runs of the
same machine class; a baseline committed from one machine says nothing about
a 20% delta on different hardware.  ``--profile relative`` therefore
restricts the gate to machine-relative metrics (speedups and hit rates,
which divide out the hardware) -- that is what CI uses, since the committed
baseline and the runner are different machine classes.  The default
``--profile all`` additionally gates the absolute throughputs and is the
right choice locally (snapshot, rerun, compare on one machine).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

#: Metric-name suffixes that make a numeric value a tracked, higher-is-better
#: metric.  The ``relative`` subset divides hardware out (speedups, rates)
#: and is safe to gate across machine classes; ``_per_sec`` throughputs are
#: absolute and only gated under ``--profile all``.
RELATIVE_SUFFIXES = ("_rate", "speedup")
TRACKED_SUFFIXES = ("_per_sec",) + RELATIVE_SUFFIXES

#: Explicitly untracked suffixes (documented above); anything numeric that is
#: neither tracked nor listed here is reported as "untracked" so a new
#: benchmark metric cannot slip past review unnoticed.
UNTRACKED_SUFFIXES = ("_s", "_out", "_full")


def flatten(data: dict, prefix: str = "") -> Iterator[Tuple[str, object]]:
    for key, value in sorted(data.items()):
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from flatten(value, path)
        else:
            yield path, value


def tracked_metrics(data: dict, profile: str = "all") -> Dict[str, float]:
    suffixes = RELATIVE_SUFFIXES if profile == "relative" else TRACKED_SUFFIXES
    metrics: Dict[str, float] = {}
    for path, value in flatten(data):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if path.endswith(suffixes):
            metrics[path] = float(value)
    return metrics


def compare(
    baseline: dict, current: dict, threshold: float, profile: str = "all"
) -> Tuple[list, list, list, list]:
    """Returns ``(rows, regressions, missing, notes)`` for the two metric sets.

    ``rows`` is every comparable tracked metric as
    ``(name, base, now, delta)``; ``regressions`` the subset beyond the
    threshold; ``missing`` the baseline metrics absent from the current run
    (a benchmark that stops emitting a metric must fail the gate, not
    silently un-gate itself); ``notes`` human-readable remarks.
    """
    base_metrics = tracked_metrics(baseline, profile)
    current_metrics = tracked_metrics(current, profile)
    rows, regressions, missing, notes = [], [], [], []
    for name, base in sorted(base_metrics.items()):
        if name not in current_metrics:
            missing.append(name)
            continue
        now = current_metrics[name]
        delta = (now - base) / base if base else 0.0
        rows.append((name, base, now, delta))
        if delta < -threshold:
            regressions.append((name, base, now, delta))
    for name in sorted(set(current_metrics) - set(base_metrics)):
        notes.append(f"new metric {name} (no baseline; not gated)")
    for path, value in flatten(current):
        if (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and not path.endswith(TRACKED_SUFFIXES)
            and not path.endswith(UNTRACKED_SUFFIXES)
        ):
            notes.append(f"numeric metric {path} matches no tracked/untracked suffix")
    return rows, regressions, missing, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a tracked benchmark metric regresses vs a baseline."
    )
    parser.add_argument(
        "--baseline",
        required=True,
        help="baseline BENCH_engine.json (e.g. a snapshot of the committed file)",
    )
    parser.add_argument(
        "--current",
        default="BENCH_engine.json",
        help="freshly generated BENCH_engine.json (default: ./BENCH_engine.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum tolerated fractional regression (default: 0.20 = 20%%)",
    )
    parser.add_argument(
        "--profile",
        choices=["all", "relative"],
        default="all",
        help="'all' gates every tracked metric (same-machine comparisons); "
        "'relative' gates only speedups/hit rates (cross-machine, e.g. CI)",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="tolerate baseline metrics absent from the current run "
        "(default: a vanished metric fails the gate -- a benchmark that "
        "stops reporting must not silently un-gate itself)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 1:
        parser.error("--threshold must be a fraction in (0, 1)")

    try:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        current = json.loads(Path(args.current).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if baseline.get("bench_full") != current.get("bench_full"):
        # Scale mismatch (a full baseline vs a smoke run, or vice versa):
        # absolute throughputs are not comparable, but a large regression in
        # a machine-relative metric is still worth surfacing -- warn and
        # continue rather than refuse.
        print(
            "warning: baseline and current were produced at different "
            f"benchmark scales (bench_full {baseline.get('bench_full')} vs "
            f"{current.get('bench_full')}); absolute throughput deltas are "
            "not meaningful across scales -- interpret with care",
            file=sys.stderr,
        )

    rows, regressions, missing, notes = compare(
        baseline, current, args.threshold, args.profile
    )
    if not rows:
        print("error: no tracked metrics in common with the baseline", file=sys.stderr)
        return 2
    width = max(len(name) for name, _b, _n, _d in rows)
    print(f"{'metric':<{width}} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name, base, now, delta in rows:
        flag = "  << REGRESSION" if delta < -args.threshold else ""
        print(f"{name:<{width}} {base:>12.3f} {now:>12.3f} {delta:>+7.1%}{flag}")
    for name in missing:
        suffix = " (tolerated: --allow-missing)" if args.allow_missing else ""
        print(f"missing: {name} absent from current run{suffix}")
    for note in notes:
        print(f"note: {note}")
    failures = []
    if regressions:
        failures.append(
            f"{len(regressions)} tracked metric(s) regressed more than "
            f"{args.threshold:.0%}"
        )
    if missing and not args.allow_missing:
        failures.append(
            f"{len(missing)} baseline metric(s) missing from the current run"
        )
    if failures:
        print(f"\n{'; '.join(failures)} vs {args.baseline}", file=sys.stderr)
        return 1
    print(f"\nall {len(rows)} tracked metrics within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
