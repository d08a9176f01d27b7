"""Compare two result files of ``run.py --out`` by BENCHMARK.json's rules.

    python3 benchmarks/e2e/compare.py parent.json change.json

For every workload and end-to-end metric the change's median is set against
the parent's, using the metric's own direction and bound.  A pairing is

``regressed``   worse than the parent's median by more than the bound;
``improved``    every run of the change reads better than every run of the parent;
``unresolved``  neither, but the run-to-run spread of either side (quartile
                distance over median) is wider than the bound, so "no change"
                cannot be told from a change of that size;
``unchanged``   otherwise.

Result digests and ``failed`` counts repeat exactly for a fixed seed, so any
difference in them is reported as such.  Exits 1 if anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]


def spread(samples: List[float]) -> float:
    """Quartile distance as a share of the median (0 for a single sample)."""
    if len(samples) < 2:
        return 0.0
    first, _median, third = statistics.quantiles(samples, n=4)
    return abs(third - first) / abs(statistics.median(samples))


def judge(parent: Dict[str, Any], change: Dict[str, Any], better: str, bound: float) -> Tuple[str, float]:
    """``(status, worsening)``; worsening is the share of the parent's median
    by which the change's median is worse (negative when it is better)."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (change["value"] - parent["value"]) / abs(parent["value"])
    if worsening > bound:
        return "regressed", worsening
    if better == "lower":
        wins = max(change["samples"]) < min(parent["samples"])
    else:
        wins = min(change["samples"]) > max(parent["samples"])
    if wins:
        return "improved", worsening
    if max(spread(parent["samples"]), spread(change["samples"])) > bound:
        return "unresolved", worsening
    return "unchanged", worsening


def compare(parent: Dict[str, Any], change: Dict[str, Any], contract: Dict[str, Any]) -> List[str]:
    """Print the comparison; return the regressed pairings."""
    regressed = []
    for key in ("nproc", "python", "numpy", "seed", "k", "seconds"):
        if parent["environment"].get(key) != change["environment"].get(key):
            print(f"! not comparable: {key} differs "
                  f"({parent['environment'].get(key)} vs {change['environment'].get(key)})")
    for name in (w["name"] for w in contract["workloads"]):
        old, new = parent["workloads"][name], change["workloads"][name]
        same = "identical" if old["digest"] == new["digest"] else "CHANGED"
        print(f"\n== {name}: digest {same}, best_score {old['best_score']!r} -> "
              f"{new['best_score']!r}, failed {old['failed']}/{old['attempted']} -> "
              f"{new['failed']}/{new['attempted']}")
        if new["failed"] > old["failed"] or (old["correct"] and not new["correct"]):
            regressed.append(f"{name}: more failures or a failed check")
        for metric in contract["end_to_end"]:
            a, b = old["end_to_end"][metric["name"]], new["end_to_end"][metric["name"]]
            status, worsening = judge(a, b, metric["better"], metric["bound"])
            print(f"{metric['name']:20s} {a['value']:>12.6g} [{a['min']:.6g}..{a['max']:.6g}] -> "
                  f"{b['value']:>12.6g} [{b['min']:.6g}..{b['max']:.6g}] {metric['unit']:<6s} "
                  f"{-worsening:+.1%} better, bound {metric['bound']:.0%}: {status}")
            if status == "regressed":
                regressed.append(f"{name}: {metric['name']}")
    return regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    regressed = compare(parent, change, contract)
    for pairing in regressed:
        print(f"REGRESSED {pairing}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
