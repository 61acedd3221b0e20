#!/usr/bin/env python3
"""Compare two sets of spine runs against the bounds in BENCHMARK.json.

    python benchmarks/spine/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two sets of the
same commit) and ``B`` the candidate; both are ``results.json`` files
written by ``run.py`` (use ``--runs N`` so a set has quartiles).  For
every (workload, end-to-end metric) the tool prints both medians, the
relative difference with A as its base, and a verdict:

* ``regressed``  - B's median is worse than A's by more than the bound;
* ``unresolved`` - not regressed, but the quartile spread of one of the
  two sets is itself wider than the bound, so "unchanged" cannot be
  claimed;
* ``ok``         - neither.

Exits non-zero on any ``regressed`` and on any rise in the share of
failed operations.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

from hostref import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                        "BENCHMARK.json")


def load(path: str) -> Tuple[str, Dict[str, Dict[str, List[float]]],
                             Dict[str, Tuple[int, int]]]:
    """``(label, values[workload][metric], (attempted, failed)[workload])``
    from the untraced runs of one results file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    values: Dict[str, Dict[str, List[float]]] = {}
    counts: Dict[str, Tuple[int, int]] = {}
    for run in data["runs"]:
        if run["trace"]:
            continue
        result = run["result"]
        slot = values.setdefault(run["workload"], {})
        for name, entry in result["metrics"].items():
            slot.setdefault(name, []).append(entry["value"])
        attempted, failed = counts.get(run["workload"], (0, 0))
        counts[run["workload"]] = (attempted + result["attempted"],
                                   failed + result["failed"])
    return data["label"], values, counts


def verdict(a: List[float], b: List[float], metric: Dict[str, Any]):
    """``(median A, median B, relative difference, spread, verdict)``."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    relative = (med_b - med_a) / med_a
    worse = relative if metric["better"] == "lower" else -relative
    spread = max(quartile_spread(a), quartile_spread(b))
    if worse > metric["bound"]:
        word = "regressed"
    elif spread > metric["bound"]:
        word = "unresolved"
    else:
        word = "ok"
    return med_a, med_b, relative, spread, word


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(MANIFEST, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    label_a, values_a, counts_a = load(argv[0])
    label_b, values_b, counts_b = load(argv[1])
    if label_a != label_b:
        print(f"compare: a {label_a!r} set and a {label_b!r} set do not "
              "compare", file=sys.stderr)
        return 2
    bad = 0
    print(f"{'workload':<15} {'metric':<13} {'A median':>12} {'B median':>12}"
          f" {'B vs A':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(values_a) & set(values_b)):
        for metric in metrics:
            name = metric["name"]
            a = values_a[workload].get(name)
            b = values_b[workload].get(name)
            if not a or not b:
                continue
            med_a, med_b, relative, spread, word = verdict(a, b, metric)
            bad += word == "regressed"
            print(f"{workload:<15} {name:<13} {med_a:>12.5g} {med_b:>12.5g}"
                  f" {relative:>+8.1%} {spread:>7.1%} {metric['bound']:>6.0%}"
                  f"  {word}  (n={len(a)},{len(b)}; base A)")
        att_a, fail_a = counts_a[workload]
        att_b, fail_b = counts_b[workload]
        share_a, share_b = fail_a / att_a, fail_b / att_b
        rose = share_b > share_a
        bad += rose
        print(f"{workload:<15} {'failed_share':<13} {share_a:>12.5g} "
              f"{share_b:>12.5g} {'':>8} {'':>7} {'0':>6}  "
              f"{'ROSE' if rose else 'ok'}  ({fail_a}/{att_a} -> "
              f"{fail_b}/{att_b})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
