"""Compare two ledger files under the bounds of ``BENCHMARK.json``.

    python benchmarks/ledger/compare.py A.json B.json

``A`` is the parent, ``B`` the change; both come from ``run.py --runs K
--out FILE`` (and, for the counts, ``--traced``).  One row per
(end-to-end metric, workload), each with both medians and quartiles
and one verdict:

- ``worse``       B's median is worse than A's by more than the bound;
- ``unresolved``  the run-to-run spread (inter-quartile distance over
                  the median) of either side exceeds the bound, and
                  the runs of one side do not all beat the other's;
- ``better``      B's median is better by more than A's own spread;
- ``same``        otherwise.

``fail_ratio`` (failed over attempted ops) may not rise at all.  Every
per-layer metric whose unit is ``count`` must read exactly the same in
every run of both files.  Exit status is non-zero on any ``worse`` row
or unequal count.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent.parent


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = median(a), median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    if sign > 0:
        b_wins, a_wins = max(b) < min(a), max(a) < min(b)
    else:
        b_wins, a_wins = min(b) > max(a), min(a) > max(b)
    if max(spread(a), spread(b)) > bound:
        if b_wins:
            return "better"
        if a_wins and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(a) and worse_by < 0.0:
        return "better"
    return "same"


def _by_workload(runs: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in runs:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def _values(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records]


def compare(spec: dict, a_runs: list[dict], b_runs: list[dict],
            out=sys.stdout) -> int:
    """Print the rows; -> number of failing rows."""
    bad = 0
    a_e2e, b_e2e = _by_workload(a_runs, 0), _by_workload(b_runs, 0)
    print(f"{'metric':12s} {'workload':20s} {'verdict':10s} "
          f"{'A q1/median/q3 (spread)':38s} {'B q1/median/q3 (spread)':38s} "
          "bound", file=out)
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = a_e2e.get(workload), b_e2e.get(workload)
        if not a or not b:
            continue
        for m in spec["end_to_end"]:
            va, vb = _values(a, m["name"]), _values(b, m["name"])
            v = verdict(va, vb, m["better"], m["bound"])
            bad += v == "worse"
            qa, qb = (
                "/".join(f"{x:.4g}" for x in _quartiles(v))
                + f" ({spread(v):.1%})" for v in (va, vb))
            print(f"{m['name']:12s} {workload:20s} {v:10s} {qa:38s} "
                  f"{qb:38s} {m['bound']:.0%}", file=out)
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        v = "worse" if fb > fa else "same"
        bad += v == "worse"
        print(f"{'fail_ratio':12s} {workload:20s} {v:10s} {fa:<38.5g} "
              f"{fb:<38.5g} may not rise", file=out)

    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    a_tr, b_tr = _by_workload(a_runs, 1), _by_workload(b_runs, 1)
    for workload in sorted(set(a_tr) | set(b_tr)):
        records = a_tr.get(workload, []) + b_tr.get(workload, [])
        for name in counts:
            seen = sorted(set(_values(records, name)))
            if len(seen) > 1:
                bad += 1
                print(f"count {name} on {workload} does not repeat: "
                      f"{seen}", file=out)
    if counts and (a_tr or b_tr):
        print(f"{len(counts)} exact-repeat counts checked on "
              f"{len(set(a_tr) | set(b_tr))} workloads", file=out)
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(p).read_text())["runs"] for p in argv)
    return 1 if compare(spec, a, b) else 0


if __name__ == "__main__":
    raise SystemExit(main())
