"""Runtime self-test: every paper claim checked in one call.

``python -m repro selftest`` reruns the reproduction's ground truth --
the analysis results, partition structures, transformation facts and
performance-shape claims of the paper -- and prints a PASS/FAIL line
per claim.  A downstream user can run it after install to confirm the
reproduction is intact on their machine.

Plans are built through the shared pass pipeline with
:meth:`repro.pipeline.PipelineConfig.from_flags`, so every claim
exercises exactly the strategy/elimination plumbing the CLI uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class Claim:
    section: str
    statement: str
    check: Callable[[], bool]


def _claims() -> list[Claim]:
    from repro.analysis import (
        analyze_redundancy,
        build_reference_graph,
        data_referenced_vectors,
        extract_references,
        is_fully_duplicable,
    )
    from repro.baseline import hyperplane_partition
    from repro.lang import catalog
    from repro.machine.cost import TRANSPUTER
    from repro.mapping import assign_blocks, shape_grid, workload_stats
    from repro.perf import simulate_l5, simulate_l5_doubleprime, simulate_l5_prime
    from repro.pipeline import PipelineConfig, run_pipeline
    from repro.ratlinalg import Subspace
    from repro.runtime.verify import verify_plan
    from repro.transform import transform_nest

    def build_plan(loop, duplicate=False, duplicate_arrays=None,
                   eliminate=False):
        # exactly the CLI's flag semantics, via the shared pipeline config
        config = PipelineConfig.from_flags(
            duplicate=duplicate, duplicate_arrays=duplicate_arrays,
            eliminate=eliminate)
        return run_pipeline(loop, config, upto="partition").plan

    def drvs(loop, array):
        model = extract_references(loop)
        return [tuple(int(x) for x in d.vector)
                for d in data_referenced_vectors(model.arrays[array])]

    claims: list[Claim] = [
        Claim("II", "L1 data-referenced vectors are (2,1) for A, (1,1) for C",
              lambda: drvs(catalog.l1(), "A") == [(2, 1)]
              and drvs(catalog.l1(), "C") == [(1, 1)]),
        Claim("III.A", "L1: Psi = span{(1,1)} with 7 blocks",
              lambda: (lambda p: p.psi == Subspace(2, [[1, 1]])
                       and p.num_blocks == 7)(build_plan(catalog.l1()))),
        Claim("III.A", "L1 verifies: zero communication, exact result",
              lambda: verify_plan(build_plan(catalog.l1())).ok),
        Claim("III.A", "L2 is sequential without duplication",
              lambda: build_plan(catalog.l2()).num_blocks == 1),
        Claim("III.B", "L2's arrays are fully duplicable",
              lambda: (lambda m: is_fully_duplicable(m.arrays["A"], m.space)
                       and is_fully_duplicable(m.arrays["B"], m.space))(
                  extract_references(catalog.l2()))),
        Claim("III.B", "L2 duplicate strategy: 16 parallel blocks, exact",
              lambda: (lambda p: p.num_blocks == 16 and verify_plan(p).ok)(
                  build_plan(catalog.l2(), duplicate=True))),
        Claim("III.C", "L3: N(S1) = {(i,4)}",
              lambda: analyze_redundancy(
                  extract_references(catalog.l3())).n_set(0)
              == {(i, 4) for i in range(1, 5)}),
        Claim("III.C", "L3: G^A has 6 edges (Fig. 7)",
              lambda: len(build_reference_graph(
                  extract_references(catalog.l3()), "A").edges) == 6),
        Claim("III.C", "L3 minimal duplicate: Psi = span{(1,0)}, 4 blocks",
              lambda: (lambda p: p.psi == Subspace(2, [[1, 0]])
                       and p.num_blocks == 4)(
                  build_plan(catalog.l3(), duplicate=True, eliminate=True))),
        Claim("III.C", "L3 elimination skips 12 computations, stays exact",
              lambda: (lambda r: r.ok and r.skipped_computations == 12)(
                  verify_plan(build_plan(catalog.l3(), duplicate=True,
                                         eliminate=True)))),
        Claim("III.A", "R&S baseline inapplicable to L1 (not For-all)",
              lambda: not hyperplane_partition(catalog.l1()).applicable),
        Claim("IV", "L4: Psi = span{(1,-1,1)}, 37 forall points",
              lambda: (lambda p: p.psi == Subspace(3, [[1, -1, 1]])
                       and p.num_blocks == 37)(build_plan(catalog.l4()))),
        Claim("IV", "L4' on a 2x2 grid: 16 iterations per processor",
              lambda: (lambda t: workload_stats(
                  assign_blocks(t, shape_grid(4, t.k))).loads
                  == {(0, 0): 16, (0, 1): 16, (1, 0): 16, (1, 1): 16})(
                  transform_nest(catalog.l4(),
                                 build_plan(catalog.l4()).psi))),
        Claim("IV", "L5 strategies: 1 / 4 / 16 blocks (L5, L5', L5'')",
              lambda: build_plan(catalog.l5()).num_blocks == 1
              and build_plan(catalog.l5(),
                             duplicate_arrays={"B"}).num_blocks == 4
              and build_plan(catalog.l5(), duplicate=True).num_blocks == 16),
        Claim("IV", "Table I shape: L5'' < L5' < L5 at M=64, p=16",
              lambda: simulate_l5_doubleprime(64, 16).total_time
              < simulate_l5_prime(64, 16).total_time
              < simulate_l5(64).total_time),
        Claim("IV", "Table I calibration: sequential M=256 within 2% of paper",
              lambda: abs(simulate_l5(256).total_time / 161.2546 - 1) < 0.02),
        Claim("IV", "Table II shape: speedup grows with M, bounded by p",
              lambda: (lambda sp: sp[0] < sp[1] < sp[2] < 16)(
                  [simulate_l5(m).total_time
                   / simulate_l5_doubleprime(m, 16).total_time
                   for m in (16, 64, 256)])),
    ]
    return claims


def run_selftest(out=None) -> int:
    """Run every claim; returns the number of failures."""
    import sys

    out = out or sys.stdout
    failures = 0
    for claim in _claims():
        try:
            ok = claim.check()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            ok = False
            print(f"[ERROR] {claim.section}: {claim.statement} ({exc})",
                  file=out)
            failures += 1
            continue
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"[{status}] {claim.section}: {claim.statement}", file=out)
    total = len(_claims())
    print(f"\n{total - failures}/{total} claims reproduced", file=out)
    return failures
