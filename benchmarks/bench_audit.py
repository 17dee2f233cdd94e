"""Communication-audit benchmark: correctness assertions + cost bound.

The static audit replays every reference of a plan analytically, so it
scales with ``iterations x references`` -- the same work one sequential
execution does, minus the arithmetic.  This bench pins two properties
on the Theorem 2 matmul workload (``catalog.matmul``):

1. the audit *certifies* the plan (zero cross-block accesses, exact
   read/write totals for the n^3 matmul reference pattern), and
2. the static replay costs at most ``AUDIT_CEILING`` times one
   interpreted sequential run of the same nest -- auditing a plan must
   stay in the same cost class as executing it once (the audit pays
   extra per access for footprint sets, attribution bookkeeping and
   heatmap counts, so a constant factor over the interpreter is
   expected; runaway asymptotics are not).

Run under pytest (``--benchmark-disable`` for assertions only) or
directly: ``python benchmarks/bench_audit.py``.
"""

from functools import lru_cache
from time import perf_counter

from repro.core import Strategy, build_plan
from repro.lang.catalog import matmul
from repro.obs.audit import audit_plan, inject_violation
from repro.runtime import make_arrays, run_sequential

#: static audit wall time / one sequential interpreted run, upper bound
#: (measured ~10x locally; headroom for CI jitter)
AUDIT_CEILING = 30.0

MATMUL_N = 16


@lru_cache(maxsize=None)
def measure():
    plan = build_plan(matmul(MATMUL_N), strategy=Strategy.DUPLICATE)

    audit_s = float("inf")
    report = None
    for _ in range(2):
        t0 = perf_counter()
        report = audit_plan(plan, run_engines=False)
        audit_s = min(audit_s, perf_counter() - t0)

    seq_s = float("inf")
    for _ in range(2):
        arrays = make_arrays(plan.model)
        t0 = perf_counter()
        run_sequential(plan.model.nest, arrays)
        seq_s = min(seq_s, perf_counter() - t0)

    return plan, report, audit_s, seq_s


def test_audit_certifies_matmul(benchmark):
    plan, report, audit_s, seq_s = measure()
    benchmark(lambda: audit_plan(plan, run_engines=False))
    n = MATMUL_N
    assert report.certified
    assert report.cross_block_accesses == 0
    assert report.theorem == 2
    assert report.executed_iterations == n ** 3
    assert report.total_writes == n ** 3        # one store per iteration
    assert report.total_reads == 3 * n ** 3     # C, A, B loads
    benchmark.extra_info.update(
        audit_ms=round(audit_s * 1e3, 3),
        sequential_ms=round(seq_s * 1e3, 3),
        ratio=round(audit_s / seq_s, 2),
    )


def test_audit_cost_is_bounded():
    _, _, audit_s, seq_s = measure()
    ratio = audit_s / seq_s
    assert ratio < AUDIT_CEILING, (
        f"static audit took {ratio:.1f}x one sequential run "
        f"(ceiling {AUDIT_CEILING}x): {audit_s * 1e3:.1f}ms vs "
        f"{seq_s * 1e3:.1f}ms")


def test_audit_detects_injected_violation():
    plan, _, _, _ = measure()
    broken = audit_plan(inject_violation(plan), run_engines=False)
    assert not broken.certified
    assert broken.cross_block_accesses > 0
    assert broken.violations


def main():
    _, report, audit_s, seq_s = measure()
    print(f"audit:      {audit_s * 1e3:8.3f} ms  ({report.verdict()})")
    print(f"sequential: {seq_s * 1e3:8.3f} ms")
    print(f"ratio:      {audit_s / seq_s:8.2f}x  (ceiling {AUDIT_CEILING}x)")
    return 0 if audit_s / seq_s < AUDIT_CEILING else 1


if __name__ == "__main__":
    raise SystemExit(main())
