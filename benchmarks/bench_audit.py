"""Communication-audit benchmark: correctness assertions + size independence.

The static verdict is the algebraic certificate -- O(reference pairs)
linear algebra on ``(H, c, bounds, Q)`` -- and the access totals are
closed-form, so a clean static audit does not grow with the iteration
space.  This bench pins, on the Theorem 2 matmul workload
(``catalog.matmul``):

1. the audit *certifies* the plan (zero cross-block accesses, exact
   read/write totals for the n^3 matmul reference pattern);
2. ``audit_plan(run_engines=False)`` on ``matmul(24)`` costs at most
   ``SIZE_CEILING`` times what it costs on ``matmul(8)`` -- 13 824
   against 512 points, a 27x ratio the per-access replay used to pay;
3. a sabotaged plan is refused, and on that path the replay still runs
   and attributes the violations.

Run under pytest (``--benchmark-disable`` for assertions only) or
directly: ``python benchmarks/bench_audit.py``.
"""

from functools import lru_cache
from time import perf_counter

from repro.core import Strategy, build_plan
from repro.lang.catalog import matmul
from repro.obs.audit import audit_plan, inject_violation

#: static audit of matmul(24) / static audit of matmul(8), upper bound
#: (measured ~1x locally: both are sub-millisecond)
SIZE_CEILING = 3.0

MATMUL_N = 16


def _static_audit_s(plan) -> float:
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        report = audit_plan(plan, run_engines=False)
        best = min(best, perf_counter() - t0)
        assert report.certified and report.replay is None
    return best


@lru_cache(maxsize=None)
def measure():
    plan = build_plan(matmul(MATMUL_N), strategy=Strategy.DUPLICATE)
    report = audit_plan(plan, run_engines=False)
    small_s, large_s = (
        _static_audit_s(build_plan(matmul(n), strategy=Strategy.DUPLICATE))
        for n in (8, 24))
    return plan, report, small_s, large_s


def test_audit_certifies_matmul(benchmark):
    plan, report, small_s, large_s = measure()
    benchmark(lambda: audit_plan(plan, run_engines=False))
    n = MATMUL_N
    assert report.certified
    assert report.cross_block_accesses == 0
    assert report.certificate.to_dict()["decided_by"] == "symbolic"
    assert report.theorem == 2
    assert report.executed_iterations == n ** 3
    assert report.total_writes == n ** 3        # one store per iteration
    assert report.total_reads == 3 * n ** 3     # C, A, B loads
    benchmark.extra_info.update(
        matmul8_ms=round(small_s * 1e3, 3),
        matmul24_ms=round(large_s * 1e3, 3),
        ratio=round(large_s / small_s, 2),
    )


def test_audit_cost_does_not_grow_with_the_space():
    _, _, small_s, large_s = measure()
    ratio = large_s / small_s
    assert ratio < SIZE_CEILING, (
        f"static audit of matmul(24) took {ratio:.1f}x matmul(8) "
        f"(ceiling {SIZE_CEILING}x): {large_s * 1e3:.2f}ms vs "
        f"{small_s * 1e3:.2f}ms")


def test_audit_detects_injected_violation():
    plan, _, _, _ = measure()
    broken = audit_plan(inject_violation(plan), run_engines=False)
    assert not broken.certified
    assert broken.cross_block_accesses > 0
    assert broken.violations


def main():
    _, report, small_s, large_s = measure()
    print(f"audit:      {report.verdict()}")
    print(f"matmul(8):  {small_s * 1e3:8.3f} ms")
    print(f"matmul(24): {large_s * 1e3:8.3f} ms")
    print(f"ratio:      {large_s / small_s:8.2f}x  (ceiling {SIZE_CEILING}x)")
    return 0 if large_s / small_s < SIZE_CEILING else 1


if __name__ == "__main__":
    raise SystemExit(main())
