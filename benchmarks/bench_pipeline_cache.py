"""Plan-cache effectiveness and pipeline overhead (engineering bench).

Not a paper table: measures the compiler infrastructure added by the
pass-pipeline refactor.  Three questions, each with a hard floor and a
reported number in ``extra_info``:

- how much faster is a warm (content-addressed cache hit) compile than a
  cold one? (floor: 5x; typically two orders of magnitude)
- what hit rate does a realistic re-compilation workload reach?
- how much does the instrumented pass manager cost over calling the
  Section II-III primitives directly? (target: < 5%, asserted < 25% to
  stay robust on noisy CI machines)
"""

from time import perf_counter

from repro.analysis import analyze_redundancy, extract_references
from repro.core import Strategy, partitioning_space
from repro.core.partition import all_data_partitions, iteration_partition
from repro.core.plan import PartitionPlan
from repro.lang import catalog
from repro.pipeline import PipelineConfig, PlanCache, run_pipeline


def _best_of(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def _hand_sequenced(nest, strategy=Strategy.NONDUPLICATE, eliminate=False):
    """The primitives called directly: no passes, no instrumentation."""
    model = extract_references(nest)
    redundancy = analyze_redundancy(model) if eliminate else None
    breakdown = partitioning_space(model, strategy=strategy,
                                   eliminate_redundant=eliminate,
                                   redundancy=redundancy)
    blocks = iteration_partition(model.space, breakdown.psi)
    live = redundancy.live if redundancy is not None else None
    data_blocks = all_data_partitions(model, blocks, live=live)
    return PartitionPlan(nest=nest, model=model, breakdown=breakdown,
                         blocks=blocks, data_blocks=data_blocks)


def test_cold_vs_warm_compile(benchmark):
    """A cache hit must be at least 5x faster than a cold compile."""
    cache = PlanCache(maxsize=16)
    config = PipelineConfig()

    cold = _best_of(
        lambda: run_pipeline(catalog.l4(6), PipelineConfig(use_cache=False)))
    run_pipeline(catalog.l4(6), config, cache=cache)       # populate
    warm = benchmark(
        lambda: run_pipeline(catalog.l4(6), config, cache=cache).plan)

    assert cache.hits >= 1
    warm_t = _best_of(
        lambda: run_pipeline(catalog.l4(6), config, cache=cache))
    benchmark.extra_info.update(
        cold_ms=round(cold * 1e3, 3), warm_ms=round(warm_t * 1e3, 3),
        speedup=round(cold / warm_t, 1))
    assert cold >= 5 * warm_t, \
        f"warm compile only {cold / warm_t:.1f}x faster than cold"
    assert warm.num_blocks == 91     # L4's forall point count at n=6


def test_hit_rate_on_recompilation_workload(benchmark):
    """Re-planning the whole catalog: every loop after the first sweep
    is content-identical, so the steady-state hit rate approaches 1."""
    cache = PlanCache(maxsize=32)
    config = PipelineConfig()

    def sweep():
        for factory in (catalog.l1, catalog.l2, catalog.l3,
                        catalog.l4, catalog.l5):
            run_pipeline(factory(), config, cache=cache)

    sweep()                                   # cold: 5 misses
    benchmark(sweep)                          # warm rounds: all hits
    assert cache.misses == 5
    assert cache.hits >= 5
    benchmark.extra_info.update(hit_rate=round(cache.hit_rate, 3),
                                hits=cache.hits, misses=cache.misses)
    # one warm sweep (benchmark-disabled runs) gives exactly 0.5; full
    # benchmark rounds push it toward 1.0
    assert cache.hit_rate >= 0.5


def test_pipeline_overhead_vs_primitives(benchmark):
    """Pass manager + instrumentation overhead over direct primitive
    calls; the engineering target is < 5% on a warm interpreter."""
    nest_of = lambda: catalog.l4(6)           # noqa: E731 - tiny factory
    direct = _best_of(lambda: _hand_sequenced(nest_of()))
    piped = benchmark(
        lambda: run_pipeline(nest_of(), PipelineConfig(use_cache=False)).plan)
    piped_t = _best_of(
        lambda: run_pipeline(nest_of(), PipelineConfig(use_cache=False)))

    overhead = (piped_t - direct) / direct
    benchmark.extra_info.update(direct_ms=round(direct * 1e3, 3),
                                piped_ms=round(piped_t * 1e3, 3),
                                overhead_pct=round(overhead * 100, 2),
                                target_pct=5.0)
    assert piped.summary() == _hand_sequenced(nest_of()).summary()
    assert overhead < 0.25, \
        f"pipeline overhead {overhead:.1%} (target < 5%, hard cap 25%)"
