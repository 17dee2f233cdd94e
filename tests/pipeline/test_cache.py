"""Plan cache: fingerprints, LRU behaviour, disk store, isolation."""

import io
import pickle

import pytest

from repro.core import Strategy
from repro.lang import catalog, parse
from repro.lang.fingerprint import fingerprint_nest, plan_cache_key
from repro.obs.audit import audit_plan
from repro.pipeline import PipelineConfig, PlanCache, run_pipeline
from repro.pipeline.cache import PLAN_FORMAT
from tests.pipeline.test_diskstore import recount


SRC = """
for i = 1 to 4 {
  for j = 1 to 4 {
    S1: A[2*i, j] = C[i, j] * 7;
    S2: B[j, i + 1] = A[2*i - 2, j - 1] + C[i - 1, j - 1];
  }
}
"""


class TestFingerprint:
    def test_stable_across_parses(self):
        assert fingerprint_nest(parse(SRC)) == fingerprint_nest(parse(SRC))

    def test_invariant_under_index_renaming(self):
        renamed = SRC.replace("i", "x").replace("j", "y")
        assert fingerprint_nest(parse(SRC)) == fingerprint_nest(parse(renamed))

    def test_sensitive_to_coefficients(self):
        changed = SRC.replace("A[2*i, j]", "A[3*i, j]")
        assert fingerprint_nest(parse(SRC)) != fingerprint_nest(parse(changed))

    def test_sensitive_to_bounds(self):
        changed = SRC.replace("i = 1 to 4", "i = 1 to 5")
        assert fingerprint_nest(parse(SRC)) != fingerprint_nest(parse(changed))

    def test_sensitive_to_array_names(self):
        changed = SRC.replace("C[", "D[")
        assert fingerprint_nest(parse(SRC)) != fingerprint_nest(parse(changed))

    def test_key_includes_strategy_flags(self):
        nest = parse(SRC)
        base = plan_cache_key(nest, "nonduplicate")
        assert plan_cache_key(nest, "duplicate") != base
        assert plan_cache_key(nest, "nonduplicate",
                              eliminate_redundant=True) != base
        assert plan_cache_key(nest, "duplicate",
                              duplicate_arrays={"B"}) \
            != plan_cache_key(nest, "duplicate")


class TestCacheServedPlans:
    def test_hit_equals_fresh(self, l1):
        cache = PlanCache(maxsize=8)
        config = PipelineConfig()
        fresh = run_pipeline(l1, config, cache=cache).plan
        served = run_pipeline(catalog.l1(), config, cache=cache).plan
        assert cache.hits == 1 and cache.misses == 1
        assert served.summary() == fresh.summary()
        assert [b.iterations for b in served.blocks] \
            == [b.iterations for b in fresh.blocks]
        assert served.data_blocks.keys() == fresh.data_blocks.keys()

    def test_hit_rebinds_nest_and_model(self, l1):
        from repro.analysis import extract_references

        cache = PlanCache(maxsize=8)
        run_pipeline(l1, PipelineConfig(), cache=cache)
        other, model = catalog.l1(), extract_references(catalog.l1())
        plan = run_pipeline(other, PipelineConfig(), cache=cache,
                            model=model).plan
        assert plan.nest is other and plan.model is model

    def test_counters_reach_instrumentation(self, l1):
        from repro.obs import MetricsRegistry, use_registry

        cache = PlanCache(maxsize=8)
        reg = MetricsRegistry()
        with use_registry(reg):
            run_pipeline(l1, PipelineConfig(), cache=cache)
            run_pipeline(l1, PipelineConfig(), cache=cache)
        assert reg.value("cache.miss") == 1
        assert reg.value("cache.hit") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_configs_do_not_collide(self, l2):
        cache = PlanCache(maxsize=8)
        seq = run_pipeline(l2, PipelineConfig(), cache=cache).plan
        par = run_pipeline(l2, PipelineConfig.from_flags(duplicate=True),
                           cache=cache).plan
        assert cache.hits == 0 and cache.misses == 2
        assert (seq.num_blocks, par.num_blocks) == (1, 16)

    def test_served_plan_mutation_cannot_poison_cache(self, l1):
        """A served plan cannot be rewritten, so no later hit sees a
        rewrite; and neither the cache nor two callers share a plan
        object."""
        from repro.core.partition import DataBlock

        cache = PlanCache(maxsize=8)
        victim = run_pipeline(l1, PipelineConfig(), cache=cache).plan
        db0 = victim.data_blocks["A"][0]
        with pytest.raises(TypeError):
            victim.data_blocks["A"][0] = DataBlock(
                array="A", block_index=0, elements=frozenset())
        with pytest.raises(TypeError):
            victim.blocks[0] = victim.blocks[1]
        served = run_pipeline(catalog.l1(), PipelineConfig(),
                              cache=cache).plan
        again = run_pipeline(catalog.l1(), PipelineConfig(),
                             cache=cache).plan
        assert served.data_blocks["A"][0].elements == db0.elements
        (entry,) = cache._store.values()
        assert len({*map(id, (victim, served, again, entry.plan))}) == 4

    def test_a_served_plan_inherits_nothing_from_an_earlier_run(
            self, image_calls):
        """Two sessions of one text get two plans that share their data
        blocks -- the cache's saving -- and an ``interp`` run of the
        first, which enumerates every block, leaves nothing on them: the
        second plans and verifies without enumerating one."""
        from repro.api import Session
        from repro.pipeline import PLAN_CACHE

        text = """for i = 1 to 4 { for j = 1 to 4 { for k = 1 to 4 {
          S1: C[i, j] = C[i, j] + A[i, k] * B[k, j];
        } } }"""
        PLAN_CACHE.clear()
        with Session(text, strategy="duplicate") as first:
            earlier = first.plan()
            assert first.run(backend="interp").ok
        assert image_calls
        with Session(text, strategy="duplicate") as second:
            image_calls.clear()
            plan = second.plan()
            assert second.verify(backend="auto").ok
            assert image_calls == []
        assert plan is not earlier
        for name, dblocks in plan.data_blocks.items():
            for db, shared in zip(dblocks, earlier.data_blocks[name],
                                  strict=True):
                assert db is shared
                assert vars(db).keys() == {"array", "block_index", "block",
                                           "access"}


class TestEvictionAndDisk:
    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        loops = [catalog.l1(), catalog.l2(), catalog.l3()]
        for nest in loops:
            run_pipeline(nest, PipelineConfig(), cache=cache)
        assert len(cache) == 2
        assert cache.evictions == 1
        # l1 (least recently used) was evicted; l3 is still resident
        assert PlanCache.key_for(loops[0], PipelineConfig()) not in cache
        assert PlanCache.key_for(loops[2], PipelineConfig()) in cache

    def test_min_size(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_disk_store_roundtrip(self, tmp_path, l1):
        writer = PlanCache(maxsize=8, directory=str(tmp_path))
        fresh = run_pipeline(l1, PipelineConfig(), cache=writer).plan
        assert list(tmp_path.glob("*.plan"))

        reader = PlanCache(maxsize=8, directory=str(tmp_path))
        served = run_pipeline(catalog.l1(), PipelineConfig(),
                              cache=reader).plan
        assert reader.hits == 1 and reader.misses == 0
        assert served.summary() == fresh.summary()

    def test_entry_bytes_do_not_depend_on_what_ran_before_the_put(
            self, tmp_path):
        """A non-rectangular space caches its points and a rank table
        when asked; neither reaches the entry."""
        from repro.analysis import extract_references

        blobs = []
        for warm in (False, True):
            nest = catalog.triangular(16)
            model = extract_references(nest)
            if warm:
                model.space.ranker()(model.space.points()[3])
            store = tmp_path / str(warm)
            run_pipeline(nest, PipelineConfig(), model=model,
                         cache=PlanCache(maxsize=8, directory=str(store)))
            (path,) = store.glob("*.plan")
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("eliminate", [False, True])
    def test_an_entry_holds_no_element_sets(self, eliminate, image_calls):
        """A planner's data block is pickled as its definition, whether
        or not its elements were read before the put; it loads as an
        image -- loading enumerates nothing -- and equal."""
        from repro.pipeline.cache import _PlanUnpickler

        plan = run_pipeline(catalog.l5(), PipelineConfig(
            strategy=Strategy.DUPLICATE, eliminate_redundant=eliminate,
            use_cache=False)).plan
        cold = pickle.dumps(plan)
        held = {name: [db.elements for db in dblocks]
                for name, dblocks in plan.data_blocks.items()}
        assert pickle.dumps(plan) == cold
        image_calls.clear()
        served = _PlanUnpickler(io.BytesIO(cold)).load()
        assert image_calls == []
        for dblocks in served.data_blocks.values():
            assert all(db.block is b for db, b in zip(dblocks, served.blocks))
        assert {name: [db.elements for db in dblocks]
                for name, dblocks in served.data_blocks.items()} == held

    def test_a_sabotaged_plan_round_trips_as_it_is(self):
        """An array with an explicit block is pickled block by block:
        the explicit one keeps its elements, the images their
        definitions, and the loaded plan is decided like the original."""
        from dataclasses import replace

        from repro.pipeline.cache import _PlanUnpickler

        plan = run_pipeline(catalog.l1(), PipelineConfig(
            use_cache=False)).plan
        db0, *rest = plan.data_blocks["A"]
        short = replace(db0, elements=db0.elements - {min(db0.elements)})
        variant = replace(plan, data_blocks={**plan.data_blocks,
                                             "A": (short, *rest)})
        served = _PlanUnpickler(io.BytesIO(pickle.dumps(variant))).load()
        assert served.data_blocks == variant.data_blocks
        assert served.data_blocks["A"][0].access is None
        assert served.data_blocks["A"][1].block is served.blocks[1]
        assert not audit_plan(served, backends=[]).communication_free

    def test_an_eliminate_entry_holds_no_trace(self):
        """The redundancy analysis keeps its live set, not the
        sequential trace it was computed from."""
        plan = run_pipeline(catalog.l3(), PipelineConfig(
            eliminate_redundant=True, use_cache=False)).plan
        assert isinstance(plan.live, frozenset)
        assert b"SequentialTrace" not in pickle.dumps(plan)

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, l1):
        writer = PlanCache(maxsize=8, directory=str(tmp_path))
        run_pipeline(l1, PipelineConfig(), cache=writer)
        for p in tmp_path.glob("*.plan"):
            p.write_bytes(b"not a pickle")
        reader = PlanCache(maxsize=8, directory=str(tmp_path))
        plan = run_pipeline(catalog.l1(), PipelineConfig(),
                            cache=reader).plan
        assert reader.misses == 1
        assert plan.num_blocks == 7

    @pytest.mark.parametrize("wrap", [
        lambda entry: entry,                      # bare pre-format pickle
        lambda entry: (PLAN_FORMAT - 1, entry),   # older tagged layout
    ], ids=["untagged", "older-tag"])
    def test_stale_format_entry_is_removed_and_rewritten(
            self, tmp_path, l1, wrap):
        writer = PlanCache(maxsize=8, directory=str(tmp_path))
        run_pipeline(l1, PipelineConfig(), cache=writer)
        (path,) = tmp_path.glob("*.plan")
        fmt, entry = pickle.loads(path.read_bytes())
        assert fmt == PLAN_FORMAT
        # a layout from before Reference grew ``c``: unpickles fine,
        # would fail on first use
        for ref in entry.plan.model.all_references():
            del ref.__dict__["c"]
        path.write_bytes(pickle.dumps(wrap(entry)))

        key = PlanCache.key_for(l1, PipelineConfig())
        probe = PlanCache(maxsize=8, directory=str(tmp_path))
        assert probe.get(key) is None
        assert probe.misses == 1 and not path.exists()

        rebuilder = PlanCache(maxsize=8, directory=str(tmp_path))
        plan = run_pipeline(catalog.l1(), PipelineConfig(),
                            cache=rebuilder).plan
        assert rebuilder.misses == 1 and rebuilder.hits == 0
        assert pickle.loads(path.read_bytes())[0] == PLAN_FORMAT

        reader = PlanCache(maxsize=8, directory=str(tmp_path))
        served = run_pipeline(catalog.l1(), PipelineConfig(),
                              cache=reader).plan
        assert reader.hits == 1 and reader.misses == 0
        assert served.summary() == plan.summary()
        assert audit_plan(served, backends=[]).certified


def _call_of(module, name, *args):
    """A pickle of the call ``module.name(*args)``, ``name`` dotted or
    not -- what ``__reduce__`` writes, for any global."""
    def text(s):
        return pickle.SHORT_BINUNICODE + bytes([len(s)]) + s.encode()

    return (pickle.PROTO + b"\x04" + text(module) + text(name)
            + pickle.STACK_GLOBAL + pickle.dumps(args, 2)[2:-1]
            + pickle.REDUCE + pickle.STOP)


class TestHostileDiskEntry:
    """The cache directory is user-writable; a planted ``*.plan`` file is
    a miss, is removed, and never runs."""

    PAYLOADS = {
        "os.system": lambda marker: _call_of(
            "os", "system", f"touch {marker}"),
        # the same callable, reached through a module under repro
        "through-a-repro-module": lambda marker: _call_of(
            "repro.cli", "os.system", f"touch {marker}"),
        # defined under repro, but a function: no plan holds one
        "a-repro-function": lambda marker: _call_of(
            "repro.pipeline.cache", "cache_root"),
    }

    @pytest.mark.parametrize("case", sorted(PAYLOADS))
    def test_it_is_a_miss_removed_and_never_executed(self, tmp_path, l1,
                                                     case):
        marker = tmp_path / "ran"
        payload = self.PAYLOADS[case](marker)
        pickle.loads(payload)               # the payload is live ...
        if case != "a-repro-function":
            assert marker.exists()
            marker.unlink()

        store = tmp_path / "plans"
        writer = PlanCache(maxsize=8, directory=str(store))
        run_pipeline(l1, PipelineConfig(), cache=writer)
        (path,) = store.glob("*.plan")
        path.write_bytes(payload)

        key = PlanCache.key_for(l1, PipelineConfig())
        probe = PlanCache(maxsize=8, directory=str(store))
        assert probe.get(key) is None       # ... and the reader is not
        assert probe.misses == 1 and not path.exists()
        assert not marker.exists()
        assert recount(probe._diskstore()) == (0, [])  # no entry is left


class TestFacade:
    def test_build_plan_uses_global_cache(self, l3):
        from repro.core import build_plan
        from repro.pipeline import PLAN_CACHE

        before = PLAN_CACHE.hits
        a = build_plan(l3)
        b = build_plan(catalog.l3())
        assert PLAN_CACHE.hits > before
        assert a.summary() == b.summary()

    def test_build_plan_opt_out(self, l3):
        from repro.core import build_plan
        from repro.pipeline import PLAN_CACHE

        hits = PLAN_CACHE.hits
        build_plan(l3, use_cache=False)
        assert PLAN_CACHE.hits == hits
