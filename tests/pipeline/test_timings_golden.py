"""Golden format for the --timings table (deterministic ordering)."""

import io

from repro.cli import main
from repro.obs import MetricsRegistry, timing_table


def record(reg, name, seconds):
    reg.observe(f"pipeline.pass.seconds.{name}", seconds)


def build_registry():
    reg = MetricsRegistry()
    record(reg, "beta", 0.002)
    record(reg, "alpha", 0.004)
    record(reg, "gamma", 0.002)   # ties with beta on total seconds
    reg.inc("cache.miss")
    reg.inc("cache.miss.new-fingerprint")
    reg.inc("cache.hit", 2)
    # the registry holds every layer's metrics; the table lists only
    # the pass histograms and the plan-cache / engine counters
    reg.inc("cache.plan.disk.store")
    reg.inc("runtime.parallel.runs")
    reg.set("runtime.remote_accesses", 0)
    return reg


GOLDEN = """\
pass                    calls  total(ms)   mean(ms)
alpha                       1      4.000      4.000
beta                        1      2.000      2.000
gamma                       1      2.000      2.000
total                              8.000
counter cache.hit: 2
counter cache.miss: 1
counter cache.miss.new-fingerprint: 1"""


class TestGoldenTable:
    def test_exact_format(self):
        table = timing_table(build_registry())
        got = [ln.rstrip() for ln in table.splitlines()]
        assert got == GOLDEN.splitlines()

    def test_sorted_by_total_then_name(self):
        reg = MetricsRegistry()
        record(reg, "zz", 0.001)
        record(reg, "aa", 0.001)
        record(reg, "mm", 0.005)
        lines = timing_table(reg).splitlines()
        names = [ln.split()[0] for ln in lines[1:4]]
        assert names == ["mm", "aa", "zz"]   # time desc, then name asc

    def test_stable_across_recordings_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for name, sec in (("p1", 0.01), ("p2", 0.02), ("p3", 0.01)):
            record(a, name, sec)
        for name, sec in (("p3", 0.01), ("p1", 0.01), ("p2", 0.02)):
            record(b, name, sec)
        assert timing_table(a) == timing_table(b)

    def test_empty_table_placeholder(self):
        table = timing_table(MetricsRegistry())
        assert "(no passes recorded)" in table


class TestCliTimings:
    def test_repeat_invocations_identical_structure(self):
        from repro.pipeline import PLAN_CACHE

        def structure(text):
            # strip the timing digits; keep names, calls, counters (as a
            # multiset: rows are ordered by time, and two passes ~1 ms
            # apart swap places between runs)
            lines = text.splitlines()
            keep = []
            for ln in lines:
                if ln.startswith("counter ") or "(no passes" in ln:
                    keep.append(ln)
                elif ln and not ln[0].isspace():
                    keep.append(ln.split()[0])
            return sorted(keep)

        PLAN_CACHE.clear()
        out1 = io.StringIO()
        main(["partition", "--loop", "L4", "--timings"], out=out1)
        PLAN_CACHE.clear()
        out2 = io.StringIO()
        main(["partition", "--loop", "L4", "--timings"], out=out2)
        s1 = structure(out1.getvalue())
        s2 = structure(out2.getvalue())
        assert s1 == s2
        assert "counter cache.miss.new-fingerprint: 1" in s1
