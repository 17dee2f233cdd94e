"""Golden format for the --timings table (deterministic ordering)."""

import io

from repro.cli import main
from repro.pipeline.instrument import Instrumentation


def build_instr():
    instr = Instrumentation()
    instr.record("beta", 0.002)
    instr.record("alpha", 0.004)
    instr.record("gamma", 0.002)   # ties with beta on total seconds
    instr.count("cache.miss")
    instr.count("cache.miss.new-fingerprint")
    instr.count("cache.hit", 2)
    return instr


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
        table = build_instr().timing_table()
        got = [ln.rstrip() for ln in table.splitlines()]
        assert got == GOLDEN.splitlines()

    def test_sorted_by_total_then_name(self):
        instr = Instrumentation()
        instr.record("zz", 0.001)
        instr.record("aa", 0.001)
        instr.record("mm", 0.005)
        lines = instr.timing_table().splitlines()
        names = [ln.split()[0] for ln in lines[1:4]]
        assert names == ["mm", "aa", "zz"]   # time desc, then name asc

    def test_stable_across_recordings_order(self):
        a, b = Instrumentation(), Instrumentation()
        for name, sec in (("p1", 0.01), ("p2", 0.02), ("p3", 0.01)):
            a.record(name, sec)
        for name, sec in (("p3", 0.01), ("p1", 0.01), ("p2", 0.02)):
            b.record(name, sec)
        assert a.timing_table() == b.timing_table()

    def test_empty_table_placeholder(self):
        table = Instrumentation().timing_table()
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
