"""Golden format of the timing table: ``python -m repro.obs.export FILE
--as timings`` of a ``--trace`` document (deterministic ordering)."""

import io
import json
from collections import Counter

from repro.cli import main
from repro.obs.export import main as export_main
from repro.obs.export import timing_table


def span(name, ms):
    """A ``pass:<name>`` complete event of ``ms`` milliseconds."""
    return {"name": f"pass:{name}", "cat": "pipeline", "ph": "X", "ts": 0,
            "dur": ms * 1e3, "pid": 1, "tid": 0, "args": {}}


def document(passes, metrics=None):
    return {"traceEvents": [span(name, ms) for name, ms in passes],
            "otherData": {"metrics": metrics or {}}}


def counter(value):
    return {"kind": "counter", "value": value}


def build_document():
    return document(
        [("beta", 2.0), ("alpha", 4.0),
         ("gamma", 2.0)],                   # ties with beta on total time
        {"cache.miss": counter(1),
         "cache.miss.new-fingerprint": counter(1),
         "cache.hit": counter(2),
         # the registry holds every layer's metrics; the table lists
         # only the plan-cache / engine counters
         "cache.plan.disk.store": counter(1),
         "runtime.parallel.runs": counter(1),
         "runtime.remote_accesses": {"kind": "gauge", "value": 0}})


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
        table = timing_table(build_document())
        got = [ln.rstrip() for ln in table.splitlines()]
        assert got == GOLDEN.splitlines()

    def test_sorted_by_total_then_name(self):
        doc = document([("zz", 1.0), ("aa", 1.0), ("mm", 5.0)])
        lines = timing_table(doc).splitlines()
        names = [ln.split()[0] for ln in lines[1:4]]
        assert names == ["mm", "aa", "zz"]   # time desc, then name asc

    def test_calls_and_mean_sum_a_pass_s_spans(self):
        doc = document([("p", 1.0), ("q", 2.5), ("p", 3.0)])
        lines = timing_table(doc).splitlines()
        assert lines[1].split() == ["p", "2", "4.000", "2.000"]
        assert lines[2].split() == ["q", "1", "2.500", "2.500"]
        assert lines[3].split() == ["total", "6.500"]

    def test_stable_across_recordings_order(self):
        a = document([("p1", 10.0), ("p2", 20.0), ("p3", 10.0)])
        b = document([("p3", 10.0), ("p1", 10.0), ("p2", 20.0)])
        assert timing_table(a) == timing_table(b)

    def test_only_pass_spans_are_rows(self):
        doc = document([("p", 1.0)])
        doc["traceEvents"] += [
            dict(span("x", 9.0), name="engine.block"),
            dict(span("y", 9.0), ph="i")]   # an instant, not a span
        lines = timing_table(doc).splitlines()
        assert [ln.split()[0] for ln in lines[1:]] == ["p", "total"]

    def test_durations_are_read_in_microseconds(self):
        lines = timing_table(document([("p", 0.25)])).splitlines()
        assert lines[1].split() == ["p", "1", "0.250", "0.250"]

    def test_counter_lines_are_sorted_by_name(self):
        doc = document([], {"engine.resolved.interp": counter(2),
                            "cache.miss": counter(1),
                            "cache.evict": counter(3)})
        counters = [ln for ln in timing_table(doc).splitlines()
                    if ln.startswith("counter ")]
        assert counters == ["counter cache.evict: 3",
                            "counter cache.miss: 1",
                            "counter engine.resolved.interp: 2"]

    def test_empty_table_placeholder(self):
        table = timing_table(document([]))
        assert "(no passes recorded)" in table


def traced_timings(tmp_path, capsys, *argv):
    """``repro ARGV --trace``, then ``--as timings`` of its document:
    (the document, the table's lines)."""
    path = tmp_path / "t.json"
    assert main([*argv, "--trace", str(path)], out=io.StringIO()) == 0
    capsys.readouterr()
    assert export_main([str(path), "--as", "timings"]) == 0
    return json.loads(path.read_text()), capsys.readouterr().out.splitlines()


class TestExportTimings:
    def test_a_document_without_metrics_is_refused(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"traceEvents": [span("p", 1.0)],
                                    "otherData": {}}))
        assert export_main([str(path), "--as", "timings"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "no timings record" in err

    def test_the_file_renders_as_the_table(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(build_document()))
        assert export_main([str(path), "--as", "timings"]) == 0
        assert capsys.readouterr().out == timing_table(build_document())


class TestCliTimings:
    REPORT = ("report", "--loop", "L4", "--section", "plan")

    def test_each_pass_row_counts_its_spans(self, tmp_path, capsys):
        """End to end: ``report --trace``, then ``--as timings`` lists
        each pass with calls equal to its span count."""
        from repro.pipeline import PLAN_CACHE

        PLAN_CACHE.clear()              # a hit would run no pass
        doc, lines = traced_timings(tmp_path, capsys, *self.REPORT)
        spans = Counter(e["name"][len("pass:"):] for e in doc["traceEvents"]
                        if e["ph"] == "X" and e["name"].startswith("pass:"))
        rows = lines[1:1 + len(spans)]
        assert {ln.split()[0]: int(ln.split()[1]) for ln in rows} == spans
        # the plan only: no transform, map, selection or execution
        assert sorted(spans) == ["choose-space", "eliminate-redundancy",
                                 "extract-refs", "partition"]
        assert lines[1 + len(spans)].split()[0] == "total"
        assert "counter cache.miss: 1" in lines
        assert "counter cache.miss.new-fingerprint: 1" in lines

    def test_repeat_invocations_identical_structure(self, tmp_path, capsys):
        from repro.pipeline import PLAN_CACHE

        def structure(lines):
            # strip the timing digits; keep names, calls, counters (as a
            # multiset: rows are ordered by time, and two passes ~1 ms
            # apart swap places between runs)
            return sorted(ln if ln.startswith("counter ") else ln.split()[0]
                          for ln in lines)

        PLAN_CACHE.clear()
        _, first = traced_timings(tmp_path, capsys, *self.REPORT)
        PLAN_CACHE.clear()
        _, second = traced_timings(tmp_path, capsys, *self.REPORT)
        assert structure(first) == structure(second)
        assert "counter cache.miss.new-fingerprint: 1" in structure(first)
