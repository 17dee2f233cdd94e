"""CLI driver tests (all through main(argv, out))."""

import io

import pytest

from repro.cli import main


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestAnalyze:
    def test_catalog_loop(self):
        code, text = run("analyze", "--loop", "L1")
        assert code == 0
        assert "array A" in text
        assert "(2, 1)" in text                # the DRV
        assert "fully duplicable" in text      # arrays B / C

    def test_with_elimination(self):
        code, text = run("analyze", "--loop", "L3", "--eliminate")
        assert code == 0
        assert "4/16" in text  # N(S1)

    def test_unknown_loop(self):
        assert run("analyze", "--loop", "NOPE") == (2, "")

    def test_missing_input(self):
        assert run("analyze") == (2, "")

    def test_file_input(self, tmp_path):
        f = tmp_path / "loop.cf"
        f.write_text("for i = 1 to 4 { A[i] = B[i] * 2; }")
        code, text = run("analyze", str(f))
        assert code == 0 and "array A" in text


class TestPartition:
    def test_l1(self):
        code, text = run("partition", "--loop", "L1")
        assert code == 0
        assert "blocks: 7" in text
        assert "iteration -> block" in text

    def test_duplicate_flag(self):
        code, text = run("partition", "--loop", "L2", "--duplicate")
        assert code == 0 and "blocks: 16" in text

    def test_duplicate_subset(self):
        code, text = run("partition", "--loop", "L5",
                         "--duplicate-arrays", "B")
        assert code == 0 and "blocks: 4" in text

    def test_eliminate(self):
        code, text = run("partition", "--loop", "L3", "--duplicate",
                         "--eliminate")
        assert code == 0 and "blocks: 4" in text

    def test_3d_listing(self):
        code, text = run("partition", "--loop", "L4")
        assert code == 0 and "more blocks" in text


class TestTransform:
    def test_forall_form(self):
        code, text = run("transform", "--loop", "L4")
        assert code == 0
        assert "forall" in text and "E1:" in text

    def test_spmd(self):
        code, text = run("transform", "--loop", "L4", "-p", "4")
        assert code == 0
        assert "step 2" in text
        assert "imbalance=1.000" in text


class TestVerify:
    def test_ok(self):
        code, text = run("verify", "--loop", "L1")
        assert code == 0 and "OK" in text
        assert "remote accesses: 0" in text

    def test_with_scalars(self):
        code, text = run("verify", "--loop", "L3sub", "--scalars",
                         "D=2,F=3,G=1.5,K=0.5")
        assert code == 0 and "OK" in text

    def test_eliminate_skips(self):
        code, text = run("verify", "--loop", "L3", "--duplicate",
                         "--eliminate")
        assert code == 0
        assert "skipped (redundant) computations: 12" in text


class TestSelect:
    def test_l5(self):
        code, text = run("select", "--loop", "L5", "-p", "4")
        assert code == 0
        assert "best:" in text and "duplicate{A,B}" in text


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_short_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("-V")
        assert exc.value.code == 0
        assert "repro " in capsys.readouterr().out


class TestTimings:
    def test_partition_timing_table(self):
        from repro.pipeline import PLAN_CACHE

        PLAN_CACHE.clear()                    # cold cache: every pass runs
        code, text = run("partition", "--loop", "L4", "--timings")
        assert code == 0
        assert "blocks: 37" in text           # normal output still present
        assert "calls" in text and "total(ms)" in text
        for name in ("extract-refs", "choose-space", "partition"):
            assert name in text
        assert "counter cache.miss: 1" in text

    def test_cache_counters_in_table(self):
        code1, _ = run("partition", "--loop", "L5", "--timings")
        code2, text2 = run("partition", "--loop", "L5", "--timings")
        assert code1 == code2 == 0
        # the second invocation is served from the warm in-process cache
        assert "counter cache.hit: 1" in text2

    def test_timings_scoped_per_invocation(self):
        _, first = run("verify", "--loop", "L1", "--timings")
        assert "total(ms)" in first
        # a run without the flag prints no table
        _, quiet = run("verify", "--loop", "L1")
        assert "total(ms)" not in quiet


class TestFiguresAndTables:
    def test_figures(self):
        code, text = run("figures")
        assert code == 0
        for fig in ("Fig. 1", "Fig. 7", "Fig. 10"):
            assert fig in text

    def test_tables(self):
        code, text = run("tables")
        assert code == 0
        assert "Table I" in text and "L5''" in text
