"""CLI driver tests (all through main(argv, out))."""

import io

import pytest

from repro.cli import main


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def report(*argv, sections=()):
    """``repro report ARGV --section S ...``."""
    return run("report", *argv, *(a for s in sections
                                  for a in ("--section", s)))


class TestAnalyze:
    """``report``'s input loop and reference analysis."""

    ANALYSIS = ("input loop", "reference analysis")

    def test_catalog_loop(self):
        code, text = report("--loop", "L1", sections=self.ANALYSIS)
        assert code == 0
        assert "array A" in text
        assert "(2, 1)" in text                # the DRV
        assert "fully duplicable" in text      # arrays B / C

    def test_with_elimination(self):
        code, text = report("--loop", "L3", "--eliminate",
                            sections=["redundancy analysis"])
        assert code == 0
        assert "4/16" in text  # N(S1)

    def test_unknown_loop(self):
        assert report("--loop", "NOPE", sections=self.ANALYSIS) == (2, "")

    def test_missing_input(self):
        assert report(sections=self.ANALYSIS) == (2, "")

    def test_file_input(self, tmp_path):
        f = tmp_path / "loop.cf"
        f.write_text("for i = 1 to 4 { A[i] = B[i] * 2; }")
        code, text = report(str(f), sections=self.ANALYSIS)
        assert code == 0 and "array A" in text


class TestPartition:
    """``report``'s plan and partition."""

    PLAN = ("plan", "partition")

    def test_l1(self):
        code, text = report("--loop", "L1", sections=self.PLAN)
        assert code == 0
        assert "blocks: 7" in text
        assert "iteration -> block" in text

    def test_duplicate_flag(self):
        code, text = report("--loop", "L2", "--duplicate", sections=self.PLAN)
        assert code == 0 and "blocks: 16" in text

    def test_duplicate_subset(self):
        code, text = report("--loop", "L5", "--duplicate-arrays", "B",
                            sections=self.PLAN)
        assert code == 0 and "blocks: 4" in text

    def test_eliminate(self):
        code, text = report("--loop", "L3", "--duplicate", "--eliminate",
                            sections=self.PLAN)
        assert code == 0 and "blocks: 4" in text

    def test_3d_listing(self):
        code, text = report("--loop", "L4", sections=self.PLAN)
        assert code == 0 and "more blocks" in text


class TestTransform:
    """``report``'s parallel and SPMD forms."""

    def test_forall_form(self):
        code, text = report("--loop", "L4", sections=["parallel form"])
        assert code == 0
        assert "forall" in text and "E1:" in text

    def test_spmd(self):
        code, text = report("--loop", "L4", "-p", "4",
                            sections=["SPMD form", "load balance"])
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
    """``report``'s strategy comparison ranks every candidate."""

    def test_l5(self):
        code, text = report("--loop", "L5", "-p", "4",
                            sections=["strategy comparison"])
        assert code == 0
        assert "best:" in text and "duplicate{A,B}" in text


@pytest.mark.parametrize("command", ["verify", "run", "audit", "report",
                                     "serve"])
def test_backend_help_names_the_registry(command, capsys):
    """The help lists the registry's backends, read when it is printed."""
    from repro.runtime.engine.base import backend_names

    with pytest.raises(SystemExit):
        run(command, "--help")
    text = " ".join(capsys.readouterr().out.split())
    assert ", ".join(backend_names()) in text


def test_the_subcommands():
    from repro.cli import build_parser

    commands = build_parser()._subparsers._group_actions[0].choices
    assert list(commands) == ["verify", "run", "serve", "report", "audit",
                              "figures", "tables", "selftest"]


@pytest.mark.parametrize("argv", [
    ("serve", "submit", "nest.loop", "--op", "audit"),
    ("serve", "submit", "--op", "audit", "nest.loop"),
    ("serve", "--op", "audit", "submit", "nest.loop"),
], ids=["file-first", "file-last", "options-first"])
def test_serve_submit_takes_its_file_anywhere(argv):
    from repro.cli import build_parser

    args = build_parser().parse_args(argv)
    assert (args.action, args.file, args.op) == ("submit", "nest.loop",
                                                 "audit")


@pytest.mark.parametrize("command", ["verify", "report", "audit"])
def test_the_file_may_follow_the_options(command):
    from repro.cli import build_parser

    parse = build_parser().parse_args
    first = parse([command, "nest.loop", "--duplicate", "--backend", "interp"])
    last = parse([command, "--duplicate", "--backend", "interp", "nest.loop"])
    assert vars(first) == vars(last)
    assert last.file == "nest.loop" and last.duplicate


@pytest.mark.parametrize("gone", ["analyze", "select", "partition",
                                  "transform"])
def test_report_sections_replaced(gone, capsys):
    with pytest.raises(SystemExit) as exc:
        run(gone, "--loop", "L1")
    assert exc.value.code == 2
    assert f"invalid choice: '{gone}'" in capsys.readouterr().err


def test_chaos_is_gone(capsys):
    """No fault injection: neither the command nor the flag."""
    with pytest.raises(SystemExit) as exc:
        run("chaos", "--matmul", "4")
    assert exc.value.code == 2
    assert "invalid choice: 'chaos'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run("run", "--loop", "L1", "--chaos", "x")
    assert exc.value.code == 2
    assert "unrecognized arguments: --chaos" in capsys.readouterr().err


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
    """The per-pass table is ``--as timings`` of a ``--trace`` document."""

    @staticmethod
    def timings(tmp_path, capsys, *argv):
        """(exit code, the timing table) of one traced command."""
        from repro.obs.export import main as export_main

        path = tmp_path / "t.json"
        code, _ = run(*argv, "--trace", str(path))
        capsys.readouterr()
        assert export_main([str(path), "--as", "timings"]) == 0
        return code, capsys.readouterr().out

    def test_partition_timing_table(self, tmp_path, capsys):
        from repro.obs.export import main as export_main
        from repro.pipeline import PLAN_CACHE

        PLAN_CACHE.clear()                    # cold cache: every pass runs
        path = tmp_path / "t.json"
        code, text = report("--loop", "L4", "--trace", str(path),
                            sections=["plan"])
        assert code == 0
        assert "blocks: 37" in text           # normal output still present
        assert "total(ms)" not in text        # the table is the export's
        capsys.readouterr()
        assert export_main([str(path), "--as", "timings"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].split() == ["pass", "calls", "total(ms)", "mean(ms)"]
        # the plan only: no transform, map, selection or execution
        assert sorted(ln.split()[0] for ln in table[1:5]) == [
            "choose-space", "eliminate-redundancy", "extract-refs",
            "partition"]
        assert table[5].split()[0] == "total"
        assert "counter cache.miss: 1" in table

    def test_cache_counters_in_table(self, tmp_path, capsys):
        argv = ("report", "--loop", "L5", "--section", "plan")
        code1, _ = self.timings(tmp_path, capsys, *argv)
        code2, text2 = self.timings(tmp_path, capsys, *argv)
        assert code1 == code2 == 0
        # the second invocation is served from the warm in-process cache
        assert "counter cache.hit: 1" in text2
        assert "(no passes recorded)" in text2

    def test_the_engine_chosen_in_table(self, tmp_path, capsys):
        code, text = self.timings(tmp_path, capsys, "verify", "--loop", "L1",
                                  "--backend", "auto")
        assert code == 0
        assert "counter engine.resolved.codegen: 1" in text


    def test_timings_scoped_per_invocation(self, tmp_path, capsys):
        from repro.pipeline import PLAN_CACHE

        PLAN_CACHE.clear()
        _, first = self.timings(tmp_path, capsys, "verify", "--loop", "L1")
        _, second = self.timings(tmp_path, capsys, "verify", "--loop", "L1")
        # each document holds its own invocation's passes and counters:
        # the second, served warm, ran none and missed nothing
        assert "(no passes recorded)" not in first
        assert "counter cache.miss: 1" in first
        assert "(no passes recorded)" in second
        assert "counter cache.miss: 1" not in second
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
