"""The CLI exit-code contract.

Every failing subcommand must exit non-zero AND print a one-line
``repro: <reason>`` to stderr, so shell pipelines (and CI) can gate on
``$?`` without parsing stdout.  Success keeps stderr quiet.
"""

import io
import os
import subprocess
import sys

import pytest

from repro.cli import main


def _die(payload):
    """A worker entry that kills its process before doing anything."""
    os._exit(3)


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _stderr_reason(capsys):
    err = capsys.readouterr().err
    lines = [l for l in err.splitlines() if l.startswith("repro: ")]
    return lines


class TestExitCodes:
    def test_verify_success_is_zero_and_quiet(self, capsys):
        code, text = run("verify", "--loop", "L1")
        assert code == 0
        assert "OK" in text
        assert _stderr_reason(capsys) == []

    def test_audit_violation_is_nonzero_with_reason(self, capsys):
        code, _ = run("audit", "--loop", "L2", "--duplicate",
                      "--inject-violation", "--static")
        assert code == 1
        (line,) = _stderr_reason(capsys)
        assert line.startswith("repro: audit violation:")

    def test_audit_clean_is_zero(self, capsys):
        code, _ = run("audit", "--loop", "L2", "--duplicate", "--static")
        assert code == 0
        assert _stderr_reason(capsys) == []

    def test_perf_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("perf", "--check")
        assert exc.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    def test_multiprocess_run_is_zero(self, monkeypatch, capsys):
        """``run`` prints its summary line and nothing else."""
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        code, text = run("run", "--loop", "L1", "--backend", "multiprocess")
        assert code == 0
        assert text.startswith("parallel run [multiprocess]: ok")
        assert text.count("\n") == 1
        assert _stderr_reason(capsys) == []

    def test_violated_plan_on_multiprocess_is_nonzero(self, monkeypatch,
                                                      capsys):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        code, _ = run("audit", "--loop", "L5", "--duplicate",
                      "--inject-violation", "--backend", "multiprocess")
        assert code == 1
        (line,) = _stderr_reason(capsys)
        assert line.startswith("repro: audit violation:")

    def test_a_dead_worker_degrades_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        """A worker that dies breaks the pool: the run falls back to
        codegen in process, is ok, one line on stderr says so, and
        nothing lands in the working directory."""
        from repro.runtime.blockstore import worker

        monkeypatch.setattr(worker, "run_share", _die)
        monkeypatch.setenv("REPRO_MP_WORKERS", "1")
        monkeypatch.chdir(tmp_path)
        code, text = run("run", "--loop", "L5", "--duplicate",
                         "--backend", "multiprocess")
        assert code == 0
        assert text.startswith("parallel run [multiprocess]: ok")
        (line,) = [l for l in capsys.readouterr().err.splitlines()
                   if l.startswith("repro")]
        assert line.startswith("repro: multiprocess pool unavailable "
                               "(BrokenProcessPool: ")
        assert list(tmp_path.iterdir()) == []

    def test_a_miscounting_tier_fails_verify_all(self, monkeypatch, capsys):
        from repro.runtime.engine.codegen.engine import CodegenEngine

        run_blocks = CodegenEngine.run_blocks

        def miscounted(self, plan, result, scalars):
            run_blocks(self, plan, result, scalars)
            result.executed_iterations += 1

        monkeypatch.setattr(CodegenEngine, "run_blocks", miscounted)
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        code, text = run("verify", "--loop", "L1", "--backend", "all")
        assert code == 1 and text.endswith("FAILED\n")
        # the tier that disagrees fails, not the reference it disagrees with
        assert "backends cross-checked: codegen:FAIL, interp:ok, " \
            "multiprocess:ok\n" in text
        (line,) = _stderr_reason(capsys)
        assert line.startswith("repro: verification failed:")

    @pytest.mark.parametrize("flag", ["--chaos", "--crash-prob",
                                      "--slow-prob", "--slow-ms",
                                      "--drop-prob", "--seed"])
    def test_removed_chaos_flags_are_usage_errors(self, flag, capsys):
        # fault injection is gone: a dead worker degrades, and nothing
        # is retried
        with pytest.raises(SystemExit) as exc:
            run("run", "--loop", "L1", "--backend", "multiprocess", flag,
                "1")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestShellContract:
    """$? visible to a real shell, end to end."""

    @pytest.fixture()
    def env(self):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["REPRO_MP_WORKERS"] = "2"
        return env

    def _shell(self, cmd, env):
        proc = subprocess.run(
            ["sh", "-c", cmd + "; echo rc=$?"],
            capture_output=True, text=True, env=env, timeout=300)
        return proc

    def test_verify_ok_in_shell(self, env):
        proc = self._shell(
            f"{sys.executable} -m repro verify --loop L1 >/dev/null 2>&1",
            env)
        assert proc.stdout.strip().endswith("rc=0")

    def test_audit_violation_in_shell(self, env):
        proc = self._shell(
            f"{sys.executable} -m repro audit --loop L2 --duplicate "
            "--inject-violation --static >/dev/null", env)
        assert proc.stdout.strip().endswith("rc=1")
        assert "repro: audit violation:" in proc.stderr

    def test_closed_pipe_is_quiet(self, env, tmp_path):
        # `repro ... | head` closes our stdout early: no traceback, and
        # nothing written
        proc = self._shell(
            f"cd {tmp_path} && {sys.executable} -m repro report "
            "--loop L1 -p 4 | head -1", env)
        assert proc.stdout.strip().endswith("rc=0")   # head's status
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError


class TestBrokenPipe:
    def test_broken_pipe_is_sigpipe_exit_without_blackbox(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["verify", "--loop", "L1"], out=_ClosedPipe())
        assert code == 141   # conventional 128+SIGPIPE
        assert list(tmp_path.iterdir()) == []


class TestInputErrors:
    """An error in what the user handed us is not a crash: one
    ``repro: <reason>`` line, exit 2, no traceback, nothing written."""

    CASES = {
        "unbound-scalar": (
            "for i = 1 to 4 { A[i] = B[i] * alpha; }",
            "repro: unbound name 'alpha': not a loop index and no scalar "
            "binding; bind it with --scalars alpha=<value>"),
        "non-integer-subscript": (
            "for i = 1 to 4 { A[i/2] = B[i]; }",
            "repro: subscript of A has non-integer coefficients: (1/2)*i"),
        "parse-error": (
            "for i = 1 to { A[i] = 1; }",
            "repro: unexpected token '{' at line 1, col 14"),
        "superscript-digit": (
            "for i = 1 to ² { S1: A[i] = 1; }",
            "repro: unexpected character '²' at line 1, col 14"),
        "missing-file": (
            None, "repro: cannot read PATH: No such file or directory"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_one_line_no_blackbox(self, case, tmp_path, monkeypatch,
                                         capsys):
        source, want = self.CASES[case]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        path = tmp_path / "nest.loop"
        if source is not None:
            path.write_text(source)
        code, text = run("verify", str(path))
        assert code == 2 and text == ""
        assert capsys.readouterr().err == \
            want.replace("PATH", str(path)) + "\n"
        assert list(cwd.iterdir()) == []

    #: a command line that cannot be run: refused before anything is
    #: planned, same protocol
    USAGE = {
        "unknown-backend": (
            ("verify", "--loop", "L1", "--backend", "bogus"),
            "repro: unknown backend 'bogus'; known: auto, codegen, "
            "interp, multiprocess, compiled, vectorized, all"),
        "run-cannot-cross-check": (
            ("run", "--loop", "L1", "--backend", "all"),
            "repro: unknown backend 'all'; known: auto, codegen, "
            "interp, multiprocess, compiled, vectorized"),
        "malformed-scalars": (
            ("verify", "--loop", "L1", "--scalars", "D=2,F"),
            "repro: --scalars: 'F' is not NAME=VALUE (give "
            "NAME=VALUE[,...], e.g. D=2,F=3)"),
        # a NaN never equals itself: no run bound to one could verify
        **{f"non-finite-scalar-{value}": (
            ("verify", "--loop", "L3sub", "--scalars", f"D={value},F=3"),
            f"repro: --scalars: D must be a finite number, got {value!r}")
           for value in ("nan", "inf", "-inf")},
        "repeated-scalar": (
            ("verify", "--loop", "L3sub", "--scalars", "D=2,F=3,D=5"),
            "repro: --scalars: D is bound twice"),
        "unknown-loop": (
            ("verify", "--loop", "NOPE"),
            "repro: unknown catalog loop 'NOPE'; available: AXPY, CONV, "
            "DFT, INDEP, L1, L2, L3, L3sub, L4, L5, MATVEC, OUTER, "
            "STENCIL2D, TRI"),
        "no-input": (
            ("verify",), "repro: give a source file or --loop NAME"),
        **{f"no-processors-report{p}": (
            ("report", "--loop", "L1", "-p", p),
            f"repro: --processors must be >= 1 (got {p})")
           for p in ("0", "-2")},
        "unknown-section": (
            ("report", "--loop", "L1", "--section", "plan",
             "--section", "nope"),
            "repro: unknown section 'nope'; sections: input loop, "
            "reference analysis, redundancy analysis, dependence table, "
            "strategy comparison, plan, partition, why Psi looks like "
            "this, parallel form, SPMD form, load balance, reference "
            "graphs, simulated machine, communication audit, "
            "verification, diagnostics"),
    }

    @pytest.mark.parametrize("case", sorted(USAGE))
    def test_usage_error_exit_2_one_line_no_blackbox(
            self, case, tmp_path, monkeypatch, capsys):
        from repro.pipeline import passes

        argv, want = self.USAGE[case]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            passes, "run_pipeline",
            lambda *a, **kw: pytest.fail("planned before refusing"))
        code, text = run(*argv)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == want + "\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value, why", [
        ("abc", "invalid literal for int() with base 10: 'abc'"),
        ("-2", "must be >= 1, got -2")])
    def test_malformed_worker_count_is_an_input_error(
            self, value, why, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_MP_WORKERS", value)
        code, text = run("verify", "--loop", "L1", "--backend",
                         "multiprocess")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == \
            f"repro: REPRO_MP_WORKERS={value!r}: {why}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_duplicate_array_names_the_nests_arrays(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, text = run("report", "--loop", "L1",
                         "--duplicate-arrays", "Z")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "repro: unknown arrays in duplicate_arrays: ['Z'] "
            "(the nest's arrays: A, B, C)\n")
        assert list(tmp_path.iterdir()) == []

    #: every file a command writes when it is done, on every command
    #: that can be asked for it
    OUTPUTS = {
        "trace": ("verify", "--loop", "L1", "--trace"),
        "run-json": ("run", "--loop", "L1", "--json"),
        "audit-json": ("audit", "--loop", "L1", "--json"),
    }

    @pytest.mark.parametrize("case", sorted(OUTPUTS))
    def test_unwritable_output_exit_2_one_line_no_blackbox(
            self, case, tmp_path, monkeypatch, capsys):
        from repro.pipeline import passes

        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setattr(
            passes, "run_pipeline",
            lambda *a, **kw: pytest.fail("planned before refusing"))
        path = tmp_path / "nonexistent" / "out"
        code, text = run(*self.OUTPUTS[case], str(path))
        assert code == 2 and text == ""
        assert capsys.readouterr().err == \
            f"repro: cannot write {path}: No such file or directory\n"
        assert list(cwd.iterdir()) == []

    def test_the_writability_check_leaves_no_file(self, tmp_path):
        """Asking is not writing: no empty file appears, and an existing
        one is not truncated."""
        import argparse

        from repro.cli import _refusal

        new, old = tmp_path / "t.json", tmp_path / "r.json"
        old.write_text("kept")
        args = argparse.Namespace(trace=str(new), json=str(old))
        assert _refusal(args) is None
        assert not new.exists() and old.read_text() == "kept"
        args.trace = str(tmp_path)
        assert _refusal(args) == \
            f"cannot write {tmp_path}: Is a directory"

    def test_bound_scalar_verifies(self, tmp_path, capsys):
        path = tmp_path / "nest.loop"
        path.write_text(self.CASES["unbound-scalar"][0])
        code, text = run("verify", str(path), "--scalars", "alpha=2")
        assert code == 0 and "OK" in text
        assert _stderr_reason(capsys) == []

    def test_an_internal_error_propagates_and_writes_its_trace(
            self, tmp_path, monkeypatch, capsys):
        """A crash is not swallowed, and the ``--trace`` document it was
        asked for is its post-mortem: valid, exit code 1, the crash
        recorded."""
        import json

        import repro.cli as cli
        from repro.obs.schema import main as schema_main

        def boom(args):
            raise KeyError("not the user's doing")

        monkeypatch.setattr(cli, "_load_nest", boom)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(KeyError):
            run("verify", "--loop", "L1", "--trace", "t.json")
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]
        assert schema_main(["t.json"]) == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["otherData"]["exit_code"] == 1
        (crash,) = [e for e in doc["traceEvents"] if e["name"] == "cli.crash"]
        assert crash["args"]["exc"] == "KeyError: \"not the user's doing\""
