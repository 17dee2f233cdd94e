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

    def test_chaos_recovery_is_zero(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        code, text = run("chaos", "--matmul", "6",
                         "--crash-prob", "0.3", "--seed", "1")
        assert code == 0
        assert "bit-identical" in text
        assert _stderr_reason(capsys) == []

    def test_chaos_on_violating_plan_is_nonzero(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        code, _ = run("chaos", "--matmul", "6", "--crash-prob", "0.3",
                      "--seed", "1", "--inject-violation")
        assert code == 1
        (line,) = _stderr_reason(capsys)
        assert line.startswith("repro: ")

    def test_chaos_non_recovery_is_nonzero(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_MP_WORKERS", "1")
        code, _ = run("chaos", "--matmul", "4",
                      "--chaos", "crash-prob=1,shield-final=0,seed=1")
        assert code == 1
        (line,) = _stderr_reason(capsys)
        assert line.startswith("repro: chaos non-recovery:")

    def test_verify_chaos_flag_still_verifies(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        code, text = run("verify", "--loop", "L2", "--duplicate",
                         "--backend", "multiprocess",
                         "--chaos", "crash-prob=0.3,seed=1")
        assert code == 0
        assert "OK" in text


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
        # `repro ... | head` closes our stdout early: no traceback,
        # no blackbox dump
        env = dict(env, REPRO_BLACKBOX_DIR=str(tmp_path))
        proc = self._shell(
            f"cd {tmp_path} && {sys.executable} -m repro report "
            "--loop L1 -p 4 | head -1", env)
        assert proc.stdout.strip().endswith("rc=0")   # head's status
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("repro-blackbox-*.json"))


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError


class TestBrokenPipe:
    def test_broken_pipe_is_sigpipe_exit_without_blackbox(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path))
        code = main(["verify", "--loop", "L1"], out=_ClosedPipe())
        assert code == 141   # conventional 128+SIGPIPE
        assert not list(tmp_path.glob("repro-blackbox-*.json"))


class TestInputErrors:
    """An error in what the user handed us is not a crash: one
    ``repro: <reason>`` line, exit 2, no traceback, no blackbox."""

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
        "missing-file": (
            None, "repro: cannot read PATH: No such file or directory"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_one_line_no_blackbox(self, case, tmp_path, monkeypatch,
                                         capsys):
        source, want = self.CASES[case]
        box = tmp_path / "blackbox"
        box.mkdir()
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(box))
        path = tmp_path / "nest.loop"
        if source is not None:
            path.write_text(source)
        code, text = run("verify", str(path))
        assert code == 2 and text == ""
        assert capsys.readouterr().err == \
            want.replace("PATH", str(path)) + "\n"
        assert list(box.iterdir()) == []

    #: a command line that cannot be run: refused before anything is
    #: planned, same protocol
    USAGE = {
        "unknown-backend": (
            ("verify", "--loop", "L1", "--backend", "bogus"),
            "repro: unknown backend 'bogus'; known: auto, compiled, "
            "codegen, interp, multiprocess, vectorized, all"),
        "run-cannot-cross-check": (
            ("run", "--loop", "L1", "--backend", "all"),
            "repro: unknown backend 'all'; known: auto, compiled, "
            "codegen, interp, multiprocess, vectorized"),
        "malformed-scalars": (
            ("verify", "--loop", "L1", "--scalars", "D=2,F"),
            "repro: --scalars: 'F' is not NAME=VALUE (give "
            "NAME=VALUE[,...], e.g. D=2,F=3)"),
        "unknown-loop": (
            ("verify", "--loop", "NOPE"),
            "repro: unknown catalog loop 'NOPE'; available: AXPY, CONV, "
            "DFT, INDEP, L1, L2, L3, L3sub, L4, L5, MATVEC, OUTER, "
            "STENCIL2D, TRI"),
        "no-input": (
            ("verify",), "repro: give a source file or --loop NAME"),
        **{f"no-processors-{argv[0]}": (
            argv, f"repro: --processors must be >= 1 (got {argv[-1]})")
           for argv in [("select", "--loop", "L1", "-p", "0"),
                        ("report", "--loop", "L1", "-p", "0"),
                        ("transform", "--loop", "L1", "-p", "-2")]},
        "no-matmul": (
            ("chaos", "--matmul", "0"),
            "repro: --matmul must be >= 1 (got 0)"),
        # a fault plan that cannot be, wherever a spec is taken
        **{f"chaos-{command}-{spec}": (
            (command, "--loop", "L1", *backend, "--chaos", spec),
            f"repro: {reason}")
           for command, backend in [
               ("verify", ("--backend", "multiprocess")),
               ("run", ("--backend", "multiprocess")),
               ("chaos", ())]
           for spec, reason in [
               ("crash-prob=2", "crash-prob must be in [0, 1], got 2.0"),
               ("bogus=1", "unknown chaos key 'bogus'; known: crash-prob, "
                           "slow-prob, slow-ms, drop-prob, slow-blocks, "
                           "seed, shield-final"),
               ("crash-prob=abc",
                "chaos key 'crash-prob' cannot take 'abc'")]},
        "chaos-flag-out-of-range": (
            ("chaos", "--crash-prob", "2"),
            "repro: crash-prob must be in [0, 1], got 2.0"),
    }

    @pytest.mark.parametrize("case", sorted(USAGE))
    def test_usage_error_exit_2_one_line_no_blackbox(
            self, case, tmp_path, monkeypatch, capsys):
        from repro.pipeline import passes

        argv, want = self.USAGE[case]
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path))
        monkeypatch.setattr(
            passes, "run_pipeline",
            lambda *a, **kw: pytest.fail("planned before refusing"))
        code, text = run(*argv)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == want + "\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_duplicate_array_names_the_nests_arrays(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path))
        code, text = run("transform", "--loop", "L1",
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
        "events": ("verify", "--loop", "L1", "--events"),
        "metrics-out": ("verify", "--loop", "L1", "--metrics-out"),
        "profile": ("verify", "--loop", "L1", "--profile"),
        "run-json": ("run", "--loop", "L1", "--json"),
        "audit-json": ("audit", "--loop", "L1", "--json"),
        "chaos-json": ("chaos", "--matmul", "4", "--json"),
    }

    @pytest.mark.parametrize("case", sorted(OUTPUTS))
    def test_unwritable_output_exit_2_one_line_no_blackbox(
            self, case, tmp_path, monkeypatch, capsys):
        from repro.pipeline import passes

        box = tmp_path / "blackbox"
        box.mkdir()
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(box))
        monkeypatch.setattr(
            passes, "run_pipeline",
            lambda *a, **kw: pytest.fail("planned before refusing"))
        path = tmp_path / "nonexistent" / "out"
        code, text = run(*self.OUTPUTS[case], str(path))
        assert code == 2 and text == ""
        assert capsys.readouterr().err == \
            f"repro: cannot write {path}: No such file or directory\n"
        assert list(box.iterdir()) == []

    def test_the_writability_check_leaves_no_file(self, tmp_path):
        """Asking is not writing: no empty file appears, and an existing
        one is not truncated."""
        import argparse

        from repro.cli import _refusal

        new, old = tmp_path / "t.json", tmp_path / "m.json"
        old.write_text("kept")
        args = argparse.Namespace(trace=str(new), metrics_out=str(old),
                                  json=None)
        assert _refusal(args) is None
        assert not new.exists() and old.read_text() == "kept"
        args.events = str(tmp_path)
        assert _refusal(args) == \
            f"cannot write {tmp_path}: Is a directory"

    def test_bound_scalar_verifies(self, tmp_path, capsys):
        path = tmp_path / "nest.loop"
        path.write_text(self.CASES["unbound-scalar"][0])
        code, text = run("verify", str(path), "--scalars", "alpha=2")
        assert code == 0 and "OK" in text
        assert _stderr_reason(capsys) == []

    def test_an_internal_error_still_dumps_and_propagates(
            self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path))

        def boom(args):
            raise KeyError("not the user's doing")

        monkeypatch.setattr(cli, "_load_nest", boom)
        with pytest.raises(KeyError):
            run("verify", "--loop", "L1")
        assert list(tmp_path.glob("repro-blackbox-*.json"))
