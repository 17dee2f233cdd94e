"""The command line: ``python -m repro <subcommand>``.

``verify`` / ``run`` / ``audit`` / ``report`` and ``serve submit`` run
the rows of the op table (:data:`repro.api.OPS`) that the serving
daemon runs too; ``report`` is the one command that explains a nest
(``--section NAME`` prints only the named sections).
Loops come from a mini-language source file or the built-in catalog
(``--loop``).  Strategy flags: ``--duplicate`` (all arrays),
``--duplicate-arrays A,B`` (subset), ``--eliminate`` (Section III.C).

Every subcommand runs through the pass pipeline
(:mod:`repro.pipeline`) and takes one observability flag: ``--trace
FILE`` writes the run's one observability document -- a Chrome
trace-event JSON (open in chrome://tracing or Perfetto) whose
``otherData`` holds the command, its exit code and the metrics
registry (``python -m repro.obs.export FILE --as prom|timings`` renders
it as Prometheus text or as the per-pass timing table with the
plan-cache hit/miss counters).  The document is written however the
command ends: after a crash it holds exit code 1 and a ``cli.crash``
event, and the traceback still follows.  Structured diagnostics
(degenerate Psi, partial duplication, ...) go to stderr so
stdout stays machine-stable.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.lang.ast import LoopNest
    from repro.pipeline import PipelineConfig


def _finish(ok: bool, reason: str, code: int = 1) -> int:
    """The uniform exit protocol: every subcommand that can fail goes
    through here, so failure always means a non-zero exit *and* a
    one-line ``repro: <reason>`` on stderr (stdout stays machine-stable).
    """
    if ok:
        return 0
    print(f"repro: {reason}", file=sys.stderr)
    return code


def _write_json(path: str, doc) -> None:
    """A ``--json FILE`` result document."""
    import json

    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class UsageError(Exception):
    """The command line asks for something that cannot be run; the
    message is the one-line reason (``_invoke`` ends it with exit 2)."""


def _load_nest(args) -> LoopNest:
    from repro.lang import parse

    if args.loop:
        from repro.lang import catalog

        fn = catalog.ALL_LOOPS.get(args.loop)
        if fn is None:
            raise UsageError(
                f"unknown catalog loop {args.loop!r}; available: "
                f"{', '.join(sorted(catalog.ALL_LOOPS))}")
        return fn()
    if not args.file:
        raise UsageError("give a source file or --loop NAME")
    with open(args.file) as fh:
        return parse(fh.read(), name=args.file)


def _config(args) -> PipelineConfig:
    from repro.pipeline import PipelineConfig

    try:
        return PipelineConfig.from_cli_args(args)
    except ValueError as exc:   # a malformed --scalars
        raise UsageError(str(exc)) from None


def _render_diagnostics(holder) -> None:
    """A pipeline context's or a session's diagnostics, to stderr."""
    if holder.diagnostics:
        print(holder.diagnostics.render(), file=sys.stderr)


def _session_from_args(args):
    """An :class:`repro.api.Session` wired to the CLI's ambient scopes.

    The session reuses the command's current metrics registry and
    tracer (so ``--trace`` sees exactly what the session
    does) instead of creating private ones.
    """
    from repro.api import Session
    from repro.obs.metrics import current_registry
    from repro.obs.trace import current_tracer

    config = _config(args)
    return Session(
        _load_nest(args),
        strategy=config.strategy,
        backend=getattr(args, "backend", None),
        eliminate_redundant=config.eliminate_redundant,
        duplicate_arrays=config.duplicate_arrays,
        scalars=config.scalars_dict() or None,
        registry=current_registry(),
        tracer=current_tracer(),
    )


def _op(args, name: str, **kwargs):
    """(row ``name`` of the op table, its result on this command line)."""
    from repro.api import OPS

    op = OPS[name]
    with _session_from_args(args) as session:
        result = op(session, args.backend, **kwargs)
        _render_diagnostics(session)
    return op, result


def cmd_verify(args, out) -> int:
    op, report = _op(args, "verify")
    print(f"blocks: {report.num_blocks}", file=out)
    print(f"executed iterations: {report.executed_iterations}", file=out)
    print(f"skipped (redundant) computations: "
          f"{report.skipped_computations}", file=out)
    print(f"remote accesses: {report.remote_accesses}", file=out)
    print(f"parallel == sequential: {report.equal}", file=out)
    if report.cross_checked:
        agreed = ", ".join(
            f"{name}:{'ok' if rep.ok else 'FAIL'}"
            for name, rep in sorted(report.cross_checked.items()))
        print(f"backends cross-checked: {agreed}", file=out)
    elif args.backend:
        print(f"backend: {report.backend}", file=out)
    print("OK" if report.ok else "FAILED", file=out)
    return _finish(report.ok, op.reason(report))


def cmd_run(args, out) -> int:
    """Execute the partitioned plan in parallel via the Session facade."""
    op, result = _op(args, "run")
    print(result.summary(), file=out)
    if args.json:
        _write_json(args.json, result.to_json())
    return _finish(result.ok, op.reason(result))


def cmd_report(args, out) -> int:
    op, rep = _op(args, "report", p=args.processors, sections=args.section)
    print(rep.render(), file=out)
    return _finish(rep.ok, op.reason(rep))


def cmd_audit(args, out) -> int:
    from repro.api import OPS
    from repro.obs.audit import inject_violation, render_audit_dashboard
    from repro.obs.trace import Tracer, current_tracer

    op = OPS["audit"]
    outer = current_tracer()
    with _session_from_args(args) as session:
        plan = session.plan()
        _render_diagnostics(session)
        if args.inject_violation:
            plan = inject_violation(plan)
        # the span rollup needs a recording tracer; when the outer one
        # is the null recorder, swap a private one in for just the
        # audit (the plan build above stays untraced, as before)
        tracer = outer if outer.enabled else Tracer(enabled=True)
        session.tracer = tracer
        if args.static:
            report = op(session, plan=plan, backends=[])
        else:   # no --backend reconciles every available engine
            report = op(session, args.backend or "all", plan=plan)
        spans = tracer.spans
    print(render_audit_dashboard(report, spans=spans), file=out)
    if args.json:
        _write_json(args.json, report.to_json())
    return _finish(report.ok, op.reason(report))


def cmd_serve(args, out) -> int:
    """The serving daemon: start/stop/status plus one-shot submit."""
    import json as jsonmod

    from repro.serve import daemon as dmod

    socket_path = args.socket or dmod.default_socket_path()
    if args.action == "start":
        width = dict(max_concurrency=args.concurrency,
                     queue_limit=args.queue_limit)
        if args.foreground:     # what spawn_daemon runs, detached
            dmod.run_daemon(socket_path, **width)
            return 0
        try:
            pid = dmod.spawn_daemon(socket_path, **width)
        except RuntimeError as exc:
            return _finish(False, str(exc))
        print(f"serve: daemon pid {pid} listening on {socket_path}",
              file=out)
        return 0
    if args.action == "stop":
        if dmod.stop_daemon(socket_path):
            print("serve: stopped", file=out)
            return 0
        return _finish(False, f"no daemon at {socket_path}")

    from repro.serve.client import ServeClient
    from repro.serve.protocol import Request

    try:
        client = ServeClient(socket_path)
    except (ConnectionError, OSError) as exc:
        return _finish(False,
                       f"cannot reach daemon at {socket_path}: {exc}")
    with client:
        if args.action == "status":
            print(jsonmod.dumps(client.status(), indent=2, sort_keys=True),
                  file=out)
            return 0
        # submit: the op's row runs in the daemon; its payload to
        # stdout, its failure line (the one the op prints here) to stderr
        if args.loop:
            nest = args.loop
        elif args.file:
            with open(args.file) as fh:
                nest = fh.read()
        else:
            raise UsageError("give a source file or --loop NAME")
        config = _config(args)
        resp = client.call(Request(
            op=args.op, nest=nest, strategy=config.strategy.value,
            duplicate_arrays=config.duplicate_arrays,
            eliminate_redundant=config.eliminate_redundant,
            backend=args.backend, scalars=config.scalars_dict() or None))
        if resp.result is not None:
            print(jsonmod.dumps(resp.result, indent=2, sort_keys=True),
                  file=out)
        return _finish(resp.ok, resp.reason())


def cmd_figures(args, out) -> int:
    from repro.viz import figures as figmod

    for fn in (figmod.fig01_l1_dataspaces, figmod.fig02_l1_data_partition,
               figmod.fig03_l1_iteration_partition,
               figmod.fig04_l2_data_partition,
               figmod.fig05_l2_iteration_partition,
               figmod.fig07_l3_reference_graph,
               figmod.fig08_l3_data_partition,
               figmod.fig09_l3_iteration_partition,
               figmod.fig10_l4_processor_assignment):
        print(str(fn()), file=out)
        print(file=out)
    return 0


def cmd_selftest(args, out) -> int:
    from repro.selftest import run_selftest

    failures = run_selftest(out=out)
    return _finish(not failures, f"selftest: {failures} claim(s) failed")


def cmd_tables(args, out) -> int:
    from repro.perf.tables import format_rows, table1_rows, table2_rows

    print("Table I: execution time (s), simulated vs paper", file=out)
    print(format_rows(table1_rows(),
                      ["loop", "p", "M", "simulated_s", "paper_s"]), file=out)
    print(file=out)
    print("Table II: speedup, simulated vs paper", file=out)
    print(format_rows(table2_rows(),
                      ["loop", "p", "M", "simulated_speedup",
                       "paper_speedup"]), file=out)
    return 0


class _HelpFormatter(argparse.HelpFormatter):
    """``%(backends)s`` in a help line is the registry's backend names,
    read when help is printed: building the parser loads no layer."""

    def _get_help_string(self, action):
        from repro.runtime.engine.base import backend_names

        return action.help.replace("%(backends)s", ", ".join(backend_names()))


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: options and operands mix in any order.
    ``serve submit --op verify nest.loop`` is ``serve submit nest.loop
    --op verify``; argparse alone hands every positional to the first
    run of operands, so ``file`` is bound to nothing and ``nest.loop``
    is left over."""

    _mixing = False

    def parse_known_args(self, args=None, namespace=None):
        if self._mixing:        # the two passes of the intermixed parse
            return super().parse_known_args(args, namespace)
        self._mixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._mixing = False


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-V", "--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Subcommand)

    def add_loop_args(p):
        p.add_argument("file", nargs="?", help="mini-language source file")
        p.add_argument("--loop", help="catalog loop name (L1..L5, ...)")

    def add_strategy_args(p):
        p.add_argument("--duplicate", action="store_true",
                       help="duplicate-data strategy (Theorem 2)")
        p.add_argument("--duplicate-arrays",
                       help="comma-separated arrays to duplicate")
        p.add_argument("--eliminate", action="store_true",
                       help="eliminate redundant computations (Sec. III.C)")

    def add_engine_args(p, backend_help):
        p.add_argument("--scalars", help="bindings, e.g. 'D=2,F=3'")
        p.add_argument("--backend", help=backend_help)

    def add_subparser(name, **kwargs):
        p = sub.add_parser(name, formatter_class=_HelpFormatter, **kwargs)
        p.add_argument("--trace", metavar="FILE",
                       help="write this command's observability document: "
                            "a Chrome trace-event JSON (chrome://tracing / "
                            "Perfetto) carrying its metrics")
        return p

    p = add_subparser("verify", help="parallel == sequential check")
    add_loop_args(p)
    add_strategy_args(p)
    add_engine_args(p, "execution engine: %(backends)s, or 'all' to "
                       "cross-check every available backend")
    p.set_defaults(fn=cmd_verify)

    p = add_subparser("run", help="execute the plan (Session facade)")
    add_loop_args(p)
    add_strategy_args(p)
    add_engine_args(p, "execution engine: %(backends)s")
    p.add_argument("--json", metavar="FILE",
                   help="also write the run result as JSON")
    p.set_defaults(fn=cmd_run)

    p = add_subparser("serve",
                      help="async batch-serving daemon (unix socket)")
    p.add_argument("action", choices=["start", "stop", "status", "submit"],
                   help="start/stop the daemon, query it, or submit "
                        "one request")
    p.add_argument("--socket", metavar="PATH",
                   help="unix socket path (default $REPRO_SERVE_SOCKET "
                        "or <cache-root>/serve.sock)")
    p.add_argument("--foreground", action="store_true",
                   help="start: run in the foreground instead of "
                        "daemonizing")
    p.add_argument("--concurrency", type=int, default=4,
                   help="start: executor width (default 4)")
    p.add_argument("--queue-limit", type=int, default=32,
                   help="start: admitted-request bound beyond the "
                        "executing ones (default 32)")
    p.add_argument("--op", default="verify",     # repro.api.OPS's rows
                   choices=["plan", "run", "verify", "audit", "report"],
                   help="submit: the operation (default verify)")
    add_loop_args(p)
    add_strategy_args(p)
    add_engine_args(p, "submit: the op's engine (%(backends)s; 'all' "
                       "for verify and audit; plan takes none)")
    p.set_defaults(fn=cmd_serve)

    p = add_subparser("report", help="the plan's derivation, section by "
                                     "section")
    add_loop_args(p)
    add_strategy_args(p)
    p.add_argument("-p", "--processors", type=int, default=16)
    p.add_argument("--section", action="append", metavar="NAME",
                   help="print only this section (repeatable; report "
                        "order); default: every section")
    add_engine_args(p, "execution engine of the verification run: "
                       "%(backends)s, or 'all'")
    p.set_defaults(fn=cmd_report)

    p = add_subparser("audit",
                      help="communication-freedom audit + ASCII dashboard")
    add_loop_args(p)
    add_strategy_args(p)
    add_engine_args(p, "engine to reconcile against the static totals: "
                       "%(backends)s, or 'all' (the default: every "
                       "available one)")
    p.add_argument("--static", action="store_true",
                   help="static verdict only; skip the engine runs")
    p.add_argument("--inject-violation", action="store_true",
                   help="audit a deliberately broken variant of the plan "
                        "(exercises the violation path; exits non-zero)")
    p.add_argument("--json", metavar="FILE",
                   help="also write the audit report as JSON")
    p.set_defaults(fn=cmd_audit)

    p = add_subparser("figures", help="regenerate Figures 1-10")
    p.set_defaults(fn=cmd_figures)

    p = add_subparser("tables", help="regenerate Tables I-II")
    p.set_defaults(fn=cmd_tables)

    p = add_subparser("selftest",
                      help="re-check every paper claim (PASS/FAIL per claim)")
    p.set_defaults(fn=cmd_selftest)

    return parser


def _input_error(args, exc: Exception) -> Optional[str]:
    """The one-line reason if ``exc`` is an error in what the user handed
    us -- a command line that cannot be run, a nest file that is missing
    or does not parse, a subscript outside the model, a scalar left
    unbound -- else ``None``: a crash."""
    if isinstance(exc, UsageError):
        return str(exc)
    if isinstance(exc, OSError) and exc.filename is not None \
            and exc.filename == getattr(args, "file", None):
        return f"cannot read {exc.filename}: {exc.strerror}"
    from repro.api import input_error
    from repro.runtime.seq import UnboundScalarError

    reason = input_error(exc)
    if isinstance(exc, UnboundScalarError):
        reason += f"; bind it with --scalars {exc.args[0]}=<value>"
    return reason


def _refusal(args) -> Optional[str]:
    """Why this command line cannot be run, found out before anything is
    planned: an unknown backend, a machine of no processors, a section the report lacks, or a file
    the command is to write when the work is done that cannot be
    written."""
    p = getattr(args, "processors", 1)
    if p < 1:
        return f"--processors must be >= 1 (got {p})"
    if getattr(args, "section", None):
        from repro.report import section_refusal

        refusal = section_refusal(args.section)
        if refusal:
            return refusal
    if getattr(args, "backend", None) is not None:
        from repro.api import OPS

        # a submitted op's rule is its row's
        refusal = OPS[getattr(args, "op", None) or args.command].refusal(
            args.backend)
        if refusal:
            return refusal
    for path in filter(None, (args.trace, getattr(args, "json", None))):
        existed = os.path.exists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            return f"cannot write {path}: {exc.strerror}"
        if not existed:
            os.unlink(path)
    return None


def _invoke(args, out) -> int:
    """Run one subcommand.

    An input error ends in the uniform ``_finish`` protocol with exit 2.
    Any other exception is a crash: it is recorded as a ``cli.crash``
    event (the ``--trace`` document keeps it) and propagates with its
    traceback.
    """
    from repro.obs.trace import current_tracer

    tracer = current_tracer()
    with tracer.span(f"cli.{args.command}", category="cli") as sp:
        try:
            code = args.fn(args, out)
        except BrokenPipeError:
            # downstream reader (e.g. `| head`) closed our stdout early:
            # not a failure of ours, so no traceback -- mirror the
            # conventional 128+SIGPIPE exit (the __main__ shim redirects
            # the real fd so the interpreter's shutdown flush stays quiet)
            code = 141
        except Exception as exc:
            reason = _input_error(args, exc)
            if reason is None:
                tracer.event("cli.crash", category="cli",
                             command=args.command,
                             exc=f"{type(exc).__name__}: {exc}")
                raise
            else:
                code = _finish(False, reason, 2)
        sp.set(exit_code=code)
    return code


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out or sys.stdout
    refusal = _refusal(args)
    if refusal:
        return _finish(False, refusal, 2)
    if not args.trace:
        return _invoke(args, out)

    from repro.obs import (MetricsRegistry, Tracer, use_registry, use_tracer,
                           write_chrome_trace)

    # fresh recorders so the document covers exactly this command
    registry = MetricsRegistry()
    tracer = Tracer()
    code = 1    # what the document says if the command crashes
    try:
        with use_registry(registry), use_tracer(tracer):
            code = _invoke(args, out)
    finally:
        # written however the command ends: a crash's document is its
        # post-mortem, and the exception propagates after it
        write_chrome_trace(
            tracer, args.trace,
            command=list(sys.argv[1:] if argv is None else argv),
            exit_code=code, metrics=registry.snapshot())
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
