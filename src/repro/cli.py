"""Command-line compiler driver.

    python -m repro analyze   <file|--loop L1>         reference analysis
    python -m repro partition <file|--loop L1> [...]   partition + render
    python -m repro transform <file|--loop L4> [...]   parallel form
    python -m repro verify    <file|--loop L1> [...]   end-to-end check
    python -m repro select    <file|--loop L5> -p 16   strategy selection
    python -m repro audit     <file|--loop L1> [...]   communication audit
    python -m repro chaos     [--crash-prob 0.2 ...]   fault-injected run
    python -m repro blackbox  [FILE]                   post-mortem ring dump
    python -m repro figures                            regenerate Figs. 1-10
    python -m repro tables                             Tables I & II

Loops come from a mini-language source file or the built-in catalog
(``--loop``).  Strategy flags: ``--duplicate`` (all arrays),
``--duplicate-arrays A,B`` (subset), ``--eliminate`` (Section III.C).

Every subcommand runs through the pass pipeline
(:mod:`repro.pipeline`); add ``--timings`` to print the per-pass timing
table (including plan-cache hit/miss counters with miss reasons).
Observability flags work on every subcommand too: ``--trace FILE``
writes Chrome trace-event JSON (open in chrome://tracing or Perfetto),
``--metrics`` prints Prometheus-style metrics, ``--metrics-out FILE``
writes them to a file (JSON when the name ends in ``.json``),
``--events FILE`` writes a JSON-lines event log, and ``--profile FILE``
runs the sampling profiler over the command and writes collapsed-stack
flamegraph lines (its sample track also merges into ``--trace``
output).  Structured diagnostics (degenerate Psi, partial duplication,
...) go to stderr so stdout stays machine-stable.

Independent of all flags, coarse records stay in a bounded ring
(:mod:`repro.obs.trace`) that any unhandled failure -- an unrecoverable
scheduler, a collapsed pool, a failed chaos certification, a crash --
dumps as a ``repro-blackbox-*.json`` that ``repro blackbox`` renders.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.lang.ast import LoopNest
    from repro.pipeline import PipelineConfig, PipelineContext


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
    from repro.lang import catalog, parse

    if args.loop:
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


def _render_diagnostics(ctx: PipelineContext) -> None:
    if ctx.diagnostics:
        print(ctx.diagnostics.render(), file=sys.stderr)


def _compile(args, upto: str) -> PipelineContext:
    """Load the nest and run the pass pipeline up to ``upto``."""
    from repro.pipeline import run_pipeline

    ctx = run_pipeline(_load_nest(args), _config(args), upto=upto)
    _render_diagnostics(ctx)
    return ctx


def _session_from_args(args, nest=None, tracer=None):
    """An :class:`repro.api.Session` wired to the CLI's ambient scopes.

    The session reuses the command's current metrics registry and
    tracer (so ``--trace`` / ``--metrics`` / ``--timings`` see exactly
    what the session does) instead of creating private ones.
    """
    from repro.api import Session
    from repro.obs.metrics import current_registry
    from repro.obs.trace import current_tracer

    nest = nest if nest is not None else _load_nest(args)
    config = _config(args)
    return Session(
        nest,
        strategy=config.strategy,
        backend=getattr(args, "backend", None),
        chaos=getattr(args, "chaos", None),
        eliminate_redundant=config.eliminate_redundant,
        duplicate_arrays=config.duplicate_arrays,
        scalars=config.scalars_dict() or None,
        registry=current_registry(),
        tracer=tracer if tracer is not None else current_tracer(),
    )


def _render_session_diagnostics(session) -> None:
    if session.diagnostics:
        print(session.diagnostics.render(), file=sys.stderr)


def cmd_analyze(args, out) -> int:
    from repro.analysis import (build_reference_graph,
                                data_referenced_vectors, is_fully_duplicable)
    from repro.lang import to_source

    ctx = _compile(args, upto="eliminate-redundancy")
    nest, model = ctx.nest, ctx.model
    print(to_source(nest), file=out)
    print(file=out)
    for name, info in model.arrays.items():
        drvs = [tuple(int(x) for x in d.vector)
                for d in data_referenced_vectors(info)]
        dup = ("fully duplicable"
               if is_fully_duplicable(info, model.space)
               else "partially duplicable")
        print(f"array {name}: H = {info.h!r}", file=out)
        print(f"  references: "
              f"{[r.describe(nest.indices) for r in info.references]}", file=out)
        print(f"  data-referenced vectors: {drvs}", file=out)
        print(f"  {dup}", file=out)
        g = build_reference_graph(model, name)
        for s, d, k in g.edge_names():
            print(f"  edge {s} -> {d} [{k}]", file=out)
    if args.eliminate:
        print(file=out)
        print(ctx.redundancy.summary(), file=out)
    return 0


def cmd_partition(args, out) -> int:
    from repro.viz import render_data_partition, render_iteration_partition

    ctx = _compile(args, upto="partition")
    nest, plan = ctx.nest, ctx.plan
    print(plan.summary(), file=out)
    print(file=out)
    if nest.depth == 2:
        print(render_iteration_partition(plan.blocks,
                                         title="iteration -> block"), file=out)
        for name, dblocks in plan.data_blocks.items():
            info = plan.model.arrays[name]
            if info.rank == 2:
                print(file=out)
                print(render_data_partition(dblocks, title=f"array {name}"),
                      file=out)
    else:
        for b in plan.blocks[:12]:
            print(f"  block {b.index}: base {b.base_point}, "
                  f"{len(b)} iterations", file=out)
        if plan.num_blocks > 12:
            print(f"  ... {plan.num_blocks - 12} more blocks", file=out)
    return 0


def cmd_transform(args, out) -> int:
    from repro.mapping import workload_stats
    from repro.transform import to_pseudocode, to_spmd_pseudocode

    ctx = _compile(args, upto="map" if args.processors else "transform")
    tnest = ctx.tnest
    if args.processors:
        print(to_spmd_pseudocode(tnest, ctx.grid), file=out)
        print(file=out)
        print(workload_stats(ctx.assignment).summary(), file=out)
    else:
        print(to_pseudocode(tnest), file=out)
    return 0


def cmd_verify(args, out) -> int:
    with _session_from_args(args) as session:
        report = session.verify()
        _render_session_diagnostics(session)
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
    return _finish(report.ok, f"verification failed: {report.summary()}")


def cmd_run(args, out) -> int:
    """Execute the partitioned plan in parallel via the Session facade."""
    with _session_from_args(args) as session:
        result = session.run()
        _render_session_diagnostics(session)
    print(result.summary(), file=out)
    if args.json:
        _write_json(args.json, result.to_json())
    return _finish(result.ok, f"run failed: {result.summary()}")


def cmd_select(args, out) -> int:
    from repro.machine.cost import TRANSPUTER
    from repro.perf import choose_strategy

    nest = _load_nest(args)
    result = choose_strategy(nest, args.processors, cost=TRANSPUTER,
                             consider_elimination=args.eliminate)
    print(result.table(), file=out)
    print(f"\nbest: {result.best.label} "
          f"({result.best.blocks} blocks)", file=out)
    return 0


def cmd_report(args, out) -> int:
    from repro.report import compile_report

    nest = _load_nest(args)
    config = _config(args)
    rep = compile_report(nest, p=args.processors,
                         consider_elimination=not args.no_eliminate,
                         scalars=config.scalars_dict() or None,
                         config=config)
    print(rep.render(), file=out)
    ok = rep.verification is None or rep.verification.ok
    return _finish(ok, "report verification failed"
                   if rep.verification is None
                   else f"report verification failed: "
                        f"{rep.verification.summary()}")


def cmd_audit(args, out) -> int:
    from repro.obs.audit import inject_violation, render_audit_dashboard
    from repro.obs.trace import Tracer, current_tracer
    from repro.runtime.engine.base import available_backends

    if args.backend in (None, "all"):
        backends: list = available_backends()
    else:
        backends = [args.backend]

    outer = current_tracer()
    with _session_from_args(args) as session:
        plan = session.plan()
        _render_session_diagnostics(session)
        if args.inject_violation:
            plan = inject_violation(plan)
        # the span rollup needs a recording tracer; when the outer one
        # is the null recorder, swap a private one in for just the
        # audit (the plan build above stays untraced, as before)
        tracer = outer if outer.enabled else Tracer(enabled=True)
        session.tracer = tracer
        report = session.audit(plan=plan, backends=backends,
                               run_engines=not args.static)
        spans = tracer.spans
    print(render_audit_dashboard(report, spans=spans), file=out)
    if args.json:
        _write_json(args.json, report.to_dict())
    return _finish(report.certified,
                   f"audit violation: {report.summary()}")


def cmd_serve(args, out) -> int:
    """The serving daemon: start/stop/status plus one-shot submit."""
    import json as jsonmod

    from repro.serve import daemon as dmod

    socket_path = args.socket or dmod.default_socket_path()
    if args.action == "start":
        if args.foreground:
            dmod.run_daemon(socket_path,
                            max_concurrency=args.concurrency,
                            queue_limit=args.queue_limit)
            return 0
        try:
            pid = dmod.spawn_daemon(socket_path,
                                    max_concurrency=args.concurrency,
                                    queue_limit=args.queue_limit)
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

    from repro.serve.client import ServeClient, ServeError

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
        # submit: one request over the wire, payload to stdout
        if args.loop:
            nest = args.loop
        elif args.file:
            with open(args.file) as fh:
                nest = fh.read()
        else:
            raise UsageError("give a source file or --loop NAME")
        config = _config(args)
        fields = dict(
            nest=nest,
            strategy=config.strategy.value,
            eliminate_redundant=config.eliminate_redundant,
            backend=getattr(args, "backend", None),
            scalars=config.scalars_dict() or None,
        )
        if config.duplicate_arrays is not None:
            fields["duplicate_arrays"] = tuple(sorted(
                config.duplicate_arrays))
        try:
            result = client.request(args.op, **fields)
        except ServeError as exc:
            return _finish(False, exc.response.reason())
        print(jsonmod.dumps(result, indent=2, sort_keys=True), file=out)
        return 0 if result.get("ok", True) else _finish(
            False, f"serve {args.op} failed")


def cmd_chaos(args, out) -> int:
    """Fault-injected multiprocess run + recovery certification.

    Runs the plan on the multiprocess engine under a
    :class:`~repro.runtime.scheduler.FaultPlan`, prints the ASCII lease
    timeline, and certifies recovery three ways: the scheduler
    recovered every unit, the merged arrays and write stamps are
    bit-identical to an undisturbed interpreter run, and the static
    audit still certifies zero cross-block accesses.
    """
    from dataclasses import replace as _replace

    from repro.core import Strategy, build_plan
    from repro.lang.catalog import matmul
    from repro.machine.memory import RemoteAccessError
    from repro.obs.audit import audit_plan, inject_violation
    from repro.runtime.arrays import make_arrays
    from repro.runtime.merge import merge_copies
    from repro.runtime.parallel import run_parallel
    from repro.runtime.scheduler import (FaultPlan, SchedulerError,
                                         render_timeline)

    # -- the fault plan: --chaos spec, overridden by convenience flags ----
    fp = FaultPlan.parse(args.chaos) or FaultPlan()
    overrides = {}
    for key in ("crash_prob", "slow_prob", "slow_ms", "drop_prob", "seed"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if overrides:
        fp = _replace(fp, **overrides)
    if not fp.active:
        fp = _replace(fp, crash_prob=0.2)  # bare `repro chaos` still bites

    # -- the plan ---------------------------------------------------------
    if args.file or args.loop:
        ctx = _compile(args, upto="partition")
        plan = ctx.plan
    else:
        nest = matmul(args.matmul)
        plan = build_plan(nest, strategy=Strategy.DUPLICATE)
    if args.inject_violation:
        plan = inject_violation(plan)

    print(f"chaos: {fp.describe()} on {plan.nest.name or '<anon>'} "
          f"({len(plan.blocks)} blocks, multiprocess engine)", file=out)

    # -- the runs: undisturbed interp golden, then chaos ------------------
    initial = make_arrays(plan.model)
    try:
        golden = run_parallel(plan, initial=initial, backend="interp")
        res = run_parallel(plan, initial=initial, backend="multiprocess",
                           chaos=fp)
    except SchedulerError as exc:
        return _finish(False, f"chaos non-recovery: {exc}")
    except RemoteAccessError as exc:
        return _finish(False, f"remote access under chaos: {exc}")

    sres = res.scheduler
    print(file=out)
    if sres is not None:
        print(render_timeline(sres), file=out)
    else:
        # the engine degraded to an in-process tier; nothing was leased
        print("no scheduler ran (pool unavailable; degraded in-process)",
              file=out)

    # -- certification ----------------------------------------------------
    stamps_ok = res.write_stamps == golden.write_stamps
    counters_ok = (res.executed_iterations == golden.executed_iterations
                   and res.skipped_computations
                   == golden.skipped_computations)
    merged = merge_copies(res, initial)
    merged_golden = merge_copies(golden, initial)
    arrays_ok = all(merged[n] == merged_golden[n] for n in merged_golden)
    audit = audit_plan(plan, run_engines=False)

    print(file=out)
    print(f"recovered:            "
          f"{'yes' if sres is None or sres.recovered else 'NO'}", file=out)
    print(f"arrays vs interp:     "
          f"{'bit-identical' if arrays_ok else 'MISMATCH'}", file=out)
    print(f"write stamps:         "
          f"{'bit-identical' if stamps_ok else 'MISMATCH'}", file=out)
    print(f"counters:             "
          f"{'bit-identical' if counters_ok else 'MISMATCH'}", file=out)
    print(f"audit:                {audit.summary()}", file=out)

    timeline = sres.to_json() if sres is not None else None
    if args.json:
        _write_json(args.json, {
            "chaos": fp.describe(), "scheduler": timeline,
            "arrays_ok": arrays_ok, "stamps_ok": stamps_ok,
            "counters_ok": counters_ok, "audit_ok": audit.ok,
        })

    failed = None
    if sres is not None and not sres.recovered:
        failed = ("units missing", "chaos non-recovery: "
                  f"{sres.units - sres.completed_units} unit(s) never "
                  "completed")
    elif not (arrays_ok and stamps_ok and counters_ok):
        failed = ("result mismatch", "chaos run is not bit-identical to "
                  "the interp golden run")
    if failed:
        from repro.obs.flight import dump_blackbox

        dump_blackbox(f"chaos certification failed: {failed[0]}",
                      extra={"scheduler": timeline})
        return _finish(False, failed[1])
    return _finish(audit.ok, f"audit violation: {audit.summary()}")


def cmd_blackbox(args, out) -> int:
    """Render a blackbox post-mortem dump (newest by default)."""
    from repro.obs.flight import (latest_blackbox, load_blackbox,
                                  render_blackbox)

    path = args.file or latest_blackbox(args.dir)
    if path is None:
        where = args.dir or "the current directory"
        return _finish(False, f"no repro-blackbox-*.json dumps in {where}")
    try:
        doc = load_blackbox(path)
    except (OSError, ValueError) as exc:     # incl. JSONDecodeError
        return _finish(False, f"cannot read blackbox {path}: {exc}")
    print(f"file: {path}", file=out)
    print(render_blackbox(doc, last=args.last), file=out)
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-V", "--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

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

    def add_subparser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--timings", action="store_true",
                       help="print the per-pass timing table")
        p.add_argument("--trace", metavar="FILE",
                       help="write a Chrome trace-event JSON "
                            "(chrome://tracing / Perfetto) for this command")
        p.add_argument("--metrics", action="store_true",
                       help="print Prometheus-style metrics after the "
                            "command output")
        p.add_argument("--metrics-out", metavar="FILE",
                       help="write metrics to FILE (.json for JSON, "
                            "anything else for Prometheus text)")
        p.add_argument("--events", metavar="FILE",
                       help="write a JSON-lines structured event log")
        p.add_argument("--profile", metavar="FILE",
                       help="sample wall time over this command and write "
                            "collapsed-stack flamegraph lines to FILE "
                            "(also prints the per-subsystem table)")
        return p

    p = add_subparser("analyze", help="reference-pattern analysis")
    add_loop_args(p)
    p.add_argument("--eliminate", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = add_subparser("partition", help="communication-free partition")
    add_loop_args(p)
    add_strategy_args(p)
    p.set_defaults(fn=cmd_partition)

    p = add_subparser("transform", help="parallel (forall) form")
    add_loop_args(p)
    add_strategy_args(p)
    p.add_argument("-p", "--processors", type=int, default=0,
                   help="emit SPMD code for this many processors")
    p.set_defaults(fn=cmd_transform)

    p = add_subparser("verify", help="parallel == sequential check")
    add_loop_args(p)
    add_strategy_args(p)
    p.add_argument("--scalars", help="bindings, e.g. 'D=2,F=3'")
    p.add_argument("--backend",
                   help="execution engine: interp, compiled, codegen, "
                        "vectorized, multiprocess, auto, or 'all' to "
                        "cross-check every available backend")
    p.add_argument("--chaos", metavar="SPEC",
                   help="fault-injection spec scoped over the run, e.g. "
                        "'crash-prob=0.2,seed=7' (multiprocess backend)")
    p.set_defaults(fn=cmd_verify)

    p = add_subparser("run", help="execute the plan (Session facade)")
    add_loop_args(p)
    add_strategy_args(p)
    p.add_argument("--scalars", help="bindings, e.g. 'D=2,F=3'")
    p.add_argument("--backend",
                   help="execution engine: interp, compiled, codegen, "
                        "vectorized, multiprocess, auto")
    p.add_argument("--chaos", metavar="SPEC",
                   help="fault-injection spec scoped over the run, e.g. "
                        "'crash-prob=0.2,seed=7' (multiprocess backend)")
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
    p.add_argument("--op", default="verify",
                   choices=["plan", "run", "verify", "audit"],
                   help="submit: the operation (default verify)")
    add_loop_args(p)
    add_strategy_args(p)
    p.add_argument("--scalars", help="bindings, e.g. 'D=2,F=3'")
    p.add_argument("--backend",
                   help="execution engine for submitted run/verify ops")
    p.set_defaults(fn=cmd_serve)

    p = add_subparser("select", help="cost-based strategy selection")
    add_loop_args(p)
    p.add_argument("-p", "--processors", type=int, default=16)
    p.add_argument("--eliminate", action="store_true")
    p.set_defaults(fn=cmd_select)

    p = add_subparser("report", help="full pipeline report for one loop")
    add_loop_args(p)
    p.add_argument("-p", "--processors", type=int, default=16)
    p.add_argument("--no-eliminate", action="store_true",
                   help="skip the redundancy-elimination comparison")
    p.add_argument("--scalars", help="bindings, e.g. 'D=2,F=3'")
    p.add_argument("--backend",
                   help="execution engine for the verification run")
    p.set_defaults(fn=cmd_report)

    p = add_subparser("audit",
                      help="communication-freedom audit + ASCII dashboard")
    add_loop_args(p)
    add_strategy_args(p)
    p.add_argument("--scalars", help="bindings, e.g. 'D=2,F=3'")
    p.add_argument("--backend",
                   help="engine to reconcile against the static replay "
                        "(default: 'all' available backends)")
    p.add_argument("--static", action="store_true",
                   help="static replay only; skip the engine runs")
    p.add_argument("--inject-violation", action="store_true",
                   help="audit a deliberately broken variant of the plan "
                        "(exercises the violation path; exits non-zero)")
    p.add_argument("--json", metavar="FILE",
                   help="also write the audit report as JSON")
    p.set_defaults(fn=cmd_audit)

    p = add_subparser("chaos",
                      help="fault-injected run + ASCII lease timeline "
                           "+ recovery certification")
    add_loop_args(p)
    add_strategy_args(p)
    p.add_argument("--matmul", type=int, default=12, metavar="N",
                   help="run the NxNxN matmul workload when no "
                        "file/--loop is given (default 12)")
    p.add_argument("--chaos", metavar="SPEC",
                   help="full fault-plan spec, e.g. "
                        "'crash-prob=0.2,drop-prob=0.1,seed=7'")
    p.add_argument("--crash-prob", type=float, default=None,
                   help="per-lease worker-crash probability")
    p.add_argument("--slow-prob", type=float, default=None,
                   help="per-lease slow-worker probability")
    p.add_argument("--slow-ms", type=float, default=None,
                   help="delay for slow leases, milliseconds")
    p.add_argument("--drop-prob", type=float, default=None,
                   help="per-lease lost-result probability")
    p.add_argument("--seed", type=int, default=None,
                   help="fault-plan seed (runs are deterministic per seed)")
    p.add_argument("--inject-violation", action="store_true",
                   help="chaos on a deliberately broken plan (must abort "
                        "with a remote access; exits non-zero)")
    p.add_argument("--json", metavar="FILE",
                   help="also write the scheduler timeline + verdicts "
                        "as JSON")
    p.set_defaults(fn=cmd_chaos)

    p = add_subparser("blackbox",
                      help="render a blackbox post-mortem dump")
    p.add_argument("file", nargs="?",
                   help="dump file (default: newest repro-blackbox-*.json)")
    p.add_argument("--dir", metavar="DIR",
                   help="directory to search for dumps "
                        "(default: $REPRO_BLACKBOX_DIR or the cwd)")
    p.add_argument("--last", type=int, default=40, metavar="N",
                   help="ring entries to show (default 40)")
    p.set_defaults(fn=cmd_blackbox)

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
    unbound, a fault plan that cannot be -- else ``None``: a crash."""
    if isinstance(exc, UsageError):
        return str(exc)
    from repro.analysis.references import NonUniformReferenceError
    from repro.core.strategy import UnknownArrayError
    from repro.lang.lexer import LexError
    from repro.lang.parser import ParseError
    from repro.runtime.scheduler.faults import ChaosSpecError
    from repro.runtime.seq import UnboundScalarError

    if isinstance(exc, UnboundScalarError):
        return f"{exc}; bind it with --scalars {exc.args[0]}=<value>"
    if isinstance(exc, OSError) and exc.filename is not None \
            and exc.filename == getattr(args, "file", None):
        return f"cannot read {exc.filename}: {exc.strerror}"
    if isinstance(exc, (LexError, ParseError, NonUniformReferenceError,
                        UnknownArrayError, ChaosSpecError)):
        return str(exc)
    return None


def _refusal(args) -> Optional[str]:
    """Why this command line cannot be run, found out before anything is
    planned: an unknown backend, a machine of no processors, a matmul of
    no size, or a file the command is to write when the work is done
    that cannot be written."""
    p = getattr(args, "processors", 1)
    if p < 1 and (p, args.command) != (0, "transform"):  # 0: no SPMD listing
        return f"--processors must be >= 1 (got {p})"
    if getattr(args, "matmul", 1) < 1:
        return f"--matmul must be >= 1 (got {args.matmul})"
    if getattr(args, "backend", None) is not None:
        from repro.runtime.engine.base import unknown_backend

        refusal = unknown_backend(args.backend,
                                  cross_check=args.command != "run")
        if refusal:
            return refusal
    flags = ("trace", "events", "metrics_out", "profile", "json")
    for path in filter(None, (getattr(args, f, None) for f in flags)):
        existed = os.path.exists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            return f"cannot write {path}: {exc.strerror}"
        if not existed:
            os.unlink(path)
    return None


def _invoke(args, out) -> int:
    """Run one subcommand under the ring's crash net.

    An input error ends in the uniform ``_finish`` protocol with exit 2.
    Any other exception that would escape the driver dumps the ring
    first (``repro blackbox`` then has the post-mortem), and still
    propagates -- the dump documents the failure, it never masks it.
    """
    from repro.obs.trace import current_tracer

    tracer = current_tracer()
    with tracer.span(f"cli.{args.command}", category="cli",
                     coarse=True) as sp:
        try:
            code = args.fn(args, out)
        except BrokenPipeError:
            # downstream reader (e.g. `| head`) closed our stdout early:
            # not a failure of ours, so no blackbox, no traceback --
            # mirror the conventional 128+SIGPIPE exit (the __main__ shim
            # redirects the real fd so the interpreter's shutdown flush
            # stays quiet)
            code = 141
        except Exception as exc:
            reason = _input_error(args, exc)
            if reason is None:
                from repro.obs.flight import dump_blackbox

                tracer.event("cli.crash", category="cli", coarse="error",
                             command=args.command,
                             exc=f"{type(exc).__name__}: {exc}")
                dump_blackbox(f"unhandled {type(exc).__name__} in repro "
                              f"{args.command}: {exc}")
                raise
            code = _finish(False, reason, 2)
        sp.set(exit_code=code)
    return code


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out or sys.stdout
    refusal = _refusal(args)
    if refusal:
        return _finish(False, refusal, 2)
    trace_path = getattr(args, "trace", None)
    events_path = getattr(args, "events", None)
    metrics_flag = getattr(args, "metrics", False)
    metrics_out = getattr(args, "metrics_out", None)
    timings = getattr(args, "timings", False)
    profile_path = getattr(args, "profile", None)
    if not (trace_path or events_path or metrics_flag or metrics_out
            or timings or profile_path):
        return _invoke(args, out)

    from repro.obs import (MetricsRegistry, Tracer, prometheus_text,
                           timing_table, use_registry, use_tracer,
                           write_chrome_trace, write_event_log,
                           write_metrics)
    from repro.obs.profile import SamplingProfiler

    # fresh recorders so every sink covers exactly this command; the
    # tracer keeps only coarse records unless a trace/event file was
    # requested
    registry = MetricsRegistry()
    tracer = Tracer(enabled=bool(trace_path or events_path))
    profiler = SamplingProfiler() if profile_path else None
    with use_registry(registry), use_tracer(tracer):
        if profiler is not None:
            profiler.start()
        try:
            code = _invoke(args, out)
        finally:
            if profiler is not None:
                profiler.stop()
                profiler.publish(registry)
    if timings:
        print(file=out)
        print(timing_table(registry), file=out)
    if profiler is not None:
        profiler.write_collapsed(profile_path)
        print(file=out)
        print(profiler.report(), file=out)
        print(f"profile: {profiler.sample_count} samples -> {profile_path} "
              f"(collapsed stacks; feed to any flamegraph renderer)",
              file=out)
    if metrics_flag:
        print(file=out)
        print(prometheus_text(registry), file=out)
    if metrics_out:
        write_metrics(registry, metrics_out)
    if trace_path:
        # the sampler's instants ride along on their own track
        write_chrome_trace(tracer, trace_path, extra_events=(
            profiler.chrome_events(tracer.pid) if profiler else ()))
    if events_path:
        write_event_log(tracer, events_path)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
