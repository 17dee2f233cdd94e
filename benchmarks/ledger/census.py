"""The layer census: every per-layer metric, measured on fixed inputs.

A ``--trace 1`` run first traces its own workload (which yields the
``ledger.*`` metrics and ``out/trace-<workload>.json``) and then takes
this census: one pass over every layer of the program with fixed op
counts, so the numbers mean the same thing whichever workload's traced
run printed them, and every *count* repeats exactly.

The census walks the layers in pipeline order and reuses what earlier
steps built:

1. one traced cold sweep over the corpus (lang, pipeline passes, plan
   cache as a writer, golden model, verify);
2. the same plans again for ``transform``/``map`` (memory hits) and
   after ``PLAN_CACHE.clear()`` (disk hits);
3. warm ``Session.run`` / ``Session.audit`` / ``Session.machine`` on
   those sessions (runtime, obs, machine);
4. the engine tiers, in two fresh child interpreters (:mod:`probe`):
   one with an empty kernel cache (cold), one with the cache the first
   left behind (disk-warm);
5. the CLI and the serving layers from outside (child processes, an
   in-process ``AsyncServer``, a spawned daemon).

Times are self times from the harness's spans (:mod:`spans`); nothing
in ``repro`` is edited or asked to time itself.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter

import corpus
import oracle
from hermetic import HERE
from spans import OP_SPAN, Recorder, Taps
from workloads import (
    Mix,
    ServeSocketMixed,
    cli_verify_ok,
    run_cli,
    wire_fields,
    wire_ok,
)

#: fixed op counts of the census (counts must repeat exactly)
RUN_OPS = 3


class Sizes:
    """How much the census does: full, or the self-test's ``--quick``."""

    def __init__(self, quick: bool) -> None:
        self.quick = quick
        self.child_repeats = 1 if quick else 3
        self.requests_per_connection = 40 if quick else 150
        self.samples = 20 if quick else 200


class CensusError(RuntimeError):
    """A census step produced a wrong answer."""


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise CensusError(f"census: {what}")


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - t0, out


def _child_seconds(argv: list[str], repeats: int) -> float:
    """Median wall time of a child process over a few launches."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return median(times)


# ---------------------------------------------------------------------------
# 1-3: the in-process layers
# ---------------------------------------------------------------------------

def _compile(world, nests, m: dict) -> list:
    """The traced cold sweep and the two warm re-plans; -> sessions."""
    from repro.api import Session
    from repro.lang.lexer import tokenize
    from repro.pipeline import passes
    from repro.pipeline.context import PipelineConfig

    cache = passes.PLAN_CACHE
    cache.clear()
    world.empty_disk_caches()

    rec = Recorder()
    sessions = []
    with Taps(rec), rec.span(OP_SPAN):
        for nest in nests:
            s = Session(nest.source, strategy=nest.strategy)
            plan = s.plan()
            report = s.verify(backend="auto")
            _need(report.ok and plan.num_blocks == oracle.blocks(
                nest.params, nest.strategy), f"{nest.name} miscompiled")
            sessions.append(s)
    t = rec.self_times()
    points = sum(oracle.iterations(n.params) for n in nests)
    m["lang.parse.s"] = t["lang.parse"]
    m["lang.fingerprint.s"] = t["lang.fingerprint"]
    m["lang.parse.tokens"] = sum(len(tokenize(n.source)) for n in nests)
    for name in ("extract-refs", "eliminate-redundancy", "choose-space",
                 "partition"):
        m[f"pipeline.{name}.s"] = t[f"pipeline.{name}"]
    m["pipeline.driver.self_s"] = t["pipeline.driver"]
    m["pipeline.partition.points"] = points
    m["pipeline.partition.blocks"] = sum(s.plan().num_blocks
                                         for s in sessions)
    m["pipeline.partition.us_per_point"] = \
        t["pipeline.partition"] / points * 1e6
    m["pipeline.cache.miss_put.s"] = \
        t["pipeline.cache.miss"] + t["pipeline.cache.put"]
    m["runtime.seq.s"] = t["runtime.seq"]
    m["runtime.verify.self_s"] = t["runtime.verify"]

    # transform + map over the cached plans: memory hits
    rec = Recorder()
    with Taps(rec):
        for s in sessions:
            passes.run_pipeline(
                s.nest, PipelineConfig(strategy=s.strategy, processors=4),
                upto="map")
    t = rec.self_times()
    m["pipeline.transform.s"] = t["pipeline.transform"]
    m["pipeline.map.s"] = t["pipeline.map"]
    m["pipeline.cache.mem_hit.s"] = \
        median(rec.durations("pipeline.cache.mem_hit"))
    hits = cache.hits
    for reason, count in cache.miss_reasons.items():
        m[f"pipeline.cache.miss.{reason}"] = count

    # a fresh memory cache over the warm disk store: disk hits
    cache.clear()
    rec = Recorder()
    with Taps(rec):
        for nest in nests:
            with Session(nest.source, strategy=nest.strategy) as s:
                s.plan()
    m["pipeline.cache.disk_hit.s"] = \
        median(rec.durations("pipeline.cache.disk_hit"))
    m["pipeline.cache.disk_bytes"] = world.plan_bytes()
    m["pipeline.cache.hit"] = hits + cache.hits
    return sessions


def _ratlinalg(sessions, m: dict) -> None:
    from repro.ratlinalg.rref import nullspace
    from repro.ratlinalg.solve import solve_particular

    null_s = solve_s = 0.0
    calls = 0
    for s in sessions:
        for info in s.plan().model.arrays.values():
            offsets = info.distinct_offsets()
            dt, _ = _timed(nullspace, info.h)
            null_s += dt
            dt, _ = _timed(solve_particular, info.h,
                           offsets[0] - offsets[-1])
            solve_s += dt
            calls += 1
    m["ratlinalg.nullspace.us"] = null_s / calls * 1e6
    m["ratlinalg.solve.us"] = solve_s / calls * 1e6


def _runtime(nests, sessions, m: dict) -> None:
    """Warm ``Session.run`` on the two MATMUL shapes."""
    pair = list(zip(nests, sessions))[-2:]
    for _, s in pair:
        s.run(backend="auto")
    rec = Recorder()
    with Taps(rec):
        for _ in range(RUN_OPS):
            with rec.span(OP_SPAN):
                for nest, s in pair:
                    _need(s.run(backend="auto").ok, f"{nest.name} run")
    t = rec.self_times()
    words = sum(oracle.accesses(n.params) for n, _ in pair)
    points = sum(oracle.iterations(n.params) for n, _ in pair)
    m["runtime.alloc.s"] = (t["runtime.make_arrays"]
                            + t["runtime.allocate"]) / RUN_OPS
    m["runtime.session_run.self_s"] = t["runtime.session_run"] / RUN_OPS
    m["runtime.points_per_s"] = \
        points * RUN_OPS / sum(rec.durations(OP_SPAN))
    m["runtime.access_words"] = words
    m["runtime.ns_per_word"] = t["runtime.engine"] / RUN_OPS / words * 1e9


def _obs(nests, sessions, sizes: Sizes, m: dict) -> None:
    from repro.api import Session
    from repro.obs.trace import NULL_TRACER

    # the certify set: MATMUL-duplicate + L1-L5
    chosen = [sessions[-2], *sessions[:5]]
    rec = Recorder()
    with Taps(rec), rec.span(OP_SPAN):
        reports = [s.audit() for s in chosen]
    _need(all(r.ok for r in reports), "audit refused a good plan")
    t = rec.self_times()
    accesses = sum(r.total_accesses for r in reports)
    m["obs.audit.static.s"] = t["obs.audit"]
    m["obs.audit.engine.s"] = (t["runtime.make_arrays"]
                               + t["runtime.allocate"]
                               + t["runtime.engine"])
    m["obs.audit.accesses"] = accesses
    m["obs.audit.us_per_access"] = t["obs.audit"] / accesses * 1e6

    n = 100 * sizes.samples
    t0 = perf_counter()
    for _ in range(n):
        with NULL_TRACER.span("ledger.null", category="bench"):
            pass
    m["obs.trace.null_span_ns"] = (perf_counter() - t0) / n * 1e9

    # repro's own tracing against the fastest tier, not the slowest
    nest = nests[-2]
    times = {False: [], True: []}
    with Session(nest.source, strategy=nest.strategy) as plain, \
            Session(nest.source, strategy=nest.strategy,
                    trace=True) as traced:
        for s in (plain, traced):
            s.run(backend="codegen")
        for _ in range(5):
            for flag, s in ((False, plain), (True, traced)):
                dt, _ = _timed(s.run, backend="codegen")
                times[flag].append(dt)
    m["obs.trace.overhead_ratio"] = median(times[True]) / median(times[False])


def _machine(nests, sessions, m: dict) -> None:
    dt, run = _timed(sessions[-2].machine, p=16)
    _need(run.ok, "machine simulation failed")
    m["machine.simulate.s"] = dt


# ---------------------------------------------------------------------------
# 4: the engine tiers, in fresh interpreters
# ---------------------------------------------------------------------------

def _probe(world, mode: str, sizes: Sizes) -> dict:
    """Run :mod:`probe` in a child whose kernel cache is ``cache-probe``
    (empty the first time) and whose plan cache is the warm one."""
    env = dict(os.environ, XDG_CACHE_HOME=str(world.dir / "cache-probe"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), mode,
         *(["--quick"] if sizes.quick else [])],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise CensusError(f"probe {mode} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _engines(world, sizes: Sizes, m: dict) -> None:
    m.update(_probe(world, "engines", sizes))
    m.update(_probe(world, "diskwarm", sizes))


# ---------------------------------------------------------------------------
# 5: the CLI and the serving layers, from outside
# ---------------------------------------------------------------------------

def _cli(world, nests, sizes: Sizes, m: dict) -> None:
    from repro.api import Session
    from repro.pipeline.passes import PLAN_CACHE

    py, reps = sys.executable, sizes.child_repeats
    m["cli.interpreter.s"] = _child_seconds([py, "-c", "pass"], reps)
    m["cli.import.s"] = _child_seconds([py, "-c", "import repro.cli"], reps)
    m["cli.version.s"] = _child_seconds([py, "-m", "repro", "--version"],
                                        reps)

    # a warm-disk one-shot on the corpus MATMUL (its plan and kernel are
    # on disk since step 1) against the same work done in this process
    nest = nests[-2]
    path = world.dir / "census.loop"
    path.write_text(nest.source)
    argv = ["verify", str(path), "--duplicate", "--backend", "auto"]
    shots = []
    for _ in range(reps):
        dt, (code, out) = _timed(run_cli, argv)
        _need(cli_verify_ok(nest, code, out), "one-shot verify is wrong")
        shots.append(dt)
    inproc = []
    for _ in range(reps):
        PLAN_CACHE.clear()
        t0 = perf_counter()
        with Session(nest.source, strategy=nest.strategy) as s:
            ok = s.verify(backend="auto").ok
        inproc.append(perf_counter() - t0)
        _need(ok, "in-process verify is wrong")
    m["cli.self_s"] = median(shots) - m["cli.import.s"] - median(inproc)


async def _inproc_handle(frame: dict, n: int) -> list[float]:
    from repro.serve import AsyncServer

    times = []
    with AsyncServer() as server:
        await server.handle(frame)            # plan it once
        for _ in range(n):
            t0 = perf_counter()
            resp = await server.handle(frame)
            times.append(perf_counter() - t0)
            _need(resp.get("ok", False), "in-process handle failed")
    return times


def _serve(world, seed: int, sizes: Sizes, m: dict) -> None:
    from repro.serve.protocol import (
        Request,
        decode_frame,
        encode_frame,
        request_key,
    )

    probe = corpus.WireRequest("verify", corpus.paper_l1(), "hot")
    req = Request(op=probe.op, id="census", **wire_fields(probe))
    n = 10 * sizes.samples
    t0 = perf_counter()
    for _ in range(n):
        decode_frame(encode_frame(req))
    m["serve.protocol.codec.us"] = (perf_counter() - t0) / n * 1e6
    n = sizes.samples
    t0 = perf_counter()
    for _ in range(n):
        request_key(req)
    m["serve.request_key.us"] = (perf_counter() - t0) / n * 1e6

    inproc = median(asyncio.run(_inproc_handle(req.to_dict(),
                                               sizes.samples // 2)))
    m["serve.handle.inproc.s"] = inproc

    load = ServeSocketMixed(world, seed)
    dt, _ = _timed(load.setup)
    m["serve.daemon.spawn_s"] = dt
    try:
        client = load.clients[0]
        rtts = [_timed(client.status)[0] for _ in range(sizes.samples)]
        m["serve.socket.rtt_s"] = median(rtts)
        same = []
        for _ in range(sizes.samples // 2):
            dt, result = _timed(client.request, probe.op,
                                **wire_fields(probe))
            _need(wire_ok(probe, result), "socket verify is wrong")
            same.append(dt)
        m["serve.socket.self_s"] = median(same) - inproc

        before = load.status()
        done, _ = load.drive(120.0, Mix(seed, load.connections),
                             limit=sizes.requests_per_connection)
        after = load.status()
    finally:
        load.teardown()
    _need(all(ok for _, _, ok in done), "a mixed request got a wrong answer")
    m["serve.latency.hot_p50_s"] = median(
        s for kind, s, _ in done if kind == "hot")
    m["serve.latency.novel_p50_s"] = median(
        s for kind, s, _ in done if kind == "novel")

    def delta(key: str) -> int:
        return after[key] - before[key]

    # the daemon reports hits, sessions alive and totals; every request
    # it executed (not coalesced, not refused, not failed) looked a
    # session up, and every miss beyond the survivors was an eviction
    sent = len(done)
    executed = sent - delta("coalesced") - delta("rejected") \
        - delta("errors")
    misses = executed - delta("session_hits")
    m["serve.session.hit"] = delta("session_hits")
    m["serve.session.miss"] = misses
    m["serve.session.evict"] = \
        misses - (after["sessions"] - before["sessions"])
    m["serve.coalesced"] = delta("coalesced")
    m["serve.rejected"] = delta("rejected")
    m["serve.errors"] = delta("errors")
    m["serve.session.hit_ratio"] = delta("session_hits") / executed
    pairs = sum(1 for kind, _, _ in done if kind == "pair") // 2
    m["serve.coalesce_ratio"] = delta("coalesced") / max(1, pairs)


# ---------------------------------------------------------------------------

def take(world, seed: int, quick: bool = False) -> dict:
    """The whole census; -> metric name -> value."""
    m: dict = {}
    sizes = Sizes(quick)
    nests = corpus.corpus(quick)
    sessions = _compile(world, nests, m)
    try:
        _ratlinalg(sessions, m)
        _runtime(nests, sessions, m)
        _obs(nests, sessions, sizes, m)
        _machine(nests, sessions, m)
    finally:
        for s in sessions:
            s.close()
    _engines(world, sizes, m)
    _cli(world, nests, sizes, m)
    _serve(world, seed, sizes, m)
    return m
