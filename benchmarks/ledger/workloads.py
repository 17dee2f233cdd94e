"""The five workloads of the ledger, over the three real entry paths.

==================  ==============================  =====================
workload            entry path                      layers that do the work
==================  ==============================  =====================
cold_compile        in-process ``Session``          lang, pipeline, ratlinalg
warm_execute        in-process ``Session``          runtime (alloc, engines)
certify             in-process ``Session``          obs.audit
cli_oneshot         ``python -m repro`` process     cli, disk caches (reader)
serve_socket_mixed  ``ServeClient`` -> daemon       serve (framing, LRU,
                                                    single-flight, socket)
==================  ==============================  =====================

All loads are closed-loop (a caller of a compiler waits for the reply)
and generated from this one process with at most two connections.
Every op is checked against :mod:`oracle`; a wrong answer, an error, a
refusal or a non-zero exit is a failed op.  ``repro`` is imported
lazily, after :class:`hermetic.Hermetic` has set the environment.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Optional

import corpus
import oracle
from calibrate import ChildCalibration, InProcessCalibration
from spans import OP_SPAN, Recorder, Taps


class Tracing:
    """A traced run: every second op runs under the taps."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.taps = Taps(self.rec)
        self._root = None

    def begin(self, op_id) -> None:
        self.taps.install()
        self._root = self.rec.open(OP_SPAN, op=op_id)

    def end(self) -> None:
        self.taps.flush_alloc()
        self.rec.close(self._root)
        self.taps.remove()


@dataclass
class Measured:
    """What a timed phase yields.  ``plain`` and ``traced`` are in
    calibrated seconds (wall seconds over the machine's slowdown around
    that op, see :mod:`calibrate`); ``wall`` keeps the raw times."""

    #: untraced ops, and the ops run under the taps (``--trace 1``)
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    #: wall seconds and slowdown of each untraced op
    wall: list = field(default_factory=list)
    slowdowns: list = field(default_factory=list)
    failed: int = 0
    #: time the untraced ops kept the system busy: the divisor of
    #: ``ops_per_s`` (sequential loads: the sum of the op times)
    busy_s: float = 0.0
    busy_wall_s: float = 0.0


class Workload:
    """One named load: set-up, an op, its check, tear-down."""

    name = "?"
    #: the percentile reported as ``op_s.tail`` (fixed per workload)
    tail = 75
    #: what one op is, for the report, and the iteration points it walks
    op_unit = "op"
    points_per_op = 0
    #: what the workload imports of the program (timed as set-up)
    modules: tuple = ("repro.api", "repro.pipeline.passes",
                      "repro.runtime.merge")
    #: the kernel that calibrates the workload's times
    calibration = InProcessCalibration

    def __init__(self, world, seed: int, quick: bool = False) -> None:
        self.world = world
        self.seed = seed
        self.quick = quick
        #: warm sessions the workload keeps open (closed by teardown)
        self.sessions: list = []

    def setup(self) -> None: ...

    def tick(self) -> None:
        """Called by a long set-up between its steps; the harness hangs
        the calibration kernel here while it times the set-up."""

    def reset(self) -> None:
        """Back to a cold start, so that set-up can be timed again."""
        self.teardown()
        self.world.empty_disk_caches()
        passes = sys.modules.get("repro.pipeline.passes")
        if passes is not None:
            passes.PLAN_CACHE.clear()

    def prep(self, i: int) -> None:
        """Untimed work before op ``i``."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        raise NotImplementedError

    def teardown(self) -> None:
        for s in self.sessions:
            s.close()
        self.sessions = []

    def rss_mb(self) -> float:
        """Peak resident set of the process under test."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def measure(self, seconds: float, cal,
                tracing: Optional[Tracing] = None) -> Measured:
        """The closed loop: ops until ``seconds`` have passed.

        The calibration kernel (``cal``) runs right before and right
        after every op; prep and checks run between ops.  All three are
        outside the timed regions but inside the ``seconds`` budget.
        """
        m = Measured()
        i = 0
        deadline = perf_counter() + seconds
        while i < 2 or perf_counter() < deadline:
            self.prep(i)
            tapped = tracing is not None and i % 2 == 1
            before = cal.slowdown()
            if tapped:
                tracing.begin(i)
            t0 = perf_counter()
            try:
                result = self.op(i)
            except Exception as exc:  # noqa: BLE001 - a failed op, counted
                result = exc
            elapsed = perf_counter() - t0
            if tapped:
                tracing.end()
            slow = (before + cal.slowdown()) / 2
            if tapped:
                m.traced.append(elapsed / slow)
            else:
                m.plain.append(elapsed / slow)
                m.wall.append(elapsed)
                m.slowdowns.append(slow)
            if isinstance(result, Exception) or not self.check(i, result):
                m.failed += 1
            i += 1
        m.busy_s, m.busy_wall_s = sum(m.plain), sum(m.wall)
        return m


# ---------------------------------------------------------------------------
# shared pieces of the in-process workloads
# ---------------------------------------------------------------------------

def _raw(arrays: dict) -> dict:
    """``DataSpace`` dict -> the ``(lo, ndarray)`` pairs the oracle takes."""
    return {name: (ds.lo, ds.data) for name, ds in arrays.items()}


class _Expected:
    """Oracle results per nest, computed once (inputs are deterministic)."""

    def __init__(self) -> None:
        self._arrays: dict[str, dict] = {}

    def arrays_ok(self, nest: corpus.Nest, session, result) -> bool:
        """Do the merged arrays of a parallel run equal the oracle's?"""
        from repro.runtime.arrays import make_arrays
        from repro.runtime.merge import merge_copies

        initial = make_arrays(session.plan().model)
        if nest.name not in self._arrays:
            self._arrays[nest.name] = oracle.expected_arrays(
                nest.params, _raw(initial))
        merged = merge_copies(result, initial)
        return oracle.arrays_match(
            self._arrays[nest.name],
            {name: ds.data for name, ds in merged.items()})


def _counts_ok(nest: corpus.Nest, blocks: int, iterations: int) -> bool:
    return (blocks == oracle.blocks(nest.params, nest.strategy)
            and iterations == oracle.iterations(nest.params))


# ---------------------------------------------------------------------------
# cold_compile
# ---------------------------------------------------------------------------

class ColdCompile(Workload):
    """One op = one sweep: every corpus nest from text through
    ``Session(text).plan()`` and ``.verify(backend="auto")`` with the
    plan cache cleared and the disk caches emptied first."""

    name = "cold_compile"
    op_unit = "sweep"

    def setup(self) -> None:
        self.nests = corpus.corpus(self.quick)
        self.points_per_op = sum(oracle.iterations(n.params)
                                 for n in self.nests)
        self.expected = _Expected()
        # warm-up sweep: imports, lazy registries, in-process kernels
        self.prep(-1)
        self.check(-1, self.op(-1))

    def prep(self, i: int) -> None:
        self.reset()

    def op(self, i: int):
        from repro.api import Session

        done = []
        for k in corpus.sweep_order(self.seed, i, len(self.nests)):
            nest = self.nests[k]
            session = Session(nest.source, strategy=nest.strategy)
            session.plan()
            done.append((nest, session, session.verify(backend="auto")))
        return done

    def check(self, i: int, result) -> bool:
        ok = True
        for nest, session, report in result:
            with session:
                ok &= (report.ok and _counts_ok(
                    nest, report.num_blocks, report.executed_iterations))
                ok &= self.expected.arrays_ok(
                    nest, session, session.run(backend="auto"))
        return bool(ok)


# ---------------------------------------------------------------------------
# warm_execute
# ---------------------------------------------------------------------------

class WarmExecute(Workload):
    """One op = ``Session.run(backend="auto")`` on each of two prebuilt
    MATMUL plans: many small blocks, and one big block."""

    name = "warm_execute"
    op_unit = "run-pair"

    def setup(self) -> None:
        from repro.api import Session

        n = 6 if self.quick else 24
        self.nests = [corpus.matmul(n, "duplicate"),
                      corpus.matmul(n, "nonduplicate")]
        self.points_per_op = 2 * n ** 3
        self.sessions = [Session(x.source, strategy=x.strategy)
                         for x in self.nests]
        self.expected = _Expected()
        for s in self.sessions:
            s.plan()
            self.tick()
        self.check(-1, self.op(-1))   # warm-up: kernels, pools, oracle

    def op(self, i: int):
        return [s.run(backend="auto") for s in self.sessions]

    def check(self, i: int, result) -> bool:
        ok = True
        for nest, session, res in zip(self.nests, self.sessions, result):
            ok &= res.ok and _counts_ok(nest, len(res.plan.blocks),
                                        res.executed_iterations)
            ok &= self.expected.arrays_ok(nest, session, res)
        return bool(ok)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

class Certify(Workload):
    """One op = ``Session.audit()`` (static replay + engine
    reconciliation) over MATMUL12-duplicate and L1-L5, plans prebuilt."""

    name = "certify"
    op_unit = "audit-set"

    def setup(self) -> None:
        from repro.api import Session

        self.nests = [corpus.matmul(4 if self.quick else 12, "duplicate"),
                      corpus.paper_l1(), corpus.paper_l2(),
                      corpus.paper_l3(), corpus.paper_l4(),
                      corpus.paper_l5()]
        self.points_per_op = sum(oracle.iterations(n.params)
                                 for n in self.nests)
        self.sessions = [Session(x.source, strategy=x.strategy)
                         for x in self.nests]
        for s in self.sessions:
            s.plan()
        self.check(-1, self.op(-1))

    def op(self, i: int):
        return [s.audit() for s in self.sessions]

    def check(self, i: int, result) -> bool:
        ok = True
        for nest, report in zip(self.nests, result):
            ok &= (report.ok and report.certified
                   and report.total_accesses == oracle.accesses(nest.params)
                   and _counts_ok(nest, len(report.plan.blocks),
                                  report.executed_iterations)
                   and all(run.ok and run.matches_static
                           for run in report.engine_runs.values()))
        return bool(ok)


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------

def run_cli(argv: list[str], timeout: float = 120.0):
    """One ``python -m repro ...`` child; -> (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout


def cli_verify_ok(nest: corpus.Nest, code: int, stdout: str) -> bool:
    """Did a ``repro verify`` child print exactly the known answer?"""
    lines = stdout.splitlines()
    want = [f"blocks: {oracle.blocks(nest.params, nest.strategy)}",
            f"executed iterations: {oracle.iterations(nest.params)}",
            "remote accesses: 0", "parallel == sequential: True", "OK"]
    return code == 0 and all(w in lines for w in want)


class CliOneshot(Workload):
    """One op = one ``python -m repro verify FILE --duplicate --backend
    auto`` child on MATMUL16 with warm private disk caches; the first,
    cold-disk child is set-up."""

    name = "cli_oneshot"
    op_unit = "process"
    modules = ()
    calibration = ChildCalibration

    def setup(self) -> None:
        self.nest = corpus.matmul(4 if self.quick else 16, "duplicate")
        self.points_per_op = oracle.iterations(self.nest.params)
        self.file = self.world.dir / "matmul.loop"
        self.file.write_text(self.nest.source)
        if not self.check(-1, self.op(-1)):     # the cold-disk process
            raise RuntimeError("cold one-shot failed")

    def op(self, i: int):
        return run_cli(["verify", str(self.file), "--duplicate",
                        "--backend", "auto"])

    def check(self, i: int, result) -> bool:
        return cli_verify_ok(self.nest, *result)

    def rss_mb(self) -> float:
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# serve_socket_mixed
# ---------------------------------------------------------------------------

def wire_fields(w: corpus.WireRequest) -> dict:
    fields = {"nest": w.nest.source, "strategy": w.nest.strategy}
    if w.op != "plan":
        fields["backend"] = w.backend
    return fields


def wire_ok(w: corpus.WireRequest, result: dict) -> bool:
    """Is a wire response the known answer for its request?"""
    nest = w.nest
    if not result.get("ok") \
            or result.get("blocks") != oracle.blocks(nest.params,
                                                     nest.strategy):
        return False
    if w.op == "plan":
        return result.get("psi_dim") == oracle.psi_dim(nest.params,
                                                       nest.strategy)
    if result.get("executed_iterations") != oracle.iterations(nest.params) \
            or result.get("remote_accesses") != 0:
        return False
    if w.op == "verify":
        return bool(result.get("equal")
                    and result.get("communication_free"))
    return True


def daemon_rss_mb(pid: int) -> float:
    """The daemon's high-water resident set (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Mix:
    """The seeded schedule shared by the connections.

    A pair slot is handed to *both* connections, which meet at a barrier
    and send it together; any other slot goes to whoever asks next.
    """

    def __init__(self, seed: int, connections: int) -> None:
        self._slots = corpus.serve_schedule(seed)
        self._lock = threading.Lock()
        self._pair = None
        self.barrier = threading.Barrier(connections)

    def restart(self) -> None:
        """Make the barrier usable again after a phase ended (the first
        connection to finish aborts it) and drop a half-sent pair."""
        self.barrier.reset()
        self._pair = None

    def next(self):
        """-> (slot, must_sync)."""
        with self._lock:
            if self._pair is not None:
                slot, self._pair = self._pair, None
                return slot, True
            slot = next(self._slots)
            if slot.kind == "pair":
                self._pair = slot
                return slot, True
            return slot, False


class ServeSocketMixed(Workload):
    """A spawned daemon (default settings) on a private socket, two
    closed-loop ``ServeClient`` connections, the seeded 70/20/10 mix of
    hot, paired and novel requests; one op = one request."""

    name = "serve_socket_mixed"
    tail = 99
    op_unit = "request"
    connections = 2
    #: the timed phase is cut into slices this long for calibration
    slice_s = 1.0
    modules = ("repro.serve.client", "repro.serve.daemon")
    pid: Optional[int] = None
    clients: tuple = ()

    def setup(self) -> None:
        from repro.serve.client import ServeClient
        from repro.serve.daemon import spawn_daemon

        self.pid = spawn_daemon(self.world.socket)
        self.clients = [ServeClient(self.world.socket)
                        for _ in range(self.connections)]
        hot = corpus.hot_set()
        self.points_per_op = sum(oracle.iterations(n.params)
                                 for n in hot) // len(hot)
        for nest in hot:                       # warm the hot sessions
            w = corpus.WireRequest("verify", nest, "hot")
            if not wire_ok(w, self.clients[0].request(
                    w.op, **wire_fields(w))):
                raise RuntimeError(f"warm-up verify of {nest.name} failed")
        self._hwm = 0.0

    def status(self) -> dict:
        return self.clients[0].status()

    def _client_loop(self, client, mix: Mix, deadline: float,
                     limit: Optional[int], out: list) -> None:
        from repro.serve.client import ServeError

        sent = 0
        try:
            while perf_counter() < deadline \
                    and (limit is None or sent < limit):
                slot, sync = mix.next()
                if sync:
                    mix.barrier.wait(timeout=30.0)
                t0 = perf_counter()
                try:
                    ok = wire_ok(slot, client.request(
                        slot.op, **wire_fields(slot)))
                except ServeError:
                    ok = False
                out.append((slot.kind, perf_counter() - t0, ok))
                sent += 1
        except threading.BrokenBarrierError:
            pass        # the other connection finished first
        finally:
            mix.barrier.abort()

    def drive(self, seconds: float, mix: Mix,
              limit: Optional[int] = None) -> tuple[list, float]:
        """Run the mix; -> ([(kind, latency, ok)], wall seconds).

        ``limit`` bounds the requests *per connection* (fixed-count
        phases of the census); otherwise the clock ends the phase.
        """
        mix.restart()
        outs = [[] for _ in self.clients]
        deadline = perf_counter() + seconds
        threads = [threading.Thread(
            target=self._client_loop,
            args=(c, mix, deadline, limit, out), daemon=True)
            for c, out in zip(self.clients, outs)]
        t0 = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(seconds + 60.0)
            if t.is_alive():
                raise RuntimeError("a serve connection hung")
        return [x for out in outs for x in out], perf_counter() - t0

    def measure(self, seconds: float, cal,
                tracing: Optional[Tracing] = None) -> Measured:
        """The mix in one-second slices, the calibration kernel between
        them (it cannot run beside the connections: it would take the
        interpreter lock from them); every request of a slice is
        calibrated by the slowdown around that slice.

        A traced run puts every second slice under client-side taps
        (alternating per op would race the two connections)."""
        import repro.serve.client as client_mod

        m = Measured()
        mix = Mix(self.seed, self.connections)
        deadline = perf_counter() + seconds
        after = cal.slowdown()
        n = 0
        while n < (2 if tracing else 1) or perf_counter() < deadline:
            tapped = tracing is not None and n % 2 == 1
            if tapped:
                taps = tracing.taps
                taps.tap(client_mod, "encode_frame", "serve.protocol.codec")
                taps.tap(client_mod, "decode_frame", "serve.protocol.codec")
                taps.tap(client_mod.ServeClient, "call", "serve.socket")
                taps.tap(client_mod.ServeClient, "request", OP_SPAN)
            try:
                before = after
                done, wall = self.drive(self.slice_s, mix)
                after = cal.slowdown()
            finally:
                if tapped:
                    tracing.taps.remove()
            slow = (before + after) / 2
            m.failed += sum(1 for _, _, ok in done if not ok)
            if tapped:
                m.traced += [s / slow for _, s, _ in done]
            else:
                m.plain += [s / slow for _, s, _ in done]
                m.wall += [s for _, s, _ in done]
                m.slowdowns.append(slow)
                m.busy_s += wall / slow
                m.busy_wall_s += wall
            n += 1
        return m

    def rss_mb(self) -> float:
        return self._hwm

    def teardown(self) -> None:
        """Stop the daemon and reap it.

        The daemon is this process's child (``spawn_daemon`` keeps no
        handle on it), so it must be waited for here: until then it is
        a zombie that still answers ``kill(pid, 0)``, which is what
        ``stop_daemon`` polls.
        """
        import signal

        from repro.serve.daemon import pidfile_for

        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        try:
            self._hwm = daemon_rss_mb(pid)
            self.clients[0].shutdown()
        finally:
            for c in self.clients:
                c.close()
            deadline = perf_counter() + 10.0
            while True:
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        break
                except ChildProcessError:
                    break           # subprocess's own cleanup reaped it
                if perf_counter() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    deadline += 10.0
                sleep(0.01)
            for path in (Path(self.world.socket),
                         pidfile_for(self.world.socket)):
                if path.exists():
                    self.world.leaks.append(f"left behind: {path}")
                    path.unlink()


WORKLOADS = {w.name: w for w in (ColdCompile, WarmExecute, Certify,
                                 CliOneshot, ServeSocketMixed)}
