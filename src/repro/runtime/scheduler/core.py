"""The dynamic, fault-tolerant block scheduler.

One contiguous chunk of blocks per worker is all-or-nothing: no
recovery, and a single slow worker stalls the whole run.  This module
is a work-queue dispatcher built on the property the paper proves
(Theorems 1-4): iteration blocks of a communication-free partition are
*independent*, so any lease can be killed, lost, or duplicated and
simply re-executed -- retries are idempotent by theorem.

Mechanics:

- blocks are grouped into small contiguous **units** (``batch`` blocks
  each); each attempt to run a unit is a **lease** with a deadline;
- a lease payload is normally just a **descriptor** -- segment names
  into the run's :class:`~repro.runtime.blockstore.SharedBlockStore`
  plus block indices -- so nothing heavy crosses the process boundary;
  without a store (no numpy, ``REPRO_NO_SHM``) the by-value payload
  (plan + pickled memories) is shipped instead;
- the process pool comes from a :class:`~repro.runtime.pool.WorkerPool`
  -- the ambient one (a :class:`~repro.api.Session` keeps a persistent,
  warm pool across runs) or an ephemeral one owned by this run;
- leases are dispatched to a process pool as slots free up (the pool's
  own queue is the work queue); a lease past its deadline is *expired*
  -- its blocks are stolen by a fresh lease and the late result, if it
  ever arrives, is discarded (idempotence makes the race harmless);
- a worker crash (real, or injected by the chaos layer) breaks the
  pool: the scheduler respawns it and re-leases everything that was in
  flight, with capped exponential backoff per unit;
- before any retry the scheduler consults the plan's certificate
  (:func:`repro.obs.certificate.certify_plan`) and refuses to re-run a
  block that is not disjoint -- an unsafe retry raises the same
  :class:`~repro.machine.memory.RemoteAccessError` a strict run would;
- a unit that exhausts its attempts raises :class:`SchedulerError`
  (chaos non-recovery); a pool that cannot be (re)created raises
  :class:`PoolCollapse`, which the multiprocess engine turns into the
  loud in-process degradation path (``engine.multiproc.degraded``).

Everything is observable: a ``scheduler.run`` span anchors per-worker
lanes (worker observability is re-homed via
:mod:`repro.obs.aggregate`), every lease/retry/expiry/respawn is a
trace event and a ``scheduler.*`` counter, and the full lease history
is kept as a :class:`SchedulerResult` timeline that ``repro chaos``
renders as ASCII.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.machine.memory import RemoteAccessError
from repro.runtime.scheduler.faults import CRASH, DROP, SLOW, FaultPlan

#: The dispatch mode a :class:`SchedulerResult` reports (wire format).
DYNAMIC = "dynamic"

#: Sentinel a worker returns instead of its result for an injected
#: lost-result fault.
_DROPPED = "__repro_dropped__"


class SchedulerError(Exception):
    """The scheduler could not recover (a unit exhausted its attempts)."""


class PoolCollapse(RuntimeError):
    """The worker pool cannot be (re)created or kept alive; callers
    degrade to in-process execution."""


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery knobs: attempts, backoff, deadlines, respawn budget.

    ``max_attempts`` bounds *fault-consumed* attempts (a lease that
    crashed or whose result was dropped); leases lost to collateral
    damage (the pool another lease's crash took down) or stolen after a
    deadline do not consume the budget -- they redraw the same attempt.
    Steals are bounded separately (``max_steals`` per unit, with the
    deadline doubling on each steal), so every run still terminates.
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.02
    backoff_cap_s: float = 0.5
    #: lease deadline in seconds; None disables expiry-stealing
    lease_timeout_s: Optional[float] = 30.0
    #: deadline expiries tolerated per unit (the deadline doubles on
    #: each steal, so a merely-slow unit eventually gets to finish)
    max_steals: int = 8
    #: pool respawns tolerated; None derives a budget from the unit count
    max_respawns: Optional[int] = None

    def backoff(self, attempt: int) -> float:
        """Capped exponential backoff before attempt ``attempt`` (>= 1)."""
        return min(self.backoff_cap_s,
                   self.backoff_base_s * (2.0 ** (attempt - 1)))

    def respawn_budget(self, units: int) -> int:
        if self.max_respawns is not None:
            return self.max_respawns
        # chaos-induced crashes are bounded by units * (attempts - 1)
        # (the shielded final attempt never crashes); leave headroom
        return max(8, units * self.max_attempts)


def default_batch_size(nblocks: int, workers: int) -> int:
    """Blocks per unit: small batches (~4 units per worker) so the
    queue can rebalance."""
    return max(1, -(-nblocks // (workers * 4)))


@dataclass
class LeaseRecord:
    """One lease in the timeline: (unit, attempt) with its outcome."""

    unit: int
    attempt: int
    blocks: tuple[int, ...]
    start_s: float
    end_s: float = 0.0
    #: injected fault for this lease ("" = none)
    fault: str = ""
    #: pending | ok | crash | killed | dropped | expired | late
    outcome: str = "pending"
    #: worker process id (known only for results that came home)
    pid: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "unit": self.unit, "attempt": self.attempt,
            "blocks": list(self.blocks),
            "start_ms": round(self.start_s * 1e3, 3),
            "end_ms": round(self.end_s * 1e3, 3),
            "fault": self.fault, "outcome": self.outcome, "pid": self.pid,
        }


@dataclass
class SchedulerResult:
    """What the dispatcher did: lease history plus recovery counters."""

    mode: str
    units: int
    blocks: int
    workers: int
    batch: int
    chaos: str = ""
    leases: list[LeaseRecord] = field(default_factory=list)
    retries: int = 0
    leases_expired: int = 0
    blocks_stolen: int = 0
    respawns: int = 0
    crashes: int = 0
    dropped: int = 0
    completed_units: int = 0
    wall_s: float = 0.0

    @property
    def recovered(self) -> bool:
        """Did every unit come home despite the injected faults?"""
        return self.completed_units == self.units

    @property
    def ok(self) -> bool:
        return self.recovered

    @property
    def faults_injected(self) -> int:
        return self.crashes + self.dropped + self.leases_expired

    def summary(self) -> str:
        chaos = f" under chaos [{self.chaos}]" if self.chaos else ""
        return (f"scheduler[{self.mode}]: {self.completed_units}/{self.units} "
                f"units ({self.blocks} blocks, batch {self.batch}) on "
                f"{self.workers} workers{chaos}; {len(self.leases)} leases, "
                f"{self.retries} retries, {self.leases_expired} expired, "
                f"{self.blocks_stolen} blocks stolen, {self.respawns} "
                f"respawns")

    def to_json(self) -> dict:
        return {
            "mode": self.mode, "units": self.units, "blocks": self.blocks,
            "workers": self.workers, "batch": self.batch,
            "chaos": self.chaos, "ok": self.ok,
            "recovered": self.recovered,
            "leases": [r.to_json() for r in self.leases],
            "retries": self.retries,
            "leases_expired": self.leases_expired,
            "blocks_stolen": self.blocks_stolen,
            "respawns": self.respawns, "crashes": self.crashes,
            "dropped": self.dropped,
            "completed_units": self.completed_units,
            "wall_ms": round(self.wall_s * 1e3, 3),
        }

    def publish(self, registry=None) -> None:
        """Publish run-level gauges (counters are inc'd live)."""
        from repro.obs.metrics import current_registry

        reg = registry if registry is not None else current_registry()
        reg.set("scheduler.units", self.units)
        reg.set("scheduler.batch", self.batch)
        reg.set("scheduler.recovered", int(self.recovered))


@dataclass
class _UnitOutcome:
    """Per-unit result a worker fills and pickles back (the
    ``ParallelResult`` stand-in the compiled tier populates)."""

    write_stamps: dict = field(default_factory=dict)
    executed_iterations: int = 0
    skipped_computations: int = 0
    mems: dict = field(default_factory=dict)
    # store mode: block index -> (reads, writes) -- values and stamps
    # stay in the shared store, only the counters come home
    counts: dict = field(default_factory=dict)
    # (pid, array, coords, is_write) of the first violation, or None
    remote: Optional[tuple] = None
    obs: Any = None  # WorkerObs


@dataclass
class _Unit:
    uid: int
    blocks: list
    attempts: int = 0       # fault-consumed attempts (crash / drop)
    steals: int = 0         # deadline expiries so far
    ready_at: float = 0.0   # backoff gate (scheduler-relative seconds)
    done: bool = False


def _run_lease(payload):
    """Worker entry point: one lease = one unit on the compiled tier.

    Enacts the lease's injected fault: a slow lease sleeps before the
    work, a crashed lease does the work then kills its own process (the
    result dies with it), a dropped lease does the work and returns a
    loss marker instead of the result.
    """
    (uid, attempt, sub, mems, scalars, trace_enabled, fault, slow_s,
     block_slow_s, slow_blocks) = payload
    from repro.obs.aggregate import capture_worker_obs
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.obs.trace import Tracer, use_tracer
    from repro.runtime.engine.base import get_engine

    if fault == SLOW and slow_s > 0:
        time.sleep(slow_s)
    tracer = Tracer(enabled=trace_enabled)
    registry = MetricsRegistry()
    out = _UnitOutcome()
    with use_tracer(tracer), use_registry(registry):
        registry.inc("engine.worker.chunks")
        registry.inc("engine.worker.blocks", len(sub.blocks))
        engine = get_engine("compiled")
        try:
            if slow_blocks and block_slow_s > 0:
                # synthetic stragglers: delay the marked blocks only
                for b in sub.blocks:
                    if b.index in slow_blocks:
                        time.sleep(block_slow_s)
                    engine.run_blocks(replace(sub, blocks=[b]), mems, out,
                                      {}, scalars)
            else:
                engine.run_blocks(sub, mems, out, {}, scalars)
        except RemoteAccessError as exc:
            out.remote = (exc.pid, exc.array, exc.coords, exc.is_write)
        registry.inc("engine.worker.executed_iterations",
                     out.executed_iterations)
    out.mems = mems
    out.obs = capture_worker_obs(tracer, registry)
    if fault == CRASH:
        os._exit(3)
    if fault == DROP:
        return (uid, attempt, _DROPPED)
    return (uid, attempt, out)


class BlockScheduler:
    """Work-queue dispatcher over a process pool; see module docstring."""

    def __init__(
        self,
        plan,
        memories: dict,
        scalars: Mapping[str, float],
        *,
        workers: int,
        batch: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        policy: Optional[RetryPolicy] = None,
        store=None,
        pool=None,
    ) -> None:
        self.plan = plan
        self.memories = memories
        self.scalars = dict(scalars)
        self.workers = max(1, workers)
        #: a SharedBlockStore for by-descriptor leases, or None for the
        #: by-value path (no numpy / REPRO_NO_SHM / unlowerable nest)
        self.store = store
        #: an external (session-scoped) WorkerPool, or None to build an
        #: ephemeral pool per run
        self.pool = pool
        self.faults = faults
        self.policy = policy if policy is not None else RetryPolicy()
        self.batch = batch if batch is not None else default_batch_size(
            len(plan.blocks), self.workers)
        self._certificate = None  # asked on the first retry

    # -- setup ------------------------------------------------------------
    def _units(self) -> list[_Unit]:
        blocks = self.plan.blocks
        return [_Unit(uid=i // self.batch, blocks=blocks[i:i + self.batch])
                for i in range(0, len(blocks), self.batch)]

    def _worker_pool(self):
        """The external pool, or a fresh ephemeral one (owned flag)."""
        from repro.runtime.pool import WorkerPool

        if self.pool is not None:
            return self.pool, False
        return WorkerPool(), True

    # -- recovery safety --------------------------------------------------
    def _assert_retry_safe(self, unit: _Unit) -> None:
        """Refuse to re-lease a block that is not provably disjoint.

        Retry idempotence rests on the plan's theorem: a block touching
        only its own data blocks can re-run anywhere without having
        leaked or observed state.  The plan's certificate is asked once;
        unless it proves the plan free, this unit's blocks are replayed
        and the violation a strict run would raise is raised.
        """
        from repro.obs.certificate import certify_plan
        from repro.obs.metrics import current_registry

        if self._certificate is None:
            self._certificate = certify_plan(self.plan)
        if self._certificate.free:
            return
        from repro.obs.audit import _static_replay

        found = _static_replay(self.plan, max_detail=1, blocks=unit.blocks)
        if found.cross:
            current_registry().inc("scheduler.unsafe_retries")
            v = found.violations[0]
            raise RemoteAccessError(self.memories[v.block].pid, v.array,
                                    v.element, is_write=v.is_write)

    # -- the dispatch loop ------------------------------------------------
    def run(self, result) -> SchedulerResult:
        """Dispatch every block, recover from failures, merge into
        ``result`` (a :class:`~repro.runtime.parallel.ParallelResult`)
        deterministically.  May raise :class:`PoolCollapse` (caller
        degrades), :class:`SchedulerError` (non-recovery) or
        :class:`~repro.machine.memory.RemoteAccessError` (the plan was
        never communication-free)."""
        from repro.obs.aggregate import merge_worker_obs
        from repro.obs.metrics import current_registry
        from repro.obs.trace import current_tracer

        tracer = current_tracer()
        registry = current_registry()
        units = self._units()
        sres = SchedulerResult(
            mode=DYNAMIC, units=len(units), blocks=len(self.plan.blocks),
            workers=self.workers, batch=self.batch,
            chaos=self.faults.describe() if self.faults
            and self.faults.active else "")
        outcomes: dict[int, _UnitOutcome] = {}
        epoch = time.perf_counter()

        with tracer.span("scheduler.run", category="scheduler", coarse=True,
                         workers=self.workers, units=len(units),
                         blocks=sres.blocks, batch=self.batch,
                         chaos=sres.chaos) as ssp:
            try:
                self._loop(units, outcomes, sres, epoch, tracer, registry)
            except (SchedulerError, PoolCollapse) as exc:
                # post-mortem: dump the ring with the lease timeline
                # attached before the failure propagates
                from repro.obs.flight import dump_blackbox

                sres.completed_units = len(outcomes)
                sres.wall_s = time.perf_counter() - epoch
                reason = f"{type(exc).__name__}: {exc}"
                tracer.event("scheduler.abort", category="scheduler",
                             coarse="error", exc=reason,
                             completed=len(outcomes), units=len(units))
                dump_blackbox(reason, extra={"scheduler": sres.to_json()})
                raise
            finally:
                sres.completed_units = len(outcomes)
                sres.wall_s = time.perf_counter() - epoch
                result.scheduler = sres
                sres.publish(registry)
                ssp.set(leases=len(sres.leases), retries=sres.retries,
                        respawns=sres.respawns, recovered=sres.recovered)
                # re-home worker observability in the finally, so even
                # an aborted run keeps its worker lanes and counters
                for uid in sorted(outcomes):
                    obs = outcomes[uid].obs
                    if obs is not None:
                        merge_worker_obs(tracer, registry, obs,
                                         ts_offset_ns=ssp.start_ns,
                                         parent_span_id=ssp.span_id)

        # merge in unit (= block) order: deterministic by design -- write
        # stamps are keyed by block index and units never overlap
        ordered = [outcomes[uid] for uid in sorted(outcomes)]
        for out in ordered:
            if out.remote is not None:
                pid, array, coords, is_write = out.remote
                self.memories[pid].note_remote(is_write)
                raise RemoteAccessError(pid, array, coords,
                                        is_write=is_write)
        if self.store is not None:
            # by-descriptor leases: values and stamps live in the shared
            # store; only the access counters came home per block
            for out in ordered:
                for bindex, (reads, writes) in out.counts.items():
                    mem = self.memories[bindex]
                    mem.reads += reads
                    mem.writes += writes
                result.executed_iterations += out.executed_iterations
                result.skipped_computations += out.skipped_computations
            self.store.collect(result, self.memories)
            return sres
        for out in ordered:
            # the worker's copy of each memory is the memory now
            self.memories.update(out.mems)
            result.write_stamps.update(out.write_stamps)
            result.executed_iterations += out.executed_iterations
            result.skipped_computations += out.skipped_computations
        return sres

    def _loop(self, units, outcomes, sres, epoch, tracer, registry) -> None:
        policy = self.policy
        budget = policy.respawn_budget(len(units))
        wpool, owned = self._worker_pool()
        pool = wpool.acquire(self.workers)
        pending: list[_Unit] = list(units)
        # future -> (unit, lease record, absolute deadline)
        inflight: dict = {}

        def now() -> float:
            return time.perf_counter() - epoch

        def submit(unit: _Unit) -> None:
            attempt = unit.attempts
            unit.attempts += 1
            fault = None
            if self.faults is not None and not (
                    self.faults.shield_final
                    and attempt >= policy.max_attempts - 1):
                fault = self.faults.decision(unit.uid, attempt)
            slow_blocks: tuple[int, ...] = ()
            slow_ms = self.faults.slow_ms if self.faults else 0.0
            if self.faults is not None and self.faults.slow_blocks:
                slow_blocks = tuple(b.index for b in unit.blocks
                                    if self.faults.delays_block(b.index))
            if self.store is not None:
                # by-descriptor lease: segment names + block indices
                from repro.runtime.blockstore.worker import run_store_lease

                fn = run_store_lease
                payload = (
                    unit.uid, attempt, self.store.descriptor(),
                    tuple(b.index for b in unit.blocks),
                    self.scalars, tracer.enabled, fault,
                    slow_ms / 1e3 if fault == SLOW else 0.0,
                    slow_ms / 1e3 if slow_blocks else 0.0, slow_blocks)
            else:
                fn = _run_lease
                payload = (
                    unit.uid, attempt, replace(self.plan, blocks=unit.blocks),
                    {b.index: self.memories[b.index] for b in unit.blocks},
                    self.scalars, tracer.enabled, fault,
                    slow_ms / 1e3 if fault == SLOW else 0.0,
                    slow_ms / 1e3 if slow_blocks else 0.0, slow_blocks)
            rec = LeaseRecord(unit=unit.uid, attempt=attempt,
                              blocks=tuple(b.index for b in unit.blocks),
                              start_s=now(), fault=fault or "")
            sres.leases.append(rec)
            registry.inc("scheduler.leases")
            tracer.event("scheduler.lease", category="scheduler",
                         coarse="lease", unit=unit.uid, attempt=attempt,
                         fault=fault or "")
            # each steal doubles the deadline, so a merely-slow unit
            # (queued behind sleepers, genuinely long) eventually runs out
            deadline = (math.inf if policy.lease_timeout_s is None
                        else rec.start_s
                        + policy.lease_timeout_s * (2.0 ** unit.steals))
            inflight[pool.submit(fn, payload)] = (unit, rec, deadline)

        def retry(unit: _Unit, rec: LeaseRecord, reason: str,
                  consume: bool = True) -> None:
            if not consume:
                # collateral kill or deadline steal: the lease drew no
                # fault of its own, so it redraws the same attempt
                unit.attempts -= 1
            if unit.attempts >= policy.max_attempts:
                raise SchedulerError(
                    f"unit {unit.uid} (blocks "
                    f"{[b.index for b in unit.blocks]}) not recovered: "
                    f"{reason} on all {policy.max_attempts} attempts")
            if unit.steals > policy.max_steals:
                raise SchedulerError(
                    f"unit {unit.uid} stolen {unit.steals} times without "
                    f"completing ({reason})")
            self._assert_retry_safe(unit)
            sres.retries += 1
            registry.inc("scheduler.retries")
            tracer.event("scheduler.retry", category="scheduler",
                         coarse="lease", unit=unit.uid,
                         attempt=unit.attempts, reason=reason)
            unit.ready_at = now() + policy.backoff(max(1, unit.attempts))
            pending.append(unit)

        def reap(fut, t: float) -> bool:
            """Handle one completed future; returns True if the pool broke."""
            unit, rec, _ = inflight.pop(fut)
            # a lease already marked expired was replaced by a steal: its
            # failure is moot, but a result that beats the steal still wins
            expired = rec.outcome == "expired"
            if not expired:
                rec.end_s = t
            try:
                uid, attempt, out = fut.result()
            except BrokenProcessPool:
                if unit.done:
                    rec.outcome = "late"
                    return True
                if expired:
                    return True
                if rec.fault == CRASH:
                    rec.outcome = "crash"
                    sres.crashes += 1
                    registry.inc("scheduler.crashes")
                    retry(unit, rec, "worker crashed")
                else:
                    # collateral damage: this lease shared the pool that
                    # another lease's crash took down
                    rec.outcome = "killed"
                    retry(unit, rec, "pool broke", consume=False)
                return True
            if unit.done:
                rec.outcome = "late"
                registry.inc("scheduler.late_results")
                return False
            if out == _DROPPED:
                if not expired:
                    rec.outcome = "dropped"
                    sres.dropped += 1
                    registry.inc("scheduler.dropped")
                    retry(unit, rec, "result dropped")
                return False
            rec.outcome = "ok"
            rec.end_s = t
            rec.pid = out.obs.pid if out.obs is not None else None
            unit.done = True
            outcomes[uid] = out
            tracer.event("scheduler.ok", category="scheduler",
                         coarse="lease", unit=uid, attempt=attempt,
                         pid=rec.pid)
            return False

        try:
            while len(outcomes) < len(units):
                t = now()
                for unit in [u for u in pending if u.ready_at <= t]:
                    pending.remove(unit)
                    submit(unit)
                if not inflight:
                    if not pending:  # pragma: no cover - defensive
                        raise SchedulerError(
                            "scheduler stalled with no work in flight")
                    time.sleep(max(0.0,
                                   min(u.ready_at for u in pending) - t))
                    continue
                next_deadline = min(dl for _, _, dl in inflight.values())
                timeout = min(0.25, max(0.005, next_deadline - t))
                if pending:
                    timeout = min(
                        timeout,
                        max(0.005,
                            min(u.ready_at for u in pending) - t))
                done, _ = wait(set(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                t = now()
                broke = False
                for fut in done:
                    broke = reap(fut, t) or broke
                if broke:
                    # the executor is poisoned: every in-flight lease is
                    # gone; re-lease them all on a fresh pool
                    for fut, (unit, rec, _) in list(inflight.items()):
                        rec.end_s = t
                        if unit.done:
                            rec.outcome = "late"
                            continue
                        if rec.fault == CRASH:
                            rec.outcome = "crash"
                            sres.crashes += 1
                            registry.inc("scheduler.crashes")
                            retry(unit, rec, "worker crashed")
                        else:
                            rec.outcome = "killed"
                            retry(unit, rec, "pool broke", consume=False)
                    inflight.clear()
                    sres.respawns += 1
                    registry.inc("scheduler.respawns")
                    tracer.event("scheduler.respawn", category="scheduler",
                                 coarse=True, respawns=sres.respawns,
                                 budget=budget)
                    if sres.respawns > budget:
                        wpool.shutdown()
                        raise PoolCollapse(
                            f"worker pool broke {sres.respawns} times "
                            f"(budget {budget}); giving up on the pool")
                    try:
                        # a lost worker re-attaches to the store by name
                        # on its first lease, so respawn needs no re-seed
                        pool = wpool.respawn(self.workers)
                    except Exception as exc:
                        raise PoolCollapse(
                            f"cannot respawn worker pool: {exc}") from exc
                    continue
                # expire leases past their deadline: steal the blocks
                for fut, (unit, rec, deadline) in list(inflight.items()):
                    if t < deadline or unit.done:
                        continue
                    inflight[fut] = (unit, rec, math.inf)  # reap as late
                    rec.outcome = "expired"
                    rec.end_s = t
                    unit.steals += 1
                    sres.leases_expired += 1
                    sres.blocks_stolen += len(unit.blocks)
                    registry.inc("scheduler.leases_expired")
                    registry.inc("scheduler.blocks_stolen", len(unit.blocks))
                    tracer.event("scheduler.expire", category="scheduler",
                                 coarse="lease", unit=unit.uid,
                                 attempt=rec.attempt)
                    retry(unit, rec, "lease expired", consume=False)
        finally:
            if owned:
                # ephemeral pool: release it with the run.  An external
                # (session-scoped) pool stays warm; any late futures on
                # it finish harmlessly -- their writes land in a store
                # the parent has already collected and unlinked, which
                # only this worker still maps
                wpool.shutdown()
