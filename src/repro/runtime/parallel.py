"""The parallel executor: run a partition plan on the simulated machine.

Steps (mirroring the paper's execution model):

1. **Placement** -- iteration blocks are assigned to processors (one
   logical processor per block by default, or any block->pid mapping,
   e.g. the cyclic assignment for a fixed-size machine).
2. **Allocation** -- each block's data blocks are allocated as that
   block's private region, initialized from the global initial arrays
   (the host distribution; communication costs are charged separately
   by the perf harness -- here we care about functional correctness):
   the run keeps one flat store, and every region is a view of it
   until something reads it as a dict (:mod:`repro.runtime.layout`).
   Regions stay per-block even when several blocks share a processor:
   under the duplicate strategy two co-resident blocks hold *separate
   copies* of a replicated element, exactly as the paper's per-block
   data blocks ``B_j^A`` prescribe.
3. **Execution** -- each block runs its iterations in lexicographic
   order, statements in textual order, *skipping redundant
   computations* when the plan eliminated them.  Block memories are
   strict: any access outside the block's data blocks raises
   :class:`~repro.machine.memory.RemoteAccessError`, so a completing
   run *proves* the plan communication-free.
4. **Timestamping** -- every write records its global sequential order,
   enabling the last-writer merge of replicated copies.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, Optional, Union

from repro.core.plan import PartitionPlan
from repro.machine.memory import LocalMemory
from repro.obs.metrics import MetricsRegistry, current_registry
from repro.obs.trace import current_tracer
from repro.runtime.arrays import Coords, DataSpace, make_arrays
from repro.runtime.layout import FlatStore, layout_for

Element = tuple[str, Coords]


@dataclass
class ParallelResult:
    """Outcome of one parallel run.

    ``memories`` is keyed by *block index* (each block owns a private
    region); ``block_to_pid`` says which processor hosts each block.
    """

    plan: PartitionPlan
    memories: dict[int, LocalMemory]
    block_to_pid: dict[int, int]
    # the flat store the memories are views of (None: hand-built dicts)
    store: Optional[FlatStore] = field(default=None, repr=False)
    _write_stamps: dict[tuple[int, str, Coords], int] = field(
        default_factory=dict, repr=False)
    executed_iterations: int = 0
    skipped_computations: int = 0
    # canonical name of the engine that executed the blocks
    backend: str = "interp"
    # filled by the multiprocess engine's BlockScheduler (lease history,
    # retry/respawn counters); None on in-process backends
    scheduler: Optional[Any] = None

    @property
    def write_stamps(self) -> dict[tuple[int, str, Coords], int]:
        """(block, array, coords) -> sequential order of the last write
        there.  The flat stamp lists of an engine that ran on the store
        in place are rendered into it on first read."""
        if self.store is not None and self.store.stamps is not None:
            self._write_stamps.update(self.store.render_stamps())
        return self._write_stamps

    @write_stamps.setter
    def write_stamps(self, stamps: dict) -> None:
        if self.store is not None:
            self.store.stamps = None
        self._write_stamps = stamps

    @property
    def remote_accesses(self) -> int:
        return sum(m.remote_attempts for m in self.memories.values())

    @property
    def remote_reads(self) -> int:
        return sum(m.remote_read_attempts for m in self.memories.values())

    @property
    def remote_writes(self) -> int:
        return sum(m.remote_write_attempts for m in self.memories.values())

    @cached_property
    def memory_words(self) -> int:
        """Total allocated words; regions are sized once, by the layout
        (replicated words count once per copy)."""
        if self.store is not None:
            return self.store.layout.words
        return sum(m.words() for m in self.memories.values())

    def loads(self) -> dict[int, int]:
        """Executed iterations per *processor* (aggregating its blocks)."""
        counts: dict[int, int] = {}
        for b in self.plan.blocks:
            pid = self.block_to_pid[b.index]
            counts[pid] = counts.get(pid, 0) + len(b.iterations)
        return counts

    # -- the Summary protocol ---------------------------------------------
    @property
    def ok(self) -> bool:
        """Zero remote accesses (and, if scheduled, full recovery)."""
        if self.scheduler is not None and not self.scheduler.ok:
            return False
        return self.remote_accesses == 0

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        sched = (f"; {self.scheduler.retries} scheduler retries"
                 if self.scheduler is not None
                 and self.scheduler.retries else "")
        return (f"parallel run [{self.backend}]: {verdict} -- "
                f"{len(self.plan.blocks)} blocks, "
                f"{self.executed_iterations} iterations executed, "
                f"{self.skipped_computations} skipped, "
                f"{self.remote_accesses} remote accesses{sched}")

    def to_json(self) -> dict:
        data = {
            "ok": self.ok,
            "backend": self.backend,
            "blocks": len(self.plan.blocks),
            "executed_iterations": self.executed_iterations,
            "skipped_computations": self.skipped_computations,
            "remote_accesses": self.remote_accesses,
            "remote_reads": self.remote_reads,
            "remote_writes": self.remote_writes,
            "memory_words": self.memory_words,
        }
        if self.scheduler is not None:
            data["scheduler"] = self.scheduler.to_json()
        return data

    def memory_words_by_pid(self) -> dict[int, int]:
        """Total allocated words per processor (its blocks' regions)."""
        out: dict[int, int] = {}
        for blk, mem in self.memories.items():
            pid = self.block_to_pid[blk]
            out[pid] = out.get(pid, 0) + mem.words()
        return out

    def publish(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Publish this run's counters to the unified metrics registry.

        Gauges (``runtime.remote_accesses``, ``runtime.blocks``,
        ``runtime.memory_words``) reflect *this* run exactly -- the
        exported ``runtime.remote_accesses`` equals
        :attr:`remote_accesses` -- while the ``runtime.*`` counters
        accumulate across runs within the registry's lifetime
        (``runtime.memory.rendered_regions`` is counted by the memories
        as they render; here it is made to exist, so zero shows).
        """
        reg = registry if registry is not None else current_registry()
        reg.inc("runtime.runs")
        reg.inc("runtime.memory.rendered_regions", 0)
        reg.inc(f"runtime.engine.runs.{self.backend}")
        reg.inc("runtime.executed_iterations.total",
                self.executed_iterations)
        reg.set("runtime.remote_accesses", self.remote_accesses)
        reg.set("runtime.remote_reads", self.remote_reads)
        reg.set("runtime.remote_writes", self.remote_writes)
        reg.set("runtime.executed_iterations", self.executed_iterations)
        reg.set("runtime.skipped_computations", self.skipped_computations)
        reg.set("runtime.blocks", len(self.plan.blocks))
        reg.set("runtime.memory_words", self.memory_words)


def allocate_blocks(plan: PartitionPlan, initial: dict[str, DataSpace],
                    block_to_pid: Mapping[int, int],
                    strict: bool = True) -> dict[int, LocalMemory]:
    """Step 2: one private region per block, each a view of one flat
    store filled by a box copy out of every initial array."""
    return FlatStore(layout_for(plan), initial).views(block_to_pid, strict)


def run_parallel(
    plan: PartitionPlan,
    initial: Optional[dict[str, DataSpace]] = None,
    scalars: Optional[Mapping[str, float]] = None,
    block_to_pid: Optional[Mapping[int, int]] = None,
    strict: bool = True,
    backend: Optional[str] = None,
    chaos: Union[str, Any, None] = None,
    options: Optional[Any] = None,
) -> ParallelResult:
    """Execute the plan; see module docstring.

    ``block_to_pid`` defaults to the identity (one processor per
    block).  ``initial`` defaults to the standard deterministic init.
    ``backend`` picks the execution engine (default: the interpreter);
    non-strict runs always use the interpreter, the only tier modeling
    tolerated remote accesses.
    ``chaos`` scopes a :class:`~repro.runtime.scheduler.FaultPlan` (or
    spec string) over the run; ``options`` is a
    :class:`repro.api.RunOptions` supplying defaults for both.
    """
    # local import: backends call back into this module's types
    from repro.runtime.engine import resolve_engine
    from repro.runtime.scheduler import use_fault_plan

    if options is not None:
        backend = backend or options.backend
        chaos = chaos if chaos is not None else options.chaos

    scalars = scalars or {}
    if initial is None:
        initial = make_arrays(plan.model)
    if block_to_pid is None:
        mapping = {b.index: b.index for b in plan.blocks}
    else:
        mapping = {b.index: block_to_pid[b.index] for b in plan.blocks}

    tracer = current_tracer()
    with tracer.span("runtime.allocate", category="engine",
                     blocks=len(plan.blocks)) as sp:
        store = FlatStore(layout_for(plan), initial)
        memories = store.views(mapping, strict)
        result = ParallelResult(plan=plan, memories=memories,
                                block_to_pid=mapping, store=store)
        sp.set(regions=len(memories) * len(store.grids),
               words=result.memory_words)

    engine = resolve_engine("interp" if not strict else backend)
    result.backend = engine.name

    # -- execution (write stamps record the global sequential order of
    # each computation, rank_of(it) * nstmts + k, for the merge) ----------
    # an explicit chaos plan is scoped over the engine run; chaos=None
    # leaves any ambient plan (an outer use_fault_plan scope) in force
    chaos_scope = nullcontext() if chaos is None else use_fault_plan(chaos)
    try:
        with chaos_scope, tracer.span(
                "engine.run_blocks", category="engine", coarse=True,
                backend=engine.name,
                blocks=len(plan.blocks),
                statements=len(plan.nest.statements)) as sp:
            engine.run_blocks(plan, memories, result, initial, scalars)
            sp.set(executed_iterations=result.executed_iterations,
                   skipped_computations=result.skipped_computations,
                   remote_accesses=result.remote_accesses)
    finally:
        result.publish()
    return result
