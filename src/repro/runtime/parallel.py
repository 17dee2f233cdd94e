"""The parallel executor: run a partition plan on the simulated machine.

Steps (mirroring the paper's execution model):

1. **Placement** -- iteration blocks are assigned to processors (one
   logical processor per block by default, or any block->pid mapping,
   e.g. the cyclic assignment for a fixed-size machine).
2. **Allocation** -- each block's data blocks are allocated as that
   block's private region, initialized from the global initial arrays
   (the host distribution; communication costs are charged separately
   by the perf harness -- here we care about functional correctness):
   the run keeps one flat store, and a block's memory is a view of it,
   built the first time anything reads one, an array's region rendered
   as a dict the first time anything reads it
   (:mod:`repro.runtime.layout`).  Every tier runs on the store in
   place and builds none (:func:`~repro.runtime.layout.in_place`) but
   ``interp`` on a written replica, which renders those regions:
   regions stay per-block even when several blocks share a processor,
   and under the duplicate strategy two co-resident blocks hold
   *separate copies* of a replicated element, exactly as the paper's
   per-block data blocks ``B_j^A`` prescribe.
3. **Execution** -- each block runs its iterations in lexicographic
   order, statements in textual order, *skipping redundant
   computations* when the plan eliminated them.  Every count lands on
   the :class:`ParallelResult`.  A strict run raises
   :class:`~repro.machine.memory.RemoteAccessError` on any access
   outside the block's data blocks (the interpreter checks each one;
   codegen runs only what the audit certified), so a completing run
   *proves* the plan communication-free.
4. **Timestamping** -- every write records its global sequential order,
   enabling the last-writer merge of replicated copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, Optional

from repro.core.plan import PartitionPlan
from repro.machine.memory import LocalMemory, RemoteAccessError
from repro.obs.metrics import MetricsRegistry, current_registry
from repro.obs.trace import current_tracer
from repro.runtime.arrays import Coords, DataSpace, make_arrays
from repro.runtime.layout import BlockMemories, FlatStore, layout_for


@dataclass
class ParallelResult:
    """Outcome of one parallel run.

    ``memories`` is keyed by *block index* (each block owns a private
    region); ``block_to_pid`` says which processor hosts each block.
    A run on its store in place leaves them unbuilt (:class:`BlockMemories`).
    The counters are the run's, whoever ran it and whatever has been
    read since.
    """

    plan: PartitionPlan
    memories: Mapping[int, LocalMemory]
    block_to_pid: Mapping[int, int]
    # the flat store the memories are views of (None: hand-built dicts)
    store: Optional[FlatStore] = field(default=None, repr=False)
    _write_stamps: dict[tuple[int, str, Coords], int] = field(
        default_factory=dict, repr=False)
    executed_iterations: int = 0
    skipped_computations: int = 0
    reads: int = 0
    writes: int = 0
    # a remote *read* is a fetch message on a real machine, a remote
    # *write* a store message; the audit layer reports both
    remote_reads: int = 0
    remote_writes: int = 0
    # raise on the first remote access (else count it and go on)
    strict: bool = True
    # canonical name of the tier the backend resolved to; a tier that
    # hands the blocks down its chain still reports itself (the hand-off
    # is the engine.codegen.delegated event, with its reason)
    backend: str = "interp"

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
        return self.remote_reads + self.remote_writes

    @cached_property
    def memory_words(self) -> int:
        """Total allocated words; regions are sized once, by the layout
        (replicated words count once per copy)."""
        if self.store is not None:
            return self.store.layout.words
        return sum(m.words() for m in self.memories.values())

    # -- the Summary protocol ---------------------------------------------
    @property
    def ok(self) -> bool:
        """Zero remote accesses."""
        return self.remote_accesses == 0

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        return (f"parallel run [{self.backend}]: {verdict} -- "
                f"{len(self.plan.blocks)} blocks, "
                f"{self.executed_iterations} iterations executed, "
                f"{self.skipped_computations} skipped, "
                f"{self.remote_accesses} remote accesses")

    def to_json(self) -> dict:
        return {
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
        as they render, one per region -- none in place, blocks x written
        arrays on an ``interp`` run of a written replica, no more in the
        merge -- ``runtime.memory.block_views`` by the store as it builds
        them; here both are made to exist, so zero shows).
        """
        reg = registry if registry is not None else current_registry()
        reg.inc("runtime.runs")
        reg.inc("runtime.memory.rendered_regions", 0)
        reg.inc("runtime.memory.block_views", 0)
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


def run_parallel(
    plan: PartitionPlan,
    initial: Optional[dict[str, DataSpace]] = None,
    scalars: Optional[Mapping[str, float]] = None,
    block_to_pid: Optional[Mapping[int, int]] = None,
    strict: bool = True,
    backend: Optional[str] = None,
    options: Optional[Any] = None,
) -> ParallelResult:
    """Execute the plan; see module docstring.

    ``block_to_pid`` defaults to the identity (one processor per
    block).  ``initial`` defaults to the standard deterministic init.
    ``backend`` picks the execution engine (default: the interpreter);
    non-strict runs always use the interpreter, the only tier modeling
    tolerated remote accesses.
    ``options`` is a :class:`repro.api.RunOptions` supplying the
    default ``backend``.
    """
    # local import: backends call back into this module's types
    from repro.runtime.engine import resolve_engine

    if options is not None:
        backend = backend or options.backend

    scalars = scalars or {}
    if initial is None:
        initial = make_arrays(plan.model)
    layout = layout_for(plan)
    if block_to_pid is None:
        mapping = layout.identity
    else:
        mapping = {b.index: block_to_pid[b.index] for b in plan.blocks}
    engine = resolve_engine("interp" if not strict else backend)

    tracer = current_tracer()
    with tracer.span("runtime.allocate", category="engine",
                     blocks=len(plan.blocks)) as sp:
        store = FlatStore(layout, initial)
        memories = BlockMemories(store, mapping)
        result = ParallelResult(plan=plan, memories=memories,
                                block_to_pid=mapping, store=store,
                                strict=strict, backend=engine.name)
        sp.set(regions=len(memories) * len(store.grids),
               words=result.memory_words)

    # -- execution (write stamps record the global sequential order of
    # each computation, rank_of(it) * nstmts + k, for the merge) ----------
    try:
        with tracer.span(
                "engine.run_blocks", category="engine",
                backend=engine.name,
                blocks=len(plan.blocks),
                statements=len(plan.nest.statements)) as sp:
            engine.run_blocks(plan, result, scalars)
            sp.set(executed_iterations=result.executed_iterations,
                   skipped_computations=result.skipped_computations,
                   remote_accesses=result.remote_accesses)
    except RemoteAccessError as exc:
        exc.backend = engine.name
        raise
    finally:
        result.publish()
    return result
