"""The :class:`PartitionPlan` orchestrator and its static checks.

``build_plan`` runs the whole Section II-III pipeline: extract
references, (optionally) eliminate redundant computations, pick the
partitioning space for the requested strategy, partition iterations and
data.  Since the pass-pipeline refactor it is a thin, API-compatible
facade over :func:`repro.pipeline.run_pipeline` (passes ``extract-refs``
through ``partition``), which adds per-pass instrumentation, structured
diagnostics and content-addressed plan caching on top.  The three
``check_*`` functions assert the paper's guarantees on the concrete
result:

- the blocks partition the iteration space (Definition 2);
- under a non-duplicate strategy, data blocks are pairwise disjoint;
- no flow dependence crosses block boundaries (communication-freedom,
  Theorems 1-4) -- checked against the exact sequential trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.analysis.references import ReferenceModel
from repro.analysis.trace import CompId, SequentialTrace, build_trace
from repro.core.partition import DataBlock, IterationBlock
from repro.core.strategy import SpaceBreakdown, Strategy
from repro.lang.ast import LoopNest
from repro.ratlinalg.span import Subspace


@dataclass
class PartitionPlan:
    """Everything needed to place and run a communication-free loop."""

    nest: LoopNest
    model: ReferenceModel
    breakdown: SpaceBreakdown
    blocks: list[IterationBlock]
    data_blocks: dict[str, list[DataBlock]]

    @property
    def psi(self) -> Subspace:
        return self.breakdown.psi

    @property
    def strategy(self) -> Strategy:
        return self.breakdown.strategy

    @property
    def live(self) -> Optional[set[CompId]]:
        red = self.breakdown.redundancy
        return red.live if red is not None else None

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def degree_of_parallelism(self) -> int:
        """Number of independently executable blocks."""
        return len(self.blocks)

    def block_of(self, iteration) -> int:
        """Index of the block holding ``iteration``.

        The reverse index is derived from ``blocks`` on first use and
        again whenever ``blocks`` stops holding the block objects it was
        derived from (the negative tests rewrite block slots); it is no
        field: never compared, copied or pickled.
        """
        held, index = getattr(self, "_index", (None, None))
        if held != self.blocks:                      # pointer compares
            index = {it: b.index for b in self.blocks for it in b.iterations}
            self._index = (list(self.blocks), index)
        return index[tuple(iteration)]

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_index", None)
        return state

    def owners_of_element(self, array: str, element: tuple[int, ...]) -> list[int]:
        """Block indices whose data block holds ``element`` (1 for non-dup)."""
        return [db.block_index for db in self.data_blocks[array]
                if element in db.elements]

    def replication_factor(self, array: str) -> float:
        """Average number of copies per referenced element of ``array``."""
        total = sum(len(db) for db in self.data_blocks[array])
        distinct = len({e for db in self.data_blocks[array] for e in db.elements})
        return total / distinct if distinct else 0.0

    def executes(self, stmt_index: int, iteration: tuple[int, ...]) -> bool:
        """Does the parallel program execute this computation?

        With redundancy elimination, redundant computations are dropped.
        """
        live = self.live
        return live is None or (stmt_index, iteration) in live

    def summary(self) -> str:
        b = self.breakdown
        lines = [
            f"loop {self.nest.name or '<anon>'}: depth {self.nest.depth}, "
            f"{self.model.space.size()} iterations",
            f"strategy: {b.strategy.value}"
            + (f", duplicated={sorted(b.duplicated_arrays)}" if b.duplicated_arrays else "")
            + (", redundancy-eliminated" if b.eliminate_redundant else ""),
            f"Psi: {b.psi!r} (dim {b.dim}, {b.parallel_dims} forall dims)",
            f"blocks: {self.num_blocks}",
        ]
        for name, space in b.per_array.items():
            lines.append(f"  Psi_{name}: {space!r}")
        return "\n".join(lines)


def build_plan(
    nest: LoopNest,
    strategy: Strategy = Strategy.NONDUPLICATE,
    duplicate_arrays: Optional[Iterable[str]] = None,
    eliminate_redundant: bool = False,
    model: Optional[ReferenceModel] = None,
    use_cache: bool = True,
) -> PartitionPlan:
    """Run the full partitioning pipeline on a loop nest.

    Facade over the pass pipeline: runs ``extract-refs`` through
    ``partition`` under instrumentation, served from the global
    content-addressed plan cache when a structurally identical nest was
    already planned (``use_cache=False`` forces a fresh computation).
    """
    # local import: repro.pipeline builds PartitionPlan objects from here
    from repro.pipeline.context import PipelineConfig
    from repro.pipeline.passes import run_pipeline

    config = PipelineConfig(
        strategy=strategy,
        duplicate_arrays=(frozenset(duplicate_arrays)
                          if duplicate_arrays is not None else None),
        eliminate_redundant=eliminate_redundant,
        use_cache=use_cache,
    )
    ctx = run_pipeline(nest, config, upto="partition", model=model)
    return ctx.plan


# ---------------------------------------------------------------------------
# static checks (the paper's guarantees, validated on the concrete instance)
# ---------------------------------------------------------------------------

def check_partition_covers_space(plan: PartitionPlan) -> None:
    """Blocks are disjoint and their union is the iteration space.

    Runs off :meth:`~repro.lang.space.IterationSpace.rank_of` -- the
    same cached enumeration/closed-form rank the runtime uses for write
    stamps -- so no fresh point sets are materialized: one bit per
    iteration marks coverage, and an out-of-space rank is an "extra"
    iteration.
    """
    space = plan.model.space
    total = space.size()
    seen = bytearray(total)
    covered = 0
    extra: list[tuple[int, ...]] = []
    for b in plan.blocks:
        for it in b.iterations:
            try:
                r = space.rank_of(it)
            except ValueError:
                extra.append(it)
                continue
            if seen[r]:
                raise AssertionError(f"iteration {it} appears in two blocks")
            seen[r] = 1
            covered += 1
    if extra or covered != total:
        pts = space.points()
        missing = [p for r, p in enumerate(pts) if not seen[r]]
        raise AssertionError(
            f"partition mismatch: missing={sorted(missing)[:5]} extra={sorted(extra)[:5]}"
        )


def check_data_blocks_disjoint(plan: PartitionPlan) -> None:
    """Non-duplicate guarantee: each element lives in at most one block.

    Only meaningful for arrays *not* in the duplicated set.
    """
    for name, dblocks in plan.data_blocks.items():
        if name in plan.breakdown.duplicated_arrays:
            continue
        owner: dict[tuple[int, ...], int] = {}
        for db in dblocks:
            for e in db.elements:
                if e in owner and owner[e] != db.block_index:
                    raise AssertionError(
                        f"element {name}{list(e)} in blocks {owner[e]} and "
                        f"{db.block_index} under a non-duplicate strategy"
                    )
                owner[e] = db.block_index


def check_no_interblock_flow(plan: PartitionPlan,
                             trace: Optional[SequentialTrace] = None) -> None:
    """No executed read depends on a value written in another block.

    This is communication-freedom: on the exact sequential trace
    (restricted to live computations when redundancy is eliminated),
    every read's producing write -- the last *executed* write to the
    element before the read -- must be in the same iteration block.
    """
    if trace is None:
        trace = build_trace(plan.model)
    live = plan.live
    for element, events in trace.timelines.items():
        last_writer_block: Optional[int] = None
        for ev in events:
            k, it = ev.comp
            if live is not None and (k, it) not in live:
                continue
            blk = plan.block_of(it)
            if ev.is_write:
                last_writer_block = blk
            else:
                if last_writer_block is not None and last_writer_block != blk:
                    raise AssertionError(
                        f"flow dependence crosses blocks: {element} written in "
                        f"block {last_writer_block}, read in block {blk} at {ev.comp}"
                    )
    # For non-duplicate strategies every shared access (not just flow)
    # must stay inside one block, which is implied by disjoint data
    # blocks -- checked separately.


def check_all(plan: PartitionPlan) -> None:
    check_partition_covers_space(plan)
    check_data_blocks_disjoint(plan)
    check_no_interblock_flow(plan)
