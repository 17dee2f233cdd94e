"""The :class:`PartitionPlan` orchestrator.

``build_plan`` runs the whole Section II-III pipeline: extract
references, (optionally) eliminate redundant computations, pick the
partitioning space for the requested strategy, partition iterations and
data.  Since the pass-pipeline refactor it is a thin, API-compatible
facade over :func:`repro.pipeline.run_pipeline` (passes ``extract-refs``
through ``partition``), which adds per-pass instrumentation, structured
diagnostics and content-addressed plan caching on top.  That a plan
is communication-free is decided by :mod:`repro.obs.certificate`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro._lazy import Sidecar
from repro.analysis.references import ReferenceModel
from repro.core.partition import (
    AccessMap, DataBlock, IterationBlock, image_map)
from repro.core.strategy import SpaceBreakdown, Strategy
from repro.lang.ast import LoopNest
from repro.ratlinalg.span import Subspace

if TYPE_CHECKING:
    from repro.analysis.trace import CompId


class FrozenMapping(Mapping):
    """A dict that cannot be rebound into: a plan's ``data_blocks``.

    Unlike ``types.MappingProxyType`` it pickles, and it loads through
    the plan cache's restricted unpickler (a class under ``repro``).
    """

    __slots__ = ("_items",)

    def __init__(self, items=()) -> None:
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"FrozenMapping({self._items!r})"

    def __reduce__(self):
        return FrozenMapping, (self._items,)


@dataclass(frozen=True)
class PartitionPlan:
    """Everything needed to place and run a communication-free loop.

    A value: no field is ever rebound and no block, data-block slot or
    ``data_blocks`` key rewritten (all raise), so every table derived
    from a plan -- its layout, verdict, kernel geometry -- holds for as
    long as the plan does.  A variant is ``dataclasses.replace(plan,
    ...)``.  Every array has one data block per iteration block, the
    ``j``-th with ``block_index == j``; anything else is refused here.
    """

    nest: LoopNest
    model: ReferenceModel
    breakdown: SpaceBreakdown
    blocks: tuple[IterationBlock, ...]
    data_blocks: Mapping[str, tuple[DataBlock, ...]]

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        data_blocks = FrozenMapping((name, tuple(dblocks))
                                    for name, dblocks in self.data_blocks.items())
        for name, dblocks in data_blocks.items():
            if len(dblocks) != len(blocks):
                raise ValueError(
                    f"array {name}, position {min(len(dblocks), len(blocks))}"
                    f": {len(dblocks)} data blocks for {len(blocks)} "
                    "iteration blocks")
            for j, db in enumerate(dblocks):
                if db.block_index != j:
                    raise ValueError(f"array {name}, position {j}: the data "
                                     f"block of block {db.block_index}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "data_blocks", data_blocks)

    @property
    def psi(self) -> Subspace:
        return self.breakdown.psi

    @property
    def strategy(self) -> Strategy:
        return self.breakdown.strategy

    @property
    def live(self) -> Optional[frozenset[CompId]]:
        red = self.breakdown.redundancy
        return red.live if red is not None else None

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, iteration) -> int:
        """Index of the block holding ``iteration`` (the reverse index is
        derived from ``blocks`` once per plan)."""
        return _BLOCK_INDEX.get(self)[tuple(iteration)]

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # an array whose data blocks are the planner's images of
        # ``blocks`` goes as its access map alone
        state["data_blocks"] = {
            name: image_map(dblocks, self.blocks) or dblocks
            for name, dblocks in self.data_blocks.items()}
        return state

    def __setstate__(self, state: dict) -> None:
        blocks = state["blocks"]
        state["data_blocks"] = FrozenMapping(
            (name, tuple(DataBlock.image_of(b, packed) for b in blocks)
             if isinstance(packed, AccessMap) else packed)
            for name, packed in state["data_blocks"].items())
        self.__dict__.update(state)

    def owners_of_element(self, array: str, element: tuple[int, ...]) -> list[int]:
        """Block indices whose data block holds ``element`` (1 for non-dup)."""
        return [db.block_index for db in self.data_blocks[array]
                if element in db.elements]

    def replication_factor(self, array: str) -> float:
        """Average number of copies per referenced element of ``array``."""
        sets = [db.elements for db in self.data_blocks[array]]
        distinct = len(frozenset().union(*sets))
        return sum(map(len, sets)) / distinct if distinct else 0.0

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

    ok = True   # the Summary protocol: a plan that was built is the answer

    def to_json(self) -> dict:
        return {"ok": self.ok, "loop": self.nest.name,
                "strategy": self.strategy.value, "blocks": self.num_blocks,
                "psi_dim": self.psi.dim, "summary": self.summary()}


_BLOCK_INDEX = Sidecar(lambda plan: {
    it: b.index for b in plan.blocks for it in b.iterations})


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
