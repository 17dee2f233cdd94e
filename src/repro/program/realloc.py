"""Inter-phase data reallocation analysis.

Each phase's plan fixes where every array element lives (the block ->
processor mapping of that phase).  When phase ``t+1``'s layout differs
from phase ``t``'s, elements must move before phase ``t+1`` starts.
This module computes the exact flows:

- an element *moves* if some processor needs it in the next phase but
  did not hold its current value: its source is the phase-``t`` owner
  of the last write (or any holder, for data only read so far);
- flows are aggregated per (source, destination) processor pair and
  charged as pipelined transfers on the machine cost model.

The result quantifies the communication a per-loop communication-free
program pays *between* loops -- the trade-off the paper's Section V
leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.plan import PartitionPlan
from repro.machine.cost import CostModel, TRANSPUTER
from repro.machine.topology import Topology
from repro.perf.general import mesh_for

Coords = tuple[int, ...]
Element = tuple[str, Coords]


def element_owners(plan: PartitionPlan,
                   mapping: dict[int, int]) -> dict[Element, set[int]]:
    """(array, coords) -> processor ids holding it under this plan."""
    owners: dict[Element, set[int]] = {}
    for name, dblocks in plan.data_blocks.items():
        for db in dblocks:
            pid = mapping[db.block_index]
            for e in db.elements:
                owners.setdefault((name, e), set()).add(pid)
    return owners


def writer_pids(plan: PartitionPlan,
                mapping: dict[int, int]) -> dict[Element, int]:
    """(array, coords) -> pid holding the sequentially-last written copy."""
    out: dict[Element, tuple[int, int]] = {}  # element -> (seq, pid)
    nest = plan.nest
    model = plan.model
    seq = 0
    live = plan.live
    order: dict[tuple[int, Coords], int] = {}
    for it in model.space.iterate():
        for k in range(len(nest.statements)):
            order[(k, it)] = seq
            seq += 1
    for info in model.arrays.values():
        for ref in info.references:
            if not ref.is_write:
                continue
            for b in plan.blocks:
                pid = mapping[b.index]
                for it in b.iterations:
                    if live is not None and (ref.stmt_index, it) not in live:
                        continue
                    e = (info.name, info.element_at(it, ref.c))
                    s = order[(ref.stmt_index, it)]
                    cur = out.get(e)
                    if cur is None or s > cur[0]:
                        out[e] = (s, pid)
    return {e: pid for e, (s, pid) in out.items()}


@dataclass
class ReallocationReport:
    """Element flows between two consecutive phases."""

    moved_words: int = 0
    kept_words: int = 0
    # (src_pid, dst_pid) -> word count
    flows: dict[tuple[int, int], int] = field(default_factory=dict)
    time: float = 0.0           # fully serialized transfers
    parallel_time: float = 0.0  # distinct sources overlap (lower bound)

    @property
    def messages(self) -> int:
        return len(self.flows)

    @property
    def locality(self) -> float:
        """Fraction of needed words already in place (1.0 = no movement)."""
        total = self.moved_words + self.kept_words
        return self.kept_words / total if total else 1.0


def reallocation_between(
    prev_plan: PartitionPlan,
    prev_mapping: dict[int, int],
    next_plan: PartitionPlan,
    next_mapping: dict[int, int],
    cost: CostModel = TRANSPUTER,
    topology: Optional[Topology] = None,
) -> ReallocationReport:
    """Exact reallocation flows from ``prev`` layout to ``next`` layout.

    Only arrays referenced by both phases participate; elements the next
    phase needs but the previous phase never touched are initial data
    (charged to the host distribution of the next phase, not here).
    """
    report = ReallocationReport()
    prev_owners = element_owners(prev_plan, prev_mapping)
    writers = writer_pids(prev_plan, prev_mapping)
    next_owners = element_owners(next_plan, next_mapping)

    shared_arrays = set(prev_plan.model.arrays) & set(next_plan.model.arrays)
    for element, dsts in next_owners.items():
        name, _coords = element
        if name not in shared_arrays or element not in prev_owners:
            continue
        # the authoritative source: the last writer's copy if written,
        # otherwise any previous holder (all copies equal then)
        src = writers.get(element)
        holders = prev_owners[element]
        if src is None:
            src = min(holders)
        for dst in sorted(dsts):
            if dst == src or (element not in writers and dst in holders):
                report.kept_words += 1
            else:
                report.moved_words += 1
                key = (src, dst)
                report.flows[key] = report.flows.get(key, 0) + 1

    if topology is None:
        nprocs = max(
            [pid for pid in prev_mapping.values()]
            + [pid for pid in next_mapping.values()] + [0]
        ) + 1
        topology = mesh_for(max(1, nprocs))
    per_source: dict[int, float] = {}
    for (src, dst), words in sorted(report.flows.items()):
        hops = topology.hops(src, dst) if src != dst else 1
        t = cost.pipelined(words, max(1, hops))
        report.time += t
        per_source[src] = per_source.get(src, 0.0) + t
    # all-to-all phases overlap across senders (each node has its own
    # injection channel); the makespan lower bound is the busiest sender
    report.parallel_time = max(per_source.values(), default=0.0)
    return report
