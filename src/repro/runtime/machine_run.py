"""Run a partition plan on a full simulated multicomputer.

Binds everything together: the host distributes each block's data
region onto its processor (charging the network with the real message
pattern -- scatter for private regions, multicast for shared ones,
broadcast for machine-wide ones), processors execute their blocks
functionally (strict local memories prove communication-freedom) while
compute time is charged per executed computation, and the result is
merged and checked.  One call yields both the *answer* and the
*simulated performance* of the paper's execution model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.plan import PartitionPlan
from repro.machine.cost import CostModel, TRANSPUTER
from repro.machine.machine import MachineStats, Multicomputer
from repro.machine.topology import HOST
from repro.mapping.grid import shape_grid
from repro.obs.trace import current_tracer
from repro.perf.general import block_to_pid_map, mesh_for
from repro.runtime.arrays import Coords, DataSpace, make_arrays
from repro.runtime.merge import merge_copies
from repro.runtime.parallel import ParallelResult, run_parallel
from repro.runtime.seq import run_sequential
from repro.transform.loopnest import transform_nest


@dataclass
class MachineRun:
    """Functional result + simulated performance of one plan execution."""

    plan: PartitionPlan
    machine: Multicomputer
    result: ParallelResult
    merged: dict[str, DataSpace]
    stats: MachineStats
    exact: bool

    @property
    def makespan(self) -> float:
        return self.stats.makespan

    @property
    def communication_free(self) -> bool:
        return self.stats.remote_accesses == 0 and \
            self.result.remote_accesses == 0

    # -- the Summary protocol ---------------------------------------------
    @property
    def ok(self) -> bool:
        return self.exact and self.communication_free

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        return (f"machine run [{self.machine.num_processors} PEs]: {verdict} "
                f"-- makespan {self.makespan:.3f}, "
                f"{self.stats.messages} messages, "
                f"{self.stats.remote_accesses} remote accesses, "
                f"exact={self.exact}")

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "processors": self.machine.num_processors,
            "makespan": self.makespan,
            "messages": self.stats.messages,
            "remote_accesses": self.stats.remote_accesses,
            "exact": self.exact,
            "communication_free": self.communication_free,
            "run": self.result.to_json(),
        }


def _distribute(machine: Multicomputer, plan: PartitionPlan,
                mapping: dict[int, int],
                initial: dict[str, DataSpace]) -> None:
    """Charge the host-to-node distribution with grouped messages."""
    p = machine.num_processors
    net = machine.network
    for name, dblocks in plan.data_blocks.items():
        # destination-set grouping, as in the paper's L5 patterns
        owners: dict[Coords, set[int]] = {}
        for db in dblocks:
            pid = mapping[db.block_index]
            for e in db.elements:
                owners.setdefault(e, set()).add(pid)
        groups: dict[frozenset[int], int] = {}
        for e, pids in owners.items():
            key = frozenset(pids)
            groups[key] = groups.get(key, 0) + 1
        for dsts, words in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
            if len(dsts) == p and p > 1:
                net.broadcast(HOST, words, tag=f"bcast:{name}")
            elif len(dsts) == 1:
                net.send(HOST, next(iter(dsts)), words, tag=f"scatter:{name}")
            else:
                net.multicast(HOST, sorted(dsts), words, tag=f"mcast:{name}")
    # the functional regions are populated by run_parallel; mark arrival
    for proc in machine.processors:
        proc.recv_time = net.elapsed


def run_on_machine(
    plan: PartitionPlan,
    p: int,
    cost: CostModel = TRANSPUTER,
    machine: Optional[Multicomputer] = None,
    initial: Optional[dict[str, DataSpace]] = None,
    scalars: Optional[Mapping[str, float]] = None,
    verify: bool = True,
    backend: Optional[str] = None,
    chaos: Optional[object] = None,
    options: Optional[object] = None,
) -> MachineRun:
    """Distribute, execute, merge and (optionally) verify on one machine.

    ``p`` shapes the processor grid through the paper's rule; blocks are
    assigned cyclically.  The returned stats combine the charged
    distribution time with the per-processor compute makespan.
    ``backend`` selects the execution engine for the functional run;
    ``chaos``/``options`` are forwarded to the parallel execution.
    """
    if options is not None:
        backend = backend or options.backend
        chaos = chaos if chaos is not None else options.chaos
    tracer = current_tracer()
    with tracer.span("machine.run", category="machine",
                     nest=plan.nest.name or "<anon>", p=p) as msp:
        tnest = transform_nest(plan.nest, plan.psi)
        grid = shape_grid(p, tnest.k)
        actual_p = max(1, grid.size)
        if machine is None:
            machine = Multicomputer(mesh_for(actual_p), cost=cost)
        elif machine.num_processors < actual_p:
            raise ValueError(
                f"machine has {machine.num_processors} processors but the "
                f"grid needs {actual_p}")
        mapping = block_to_pid_map(plan, tnest, grid)

        if initial is None:
            initial = make_arrays(plan.model)

        with tracer.span("machine.distribute", category="machine",
                         processors=machine.num_processors) as dsp:
            _distribute(machine, plan, mapping, initial)
            dsp.set(messages=machine.network.log.count,
                    words=machine.network.log.total_words,
                    elapsed=machine.network.elapsed)

        with tracer.span("machine.execute", category="machine",
                         blocks=len(plan.blocks)):
            result = run_parallel(plan, initial=initial, scalars=scalars,
                                  block_to_pid=mapping, backend=backend,
                                  chaos=chaos)
        # charge compute: executed computations per processor, normalized
        # to the paper's "one iteration = one t_comp" unit
        nstmts = len(plan.nest.statements)
        executed: dict[int, int] = {}
        live = plan.live
        for b in plan.blocks:
            pid = mapping[b.index]
            if live is None:
                cnt = len(b.iterations) * nstmts
            else:
                cnt = sum(1 for it in b.iterations for k in range(nstmts)
                          if (k, it) in live)
            executed[pid] = executed.get(pid, 0) + cnt
        for pid, cnt in executed.items():
            machine.processor(pid).compute_time += cnt / nstmts * cost.t_comp
            machine.processor(pid).iterations += cnt // nstmts

        with tracer.span("machine.merge", category="machine"):
            merged = merge_copies(result, initial)
        exact = True
        if verify:
            with tracer.span("machine.verify", category="machine") as vsp:
                expected = {n: a.copy() for n, a in initial.items()}
                run_sequential(plan.nest, expected, scalars=scalars,
                               space=plan.model.space)
                exact = all(merged[n] == expected[n] for n in expected)
                vsp.set(exact=exact)

        stats = machine.stats()
        msp.set(makespan=stats.makespan,
                messages=stats.messages,
                remote_accesses=stats.remote_accesses)
        return MachineRun(plan=plan, machine=machine, result=result,
                          merged=merged, stats=stats, exact=exact)
