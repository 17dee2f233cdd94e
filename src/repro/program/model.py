"""Programs: ordered loop nests over shared arrays.

A :class:`Program` executes its nests in order; arrays persist across
phases (phase ``t+1`` reads what phase ``t`` wrote).  Each phase gets
its own communication-free plan; the only interprocessor communication
is the inter-phase reallocation computed by
:mod:`repro.program.realloc`.

``run_program_parallel`` executes each phase with the parallel executor
seeded from the current global state, merges, and continues -- the
semantics of a barrier-synchronized phase program.  ``verify_program``
checks the final state against whole-program sequential execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.analysis.references import extract_references
from repro.core.plan import PartitionPlan
from repro.core.strategy import Strategy
from repro.pipeline import PipelineConfig, run_pipeline
from repro.lang.ast import LoopNest
from repro.machine.cost import CostModel, TRANSPUTER
from repro.perf.general import block_to_pid_map, estimate_plan
from repro.perf.selector import choose_strategy
from repro.program.realloc import ReallocationReport, reallocation_between
from repro.mapping.grid import shape_grid
from repro.runtime.arrays import DataSpace, array_footprints, default_init
from repro.runtime.merge import merge_copies
from repro.runtime.parallel import run_parallel
from repro.runtime.seq import run_sequential
from repro.transform.loopnest import transform_nest


@dataclass
class Phase:
    """One planned phase of a program."""

    nest: LoopNest
    plan: PartitionPlan
    mapping: dict[int, int]            # block -> pid
    compute_time: float = 0.0
    distribution_time: float = 0.0


@dataclass
class Program:
    """An ordered sequence of loop nests over shared arrays."""

    nests: Sequence[LoopNest]
    name: str = ""

    def __post_init__(self):
        if not self.nests:
            raise ValueError("empty program")

    def array_names(self) -> list[str]:
        out: list[str] = []
        for nest in self.nests:
            for a in nest.array_names():
                if a not in out:
                    out.append(a)
        return out

    def make_arrays(self, init=None) -> dict[str, DataSpace]:
        """Allocate every array with bounds covering all phases."""
        init = init or default_init
        lo: dict[str, list[int]] = {}
        hi: dict[str, list[int]] = {}
        for nest in self.nests:
            model = extract_references(nest)
            for name, (l, h) in array_footprints(model).items():
                if name not in lo:
                    lo[name], hi[name] = list(l), list(h)
                else:
                    if len(l) != len(lo[name]):
                        raise ValueError(
                            f"array {name} used with different ranks across phases")
                    lo[name] = [min(a, b) for a, b in zip(lo[name], l)]
                    hi[name] = [max(a, b) for a, b in zip(hi[name], h)]
        return {
            name: DataSpace(name, tuple(lo[name]), tuple(hi[name]))
            .fill_with(init(name))
            for name in lo
        }


@dataclass
class ProgramPlan:
    """Plans for every phase plus the inter-phase reallocations."""

    program: Program
    phases: list[Phase]
    reallocations: list[ReallocationReport] = field(default_factory=list)

    @property
    def total_compute(self) -> float:
        return sum(ph.compute_time for ph in self.phases)

    @property
    def total_distribution(self) -> float:
        return self.phases[0].distribution_time if self.phases else 0.0

    @property
    def total_reallocation(self) -> float:
        return sum(r.time for r in self.reallocations)

    @property
    def makespan(self) -> float:
        """Initial distribution + per-phase compute + reallocation barriers."""
        return (self.total_distribution + self.total_compute
                + self.total_reallocation)

    def summary(self) -> str:
        lines = [f"program {self.program.name or '<anon>'}: "
                 f"{len(self.phases)} phases"]
        for i, ph in enumerate(self.phases):
            lines.append(
                f"  phase {i} ({ph.nest.name or '?'}): "
                f"{ph.plan.num_blocks} blocks, compute {ph.compute_time:.6f}s")
            if i < len(self.reallocations):
                r = self.reallocations[i]
                lines.append(
                    f"    realloc -> phase {i + 1}: {r.moved_words} words "
                    f"moved ({r.locality:.0%} local), {r.time:.6f}s")
        lines.append(f"  makespan: {self.makespan:.6f}s")
        return "\n".join(lines)


def plan_program(
    program: Program,
    p: int,
    cost: CostModel = TRANSPUTER,
    strategy: Optional[Strategy] = None,
    consider_elimination: bool = False,
) -> ProgramPlan:
    """Plan every phase and account inter-phase reallocation.

    With ``strategy`` given, every phase uses it; otherwise each phase
    runs the cost-based selector (:func:`repro.perf.choose_strategy`).
    """
    phases: list[Phase] = []
    for nest in program.nests:
        if strategy is None:
            best = choose_strategy(nest, p, cost=cost,
                                   consider_elimination=consider_elimination).best
            plan, est = best.plan, best.estimate
        else:
            config = PipelineConfig(strategy=strategy)
            plan = run_pipeline(nest, config, upto="partition").plan
            est = estimate_plan(plan, p, cost=cost)
        tnest = transform_nest(nest, plan.psi)
        grid = shape_grid(p, tnest.k)
        mapping = block_to_pid_map(plan, tnest, grid)
        phases.append(Phase(nest=nest, plan=plan, mapping=mapping,
                            compute_time=est.compute_time,
                            distribution_time=est.distribution_time))
    reallocs = [
        reallocation_between(phases[i].plan, phases[i].mapping,
                             phases[i + 1].plan, phases[i + 1].mapping,
                             cost=cost)
        for i in range(len(phases) - 1)
    ]
    return ProgramPlan(program=program, phases=phases, reallocations=reallocs)


def run_program_sequential(program: Program,
                           arrays: dict[str, DataSpace],
                           scalars: Optional[Mapping[str, float]] = None,
                           ) -> dict[str, DataSpace]:
    for nest in program.nests:
        run_sequential(nest, arrays, scalars=scalars)
    return arrays


def run_program_parallel(pplan: ProgramPlan,
                         arrays: dict[str, DataSpace],
                         scalars: Optional[Mapping[str, float]] = None,
                         ) -> dict[str, DataSpace]:
    """Phase-parallel execution with merge barriers between phases."""
    state = arrays
    for ph in pplan.phases:
        # restrict the phase's view to the arrays it references, re-based
        # on the current global state
        model = ph.plan.model
        phase_initial = {name: state[name] for name in model.arrays}
        result = run_parallel(ph.plan, initial=phase_initial,
                              scalars=scalars, block_to_pid=ph.mapping)
        merged = merge_copies(result, phase_initial)
        for name, ds in merged.items():
            state[name] = ds
    return state


@dataclass
class ProgramVerification:
    equal: bool
    mismatches: list

    @property
    def ok(self) -> bool:
        return self.equal


def verify_program(pplan: ProgramPlan,
                   scalars: Optional[Mapping[str, float]] = None,
                   init=None) -> ProgramVerification:
    """Phase-parallel final state == whole-program sequential state."""
    base = pplan.program.make_arrays(init=init)
    seq = {n: a.copy() for n, a in base.items()}
    run_program_sequential(pplan.program, seq, scalars=scalars)
    par = {n: a.copy() for n, a in base.items()}
    par = run_program_parallel(pplan, par, scalars=scalars)
    mismatches = []
    for name, ds in seq.items():
        for c in ds.coords_iter():
            if ds[c] != par[name][c]:
                mismatches.append((name, tuple(c), ds[c], par[name][c]))
    return ProgramVerification(equal=not mismatches, mismatches=mismatches)
