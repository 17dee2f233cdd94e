"""End-to-end verification: parallel == sequential, with zero communication.

:func:`verify_plan` is the strongest check in the repository: it runs
the sequential golden model and the partitioned parallel execution from
identical initial data, merges the replicated copies, and compares
final array contents bit-for-bit, while also asserting that not a
single remote access occurred.  The parallel execution can run on any
engine backend (``backend=``); :func:`cross_check_backends` runs it on
*every* available backend and demands they all agree with the golden
model -- the strongest form, used by ``verify --backend all``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.plan import PartitionPlan
from repro.obs.metrics import current_registry
from repro.obs.trace import current_tracer
from repro.runtime.arrays import DataSpace, make_arrays
from repro.runtime.merge import merge_copies
from repro.runtime.parallel import ParallelResult, run_parallel
from repro.runtime.seq import run_sequential


@dataclass
class VerificationReport:
    """Outcome of one end-to-end verification."""

    plan: PartitionPlan
    equal: bool
    remote_accesses: int
    num_blocks: int
    executed_iterations: int
    skipped_computations: int
    mismatches: list[tuple[str, tuple[int, ...], float, float]]
    # canonical name of the engine that ran the parallel execution
    backend: str = "interp"
    # backend-name -> report, when cross-checking every backend
    cross_checked: dict[str, "VerificationReport"] = field(default_factory=dict)

    @property
    def communication_free(self) -> bool:
        return self.remote_accesses == 0

    @property
    def ok(self) -> bool:
        return self.equal and self.communication_free

    def summary(self) -> str:
        """One-line verdict (the Summary protocol)."""
        if self.cross_checked:
            agreed = ", ".join(sorted(self.cross_checked))
            verdict = "ok" if self.ok else "FAILED"
            return (f"verify [all backends]: {verdict} -- cross-checked "
                    f"{agreed}")
        verdict = "ok" if self.ok else "FAILED"
        return (f"verify [{self.backend}]: {verdict} -- "
                f"{self.num_blocks} blocks, "
                f"{self.executed_iterations} iterations, "
                f"{self.remote_accesses} remote accesses, "
                f"{len(self.mismatches)} mismatches")

    def to_json(self) -> dict:
        data = {
            "ok": self.ok,
            "equal": self.equal,
            "communication_free": self.communication_free,
            "backend": self.backend,
            "blocks": self.num_blocks,
            "executed_iterations": self.executed_iterations,
            "skipped_computations": self.skipped_computations,
            "remote_accesses": self.remote_accesses,
            "mismatches": [
                [name, list(coords), a, b]
                for name, coords, a, b in self.mismatches[:10]
            ],
        }
        if self.cross_checked:
            data["cross_checked"] = {
                name: rep.to_json()
                for name, rep in self.cross_checked.items()
                if rep is not self
            }
        return data

    def raise_on_failure(self) -> "VerificationReport":
        if not self.communication_free:
            raise AssertionError(
                f"{self.remote_accesses} remote accesses in a supposedly "
                "communication-free plan"
            )
        if not self.equal:
            raise AssertionError(
                f"parallel result differs from sequential: "
                f"{self.mismatches[:5]} (showing up to 5)"
            )
        return self


def verify_plan(
    plan: PartitionPlan,
    scalars: Optional[Mapping[str, float]] = None,
    initial: Optional[dict[str, DataSpace]] = None,
    block_to_pid: Optional[Mapping[int, int]] = None,
    backend: Optional[str] = None,
    chaos: Optional[object] = None,
    options: Optional[object] = None,
) -> VerificationReport:
    """Run sequential and parallel executions and compare final arrays.

    ``backend`` selects the parallel execution engine; ``"all"``
    cross-checks every available backend (see
    :func:`cross_check_backends`).  ``chaos``/``options`` are forwarded
    to :func:`~repro.runtime.parallel.run_parallel` -- verifying under
    an active fault plan is exactly the crashed-and-retried ==
    undisturbed certification.
    """
    if options is not None:
        backend = backend or options.backend
        chaos = chaos if chaos is not None else options.chaos
    if backend == "all":
        return cross_check_backends(plan, scalars=scalars, initial=initial,
                                    block_to_pid=block_to_pid, chaos=chaos)
    return _verify_backend(plan, scalars, initial, block_to_pid, backend,
                           chaos)[0]


def _golden_arrays(plan: PartitionPlan, initial: dict[str, DataSpace],
                   scalars: Optional[Mapping[str, float]],
                   ) -> dict[str, DataSpace]:
    """The sequential golden model's final arrays from ``initial``."""
    seq_arrays = {name: ds.copy() for name, ds in initial.items()}
    run_sequential(plan.nest, seq_arrays, scalars=scalars,
                   space=plan.model.space)
    return seq_arrays


def _verify_backend(
    plan: PartitionPlan,
    scalars: Optional[Mapping[str, float]],
    initial: Optional[dict[str, DataSpace]],
    block_to_pid: Optional[Mapping[int, int]],
    backend: Optional[str],
    chaos: Optional[object],
    golden: Optional[dict[str, DataSpace]] = None,
) -> tuple[VerificationReport, ParallelResult]:
    """One parallel run on ``backend`` against the golden arrays
    (computed here unless the cross-check hands in the ones it has)."""
    tracer = current_tracer()
    with tracer.span("verify.plan", category="runtime",
                     nest=plan.nest.name or "<anon>",
                     backend=backend or "default") as vsp:
        if initial is None:
            initial = make_arrays(plan.model)
        if golden is None:
            golden = _golden_arrays(plan, initial, scalars)

        result = run_parallel(
            plan, initial=initial, scalars=scalars, block_to_pid=block_to_pid,
            backend=backend, chaos=chaos,
        )
        with tracer.span("runtime.merge", category="runtime"):
            merged = merge_copies(result, initial)

        mismatches: list[tuple[str, tuple[int, ...], float, float]] = []
        with tracer.span("verify.compare", category="runtime"):
            for name, ds in golden.items():
                mismatches.extend(
                    (name, coords, a, b)
                    for coords, a, b in ds.differences(merged[name]))

        report = VerificationReport(
            plan=plan,
            equal=not mismatches,
            remote_accesses=result.remote_accesses,
            num_blocks=plan.num_blocks,
            executed_iterations=result.executed_iterations,
            skipped_computations=result.skipped_computations,
            mismatches=mismatches,
            backend=result.backend,
        )
        vsp.set(ok=report.ok, backend=report.backend,
                mismatches=len(mismatches),
                remote_accesses=report.remote_accesses)
        reg = current_registry()
        reg.inc("verify.runs")
        reg.set("verify.mismatches", len(mismatches))
        reg.set("verify.ok", int(report.ok))
        return report, result


def cross_check_backends(
    plan: PartitionPlan,
    scalars: Optional[Mapping[str, float]] = None,
    initial: Optional[dict[str, DataSpace]] = None,
    block_to_pid: Optional[Mapping[int, int]] = None,
    chaos: Optional[object] = None,
) -> VerificationReport:
    """Verify the plan on *every* available backend.

    Each backend's merged arrays are compared against the sequential
    golden model (run once); additionally all backends must produce
    identical write stamps (the merge inputs), so agreement is
    bit-for-bit, not just value-equal.  Returns the interpreter's report
    with ``cross_checked`` filled in; ``ok`` is True only if every
    backend passed and agreed.
    """
    from repro.runtime.engine import available_backends

    if initial is None:
        initial = make_arrays(plan.model)
    golden = _golden_arrays(plan, initial, scalars)
    reports: dict[str, VerificationReport] = {}
    stamps: dict[str, dict] = {}
    for name in available_backends():
        reports[name], result = _verify_backend(
            plan, scalars, initial, block_to_pid, name, chaos, golden)
        stamps[name] = result.write_stamps
    main = reports["interp"]
    main.cross_checked = reports
    golden_stamps = stamps["interp"]
    for name, report in reports.items():
        if stamps[name] != golden_stamps or not report.ok:
            main.equal = main.equal and report.equal
            main.remote_accesses = max(main.remote_accesses,
                                       report.remote_accesses)
            if stamps[name] != golden_stamps:
                main.mismatches.append(
                    (f"<write-stamps:{name}>", (), 0.0, 0.0))
                main.equal = False
    return main
