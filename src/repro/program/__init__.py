"""Multi-loop programs: composing per-nest communication-free plans.

The paper's technique "considers each nested loop independently in a
program" (Section V).  This layer composes the per-nest plans into a
whole-program schedule:

- :mod:`~repro.program.model`: a :class:`Program` is an ordered list of
  loop nests sharing arrays; phase-by-phase sequential and parallel
  execution with verification;
- :mod:`~repro.program.realloc`: between consecutive phases the arrays
  may need *reallocation* (an element's owner in the producing phase is
  not its owner in the consuming phase); we compute the exact element
  flows and charge them with the machine cost model -- the only
  communication a communication-free-per-loop program ever pays;
- :func:`~repro.program.model.plan_program`: per-phase strategy
  selection (via :mod:`repro.perf.selector`) that accounts for the
  reallocation traffic between phases, not just per-loop makespans.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "model": (
        "Phase", "Program", "ProgramPlan", "plan_program",
        "run_program_parallel", "run_program_sequential",
        "verify_program",
    ),
    "realloc": ("ReallocationReport", "reallocation_between"),
})
