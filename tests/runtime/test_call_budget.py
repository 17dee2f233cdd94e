"""A floor as a count: Python calls per executed access.

The reference run (``run_parallel(plan, backend="interp")``, what the
audit reconciles) and the golden model (``run_sequential``) pay for
every access in Python function calls.  ``sys.setprofile`` counts the
``call`` events of one whole run -- set-up, spans and publishing
included; C functions such as an ``itemgetter`` of the iteration tuple
are ``c_call`` events and do not count -- and the count is divided by
the run's executed accesses (``reads + writes``).  A change that puts a
call back on every access moves the ratio by a whole unit or more.
"""

import gc
import sys

import pytest

from repro.analysis import extract_references
from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.lang.space import IterationSpace
from repro.runtime import make_arrays, run_parallel, run_sequential
from tests.nests import matmul

#: case -> (nest, strategy, most calls per access: interp, golden).  The
#: caps are the counts reached when each access became one call (from
#: 7.51 / 7.80 and 11.25 / 10.73 before), rounded up; the golden ones
#: since a proven access is one slot (from 4.04 / 8.01)
BUDGETS = {
    "MATMUL4-duplicate": (lambda: matmul(4), Strategy.DUPLICATE,
                          4.0, 3.5),
    "L1-nonduplicate": (catalog.l1, Strategy.NONDUPLICATE, 9.4, 7.7),
}


def calls_during(fn):
    """``(fn(), the number of Python calls it made)``.  The cyclic
    collector is off meanwhile: a collection that happens to fall inside
    ``fn`` runs the gc callbacks a test library registers (hypothesis
    does), which are calls of no run."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.disable()
    sys.setprofile(count)
    try:
        value = fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return value, calls


def interp_run(make, strategy):
    """``(calls, accesses)`` of the reference run of ``make()``."""
    plan = build_plan(make(), strategy=strategy)
    run_parallel(plan, backend="interp")   # the plan's layout, built once
    result, calls = calls_during(lambda: run_parallel(plan, backend="interp"))
    assert result.ok and result.backend == "interp"
    return calls, result.reads + result.writes


def golden_run(make, strategy):
    """``(calls, accesses)`` of the golden run of ``make()``: every
    statement of every point, which the plans here all execute."""
    nest = make()
    arrays = make_arrays(extract_references(nest))
    _, calls = calls_during(lambda: run_sequential(nest, arrays))
    refs = sum(1 + len(list(s.rhs.array_refs())) for s in nest.statements)
    return calls, refs * IterationSpace(nest).size()


@pytest.mark.parametrize("case", sorted(BUDGETS))
@pytest.mark.parametrize("run", [interp_run, golden_run],
                         ids=["interp", "golden"])
def test_calls_per_access_stay_within_the_budget(case, run):
    make, strategy, *caps = BUDGETS[case]
    calls, accesses = run(make, strategy)
    cap = caps[run is golden_run]
    assert calls / accesses <= cap, (calls, accesses)


def test_a_golden_access_is_one_call_at_the_margin():
    """What MATMUL8 costs the golden model beyond MATMUL4, per access:
    the set-up cancels, and an iteration's 4 accesses (C, A, B read, C
    written) are 4 calls plus the ``+`` and ``*`` nodes, 6 calls.  It
    was 9 (2.25) while a read went through a coordinate tuple and an
    offset call."""
    small, big = (golden_run(lambda: matmul(n), Strategy.DUPLICATE)
                  for n in (4, 8))
    assert (big[0] - small[0]) / (big[1] - small[1]) <= 1.5, (small, big)
