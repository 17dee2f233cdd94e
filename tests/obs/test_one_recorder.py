"""One occurrence, one record: the tracer is the only recorder.

- static: no function reports the same occurrence through two
  span/event calls;
- dynamic: a disabled tracer records nothing and builds nothing, and a
  pass execution is exactly one span (its one timing record).
"""

import ast
import dataclasses
import io
from collections import Counter
from pathlib import Path

import repro
import repro.obs.trace as trace
from repro.api import Session
from repro.cli import main
from repro.obs import NULL_TRACER, Tracer, use_tracer
from repro.pipeline import PLAN_CACHE
from repro.pipeline import passes

SRC = Path(repro.__file__).resolve().parent
OUTSIDE_OBS = sorted(p for p in SRC.rglob("*.py")
                     if p.relative_to(SRC).parts[0] != "obs")


def test_no_function_reports_one_occurrence_twice():
    """Two ``.span(`` / ``.event(`` calls with the same name in one
    function is the shape the double reporting had (a tracer call next
    to a flight call for the same share, pass or run)."""
    offenders = []
    for path in OUTSIDE_OBS:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = Counter(
                ast.dump(call.args[0]) for call in ast.walk(fn)
                if isinstance(call, ast.Call) and call.args
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("span", "event"))
            offenders += [f"{path.relative_to(SRC)}:{fn.name}: {name}"
                          for name, n in names.items() if n > 1]
    assert offenders == []


def test_a_run_under_the_null_tracer_builds_no_span(monkeypatch):
    """Disabled is free: planning and running a nest under the process
    default tracer constructs no ``Span`` and records nothing."""
    built = []

    class Counted(trace.Span):
        def __init__(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["name"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(trace, "Span", Counted)
    PLAN_CACHE.clear()
    with Session("L1", strategy="duplicate", tracer=NULL_TRACER) as s:
        assert s.run().ok
    assert built == []
    assert NULL_TRACER.spans == [] and NULL_TRACER.events == []


def test_a_pass_execution_is_one_span(monkeypatch):
    ran = Counter()

    def counted(p):
        def run(ctx):
            ran[p.name] += 1
            p.run(ctx)
        return dataclasses.replace(p, run=run)

    monkeypatch.setattr(passes.DEFAULT_MANAGER, "_passes",
                        [counted(p) for p in passes.DEFAULT_MANAGER.passes])
    PLAN_CACHE.clear()
    tracer = Tracer()
    with use_tracer(tracer):
        assert main(["report", "--loop", "L1", "-p", "4"],
                    out=io.StringIO()) == 0
    spans = Counter(s.name for s in tracer.spans if s.category == "pipeline")
    assert spans and all(name.startswith("pass:") for name in spans)
    assert ran == {name[len("pass:"):]: n for name, n in spans.items()}
