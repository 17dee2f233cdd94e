"""One occurrence, one record: the tracer is the only recording API.

- static: nothing outside ``repro/obs`` reaches the ring, or anything
  of the blackbox module beyond dumping and rendering, and no function
  reports the same occurrence through two span/event calls;
- dynamic: a pass execution is one span, and the registry's pass
  histogram counts exactly those spans.

(The ring's own contracts -- bounded, coarse, constant entries per
``Session.run`` -- are in ``test_flight.py``.)
"""

import ast
import io
from collections import Counter
from pathlib import Path

import repro
from repro.cli import main
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from repro.pipeline import PLAN_CACHE

SRC = Path(repro.__file__).resolve().parent
OUTSIDE_OBS = sorted(p for p in SRC.rglob("*.py")
                     if p.relative_to(SRC).parts[0] != "obs")

#: what the rest of the program may use of ``repro.obs.flight``
BLACKBOX_API = {"dump_blackbox", "latest_blackbox", "load_blackbox",
                "render_blackbox"}
#: the ring is the tracer's; everyone else marks a record ``coarse``
RING_NAMES = {"RING", "Ring"}


def _imports(tree):
    """-> (module, name or None) for every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module, alias.name


def test_only_obs_touches_the_ring_or_the_blackbox_internals():
    offenders = []
    for path in OUTSIDE_OBS:
        for module, name in _imports(ast.parse(path.read_text())):
            bad = (
                (module == "repro.obs.flight" and name not in BLACKBOX_API)
                or (module == "repro.obs" and name == "flight")
                or (module in ("repro.obs", "repro.obs.trace")
                    and name in RING_NAMES))
            if bad:
                offenders.append(f"{path.relative_to(SRC)}: "
                                 f"{module}:{name}")
    assert offenders == []


def test_no_function_reports_one_occurrence_twice():
    """Two ``.span(`` / ``.event(`` calls with the same name in one
    function is the shape the double reporting had (a tracer call next
    to a flight call for the same lease, pass or run)."""
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


def test_a_pass_execution_is_one_span_and_one_histogram_sample():
    PLAN_CACHE.clear()
    tracer, registry = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        assert main(["report", "--loop", "L1", "-p", "4"],
                    out=io.StringIO()) == 0
    spans = Counter(s.name for s in tracer.find(category="pipeline"))
    assert spans and all(name.startswith("pass:") for name in spans)
    counts = {name[len("pipeline.pass.seconds."):]: registry.get(name).count
              for name in registry.names()
              if name.startswith("pipeline.pass.seconds.")}
    assert counts == {name[len("pass:"):]: n for name, n in spans.items()}
