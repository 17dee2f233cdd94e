"""Package surfaces resolve lazily, and each entry path imports only the
layers it walks (DESIGN.md, "Import graph").

Three contracts:

- **reachability** -- no module without a workload: every file under
  ``src/repro`` is imported, by a real ``import`` statement, on some
  path from an entry point;
- **surface parity** -- every package under ``src/repro`` exports exactly
  the names recorded in ``tests/golden/import_surface.json`` (taken from
  the eager ``__init__`` files this replaced), each one the very object
  its defining submodule holds;
- **import budget** -- a warm ``repro verify`` loads no layer it does
  not use (numpy included: only the ``vectorized`` tier and the
  shared-memory store import it), ``repro -V`` loads almost nothing, and
  ``REPRO_NO_NUMPY=1`` keeps numpy out of every command.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
SURFACE = json.loads((Path(__file__).parent / "golden"
                      / "import_surface.json").read_text())
PACKAGES = sorted(
    ".".join(("repro", *init.parent.relative_to(SRC).parts))
    for init in SRC.rglob("__init__.py"))


# -- reachability -----------------------------------------------------------

#: what a user, CI or the ledger starts: ``python -m repro``, the library
#: facade, the daemon, the paper's claims, and the two ``python -m``
#: utilities (``repro.config`` prints the knob table, ``repro.obs.schema``
#: checks a trace)
ENTRY_POINTS = ("repro.__main__", "repro.cli", "repro.api",
                "repro.serve.daemon", "repro.selftest", "repro.config",
                "repro.obs.schema")

#: modules no entry point imports and why each stays all the same; the
#: list is exact (an entry something starts importing must leave it)
LIBRARY_ONLY = {
    "repro.lang.builder": "the programmatic way to write a nest "
                          "(README quickstart, examples, test strategies)",
    "repro.perf.model": "the paper's closed forms T1-T3 (Sec. IV) the "
                        "simulated tables are compared against",
    "repro.ratlinalg.hermite": "reference implementation: the lattice "
                               "oracle of tests/ratlinalg",
    "repro.transform.validate": "reference implementation: Sec. IV's "
                                "bijection / ordering obligations, checked "
                                "by enumeration",
}


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports_of(name: str, path: Path, modules: dict) -> set[str]:
    """Every ``repro`` module the ``import`` statements of ``path`` load,
    function-level ones included, ``if TYPE_CHECKING:`` ones not.  A name
    read off a package (``from repro.lang import parse``) is resolved
    through the surface snapshot to the submodule defining it."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found: set[str] = set()

    def visit(node) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) \
                    and "TYPE_CHECKING" in ast.unparse(child.test):
                for stmt in child.orelse:
                    visit(stmt)
            elif isinstance(child, ast.Import):
                found.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = child.module or ""
                if child.level:
                    up = package.split(".")
                    up = up[:len(up) - child.level + 1]
                    base = ".".join(up + [base] if base else up)
                found.add(base)
                for alias in child.names:
                    if f"{base}.{alias.name}" in modules:
                        found.add(f"{base}.{alias.name}")
                    elif alias.name in SURFACE.get(base, {}):
                        found.add(SURFACE[base][alias.name].partition(":")[0])
            else:
                visit(child)

    visit(ast.parse(path.read_text()))
    return {m for m in found if m in modules}


def unreachable_modules(src: Path = SRC) -> set[str]:
    """Modules under ``src`` no chain of imports from an entry point
    reaches (importing ``a.b.c`` runs ``a`` and ``a.b`` too)."""
    from repro.runtime.engine.base import _BACKENDS

    modules = {_module_name(p, src): p for p in src.rglob("*.py")}
    graph = {name: _imports_of(name, path, modules)
             for name, path in modules.items()}
    # a registry row is an import by name (``base._engine_class``)
    graph["repro.runtime.engine.base"] |= {
        f"repro.runtime.engine.{module}" for module, _ in _BACKENDS.values()}
    seen: set[str] = set()
    todo = list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        if name and name not in seen:
            seen.add(name)
            todo += [name.rpartition(".")[0], *graph[name]]
    return set(modules) - seen


def test_every_module_is_reached_from_an_entry_point():
    assert unreachable_modules() == set(LIBRARY_ONLY)


def test_a_module_nobody_imports_is_reported(tmp_path):
    import shutil

    copy = tmp_path / "repro"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "machine" / "spare.py").write_text("from repro import config\n")
    assert unreachable_modules(copy) \
        == set(LIBRARY_ONLY) | {"repro.machine.spare"}


@pytest.mark.parametrize("module", ["repro.obs.top", "repro.program",
                                    "repro.machine.distribution",
                                    "repro.baseline.naive"])
def test_what_had_no_workload_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


# -- surface parity ---------------------------------------------------------

def test_snapshot_covers_every_package():
    assert PACKAGES == sorted(SURFACE)


@pytest.mark.parametrize("package", PACKAGES)
class TestSurfaceParity:
    def test_all_equals_snapshot(self, package):
        pkg = importlib.import_module(package)
        assert sorted(pkg.__all__) == sorted(SURFACE[package])
        assert len(set(pkg.__all__)) == len(pkg.__all__)

    def test_every_name_is_its_defining_object(self, package):
        pkg = importlib.import_module(package)
        for name, where in SURFACE[package].items():
            module, _, attr = where.partition(":")
            want = importlib.import_module(module)
            if attr:
                want = getattr(want, attr)
            assert getattr(pkg, name) is want, f"{package}.{name}"

    def test_dir_lists_the_surface(self, package):
        pkg = importlib.import_module(package)
        assert set(dir(pkg)) >= set(pkg.__all__)

    def test_unknown_attribute_names_the_package(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=package.replace(".", r"\.")
                           + r".*no_such_name"):
            pkg.no_such_name


# -- fresh interpreters -----------------------------------------------------

def _python(code: str, env: dict, *argv: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def hermetic_env(tmp_path):
    """The caller's environment with private cache directories and no
    ``REPRO_*`` setting (the budget is for the program's defaults)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent), *filter(None, [env.get("PYTHONPATH")])])
    env["XDG_CACHE_HOME"] = str(tmp_path / "xdg")
    env["REPRO_PLAN_CACHE_DIR"] = str(tmp_path / "plans")
    env["REPRO_BLACKBOX_DIR"] = str(tmp_path)
    return env


#: runs ``python -m repro ARGV`` in-process, then reports what it loaded
CLI_THEN_MODULES = """
import io, json, runpy, sys
from contextlib import redirect_stdout
argv = sys.argv[1:]
sys.argv = ["repro", *argv]
code = 0
try:
    with redirect_stdout(io.StringIO()):
        runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    code = exc.code or 0
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""


def cli_modules(env: dict, *argv: str) -> set[str]:
    doc = json.loads(_python(CLI_THEN_MODULES, env, *argv))
    assert doc["exit"] == 0, argv
    return set(doc["modules"])


def _loaded(modules: set[str], prefix: str) -> list[str]:
    return sorted(m for m in modules
                  if m == prefix or m.startswith(prefix + "."))


@pytest.mark.parametrize("package, name", [("repro.ratlinalg", "rref")])
@pytest.mark.parametrize("submodule_first", [False, True])
def test_function_wins_over_same_named_submodule(package, name,
                                                 submodule_first,
                                                 hermetic_env):
    """``repro.ratlinalg.rref`` is a function *and* a submodule; the
    package attribute is the function whichever is imported first."""
    first = f"import {package}.{name}\n" if submodule_first else ""
    out = _python(
        f"{first}from {package} import {name}\n"
        f"import {package}.{name}, {package}, sys\n"
        f"assert {package}.{name} is {name}\n"
        f"assert sys.modules['{package}.{name}'].{name} is {name}\n"
        f"print(callable({name}), type({name}).__name__)\n",
        hermetic_env)
    assert out.split() == ["True", "function"]


class TestImportBudget:
    VERIFY = ("verify", "--loop", "L1", "--duplicate", "--backend", "auto")

    #: layers a one-shot verify has no business loading
    FORBIDDEN = ("networkx", "multiprocessing", "asyncio",
                 "repro.serve", "repro.viz", "repro.perf", "repro.baseline",
                 "repro.report", "repro.machine.machine",
                 "repro.machine.topology", "repro.runtime.engine.multiproc",
                 "repro.runtime.scheduler.core",
                 "numpy", "repro.runtime.numpy_compat",
                 "repro.runtime.blockstore",
                 "repro.pipeline.instrument", "repro.obs.flight")

    def test_warm_verify_loads_only_what_it_walks(self, hermetic_env):
        cli_modules(hermetic_env, *self.VERIFY)            # fill the caches
        modules = cli_modules(hermetic_env, *self.VERIFY)
        leaked = {p: _loaded(modules, p) for p in self.FORBIDDEN
                  if _loaded(modules, p)}
        assert not leaked
        ours = _loaded(modules, "repro")
        assert len(ours) <= 72, ours

    def test_a_closed_session_never_imported_numpy(self, hermetic_env):
        """Planning, running, verifying and closing (which releases a
        plan segment only if the shared-memory store was ever loaded)
        compute on lists: only ``vectorized`` and that store use numpy."""
        out = _python(
            "import sys\n"
            "from repro.api import Session\n"
            "with Session('L1', strategy='duplicate') as s:\n"
            "    s.plan()\n"
            "    assert s.run(backend='auto').ok\n"
            "    assert s.verify(backend='auto').ok\n"
            "print('numpy' in sys.modules,\n"
            "      'repro.runtime.blockstore.store' in sys.modules)\n",
            hermetic_env)
        assert out.split() == ["False", "False"]

    def test_version_loads_no_layer(self, hermetic_env):
        modules = cli_modules(hermetic_env, "-V")
        assert "numpy" not in modules
        assert _loaded(modules, "repro") == ["repro", "repro._lazy",
                                             "repro.cli"]

    def test_importing_the_cli_imports_no_networkx(self, hermetic_env):
        out = _python("import repro.cli, sys\n"
                      "print('networkx' in sys.modules)", hermetic_env)
        assert out.strip() == "False"

    @pytest.mark.parametrize("argv", [
        ("verify", "--loop", "L1", "--duplicate", "--backend", "all"),
        ("run", "--loop", "L2", "--backend", "vectorized"),
        ("audit", "--loop", "L1"),
        ("report", "--loop", "L1", "-p", "4"),
        ("select", "--loop", "L5", "-p", "4"),
        ("figures",),
        ("tables",),
    ], ids=lambda argv: argv[0])
    def test_no_numpy_means_no_numpy(self, argv, hermetic_env):
        hermetic_env["REPRO_NO_NUMPY"] = "1"
        assert not _loaded(cli_modules(hermetic_env, *argv), "numpy")
