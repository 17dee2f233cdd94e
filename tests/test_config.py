"""``repro.config`` is the only reader of the process environment, its
table is the whole set of ``REPRO_*`` names, and the documented knob
table is rendered from it."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro
from repro import config

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent
SOURCES = sorted(SRC.rglob("*.py"))
#: a variable name, not an identifier that merely contains one
NAME = re.compile(r"(?<![A-Za-z0-9_])REPRO_[A-Z0-9_]+")


def _environment_reads(tree: ast.AST) -> list[int]:
    """Line numbers of ``os.environ`` / ``os.getenv`` (however imported)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ",
                                                             "getenv"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for alias in node.names
                      if alias.name in ("environ", "getenv")]
    return lines


def test_only_config_touches_the_environment():
    readers = {str(path.relative_to(SRC)): lines for path in SOURCES
               if (lines := _environment_reads(ast.parse(path.read_text())))}
    assert list(readers) == ["config.py"], readers


def test_every_repro_variable_named_under_src_is_in_the_table():
    named = {name for path in SOURCES
             for name in NAME.findall(path.read_text())}
    assert named == {k for k in config.KNOBS if k.startswith("REPRO_")}
    assert len(named) == 8


def test_documented_table_is_the_rendered_table():
    doc = (ROOT / "docs" / "API.md").read_text()
    begin, end = "<!-- knobs:begin -->\n", "\n<!-- knobs:end -->"
    assert doc.count(begin) == 1 and doc.count(end) == 1
    table = doc[doc.index(begin) + len(begin):doc.index(end)]
    assert table == config.render_table()
    # and no other document keeps a second list to drift
    for other in ("README.md", "DESIGN.md", "docs/OBSERVABILITY.md"):
        text = (ROOT / other).read_text()
        assert not re.search(r"^\| `REPRO_", text, re.M), other


def test_malformed_value_names_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_MP_WORKERS", "abc")
    with pytest.raises(ValueError, match="REPRO_MP_WORKERS='abc'"):
        config.get("REPRO_MP_WORKERS")
    from repro.runtime.engine.multiproc import worker_count

    with pytest.raises(ValueError, match="REPRO_MP_WORKERS"):
        worker_count(4)


def test_unset_and_empty_read_as_the_default(monkeypatch):
    for name, knob in config.KNOBS.items():
        monkeypatch.delenv(name, raising=False)
        assert config.get(name) == knob.default
        monkeypatch.setenv(name, "")
        assert config.get(name) == knob.default
    monkeypatch.setenv("REPRO_MP_WORKERS", "3")
    assert config.get("REPRO_MP_WORKERS") == 3
    monkeypatch.setenv("REPRO_CODEGEN_DISK", "0")
    assert config.get("REPRO_CODEGEN_DISK") is False
    monkeypatch.setenv("REPRO_NO_SHM", "0")      # any value means "set"
    assert config.get("REPRO_NO_SHM") is True


def test_config_imports_nothing_from_repro():
    tree = ast.parse((SRC / "config.py").read_text())
    imported = [n.module if isinstance(n, ast.ImportFrom) else a.name
                for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))
                for a in n.names]
    assert not [m for m in imported if m and m.startswith("repro")]
