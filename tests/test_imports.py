"""Every name a module of mmk imports is used in that module, and every
private top-level name of mmk is read somewhere in mmk."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mmk").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no ast.Name reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nd(sys)\n"
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_top_level(source: str) -> list[str]:
    """The _names (dunders excepted) that a module binds at top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def reads(source: str) -> set[str]:
    """Names a module loads, reads as attributes or imports from elsewhere."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def unread_private_names(sources: list[str]) -> list[str]:
    read = set().union(*map(reads, sources))
    return [n for source in sources for n in private_top_level(source) if n not in read]


def test_the_scan_finds_an_unread_private_name():
    defining = "_LIMIT = 3\n__all__ = []\ndef _used():\n    return _LIMIT\ndef _dead():\n    pass\n"
    calling = "from m import _used\nx = m._other\n_used()\n"
    assert unread_private_names([defining, calling]) == ["_dead"]


def test_every_private_top_level_name_is_read():
    assert unread_private_names([path.read_text() for path in SOURCES]) == []
