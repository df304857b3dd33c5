"""Every top-level import of a module in src/f1kgw is read by it."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "f1kgw"

# (module, name) bindings kept although the module never reads them:
# perfbench's tracer test reads forms.compose, a binding of
# pointed.compose, to check that the tracer wraps and restores it.
KEPT = {("forms", "compose")}


def unused_imports(tree):
    """The names bound by the module's top-level imports that it never
    reads and does not list in ``__all__``, in import order."""
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read | exported]


def _tree(module):
    return ast.parse((SRC / (module + ".py")).read_text(), module)


def test_the_scan_finds_an_unused_import():
    tree = ast.parse(
        "import os, os.path\nimport a.b\nfrom x import c, d as e, g\n"
        "from __future__ import annotations\n__all__ = ['d', 'g']\n"
        "def f():\n    import json\n    return c, a.b\n"
    )
    assert unused_imports(tree) == ["os", "os", "e"]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_every_top_level_import_is_read(module):
    unused = [name for name in unused_imports(_tree(module)) if (module, name) not in KEPT]
    assert unused == []


def test_every_kept_binding_is_still_unread():
    for module, name in KEPT:
        assert name in unused_imports(_tree(module))
