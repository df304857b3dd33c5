"""Every top-level import of a module in src/f1kgw is read by it, and
every public name that only the tests read is listed with its reason."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "f1kgw"

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


PINNED = "a paper construction that an acceptance criterion pins"
# Public names of src/f1kgw that no module of src/ or perfbench/ reads,
# each with the reason it stays.
TEST_ONLY = {
    ("forms", "is_metabolic"): PINNED,
    ("forms", "metabolic_to_hyperbolic"): PINNED,
    ("pointed", "conflation_splittings"): PINNED,
    ("pointed", "retraction_of_splitting"): PINNED,
    ("pointed", "section_of_splitting"): PINNED,
    ("forms", "isotropic_splitting"): "the paper's splitting N ≅ H(U) ⊕ N//U by an isotropic U",
    ("forms", "split_off_form"): "the paper's orthogonal splitting along an inflation",
    ("forms", "hyperbolic_on_morphism"): "the hyperbolic functor H on morphisms",
    ("pointed", "decompose_inflation"): "the paper's splitting of an inflation into a sum",
    ("pointed", "fill_conflation_morphism"): "the paper's unique morphism of conflations",
    ("qcat", "qh_forgetful"): "the functor Q^h -> Q, along which the hermitian sequence runs",
    ("fincat", "h1"): "π₁ᵃᵇ, which the K₁ routes and their comparisons are to read",
}


def unread_public_names(defining, reading):
    """(module, name) for each public top-level def, class or assignment
    of the defining modules that none of the reading modules reads: as
    a name, an attribute, an imported name or a string equal to it (the
    tracer names what it wraps by string)."""
    defined = []
    for module, tree in defining:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names if not name.startswith("_")]
    read = set()
    for tree in reading:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(key for key in defined if key[1] not in read)


def test_the_audit_finds_an_unread_public_name():
    lib = ast.parse(
        "A = 1\n_b = 2\ndef used(): return A\ndef unused(): pass\n"
        "class Kept: pass\ndef named(): pass\nclass Gone: pass\n"
    )
    user = ast.parse("from lib import Kept\nimport lib\nlib.used()\nTIMED = ('named',)\n")
    assert unread_public_names([("lib", lib)], [lib, user]) == [("lib", "Gone"), ("lib", "unused")]


def test_every_public_name_read_only_by_tests_is_listed():
    modules = sorted(SRC.glob("*.py"))
    defining = [(p.stem, ast.parse(p.read_text(), p.name)) for p in modules]
    perfbench = sorted((ROOT / "perfbench").rglob("*.py"))
    reading = [tree for _, tree in defining] + [ast.parse(p.read_text(), p.name) for p in perfbench]
    assert unread_public_names(defining, reading) == sorted(TEST_ONLY)
    assert all(TEST_ONLY.values())
