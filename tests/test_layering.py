"""No module of the package imports a private name of another, and only
`wha` knows how an algebra is stored.

A `_`-prefixed name belongs to its module: its layout, its kernels and the
helpers they share.  Every algebra keeps its structure tensors in scalar
ids (`mu_ids`, `delta_ids`, `antipode_ids` over the table `ids`), laid out
by `wha`'s private helpers.  The other modules go in through the flat entries
of `WeakHopfAlgebra.from_entries`, out through `sorted_entries` and
`mu_entries`, and otherwise use element arithmetic and `wha`'s public
value-level entry points, among them `verify_morphism`, the one check of a
linear map as a morphism; the sparse-vector format is `exactmath`'s (`acc`,
`push`).  So a change of layout touches `wha.py` and its tests only.  These
tests parse every module of the package and fail when one imports a `_` name
from another module of the package, by a relative or an absolute import,
when one reads a `_` attribute off another module of the package that it
imported whole, or when a module other than `wha` reads an id attribute of
the store.  The
import rule covers every helper that a list of names would, and every helper
added later.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "whalg")


def _modules():
    return sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _tree(module):
    with open(os.path.join(SRC, module)) as fh:
        return ast.parse(fh.read(), module)


def _private_imports(tree):
    """(line, what) for each `_` name imported from a module of the package."""
    return [(node.lineno, f"imports {a.name}") for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or node.module == "whalg" or node.module.startswith("whalg."))
            for a in node.names if a.name.startswith("_")]


def _private_module_reads(tree):
    """(line, what) for each `_` attribute read off a module of the package
    bound by `from . import wha` or `import whalg.wha as wha`."""
    bound = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.level or node.module == "whalg") for a in node.names}
    bound |= {a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
              for a in node.names if a.asname and a.name.startswith("whalg.")}
    return [(node.lineno, f"reads {node.value.id}.{node.attr}") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound and node.attr.startswith("_") and not node.attr.endswith("__")]


def _id_reads(tree):
    """(line, what) for each read of an id attribute of the store."""
    return [(node.lineno, f"reads .{node.attr}") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and (node.attr == "ids" or node.attr.endswith("_ids"))]


@pytest.mark.parametrize("module", _modules())
def test_no_module_imports_a_private_name_of_another(module):
    assert _private_imports(_tree(module)) == [], module


@pytest.mark.parametrize("module", [m for m in _modules() if m != "wha.py"])
def test_no_module_but_wha_writes_out_the_homomorphism_laws(module):
    """Nor through the module object: `wha._hom_range` is as private as its import."""
    assert _private_module_reads(_tree(module)) == [], module


@pytest.mark.parametrize("module", [m for m in _modules() if m != "wha.py"])
def test_no_module_but_wha_reads_the_scalar_id_store(module):
    assert _id_reads(_tree(module)) == [], module


def test_the_boundary_check_sees_both_ways_in():
    src = "from .wha import _NO_ROW, _code_rows, dual\nrows = A.mu_ids\nvals = A.ids.vals\n"
    tree = ast.parse(src)
    assert sorted(_private_imports(tree) + _id_reads(tree)) == [
        (1, "imports _NO_ROW"), (1, "imports _code_rows"), (2, "reads .mu_ids"), (3, "reads .ids")]


def test_the_morphism_check_sees_each_law_helper():
    """The helpers of the homomorphism laws are private to `wha`: each import of one is seen."""
    src = ("from .wha import _acc, _hom_range, verify_morphism\n"
           "from .wha import (\n    _first_diff,\n    _prune,\n)\nfrom whalg.wha import _hom_ids\n")
    assert sorted(_private_imports(ast.parse(src))) == [
        (1, "imports _acc"), (1, "imports _hom_range"), (2, "imports _first_diff"), (2, "imports _prune"),
        (6, "imports _hom_ids")]


def test_the_import_check_sees_every_private_import_of_the_package_and_no_other():
    src = ("from __future__ import annotations\n"
           "from os import _exit\n"
           "from .exactmath import _rref, acc\n"
           "from . import _private\n"
           "from whalg import _helper\n"
           "def f():\n    from ..whalg.tube import _transport_scalar\n"
           "from whalgebra import _other\n")
    assert sorted(_private_imports(ast.parse(src))) == [
        (3, "imports _rref"), (4, "imports _private"), (5, "imports _helper"), (7, "imports _transport_scalar")]


def test_the_module_object_check_sees_each_private_read_of_a_package_module():
    src = ("from . import wha\nimport whalg.tube as tube\nfrom os import path\n"
           "wha._hom_range(phi)\nwha.verify_morphism(rep)\ntube._compose_terms(c)\n"
           "path._joinrealpath\nwha.__name__\n")
    assert sorted(_private_module_reads(ast.parse(src))) == [
        (4, "reads wha._hom_range"), (6, "reads tube._compose_terms")]
