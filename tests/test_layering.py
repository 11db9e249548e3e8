"""Only `wha` knows how an algebra is stored, and only `wha` writes out
the homomorphism laws.

Every algebra keeps its structure tensors in scalar ids (`mu_ids`,
`delta_ids`, `antipode_ids` over the table `ids`), laid out by `wha`'s
private helpers.  The other modules go in through the flat entries of
`WeakHopfAlgebra.from_entries`, out through `sorted_entries`, and otherwise
use element arithmetic and `wha`'s value-level entry points, so a change
of layout touches `wha.py` and its tests only.  Likewise a linear map is
checked as a morphism by `wha.verify_morphism` alone, so no other module
imports the helpers that sweep or compare its laws.  These tests parse every
module of the package and fail when another module reaches into the store
or around the morphism verifier.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "whalg")

STORE_HELPERS = {"_NO_ROW", "_ScalarIds", "_coded", "_nested", "_by_leg", "_product",
                 "_mixed_assoc_range", "_matrix", "_numbered"}
MORPHISM_HELPERS = {"_hom_range", "_hom_ids", "_first_diff", "_prune"}


def _modules():
    return sorted(name for name in os.listdir(SRC) if name.endswith(".py") and name != "wha.py")


def _morphism_law_imports(tree):
    """(line, what) for each import of a helper of the homomorphism laws."""
    return [(node.lineno, f"imports {a.name}") for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for a in node.names if a.name in MORPHISM_HELPERS]


def _store_reads(tree):
    """(line, what) for each import of a store helper and each read of an id attribute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, f"imports {a.name}") for a in node.names
                    if a.name in STORE_HELPERS or a.name.startswith("_code_")]
        elif isinstance(node, ast.Attribute) and (node.attr == "ids" or node.attr.endswith("_ids")):
            out.append((node.lineno, f"reads .{node.attr}"))
    return out


@pytest.mark.parametrize("module", _modules())
def test_no_module_but_wha_reads_the_scalar_id_store(module):
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), module)
    assert _store_reads(tree) == [], module


@pytest.mark.parametrize("module", _modules())
def test_no_module_but_wha_writes_out_the_homomorphism_laws(module):
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), module)
    assert _morphism_law_imports(tree) == [], module


def test_the_boundary_check_sees_both_ways_in():
    src = "from .wha import _NO_ROW, _code_rows, dual\nrows = A.mu_ids\nvals = A.ids.vals\n"
    assert sorted(_store_reads(ast.parse(src))) == [
        (1, "imports _NO_ROW"), (1, "imports _code_rows"), (2, "reads .mu_ids"), (3, "reads .ids")]


def test_the_morphism_check_sees_each_law_helper():
    src = ("from .wha import _acc, _hom_range, verify_morphism\n"
           "from .wha import (\n    _first_diff,\n    _prune,\n)\nfrom whalg.wha import _hom_ids\n")
    assert sorted(_morphism_law_imports(ast.parse(src))) == [
        (1, "imports _hom_range"), (2, "imports _first_diff"), (2, "imports _prune"), (6, "imports _hom_ids")]
