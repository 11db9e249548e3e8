import itertools

import pytest

from whalg.exactmath import root_of_unity
from whalg.groups import (
    FiniteGroup,
    ValidationError,
    catalog_group,
    cyclic_group,
    embed_cocycle,
    pointwise_product,
    product_group,
    standard_cocycle,
    symmetric_group_3,
    trivial_cocycle,
    validate_cocycle,
    validate_group,
)


def test_z2_table_passes():
    assert validate_group([[0, 1], [1, 0]]).ok


def test_broken_associativity_reported():
    # 3-element "table" with identity 0 but a broken product
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    rep = validate_group(table)
    assert not rep.ok
    assert "associativity" in rep.first_failure or "inverse" in rep.first_failure


def test_s3_from_permutation_composition():
    # oracle: compose permutations directly and compare tables
    s3 = symmetric_group_3()
    perms = sorted(itertools.permutations(range(3)))
    for i, s in enumerate(perms):
        for j, t in enumerate(perms):
            comp = tuple(s[t[k]] for k in range(3))
            assert perms[s3.mul(i, j)] == comp
    assert validate_group(s3.table).ok
    assert not s3.is_abelian()


def test_malformed_table_rejected():
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [1, 1]])


def test_trivial_cocycle_validates():
    for name in ("z2", "z3", "s3", "z2xz2"):
        g = catalog_group(name)
        assert validate_cocycle(g, trivial_cocycle(g)).ok


def test_standard_cocycle_z3_exhaustive():
    omega = standard_cocycle(3, 1)
    rep = validate_cocycle(omega.group, omega)
    assert rep.ok


def test_standard_cocycle_holds_one_object_per_root_of_unity():
    # equal values are one object, so by-value lookups on them hit by identity
    for n in (2, 3, 6):
        for p in range(n):
            values = standard_cocycle(n, p).values
            assert len({id(v) for v in values.values()}) <= n
            assert values == {(a, b, c): root_of_unity(n, p * a * ((b + c) // n))
                              for a, b, c in itertools.product(range(n), repeat=3)}


def test_tampered_cocycle_caught():
    g = cyclic_group(3)
    omega = trivial_cocycle(g, conductor=3)
    omega.values[(1, 1, 1)] = root_of_unity(3)
    rep = validate_cocycle(g, omega)
    assert not rep.ok
    assert "fails at" in rep.first_failure


def test_standard_cocycle_values():
    w = standard_cocycle(2, 1)
    assert w(1, 1, 1) == root_of_unity(2)  # = -1
    for p in range(3):
        w3 = standard_cocycle(3, p)
        for g in range(3):
            for h in range(3):
                assert w3(g, 0, h).is_one()
    assert all(v.is_one() for v in standard_cocycle(3, 0).values.values())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_standard_cocycles_validate_up_to_8(n):
    for p in range(n):
        w = standard_cocycle(n, p)
        assert validate_cocycle(w.group, w).ok


def test_pointwise_product_is_cocycle():
    w1 = standard_cocycle(4, 1)
    w2 = standard_cocycle(4, 2)
    w = pointwise_product(w1, w2)
    assert validate_cocycle(w.group, w).ok


def test_embed_cocycle():
    w = standard_cocycle(2, 1)
    w6 = embed_cocycle(w, 6)
    assert w6.conductor == 6
    assert validate_cocycle(w6.group, w6).ok


def test_catalog():
    assert catalog_group("z6").order == 6
    assert catalog_group("z2xz2").order == 4
    assert product_group(cyclic_group(2), cyclic_group(2)).is_abelian()
    with pytest.raises(KeyError):
        catalog_group("z5")


def test_inverse_table():
    g = symmetric_group_3()
    for a in g.elements():
        assert g.mul(a, g.inv(a)) == g.identity
