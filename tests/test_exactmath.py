import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from whalg.exactmath import (
    ConductorMismatch,
    Cyclotomic,
    SparseMatrix,
    cyclotomic_polynomial,
    root_of_unity,
)


def C(n, *pairs):
    return Cyclotomic.from_pairs(n, pairs)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_zeta4_squared_is_minus_one():
    z4 = root_of_unity(4)
    assert z4 * z4 == Cyclotomic.rational(4, -1)


def test_zeta3_times_zeta3_squared_is_one():
    z3 = root_of_unity(3)
    assert (z3 * root_of_unity(3, 2)).is_one()


def test_vanishing_root_of_unity_sum():
    s = C(5, (0, 1), (1, 1), (2, 1), (3, 1), (4, 1))
    assert (s * root_of_unity(5)).is_zero()
    assert s.is_zero()  # 1 + z + z^2 + z^3 + z^4 = Phi_5(z) = 0


def test_inverse_examples():
    two = Cyclotomic.rational(3, 2)
    assert two.inverse() == Cyclotomic.rational(3, Fraction(1, 2))
    z3 = root_of_unity(3)
    assert z3.inverse() == root_of_unity(3, 2)
    m1 = Cyclotomic.rational(7, -1)
    assert m1.inverse() == m1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(5).inverse()


def test_conductor_mismatch():
    with pytest.raises(ConductorMismatch):
        root_of_unity(3) * root_of_unity(4)


def test_canonical_reduction_idempotent():
    x = C(12, (7, Fraction(3, 2)), (11, -1), (4, 5))
    again = Cyclotomic.from_pairs(12, x.c)
    assert x == again
    assert (x - x).is_zero()


def test_embed():
    z3 = root_of_unity(3)
    z6 = z3.embed(6)
    assert z6 == root_of_unity(6, 2)
    with pytest.raises(ConductorMismatch):
        z3.embed(4)


def test_root_of_unity_predicate():
    assert root_of_unity(8, 3).is_root_of_unity()
    assert not Cyclotomic.rational(8, 2).is_root_of_unity()
    assert not Cyclotomic.zero(8).is_root_of_unity()


def test_json_roundtrip():
    x = C(6, (1, Fraction(-2, 3)), (0, 7))
    obj = x.to_json()
    assert obj["conductor"] == 6
    assert len(obj["coeffs"]) == 6
    assert Cyclotomic.from_json(obj) == x
    with pytest.raises(ValueError):
        Cyclotomic.from_json({"conductor": 6, "coeffs": [[1, 1]]})


def _rand_cyclo(n, rng_ints):
    return Cyclotomic.from_pairs(n, [(e, Fraction(v, 3)) for e, v in enumerate(rng_ints)])


small_ints = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 4, 5, 6, 8, 12]),
    st.lists(small_ints, min_size=4, max_size=4),
    st.lists(small_ints, min_size=4, max_size=4),
    st.lists(small_ints, min_size=4, max_size=4),
)
def test_field_axioms(n, xs, ys, zs):
    a = _rand_cyclo(n, xs)
    b = _rand_cyclo(n, ys)
    c = _rand_cyclo(n, zs)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert (a * a.inverse()).is_one()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 6]),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), small_ints), max_size=12),
)
def test_rank_nullity(n, entries):
    m = SparseMatrix(4, 4, n)
    for i, j, v in entries:
        m.set(i, j, Cyclotomic.rational(n, v))
    assert m.rank() + m.nullspace_dim() == 4
    for vec in m.nullspace_basis():
        assert not m.apply(vec)


def test_solve_identity():
    m = SparseMatrix.identity(3, 1)
    b = {0: Cyclotomic.one(1)}
    assert m.solve(b) == b


def test_rank_of_all_ones():
    one = Cyclotomic.one(1)
    m = SparseMatrix(2, 2, 1, {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): one})
    assert m.rank() == 1


def test_nullspace_of_zero_matrix():
    m = SparseMatrix(2, 3, 1)
    assert m.nullspace_dim() == 3


def test_rref():
    n = 3
    one = Cyclotomic.one(n)
    z = root_of_unity(3)
    m = SparseMatrix(4, 3, n, {(0, 0): one, (0, 2): z, (2, 0): z, (2, 2): z * z, (3, 1): one + one})
    ech, pivots = m.rref()
    assert sorted(pivots) == [0, 1] == m.pivot_columns()
    assert len(ech) == m.rank() == 2
    for row, p in zip(ech, pivots):
        assert row[p].is_one()
        assert all(q == p or q not in row for q in pivots)
    assert ech[pivots.index(0)] == {0: one, 2: z}
    assert ech[pivots.index(1)] == {1: one}


def test_column_after_writes_equals_full_scan():
    n = 3
    one = Cyclotomic.one(n)
    z = root_of_unity(3)
    m = SparseMatrix(3, 3, n, {(0, 1): one, (2, 1): z, (1, 0): z})

    def scan(j):
        return [(i, v) for (i, jj), v in m.data.items() if jj == j]

    assert list(m.column(1).items()) == scan(1)
    writes = [
        lambda: m.set(1, 1, z),
        lambda: m.add_to(0, 1, -one),
        lambda: m.add_to(2, 2, one),
        lambda: m.set(1, 0, Cyclotomic.zero(n)),
    ]
    for write in writes:
        write()
        for j in range(3):
            assert list(m.column(j).items()) == scan(j)
    assert m.column(1) == {2: z, 1: z}
    assert m.column(0) == {}


def test_solve_consistency_and_failure():
    n = 4
    one = Cyclotomic.one(n)
    z = root_of_unity(4)
    m = SparseMatrix(3, 2, n, {(0, 0): one, (1, 1): z, (2, 0): one, (2, 1): one})
    x = {0: Cyclotomic.rational(4, 2), 1: z}
    b = m.apply(x)
    sol = m.solve(b)
    assert sol is not None
    assert m.apply(sol) == b
    bad = dict(b)
    bad[2] = b.get(2, Cyclotomic.zero(n)) + one
    assert m.solve(bad) is None


def test_inverse_matrix():
    n = 3
    z = root_of_unity(3)
    one = Cyclotomic.one(3)
    m = SparseMatrix(2, 2, n, {(0, 0): z, (0, 1): one, (1, 1): one + one})
    inv = m.inverse()
    assert m.matmul(inv) == SparseMatrix.identity(2, n)
    assert inv.matmul(m) == SparseMatrix.identity(2, n)
    sing = SparseMatrix(2, 2, n, {(0, 0): one, (1, 0): one})
    with pytest.raises(ValueError):
        sing.inverse()


def _matmul_naive(a, b):
    out = {}
    for i in range(a.rows):
        for j in range(b.cols):
            s = Cyclotomic.zero(a.n)
            for k in range(a.cols):
                s = s + a.get(i, k) * b.get(k, j)
            if s:
                out[(i, j)] = s
    return SparseMatrix(a.rows, b.cols, a.n, out)


def test_matmul_against_naive_reference():
    n = 3
    one = Cyclotomic.one(n)
    z = root_of_unity(3)
    # (0, 0) and (1, 1) of the product cancel to zero; (0, 2) is 1 + z + z^2 = 0
    a = SparseMatrix(2, 3, n, {(0, 0): one, (0, 1): one, (0, 2): one, (1, 0): one, (1, 1): -one})
    b = SparseMatrix(3, 3, n, {(0, 0): one, (1, 0): -one, (0, 1): one, (1, 1): one, (2, 1): z,
                               (0, 2): one, (1, 2): z, (2, 2): z * z})
    prod = a.matmul(b)
    assert prod == _matmul_naive(a, b)
    assert prod.data == {(0, 1): one + one + z, (1, 0): one + one, (1, 2): one - z}
    assert prod.column(0) == {1: one + one} and prod.column(2) == {1: one - z}
    rnd = random.Random(5)
    values = [Cyclotomic.zero(n), one, -one, z, -z, z * z]
    for _ in range(20):
        x = SparseMatrix(3, 4, n, {(i, j): v for i in range(3) for j in range(4)
                                   if (v := rnd.choice(values))})
        y = SparseMatrix(4, 2, n, {(i, j): v for i in range(4) for j in range(2)
                                   if (v := rnd.choice(values))})
        assert x.matmul(y) == _matmul_naive(x, y)
