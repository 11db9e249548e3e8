import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from whalg.exactmath import (
    ConductorMismatch,
    Cyclotomic,
    SparseMatrix,
    cyclotomic_polynomial,
    memoized_product,
    root_of_unity,
)

from references import cyclotomic_inverse_solved


def C(n, *pairs):
    return Cyclotomic.from_pairs(n, pairs)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_memoized_product_multiplies_each_distinct_pair_once():
    product = memoized_product()
    z = root_of_unity(6)
    p = product(z, z)
    assert p == root_of_unity(6, 2)
    assert product(root_of_unity(6), root_of_unity(6)) is p  # equal values, new objects
    # zeta_3 at conductor 3 has the coordinates of zeta_6 at conductor 6
    assert root_of_unity(3).v == z.v
    with pytest.raises(ConductorMismatch):
        product(root_of_unity(3), z)


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


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24])
def test_inverse_matches_the_dense_linear_solve(n):
    # the product of the Galois conjugates over the norm is the inverse that
    # the power-basis linear system x y = 1 determines
    rnd = random.Random(n)
    checked = 0
    while checked < 30:
        terms = [(rnd.randrange(n), Fraction(rnd.randint(-5, 5), rnd.choice([1, 2, 3, 7])))
                 for _ in range(rnd.randint(1, 5))]
        x = Cyclotomic.from_pairs(n, terms)
        if x.is_rational():
            continue
        inv = cyclotomic_inverse_solved(x)
        assert x.inverse() == inv and (x * inv).is_one()
        checked += 1


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
    pairs = [(e, Fraction(num, den)) for e, (num, den) in enumerate(x.to_json()["coeffs"])]
    again = Cyclotomic.from_pairs(12, pairs)
    assert x == again
    assert again.to_json() == x.to_json()
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


@pytest.mark.parametrize("n", [1, 3, 5, 15])
def test_root_of_unity_predicate_at_odd_conductors(n):
    # -zeta_n^k has order 2n / gcd(k, n) or twice it, not a divisor of n
    for k in range(n):
        z = root_of_unity(n, k)
        assert z.is_root_of_unity() and (-z).is_root_of_unity(), k
    assert Cyclotomic.rational(n, -1).is_root_of_unity()
    assert not Cyclotomic.rational(n, 2).is_root_of_unity()
    # 1 + zeta_3 = -zeta_3^2; otherwise |1 + zeta_n| = 2 cos(pi / n) != 1
    assert (Cyclotomic.one(n) + root_of_unity(n)).is_root_of_unity() == (n == 3)


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


# ---------------------------------------------------------------------------
# the integer kernel against a Fraction-pair reference
# ---------------------------------------------------------------------------


class _RefCyclotomic:
    """Q(zeta_n) as a sorted tuple of (exponent, Fraction) pairs reduced mod
    Phi_n: a straightforward reference for the integer kernel."""

    _tables = {}

    def __init__(self, n, c):
        self.n = n
        self.c = c

    @classmethod
    def _powtab(cls, n):
        tab = cls._tables.get(n)
        if tab is None:
            phi = cyclotomic_polynomial(n)
            deg = len(phi) - 1
            tab = []
            for k in range(2 * n - 1):
                vec = [Fraction(0)] * (n + 1)
                vec[k % n] = Fraction(1)
                for i in range(n, deg - 1, -1):
                    c = vec[i]
                    if c:
                        vec[i] = Fraction(0)
                        for j in range(deg):
                            vec[j + i - deg] -= c * phi[j]
                tab.append(tuple((i, v) for i, v in enumerate(vec[:deg]) if v))
            cls._tables[n] = tab
        return tab

    @classmethod
    def from_pairs(cls, n, pairs):
        tab = cls._powtab(n)
        acc = {}
        for e, q in pairs:
            q = Fraction(q)
            for e2, c2 in tab[e % n]:
                acc[e2] = acc.get(e2, Fraction(0)) + q * c2
        return cls(n, tuple(sorted((e, q) for e, q in acc.items() if q)))

    @classmethod
    def one(cls, n):
        return cls(n, ((0, Fraction(1)),))

    def is_one(self):
        return self.c == ((0, Fraction(1)),)

    def is_rational(self):
        return not self.c or (len(self.c) == 1 and self.c[0][0] == 0)

    def __add__(self, other):
        return _RefCyclotomic.from_pairs(self.n, self.c + other.c)

    def __neg__(self):
        return _RefCyclotomic(self.n, tuple((e, -q) for e, q in self.c))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _RefCyclotomic.from_pairs(
            self.n, [(e1 + e2, q1 * q2) for e1, q1 in self.c for e2, q2 in other.c]
        )

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = _RefCyclotomic.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def inverse(self):
        if not self.c:
            raise ZeroDivisionError
        d = len(cyclotomic_polynomial(self.n)) - 1
        cols = []
        for j in range(d):
            col = dict((self * _RefCyclotomic(self.n, ((j, Fraction(1)),))).c)
            cols.append([col.get(i, Fraction(0)) for i in range(d)])
        # Gauss-Jordan on [M | e_0], M[i][j] = cols[j][i]
        m = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
        for col in range(d):
            r = next(i for i in range(col, d) if m[i][col])
            m[col], m[r] = m[r], m[col]
            m[col] = [x / m[col][col] for x in m[col]]
            for i in range(d):
                if i != col and m[i][col]:
                    m[i] = [x - m[i][col] * y for x, y in zip(m[i], m[col])]
        return _RefCyclotomic.from_pairs(self.n, [(j, m[j][d]) for j in range(d)])

    def embed(self, m):
        k = m // self.n
        return _RefCyclotomic.from_pairs(m, [(e * k, q) for e, q in self.c])

    def is_root_of_unity(self):
        # the roots of unity of Q(zeta_n) are the +-zeta_n^k, all of order dividing 2n
        return bool(self.c) and (self ** (2 * self.n)).is_one()

    def to_json(self):
        vec = [[0, 1] for _ in range(self.n)]
        for e, q in self.c:
            vec[e] = [q.numerator, q.denominator]
        return {"conductor": self.n, "coeffs": vec}

    @classmethod
    def from_json(cls, obj):
        return cls.from_pairs(
            obj["conductor"], [(e, Fraction(num, den)) for e, (num, den) in enumerate(obj["coeffs"])]
        )


KERNEL_CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15]
_coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 4, 6, 9]))


@st.composite
def _value_pairs(draw, n):
    """(exponent, coefficient) pairs of a rational, monomial, root-of-unity or dense value."""
    kind = draw(st.sampled_from(["rational", "monomial", "root", "dense"]))
    if kind == "rational":
        return [(0, draw(_coeff))]
    if kind == "monomial":
        return [(draw(st.integers(0, 2 * n)), draw(_coeff))]
    if kind == "root":
        return [(draw(st.integers(0, n - 1)), draw(st.sampled_from([1, -1])))]
    return [(e, draw(_coeff)) for e in range(n)]


@st.composite
def _kernel_case(draw):
    n = draw(st.sampled_from(KERNEL_CONDUCTORS))
    return n, draw(_value_pairs(n)), draw(_value_pairs(n))


def _both(n, pairs):
    return Cyclotomic.from_pairs(n, pairs), _RefCyclotomic.from_pairs(n, pairs)


def _same(x, ref):
    """x has the reference's wire form and is stored canonically."""
    enc = ref.to_json()
    assert x.to_json() == enc
    canonical = Cyclotomic.from_json(enc)
    assert x == canonical and hash(x) == hash(canonical)


@settings(max_examples=200, deadline=None)
@given(_kernel_case(), st.integers(-3, 3), st.sampled_from([1, 2, 3]))
def test_kernel_matches_fraction_reference(case, k, m):
    n, px, py = case
    x, rx = _both(n, px)
    y, ry = _both(n, py)
    _same(x, rx)
    _same(y, ry)
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        _same(op(x, y), op(rx, ry))
    _same(-x, -rx)
    assert x.is_rational() == rx.is_rational()
    assert x.is_root_of_unity() == rx.is_root_of_unity()
    _same(x.embed(m * n), rx.embed(m * n))
    back = Cyclotomic.from_json(x.to_json())
    assert back == x and back.to_json() == x.to_json()
    if x:
        _same(x.inverse(), rx.inverse())
        _same(x ** k, rx ** k)
    else:
        _same(x ** abs(k), rx ** abs(k))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(KERNEL_CONDUCTORS).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(-12, 12), st.sampled_from([1, 2, -3, 4, 6, -1])),
            min_size=n, max_size=n,
        ).map(lambda cs: (n, cs))
    )
)
def test_from_json_reduces_any_encoding_like_the_reference(case):
    # unreduced fractions, negative denominators and exponents >= phi(n)
    n, coeffs = case
    obj = {"conductor": n, "coeffs": [list(c) for c in coeffs]}
    _same(Cyclotomic.from_json(obj), _RefCyclotomic.from_json(obj))


def test_from_json_rejects_bad_coefficients():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_json({"conductor": 2, "coeffs": [[1, 0], [0, 1]]})
    with pytest.raises(TypeError):
        Cyclotomic.from_json({"conductor": 2, "coeffs": [[1.5, 1], [0, 1]]})


@settings(max_examples=60, deadline=None)
@given(_kernel_case())
def test_inverse_memo_hash_and_canonical_zero(case):
    n, px, py = case
    x = Cyclotomic.from_pairs(n, px)
    y = Cyclotomic.from_pairs(n, px)  # equal value, separate object
    assert x == y and hash(x) == hash(y)
    assert Cyclotomic.from_json(x.to_json()) == x
    assert hash(Cyclotomic.from_json(x.to_json())) == hash(x)
    zero = x - x
    assert zero == Cyclotomic.zero(n) and hash(zero) == hash(Cyclotomic.zero(n))
    assert zero.to_json() == Cyclotomic.zero(n).to_json()
    assert not zero and zero.is_zero()
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    if x:
        first = x.inverse()
        assert x.inverse() == first and y.inverse() == first
        assert (x * first).is_one()
    other = 4 if n != 4 else 3
    with pytest.raises(ConductorMismatch):
        x * Cyclotomic.one(other)
    with pytest.raises(ConductorMismatch):
        x + Cyclotomic.one(other)
    with pytest.raises(ConductorMismatch):
        x - Cyclotomic.one(other)


def test_matmul_after_writes_to_the_right_operand():
    # the right operand's row index is rebuilt after set/add_to
    n = 3
    one = Cyclotomic.one(n)
    z = root_of_unity(3)
    a = SparseMatrix(2, 3, n, {(0, 0): one, (0, 2): z, (1, 1): one})
    b = SparseMatrix(3, 2, n, {(0, 0): one, (2, 1): z})
    assert a.matmul(b) == _matmul_naive(a, b)
    writes = [
        lambda: b.set(1, 0, z),
        lambda: b.add_to(0, 0, -one),
        lambda: b.add_to(2, 0, one),
        lambda: b.set(2, 1, Cyclotomic.zero(n)),
    ]
    for write in writes:
        write()
        assert a.matmul(b) == _matmul_naive(a, b)
    rows = b.row_dicts()
    rows[1].clear()
    assert a.matmul(b) == _matmul_naive(a, b) and b.row_dicts()[1]
