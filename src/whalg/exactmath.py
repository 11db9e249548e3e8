"""Exact scalars in cyclotomic fields and sparse exact linear algebra.

Every coefficient in this package is a `Cyclotomic`: an element of Q(zeta_N)
stored in a canonical reduced form, so equality of values is literal equality
of representations.  No floats anywhere.

A `Cyclotomic` at conductor N stores (n, v, d), the value
sum_e v[e] zeta_N^e / d: `v` is a dense tuple of phi(N) ints, the
coordinates in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1), and `d` is
one positive common denominator with gcd(d, *v) = 1 (FLINT's `fmpq_poly`
form).  Zero is (0, ..., 0) over 1.  Phi_N is monic over Z, so reducing a
product mod Phi_N keeps the coordinates integral, and the gcd is only taken
when d != 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg, sub


class ConductorMismatch(ValueError):
    pass


def _poly_divmod(num, den):
    # dense polynomial division, den monic, lowest degree first
    num = list(num)
    dn = len(den) - 1
    out = [0] * max(0, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    while num and not num[-1]:
        num.pop()
    return out, num


def cyclotomic_polynomial(n):
    """Coefficient list of Phi_n over Z (monic, lowest degree first)."""
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    if n == 1:
        return poly
    for d in range(1, n):
        if n % d == 0:
            q, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not rem
            poly = q
    return poly


class _Field:
    """Per-conductor reduction data and inverse memo, built on first use."""

    def __init__(self, n):
        phi = cyclotomic_polynomial(n)
        deg = self.degree = len(phi) - 1
        # zeta^k mod Phi_n for k = 0 .. n-1 as int vectors of length deg
        tab = []
        for k in range(n):
            vec = [0] * n
            vec[k] = 1
            for i in range(n - 1, deg - 1, -1):
                c = vec[i]
                if c:
                    vec[i] = 0
                    for j in range(deg):
                        vec[j + i - deg] -= c * phi[j]
            tab.append(tuple(vec[:deg]))
        self.powtab = tab
        # the rows that reduce the exponents deg .. 2deg-2 of a product of
        # two vectors, as sparse (index, coefficient) pairs
        self.reduce = tuple(
            (k, tuple((j, c) for j, c in enumerate(tab[k % n]) if c))
            for k in range(deg, 2 * deg - 1)
        )
        self.zero = (0,) * deg
        self.one = (1,) + self.zero[1:]
        self.galois = [k for k in range(2, n) if gcd(k, n) == 1]  # sigma_k, k != 1
        self.inverses = {}  # irrational value -> its inverse


class _Fields(dict):
    def __missing__(self, n):
        f = self[n] = _Field(n)
        return f


_FIELDS = _Fields()


def _canonical(n, v, d):
    """The value v / d (ints, d > 0) in canonical form."""
    if d != 1:
        g = gcd(d, *v)
        if g != 1:
            return Cyclotomic(n, tuple([x // g for x in v]), d // g)
    return Cyclotomic(n, tuple(v), d)


def _from_terms(n, terms, d):
    """Canonical form of sum x zeta_n^e / d over int terms (e, x), d > 0."""
    f = _FIELDS[n]
    acc = [0] * f.degree
    for e, x in terms:
        if x:
            for j, r in enumerate(f.powtab[e % n]):
                if r:
                    acc[j] += x * r
    return _canonical(n, acc, d)


class Cyclotomic:
    """Element sum_e v[e] zeta_n^e / d of Q(zeta_n), canonical-reduced mod Phi_n.

    `v` holds phi(n) ints and `d` > 0 with gcd(d, *v) = 1, so two values are
    equal iff their stored forms are identical.  Immutable and hashable.
    """

    __slots__ = ("n", "v", "d", "_hash")

    def __init__(self, n, v, d):
        self.n = n
        self.v = v
        self.d = d
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_pairs(n, pairs):
        """Canonical reduction of arbitrary (exponent, coefficient) pairs."""
        terms = [(e, Fraction(q)) for e, q in pairs]
        d = lcm(*(q.denominator for _e, q in terms))
        return _from_terms(n, [(e, q.numerator * (d // q.denominator)) for e, q in terms], d)

    @staticmethod
    def rational(n, q):
        zero = _FIELDS[n].zero
        if type(q) is int:
            return Cyclotomic(n, (q,) + zero[1:], 1)
        q = Fraction(q)
        return Cyclotomic(n, (q.numerator,) + zero[1:], q.denominator)

    @staticmethod
    def zero(n):
        return Cyclotomic(n, _FIELDS[n].zero, 1)

    @staticmethod
    def one(n):
        return Cyclotomic(n, _FIELDS[n].one, 1)

    # -- basics ------------------------------------------------------------

    def is_zero(self):
        return not any(self.v)

    def is_one(self):
        return self.d == 1 and self.v == _FIELDS[self.n].one

    def is_rational(self):
        return not any(self.v[1:])

    def __bool__(self):
        return any(self.v)

    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.n == other.n and self.v == other.v and self.d == other.d

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.n, self.v, self.d))
        return h

    def __add__(self, other):
        n = self.n
        if n != other.n:
            raise ConductorMismatch(f"conductor {n} vs {other.n}")
        d = self.d
        e = other.d
        if d == e:
            v = tuple(map(add, self.v, other.v))
            if d == 1:
                return Cyclotomic(n, v, 1)
        else:
            v = [x * e + y * d for x, y in zip(self.v, other.v)]
            d *= e
        return _canonical(n, v, d)

    def __sub__(self, other):
        n = self.n
        if n != other.n:
            raise ConductorMismatch(f"conductor {n} vs {other.n}")
        d = self.d
        e = other.d
        if d == e:
            v = tuple(map(sub, self.v, other.v))
            if d == 1:
                return Cyclotomic(n, v, 1)
        else:
            v = [x * e - y * d for x, y in zip(self.v, other.v)]
            d *= e
        return _canonical(n, v, d)

    def __neg__(self):
        return Cyclotomic(self.n, tuple(map(neg, self.v)), self.d)

    def __mul__(self, other):
        n = self.n
        if n != other.n:
            raise ConductorMismatch(f"conductor {n} vs {other.n}")
        a = self.v
        b = other.v
        d = self.d * other.d
        if not any(a[1:]):  # rational factor fast path
            q = a[0]
            if q == 1 and d == other.d:
                return other
            v = [q * y for y in b]
        elif not any(b[1:]):
            q = b[0]
            if q == 1 and d == self.d:
                return self
            v = [q * x for x in a]
        else:
            deg = len(a)
            v = [0] * (2 * deg - 1)
            for i, x in enumerate(a):
                if x:
                    for k, y in enumerate(b, i):
                        if y:
                            v[k] += x * y
            for k, row in _FIELDS[n].reduce:
                c = v[k]
                if c:
                    for j, r in row:
                        v[j] += c * r
            del v[deg:]
        if d != 1:
            g = gcd(d, *v)
            if g != 1:
                return Cyclotomic(n, tuple([x // g for x in v]), d // g)
        return Cyclotomic(n, tuple(v), d)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """Multiplicative inverse; raises ZeroDivisionError on 0.

        An irrational value v / d (v integral) has the inverse d P / N(v),
        where P is the product of the Galois conjugates sigma_k(v),
        zeta -> zeta^k for the k coprime to the conductor other than 1, and
        N(v) = v P is the norm, a rational integer.  It is memoized on its
        field.
        """
        v = self.v
        q = v[0]
        if not any(v[1:]):
            if not q:
                raise ZeroDivisionError("inverse of zero cyclotomic")
            d = self.d
            return Cyclotomic(self.n, (d if q > 0 else -d,) + v[1:], abs(q))
        f = _FIELDS[self.n]
        inv = f.inverses.get(self)
        if inv is None:
            n = self.n
            num = Cyclotomic(n, v, 1)
            conj = Cyclotomic.one(n)
            for k in f.galois:
                conj = conj * _from_terms(n, ((e * k, x) for e, x in enumerate(v)), 1)
            norm = (num * conj).v[0]
            inv = f.inverses[self] = conj * Cyclotomic.rational(n, Fraction(self.d, norm))
        return inv

    def __truediv__(self, other):
        return self * other.inverse()

    def embed(self, m):
        """Explicitly embed into conductor m (requires n | m)."""
        if m % self.n:
            raise ConductorMismatch(f"{self.n} does not divide {m}")
        k = m // self.n
        return _from_terms(m, ((e * k, x) for e, x in enumerate(self.v)), self.d)

    def is_root_of_unity(self):
        """Whether self^m = 1 for m = lcm(2, n): the roots of unity of Q(zeta_n)
        are the +-zeta_n^k, so -1 counts at an odd conductor too."""
        if not any(self.v):
            return False
        return (self ** lcm(2, self.n)).is_one()

    def _coeffs(self):
        """Each coordinate as a gcd-reduced (numerator, denominator) pair."""
        d = self.d
        out = []
        for x in self.v:
            g = gcd(x, d)
            out.append((x // g, d // g))
        return out

    def __repr__(self):
        parts = []
        for e, (num, den) in enumerate(self._coeffs()):
            if not num:
                continue
            q = f"{num}/{den}" if den != 1 else str(num)
            if e == 0:
                parts.append(q)
            elif q == "1":
                parts.append(f"z{self.n}^{e}" if e > 1 else f"z{self.n}")
            else:
                parts.append(f"{q}*z{self.n}^{e}" if e > 1 else f"{q}*z{self.n}")
        return " + ".join(parts) if parts else "0"

    # -- JSON wire form: exactly N [num, den] pairs, canonical-reduced ------

    def to_json(self):
        if self.d == 1:
            vec = [[x, 1] for x in self.v]
        else:
            vec = [[num, den] for num, den in self._coeffs()]
        vec += [[0, 1] for _ in range(self.n - len(vec))]
        return {"conductor": self.n, "coeffs": vec}

    @staticmethod
    def from_json(obj):
        n = obj["conductor"]
        coeffs = obj["coeffs"]
        if len(coeffs) != n:
            raise ValueError("scalar encoding must carry exactly N coefficient pairs")
        d = 1
        for num, den in coeffs:
            if type(num) is not int or type(den) is not int:  # bool is an int subclass
                raise TypeError("scalar coefficients must be integer [num, den] pairs")
            if den != 1:
                if not den:
                    raise ZeroDivisionError("zero denominator in a scalar encoding")
                d = lcm(d, den)
        f = _FIELDS[n]
        deg = f.degree
        v = [0] * deg
        rest = []
        for e, (num, den) in enumerate(coeffs):
            if num:
                x = num if den == d else num * (d // den)
                if e < deg:
                    v[e] += x
                else:
                    rest.append((e, x))
        if rest:
            return _from_terms(n, [*enumerate(v), *rest], d)
        return _canonical(n, v, d)


def root_of_unity(n, k=1):
    """zeta_n^k at conductor n."""
    return Cyclotomic(n, _FIELDS[n].powtab[k % n], 1)


def memoized_product():
    """A function x, y -> x * y that multiplies each distinct pair of values once.

    Structure tables repeat a few scalars over many entries (the A(Z6, p)
    builder forms tens of thousands of products of six values), and a memo
    hit is several times cheaper than a product.  The memo is keyed by the
    canonical forms, which compare without a Python-level `__eq__`; a
    repeated pair gets back the same object.
    """
    memo = {}

    def product(x, y):
        key = x.n, x.v, x.d, y.n, y.v, y.d
        p = memo.get(key)
        if p is None:
            p = memo[key] = x * y
        return p

    return product


# ---------------------------------------------------------------------------
# sparse exact linear algebra
# ---------------------------------------------------------------------------


class SparseMatrix:
    """Sparse matrix over a fixed cyclotomic field; no stored zeros."""

    __slots__ = ("rows", "cols", "n", "data", "_colidx", "_rowidx")

    def __init__(self, rows, cols, n, data=None):
        self.rows = rows
        self.cols = cols
        self.n = n  # conductor
        self.data = {} if data is None else data
        self._colidx = None
        self._rowidx = None

    def copy(self):
        return SparseMatrix(self.rows, self.cols, self.n, dict(self.data))

    def set(self, i, j, v):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        if v:
            self.data[(i, j)] = v
        else:
            self.data.pop((i, j), None)
        self._colidx = self._rowidx = None

    def add_to(self, i, j, v):
        if not v:
            return
        cur = self.data.get((i, j))
        s = cur + v if cur is not None else v
        if s:
            self.data[(i, j)] = s
        else:
            del self.data[(i, j)]
        self._colidx = self._rowidx = None

    def get(self, i, j):
        return self.data.get((i, j), Cyclotomic.zero(self.n))

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.n == other.n
            and self.data == other.data
        )

    __hash__ = None

    @staticmethod
    def identity(d, n):
        one = Cyclotomic.one(n)
        return SparseMatrix(d, d, n, {(i, i): one for i in range(d)})

    @staticmethod
    def from_columns(rows_dim, cols_vectors, n):
        """Assemble from a list of sparse column vectors {row: scalar}."""
        m = SparseMatrix(rows_dim, len(cols_vectors), n)
        for j, col in enumerate(cols_vectors):
            for i, v in col.items():
                if v:
                    m.data[(i, j)] = v
        return m

    def column(self, j):
        return dict(self._cols().get(j, ()))

    def transpose(self):
        return SparseMatrix(
            self.cols, self.rows, self.n, {(j, i): v for (i, j), v in self.data.items()}
        )

    def row_dicts(self):
        """One {col: value} per row; stored zeros are left out, so that
        elimination never takes one as a pivot."""
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.data.items():
            if v:
                rows[i][j] = v
        return rows

    def _cols(self):
        if self._colidx is None:
            idx = {}
            for (i, j), v in self.data.items():
                idx.setdefault(j, []).append((i, v))
            self._colidx = idx
        return self._colidx

    def _rows(self):
        if self._rowidx is None:
            self._rowidx = self.row_dicts()
        return self._rowidx

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        rows_other = other._rows()
        acc = {}
        for (i, k), v in self.data.items():
            for j, w in rows_other[k].items():
                p = v * w
                s = acc.get((i, j))
                acc[(i, j)] = p if s is None else s + p
        return SparseMatrix(self.rows, other.cols, self.n, {ij: s for ij, s in acc.items() if s})

    def apply(self, vec):
        """Apply to a sparse vector {index: scalar}."""
        cols = self._cols()
        out = {}
        for j, x in vec.items():
            if not x:
                continue
            for i, v in cols.get(j, ()):
                s = out.get(i)
                p = v * x
                out[i] = s + p if s is not None else p
        return {i: v for i, v in out.items() if v}

    # -- elimination-backed queries ------------------------------------------

    def rref(self):
        """Exact reduced row echelon form as (rows, pivot columns).

        Each returned row is a sparse dict {col: scalar} with a 1 in its
        pivot column; the pivot rule is the deterministic one of `_rref`.
        """
        return _rref(self.row_dicts(), self.n)

    def rank(self):
        ech, _ = self.rref()
        return len(ech)

    def nullspace_dim(self):
        return self.cols - self.rank()

    def nullspace_basis(self):
        ech, pivots = self.rref()
        piv_of = {p: r for r, p in enumerate(pivots)}
        one = Cyclotomic.one(self.n)
        basis = []
        for j in range(self.cols):
            if j in piv_of:
                continue
            vec = {j: one}
            for p, r in piv_of.items():
                c = ech[r].get(j)
                if c:
                    vec[p] = -c
            basis.append(vec)
        return basis

    def pivot_columns(self):
        """Deterministic pivot column set of the column space."""
        _ech, pivots = self.rref()
        return sorted(pivots)

    def solve(self, b):
        """One exact solution of M x = b (b a sparse dict), or None."""
        rows = self.row_dicts()
        aug = self.cols
        for i, v in b.items():
            if v:
                rows[i][aug] = v
        ech, pivots = _rref(rows, self.n, aug_col=aug)
        if ech is None:
            return None  # inconsistent
        sol = {}
        for r, p in enumerate(pivots):
            v = ech[r].get(aug)
            if v:
                sol[p] = v
        return sol

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        d = self.rows
        rows = self.row_dicts()
        one = Cyclotomic.one(self.n)
        for i in range(d):
            rows[i][d + i] = one
        ech, pivots = _rref(rows, self.n)
        if sorted(p for p in pivots if p < d) != list(range(d)):
            raise ValueError("singular matrix")
        out = SparseMatrix(d, d, self.n)
        for r, p in enumerate(pivots):
            for j, v in ech[r].items():
                if j >= d:
                    out.data[(p, j - d)] = v
        return out


class SparseTensor3:
    """Sparse order-3 tensor; houses multiplication/comultiplication tables."""

    __slots__ = ("dims", "n", "data")

    def __init__(self, dims, n, data=None):
        self.dims = dims
        self.n = n
        self.data = {} if data is None else data

    def set(self, i, j, k, v):
        d1, d2, d3 = self.dims
        if not (0 <= i < d1 and 0 <= j < d2 and 0 <= k < d3):
            raise IndexError((i, j, k))
        if v:
            self.data[(i, j, k)] = v
        else:
            self.data.pop((i, j, k), None)

    def add_to(self, i, j, k, v):
        if not v:
            return
        cur = self.data.get((i, j, k))
        s = cur + v if cur is not None else v
        if s:
            self.data[(i, j, k)] = s
        else:
            del self.data[(i, j, k)]

    def __eq__(self, other):
        return (
            isinstance(other, SparseTensor3)
            and self.dims == other.dims
            and self.n == other.n
            and self.data == other.data
        )

    __hash__ = None


def _rref(rows, n, aug_col=None):
    """Sparse exact reduced row echelon form.

    rows: list of {col: Cyclotomic}; the dicts are reduced in place, so
    callers pass fresh ones.  Returns (rref_rows, pivot_cols); the pivot of
    each returned row is the lowest column index present when the
    row was processed (a deterministic rule), rows are processed shortest
    first, and every pivot column is eliminated from all other rows, so the
    result is a genuine RREF.  With `aug_col` set, a pivot landing on that
    column signals inconsistency and (None, None) is returned.

    Exact field arithmetic throughout; every coefficient is kept over its
    least common denominator, which bounds intermediate swell at desk scale.
    """
    work = [r for r in rows if r]
    work.sort(key=len, reverse=True)
    ech = []
    pivots = []
    pivot_of_col = {}
    occupancy = {}  # col -> set of ech row idxs with a nonzero entry there

    def _set(ridx, prow, j, v):
        if v:
            if j not in prow:
                occupancy.setdefault(j, set()).add(ridx)
            prow[j] = v
        elif j in prow:
            del prow[j]
            occupancy[j].discard(ridx)

    while work:
        row = work.pop()
        # reduce against existing pivot rows until stable
        while True:
            hit = None
            for j in row:
                r = pivot_of_col.get(j)
                if r is not None:
                    hit = (j, r)
                    break
            if hit is None:
                break
            j, r = hit
            c = row.pop(j)
            for j2, v in ech[r].items():
                if j2 == j:
                    continue
                cur = row.get(j2)
                nv = (cur - c * v) if cur is not None else -(c * v)
                if nv:
                    row[j2] = nv
                else:
                    row.pop(j2, None)
        if not row:
            continue
        p = min(row)
        if aug_col is not None and p == aug_col:
            return None, None
        inv = row[p].inverse()
        row = {j: v * inv for j, v in row.items()}
        # eliminate the new pivot column from the pivot rows that contain it
        ridx = len(ech)
        for r2 in sorted(occupancy.get(p, ())):
            prow = ech[r2]
            c = prow[p]
            _set(r2, prow, p, Cyclotomic.zero(n))
            for j2, v in row.items():
                if j2 == p:
                    continue
                cur = prow.get(j2)
                nv = (cur - c * v) if cur is not None else -(c * v)
                _set(r2, prow, j2, nv)
        for j in row:
            occupancy.setdefault(j, set()).add(ridx)
        pivot_of_col[p] = ridx
        ech.append(row)
        pivots.append(p)
    return ech, pivots
