"""Weak Hopf algebra data model and the exact axiom verifier suites.

`PlainAlgebra` is the shared base of every algebra in the package (tube
algebras, separable Frobenius algebras and `WeakHopfAlgebra`): it owns the
labeled basis, the sparse indexes of mu, the element product and the one
product on tensor powers A^(x)k, and validates its unit and associativity
laws with the same sweeps as the weak bialgebra suite.  The tensor-power
product (`mul_tensor`, behind `mul2`/`mul3`) joins its operands on their
first two legs through per-algebra sets of right companions, so a term
meets only the terms it multiplies to nonzero on both of those legs.

Structure constants live in sparse tensors; every law is checked on basis
tuples (sufficient by multilinearity) by streaming sparse contractions that
enumerate exactly the tuples on which either side can be nonzero, so the
sweeps are equivalent to the dense loops while staying feasible at dim 1296.

Three law kernels serve every caller of their law shape:

- `_hom_range`, the homomorphism kernel: the least basis pair on which a
  linear map given by its basis images fails to be an algebra
  (anti-)homomorphism.  It runs the antipode's anti-homomorphism law, `chi`,
  the Tube/Tube' transport and the Drinfeld double's sharp map.
- `_mixed_assoc_range`, the mixed-associativity kernel: the least basis
  triple on which f(g(x, y), z) != h(x, k(y, z)) for four sparse bilinear
  tables indexed by `_bilinear_index`.  It runs mu-associativity, the tube
  bimodule and compose-tower laws and the module action law.
- `_convolution`, the convolution kernel: x -> f(x_(1)) g(x_(2)) for two
  linear maps f, g of A, each given by its columns or the identity.  Axiom 4
  is three convolution identities (Boehm-Nill-Szlachanyi 1999):
  id * S = eps_t, S * id = eps_s and (S * id) * S = S.

The counital maps eps_t, eps_s and eps'_s are cached on the algebra by
columns, each built in one pass over Delta(1); `eps_lr`, `eps_rr` and
`base_algebras` read them.

Every law sweep runs on scalar ids (`_ScalarIds`): inside one call every
scalar is a small-int id, 0 for zero, with memoized products and sums, so
the sweeps hash ints, not cyclotomic values.  These are the three kernels
above, Axioms 1 and 2 (`_axiom1_range`, `_counit_weak_mult_range`) and
the intertwining law R Delta(x) = Delta^cop(x) R
(`_intertwining_failure`).  The id tables are locals of the call, so a
forked sweep gives each worker one range.  The Yang-Baxter identity and the
weak-inverse laws stay on `mul_tensor`: each is a few products of whole
tensors rather than a sweep over the basis, and Yang-Baxter measured no
faster on ids.

The weak Hopf axioms are self-dual, so the coalgebra laws are not swept
separately: the suites run the algebra sweeps above on the dual A* (`dual`).
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os

from .exactmath import Cyclotomic, SparseMatrix, SparseTensor3
from .report import Report


def default_threads():
    env = os.environ.get("WHALG_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


_NO_INDICES = frozenset()


class PlainAlgebra:
    """Associative unital algebra by sparse structure constants."""

    def __init__(self, labels, conductor, mu, unit, name="T"):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.conductor = conductor
        self.mu = mu            # SparseTensor3: (i, j, k) -> coeff of e_k in e_i e_j
        self.unit = unit        # sparse vector {i: coeff}
        self.name = name
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.label_index) != self.dim:
            raise ValueError("labels must be distinct")

    # -- derived sparse indexes (built once) ---------------------------------

    @functools.cached_property
    def mu_index(self):
        """mu as a law-kernel table (see `_bilinear_index`)."""
        return _bilinear_index(self.mu.data)

    @property
    def mu_pairs(self):
        return self.mu_index[0]

    @property
    def right_companions(self):
        return self.mu_index[1]

    @functools.cached_property
    def left_companions(self):
        return _companions(self.mu_pairs, 1)

    @functools.cached_property
    def right_companion_sets(self):
        """i -> set of the j with e_i e_j != 0, shared and never mutated.

        Plain sets, not frozensets: `dict_keys & set` walks the smaller side.
        """
        return {i: set(js) for i, js in self.right_companions.items()}

    # -- element arithmetic ---------------------------------------------------

    def zero_scalar(self):
        return Cyclotomic.zero(self.conductor)

    def one_scalar(self):
        return Cyclotomic.one(self.conductor)

    def basis_elem(self, i):
        return {i: self.one_scalar()}

    def one(self):
        return dict(self.unit)

    def mul(self, u, v):
        """Product of sparse elements of A."""
        return _product(self.mu_pairs, u, v)

    def mul_tensor(self, U, V):
        """Product of sparse elements of A^(x)k, k >= 2, keyed by k-tuples of indices.

        V is indexed by its first two legs (first -> second -> terms).  A term
        of U meets, on each of those legs, only the V legs in the right
        companion set of its own leg (a set intersection), so it reaches just
        the V terms whose first two legs both multiply to nonzero.  Legs beyond
        the second are probed term by term.
        """
        mp = self.mu_pairs
        rcs = self.right_companion_sets
        by_two = {}
        for key, c in V.items():
            by_two.setdefault(key[0], {}).setdefault(key[1], []).append((key[2:], c))
        firsts_of = by_two.keys()
        out = {}
        for key1, c1 in U.items():
            i1 = key1[0]
            a1 = key1[1]
            rest1 = key1[2:]
            partners = rcs.get(a1, _NO_INDICES)
            for i2 in firsts_of & rcs.get(i1, _NO_INDICES):
                first = mp[(i1, i2)]
                by_second = by_two[i2]
                for a2 in by_second.keys() & partners:
                    second = mp[(a1, a2)]
                    for rest2, c2 in by_second[a2]:
                        legs = [first, second]
                        for a, b in zip(rest1, rest2):
                            terms = mp.get((a, b))
                            if not terms:
                                break
                            legs.append(terms)
                        else:
                            c12 = c1 * c2
                            for combo in itertools.product(*legs):
                                c = c12
                                for _k, ck in combo:
                                    c = c * ck
                                _acc(out, tuple(k for k, _ck in combo), c)
        return out

    def mul2(self, U, V):
        """Product of sparse elements of A (x) A."""
        return self.mul_tensor(U, V)

    def mul3(self, U, V):
        """Product of sparse elements of A (x) A (x) A."""
        return self.mul_tensor(U, V)

    def label_str(self, i):
        return repr(self.labels[i])

    def validate(self):
        """Unit law and associativity, swept like the weak bialgebra suite."""
        rep = Report(self.name, "plain-algebra")
        detail = _unit_law(self)
        rep.add("unit-law", detail is None, detail)
        detail = _sweep(self, _assoc_range, default_threads())
        rep.add("associativity", detail is None, detail)
        return rep


class WeakHopfAlgebra(PlainAlgebra):
    """A `PlainAlgebra` plus sparse structure tensors for Delta, eps and S.

    Nothing is assumed at construction: the verifier suites below establish
    (or refute) every axiom.
    """

    def __init__(self, labels, conductor, mu, unit, delta, counit, antipode, name="A", meta=None):
        super().__init__(labels, conductor, mu, unit, name)
        self.delta = delta      # SparseTensor3: (i, j, k) -> coeff of e_j (x) e_k in Delta(e_i)
        self.counit = counit    # sparse covector {i: coeff}
        self.antipode = antipode  # SparseMatrix: (k, i) -> coeff of e_k in S(e_i)
        self.meta = meta or {}
        self._intern_coefficients()

    def _intern_coefficients(self):
        # structure constants repeat a handful of values; one shared object
        # per value keeps large algebras small, and the law kernel's scalar
        # ids then hash each value once
        pool = {}

        def intern(v):
            w = pool.get(v)
            if w is None:
                pool[v] = v
                return v
            return w

        for tensor in (self.mu, self.delta):
            for k in tensor.data:
                tensor.data[k] = intern(tensor.data[k])
        for vec in (self.unit, self.counit):
            for k in vec:
                vec[k] = intern(vec[k])
        for k in self.antipode.data:
            self.antipode.data[k] = intern(self.antipode.data[k])

    # -- comultiplication and antipode indexes (built once) -----------------

    @functools.cached_property
    def delta_terms(self):
        out = {i: [] for i in range(self.dim)}
        for (i, j, k), c in self.delta.data.items():
            out[i].append((j, k, c))
        return out

    @functools.cached_property
    def delta_left_inv(self):
        out = {}
        for (i, j, k), c in self.delta.data.items():
            out.setdefault(j, []).append((i, k, c))
        return out

    @functools.cached_property
    def antipode_cols(self):
        out = {i: {} for i in range(self.dim)}
        for (k, i), c in self.antipode.data.items():
            out[i][k] = c
        return out

    @functools.cached_property
    def _delta_unit(self):
        out = {}
        for i, ci in self.unit.items():
            for j, k, c in self.delta_terms[i]:
                _acc(out, (j, k), ci * c)
        return out

    def delta_of_unit(self):
        return self._delta_unit

    @functools.cached_property
    def eps_left(self):
        """s -> {x: eps(x s)}."""
        return _eps_contraction(self, left=True)

    @functools.cached_property
    def eps_right(self):
        """t -> {z: eps(t z)}."""
        return _eps_contraction(self, left=False)

    # -- the counital maps, by columns x -> {k: coeff} (built once) ----------

    @functools.cached_property
    def eps_t(self):
        """x -> eps_t(x) = eps(1_(1) x) 1_(2)."""
        return _counital_map(self, self.eps_right, self.delta_of_unit())

    @functools.cached_property
    def eps_s(self):
        """x -> eps_s(x) = 1_(1) eps(x 1_(2))."""
        return _counital_map(self, self.eps_left, _cop(self.delta_of_unit()))

    @functools.cached_property
    def eps_s_prime(self):
        """x -> eps'_s(x) = 1_(1) eps(1_(2) x)."""
        return _counital_map(self, self.eps_right, _cop(self.delta_of_unit()))

    # -- coalgebra and antipode arithmetic ------------------------------------

    def coproduct(self, u):
        out = {}
        dt = self.delta_terms
        for i, ci in u.items():
            for j, k, c in dt[i]:
                _acc(out, (j, k), ci * c)
        return out

    def coproduct2(self, u):
        """(Delta (x) id) Delta(u); coassociativity makes the order moot."""
        out = {}
        dt = self.delta_terms
        for (j, k), c in self.coproduct(u).items():
            for a, b, c2 in dt[j]:
                _acc(out, (a, b, k), c * c2)
        return out

    def apply_counit(self, u):
        eps = self.counit
        tot = self.zero_scalar()
        for i, ci in u.items():
            e = eps.get(i)
            if e:
                tot = tot + ci * e
        return tot

    def apply_antipode(self, u):
        return _push(self.antipode_cols, u)

    def eps_lr(self, u):
        """epsilon^lr(u) = eps(1_(1) u) 1_(2), the image of u under eps_t."""
        return _push(self.eps_t, u)

    def eps_rr(self, u):
        """epsilon^rr(u) = 1_(1) eps(1_(2) u), the image of u under eps'_s."""
        return _push(self.eps_s_prime, u)

    def __repr__(self):
        return f"WeakHopfAlgebra({self.name}, dim={self.dim}, conductor={self.conductor})"


def _acc(d, k, v):
    cur = d.get(k)
    if cur is None:
        if v:
            d[k] = v
    else:
        s = cur + v
        if s:
            d[k] = s
        else:
            del d[k]


def _prune(d):
    return {k: v for k, v in d.items() if v}


def _first_diff(lhs, rhs):
    """Least key on which two unequal sparse dicts differ."""
    return min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))


def _product(pairs, u, v):
    """Sparse bilinear product of u and v through a pairs index."""
    out = {}
    for i, ci in u.items():
        for j, cj in v.items():
            terms = pairs.get((i, j))
            if terms:
                cij = ci * cj
                for k, c in terms:
                    _acc(out, k, cij * c)
    return out


def _push(phi, u):
    """Image of a sparse vector under the linear map with basis images phi."""
    out = {}
    for i, ci in u.items():
        for k, c in phi[i].items():
            _acc(out, k, ci * c)
    return out


def _companions(pairs, leg):
    """For each index on `leg` of the pairs, its sorted partners on the other leg."""
    out = {}
    for key in pairs:
        out.setdefault(key[leg], []).append(key[1 - leg])
    for v in out.values():
        v.sort()
    return out


def _bilinear_index(terms):
    """Law-kernel table of a sparse bilinear map X x Y -> W.

    terms: {(x, y, w): coeff of e_w in b(e_x, e_y)}.  Returns the pairs index
    (x, y) -> [(w, c)], the right companions x -> sorted [y], and the
    by-result index w -> [(x, y, c)].
    """
    pairs = {}
    by_result = {}
    for (x, y, w), c in terms.items():
        pairs.setdefault((x, y), []).append((w, c))
        by_result.setdefault(w, []).append((x, y, c))
    return pairs, _companions(pairs, 0), by_result


class RMatrixCandidate:
    """Element of A (x) A presented sparsely, with optional weak inverse."""

    def __init__(self, terms, rbar=None):
        self.terms = _prune(terms)
        self.rbar = _prune(rbar) if rbar is not None else None

    def __len__(self):
        return len(self.terms)


# ---------------------------------------------------------------------------
# weak bialgebra verifier
# ---------------------------------------------------------------------------


def _unit_law(A):
    """First basis element on which 1 fails to act as a two-sided unit.

    1 e_x and e_x 1 are gathered for every x in one pass over mu's pairs.
    """
    one = A.one()
    left, right = {}, {}
    for (i, j), terms in A.mu_pairs.items():
        if i in one:
            out = left.setdefault(j, {})
            for k, c in terms:
                _acc(out, k, one[i] * c)
        if j in one:
            out = right.setdefault(i, {})
            for k, c in terms:
                _acc(out, k, c * one[j])
    for x in range(A.dim):
        ex = A.basis_elem(x)
        if left.get(x, {}) != ex or right.get(x, {}) != ex:
            return f"unit law fails at {A.label_str(x)}"
    return None


class _ScalarIds:
    """Small-int ids for the scalars of one law-kernel call.

    Ids are given out per call, 0 for zero, so inside one call two ids are
    equal exactly when their scalars are: sides built of ids compare, and
    `_first_diff` picks its key, as the cyclotomic sides would.  The kernels
    read the memoized products and sums inline (`products[a].get(b)`) and
    call `mul` or `add_into` only on a miss or a repeated key.  The product
    of two nonzero ids is never zero; a sum that cancels is removed.  The
    `*rows` and `columns` converters turn a law table into rows of ids and
    drop its stored zeros: a zero term changes no sum.  The ids live as long as the call;
    nothing is cached on an algebra.
    """

    def __init__(self):
        self.ids = {}          # scalar -> id; the zero scalar, once seen, -> 0
        self.vals = [None]
        self.products = [None]  # products[a][b] = id of vals[a] * vals[b]
        self.sums = [None]      # sums[a][b] = id of vals[a] + vals[b]
        self.by_object = {}     # id() of a table scalar -> its scalar id

    def scalar_id(self, c):
        i = self.ids.get(c)
        if i is None:
            i = self.ids[c] = len(self.vals) if c else 0
            if i:
                self.vals.append(c)
                self.products.append({})
                self.sums.append({})
        return i

    def table_id(self, c):
        # table scalars repeat as shared objects: key them on identity first;
        # only for scalars held by a table that outlives the call
        i = self.by_object.get(id(c))
        if i is None:
            i = self.by_object[id(c)] = self.scalar_id(c)
        return i

    def mul(self, a, b):
        """Id of vals[a] * vals[b], memoized."""
        i = self.products[a][b] = self.scalar_id(self.vals[a] * self.vals[b])
        return i

    def add_into(self, side, key, c):
        """side[key] += c on a present key, removing it when the sum cancels."""
        cur = side[key]
        s = self.sums[cur].get(c)
        if s is None:
            s = self.sums[cur][c] = self.scalar_id(self.vals[cur] + self.vals[c])
        if s:
            side[key] = s
        else:
            del side[key]

    def rows(self, pairs, leg=0):
        """A pairs index (x, y) -> [(w, c)] as rows x -> [(y, w, id)].

        With leg=1 the rows are keyed by the right factor: y -> [(x, w, id)].
        """
        table_id = self.table_id
        out = {}
        for (x, y), terms in pairs.items():
            if leg:
                x, y = y, x
            row = out.get(x)
            if row is None:
                row = out[x] = []
            for w, c in terms:
                i = table_id(c)
                if i:
                    row.append((y, w, i))
        return out

    def nested_rows(self, pairs):
        """A pairs index (x, y) -> [(w, c)] as x -> {y: [(w, id)]}, zero pairs left out."""
        table_id = self.table_id
        out = {}
        for (x, y), terms in pairs.items():
            row = [(w, i) for w, c in terms if (i := table_id(c))]
            if row:
                out.setdefault(x, {})[y] = row
        return out

    def vector_rows(self, index):
        """An index s -> {x: c} as s -> [(x, id)]."""
        table_id = self.table_id
        return {s: [(x, i) for x, c in vec.items() if (i := table_id(c))]
                for s, vec in index.items()}

    def columns(self, index):
        """An index s -> {x: c} as s -> {x: id}."""
        table_id = self.table_id
        return {s: {x: i for x, c in vec.items() if (i := table_id(c))}
                for s, vec in index.items()}

    def triple_rows(self, index):
        """An index s -> [(a, b, c)] as s -> [(a, b, id)]."""
        table_id = self.table_id
        return {s: [(a, b, i) for a, b, c in terms if (i := table_id(c))]
                for s, terms in index.items()}


def _mixed_assoc_range(f, g, h, k, lo, hi):
    """Least basis triple (x, y, z), x in [lo, hi), with f(g(x, y), z) != h(x, k(y, z)).

    f, g, h, k are `_bilinear_index` tables.  For each x both sides are
    expanded, keyed (y, z, w), over exactly the (y, z) on which they can be
    nonzero: the left through g's entries of x and f's entries of each
    product, the right through h's entries of x and k's by-result index.
    Both sides hold scalar ids (`_ScalarIds`); each distinct table is
    converted once, to rows x -> [(y, w, id)] (and k to its by-result index).
    """
    ids = _ScalarIds()
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    converted = {}

    def rows(t):
        out = converted.get(id(t))
        if out is None:
            out = converted[id(t)] = ids.rows(t[0])
        return out

    f_rows = rows(f)
    g_rows = rows(g)
    h_rows = rows(h)
    k_byr = ids.triple_rows(k[2])
    for x in range(lo, hi):
        lhs = {}
        for y, p, c1 in g_rows.get(x, ()):
            prod = products[c1]
            for z, w, c2 in f_rows.get(p, ()):
                c = prod.get(c2)
                if c is None:
                    c = mul(c1, c2)
                key = (y, z, w)
                if key in lhs:
                    add_into(lhs, key, c)
                else:
                    lhs[key] = c
        rhs = {}
        for q, w, c2 in h_rows.get(x, ()):
            prod = products[c2]
            for y, z, c3 in k_byr.get(q, ()):
                c = prod.get(c3)
                if c is None:
                    c = mul(c2, c3)
                key = (y, z, w)
                if key in rhs:
                    add_into(rhs, key, c)
                else:
                    rhs[key] = c
        if lhs != rhs:
            y, z, _w = _first_diff(lhs, rhs)
            return x, y, z
    return None


def _assoc_range(A, lo, hi):
    """First associativity counterexample with left factor in [lo, hi)."""
    mu = A.mu_index
    bad = _mixed_assoc_range(mu, mu, mu, mu, lo, hi)
    if bad is None:
        return None
    i, j, z = bad
    return f"mu not associative at ({A.label_str(i)}, {A.label_str(j)}, {A.label_str(z)})"


def _axiom1_range(A, lo, hi):
    """First Delta(x)Delta(y) != Delta(xy) counterexample with x in [lo, hi).

    Both sides are keyed (y, j, k) and hold scalar ids (`_ScalarIds`).  The
    left meets each term s (x) s2 of Delta(x) with the Delta(y) terms
    t (x) t2, found through Delta's left-leg index, on which s t and s2 t2
    are both nonzero.
    """
    ids = _ScalarIds()
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    mp = ids.nested_rows(A.mu_pairs)
    dt = ids.triple_rows(A.delta_terms)
    dinv = ids.triple_rows(A.delta_left_inv)
    for x in range(lo, hi):
        lhs = {}
        for s, s2, c0 in dt.get(x, ()):
            row2 = mp.get(s2)
            if row2 is None:
                continue
            p0 = products[c0]
            for t, pairs_st in mp.get(s, {}).items():
                for y, t2, c2 in dinv.get(t, ()):
                    second = row2.get(t2)
                    if second is None:
                        continue
                    c02 = p0.get(c2)
                    if c02 is None:
                        c02 = mul(c0, c2)
                    p02 = products[c02]
                    for k, c1 in pairs_st:
                        c021 = p02.get(c1)
                        if c021 is None:
                            c021 = mul(c02, c1)
                        p021 = products[c021]
                        for k2, c4 in second:
                            c = p021.get(c4)
                            if c is None:
                                c = mul(c021, c4)
                            key = (y, k, k2)
                            if key in lhs:
                                add_into(lhs, key, c)
                            else:
                                lhs[key] = c
        rhs = {}
        for y, terms in mp.get(x, {}).items():
            for k0, c in terms:
                prod = products[c]
                for j, k, c5 in dt.get(k0, ()):
                    v = prod.get(c5)
                    if v is None:
                        v = mul(c, c5)
                    key = (y, j, k)
                    if key in rhs:
                        add_into(rhs, key, v)
                    else:
                        rhs[key] = v
        if lhs != rhs:
            y = _first_diff(lhs, rhs)[0]
            return (
                f"Delta(x)Delta(y) != Delta(xy) at (x, y) = "
                f"({A.label_str(x)}, {A.label_str(y)})"
            )
    return None


def _counit_weak_mult_range(A, lo, hi):
    """Axiom 2 (both equalities), swept per middle element y in [lo, hi).

    For each y the sides are keyed (x, z) and hold scalar ids (`_ScalarIds`):
    eps(x (yz)) through the products y z and eps_left, and each left side
    through the terms of Delta(y), eps_left and eps_right.
    """
    ids = _ScalarIds()
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    mp = ids.rows(A.mu_pairs)
    dt = ids.triple_rows(A.delta_terms)
    epsL = ids.vector_rows(A.eps_left)
    epsR = ids.vector_rows(A.eps_right)

    def left_side(y, swap):
        lhs = {}
        for s, t, c0 in dt.get(y, ()):
            if swap:
                s, t = t, s
            eRt = epsR.get(t)
            if eRt is None:
                continue
            for x, a in epsL.get(s, ()):
                ac0 = products[a].get(c0)
                if ac0 is None:
                    ac0 = mul(a, c0)
                prod = products[ac0]
                for z, b in eRt:
                    c = prod.get(b)
                    if c is None:
                        c = mul(ac0, b)
                    key = (x, z)
                    if key in lhs:
                        add_into(lhs, key, c)
                    else:
                        lhs[key] = c
        return lhs

    for y in range(lo, hi):
        rhs = {}
        for z, k, c1 in mp.get(y, ()):
            prod = products[c1]
            for x, c2 in epsL.get(k, ()):
                c = prod.get(c2)
                if c is None:
                    c = mul(c1, c2)
                key = (x, z)
                if key in rhs:
                    add_into(rhs, key, c)
                else:
                    rhs[key] = c
        lhs1 = left_side(y, False)
        if lhs1 != rhs:
            x, z = _first_diff(lhs1, rhs)
            return (
                f"eps(x y_(1)) eps(y_(2) z) != eps(xyz) at "
                f"({A.label_str(x)}, {A.label_str(y)}, {A.label_str(z)})"
            )
        lhs2 = left_side(y, True)
        if lhs2 != rhs:
            x, z = _first_diff(lhs2, rhs)
            return (
                f"eps(x y_(2)) eps(y_(1) z) != eps(xyz) at "
                f"({A.label_str(x)}, {A.label_str(y)}, {A.label_str(z)})"
            )
    return None


def _eps_contraction(A, left):
    """left: s -> {x: eps(x s)}; right: t -> {z: eps(t z)}."""
    out = {i: {} for i in range(A.dim)}
    eps = A.counit
    for (i, j, k), c in A.mu.data.items():
        e = eps.get(k)
        if not e:
            continue
        if left:
            _acc(out[j], i, c * e)
        else:
            _acc(out[i], j, c * e)
    return out


def _counital_map(A, eps_table, d1):
    """x -> sum of c eps_table[a][x] b over the terms c a (x) b of d1, by columns.

    eps_table is `eps_left` or `eps_right` and d1 is Delta(1) or its flip,
    so one pass over d1 builds a whole counital map.
    """
    out = {x: {} for x in range(A.dim)}
    for (a, b), c in d1.items():
        for x, e in eps_table[a].items():
            _acc(out[x], b, c * e)
    return out


_PARALLEL = {}

# The cached indexes of A that each range kernel reads.  A forked `_sweep`
# builds them before it forks: built inside the workers, they would be lost
# with them and built again by every later forked sweep.
_KERNEL_INDEXES = {
    "_assoc_range": ("mu_index",),
    "_axiom1_range": ("mu_index", "delta_terms", "delta_left_inv"),
    "_counit_weak_mult_range": ("mu_index", "delta_terms", "eps_left", "eps_right"),
    "_axiom4_eq1_range": ("mu_index", "delta_terms", "antipode_cols", "eps_t"),
    "_axiom4_eq2_range": ("mu_index", "delta_terms", "antipode_cols", "eps_s"),
    "_axiom4_eq3_range": ("mu_index", "delta_terms", "antipode_cols"),
    "_antihom_range": ("mu_index", "antipode_cols"),
}


def _worker(args):
    fn_name, key, lo, hi = args
    A = _PARALLEL[key]
    return globals()[fn_name](A, lo, hi)


def _sweep(A, fn, threads):
    """Run a per-basis-range sweep, optionally forked across processes.

    Each worker sweeps one contiguous range, so it converts the law tables
    to scalar ids once; the cached indexes the kernel reads
    (`_KERNEL_INDEXES`) are built in this process first.  Returns the
    failure detail from the lowest range, or None; deterministic regardless
    of worker count.
    """
    d = A.dim
    if threads <= 1 or d < 64 or multiprocessing.get_start_method(allow_none=False) != "fork":
        return fn(A, 0, d)
    for name in _KERNEL_INDEXES[fn.__name__]:
        getattr(A, name)
    key = id(A)
    _PARALLEL[key] = A
    try:
        step = max(1, (d + threads - 1) // threads)
        ranges = [(fn.__name__, key, lo, min(d, lo + step)) for lo in range(0, d, step)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=threads) as pool:
            results = pool.map(_worker, ranges)
        for res in results:
            if res is not None:
                return res
    finally:
        _PARALLEL.pop(key, None)
    return None


def verify_weak_bialgebra(A, threads=None):
    """All weak bialgebra laws, exactly; returns a Report.

    The coalgebra laws run as the matching algebra laws of the dual A*
    (see `dual`): the counit law is the unit law of A*, coassociativity is
    its associativity and Axiom 3 is its Axiom 2.
    """
    threads = default_threads() if threads is None else threads
    rep = Report(A.name, "weak-bialgebra")

    detail = _unit_law(A)
    rep.add("unit-law", detail is None, detail)

    detail = _sweep(A, _assoc_range, threads)
    rep.add("mu-associativity", detail is None, detail)

    D = dual(A)
    detail = _in_dual(_unit_law(D))
    rep.add("counit-law", detail is None, detail)

    detail = _in_dual(_sweep(D, _assoc_range, threads))
    rep.add("delta-coassociativity", detail is None, detail)

    detail = _sweep(A, _axiom1_range, threads)
    rep.add("axiom1-delta-multiplicative", detail is None, detail)

    detail = _sweep(A, _counit_weak_mult_range, threads)
    rep.add("axiom2-counit-weak-multiplicative", detail is None, detail)

    detail = _in_dual(_sweep(D, _counit_weak_mult_range, threads))
    rep.add("axiom3-unit-weak-comultiplicative", detail is None, detail)
    return rep


def _in_dual(detail):
    """A failure detail of a law swept on A*, whose basis carries A's labels."""
    return None if detail is None else f"in A*: {detail}"


# ---------------------------------------------------------------------------
# antipode verifier
# ---------------------------------------------------------------------------


def _convolution(ids, A, dt, left, right):
    """The convolution x -> left(x_(1)) right(x_(2)) of two linear maps of A.

    Returns a memoized function x -> {k: id} in the scalar ids of `ids`.  dt
    is Delta's terms in those ids; `left` and `right` each give a map's image
    of e_x as {k: id}, or are None for the identity.  The mu entries met are
    read straight from mu's pairs index and take their ids as they come (a
    stored zero gets id 0 and is skipped), so mu is never converted as a
    whole.
    """
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    table_id = ids.table_id
    mp = A.mu_pairs
    one = ids.scalar_id(A.one_scalar())
    identity = lambda x: {x: one}
    left = left or identity
    right = right or identity
    memo = {}

    def value(x):
        out = memo.get(x)
        if out is not None:
            return out
        out = memo[x] = {}
        for s, t, c0 in dt.get(x, ()):
            p0 = products[c0]
            rights = right(t).items()
            for l, c1 in left(s).items():
                c01 = p0.get(c1)
                if c01 is None:
                    c01 = mul(c0, c1)
                p01 = products[c01]
                for r, c2 in rights:
                    terms = mp.get((l, r))
                    if terms is None:
                        continue
                    c012 = p01.get(c2)
                    if c012 is None:
                        c012 = mul(c01, c2)
                    prod = products[c012]
                    for k, cm in terms:
                        c3 = table_id(cm)
                        if not c3:
                            continue
                        c = prod.get(c3)
                        if c is None:
                            c = mul(c012, c3)
                        if k in out:
                            add_into(out, k, c)
                        else:
                            out[k] = c
        return out

    return value


def _axiom4_tables(A):
    """A fresh `_ScalarIds` with Delta's terms and S's columns in its ids."""
    ids = _ScalarIds()
    return ids, ids.triple_rows(A.delta_terms), ids.columns(A.antipode_cols)


def _first_unequal(lhs_of, rhs, lo, hi):
    """Least x in [lo, hi) with lhs_of(x) != rhs[x], or None."""
    return next((x for x in range(lo, hi) if lhs_of(x) != rhs[x]), None)


def _axiom4_eq1_range(A, lo, hi):
    """First x in [lo, hi) with x_(1) S(x_(2)) != eps_t(x): id * S against eps_t."""
    ids, dt, S = _axiom4_tables(A)
    x = _first_unequal(_convolution(ids, A, dt, None, S.__getitem__), ids.columns(A.eps_t), lo, hi)
    return None if x is None else f"x_(1) S(x_(2)) != eps^lr(x) at {A.label_str(x)}"


def _axiom4_eq2_range(A, lo, hi):
    """First x in [lo, hi) with S(x_(1)) x_(2) != eps_s(x): S * id against eps_s."""
    ids, dt, S = _axiom4_tables(A)
    x = _first_unequal(_convolution(ids, A, dt, S.__getitem__, None), ids.columns(A.eps_s), lo, hi)
    return None if x is None else f"S(x_(1)) x_(2) != 1_(1) eps(x 1_(2)) at {A.label_str(x)}"


def _axiom4_eq3_range(A, lo, hi):
    """First x in [lo, hi) with S(x_(1)) x_(2) S(x_(3)) != S(x): (S * id) * S against S.

    With x_(1) (x) x_(2) (x) x_(3) = (Delta (x) id) Delta(x), as in
    `coproduct2`, the left side is the convolution of S * id, each value
    computed once per call, with S.
    """
    ids, dt, S = _axiom4_tables(A)
    s_id = _convolution(ids, A, dt, S.__getitem__, None)
    x = _first_unequal(_convolution(ids, A, dt, s_id, S.__getitem__), S, lo, hi)
    return None if x is None else f"S(x_(1)) x_(2) S(x_(3)) != S(x) at {A.label_str(x)}"


def _hom_range(phi, A, B, lo, hi, anti=False):
    """Least (i, j), i in [lo, hi), with phi(e_i e_j) != phi(e_i) phi(e_j).

    phi[i] is the sparse image in B of A's basis element i, for every i (a
    list or a dict).  With `anti` the right side is phi(e_j) phi(e_i).  For
    each i both sides are built once over scalar ids (`_ScalarIds`), keyed
    (j, k) for the coefficient of e_k: the left through A's products e_i e_j
    and phi's images, the right through B's products of each b in
    supp phi(e_i) with its partners b2, met with the j whose image holds b2.
    Keys order by j first, so the least differing key names the least j.
    """
    ids = _ScalarIds()
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    a_rows = ids.rows(A.mu_pairs)
    # b -> [(b2, k, id)] for the product e_b e_b2, or e_b2 e_b with `anti`
    b_rows = ids.rows(B.mu_pairs, leg=1 if anti else 0)
    images = ids.vector_rows({j: phi[j] for j in range(A.dim)})
    holders = {}
    for j, image in images.items():
        for b, c in image:
            holders.setdefault(b, []).append((j, c))
    for i in range(lo, hi):
        lhs = {}
        for j, w, c0 in a_rows.get(i, ()):
            prod = products[c0]
            for k, c1 in images[w]:
                c = prod.get(c1)
                if c is None:
                    c = mul(c0, c1)
                key = (j, k)
                if key in lhs:
                    add_into(lhs, key, c)
                else:
                    lhs[key] = c
        rhs = {}
        for b, c0 in images[i]:
            p0 = products[c0]
            for b2, k, c1 in b_rows.get(b, ()):
                held = holders.get(b2)
                if held is None:
                    continue
                c01 = p0.get(c1)
                if c01 is None:
                    c01 = mul(c0, c1)
                prod = products[c01]
                for j, c2 in held:
                    c = prod.get(c2)
                    if c is None:
                        c = mul(c01, c2)
                    key = (j, k)
                    if key in rhs:
                        add_into(rhs, key, c)
                    else:
                        rhs[key] = c
        if lhs != rhs:
            return i, _first_diff(lhs, rhs)[0]
    return None


def _antihom_range(A, lo, hi):
    """First S(xy) != S(y)S(x) counterexample with x = e_i in [lo, hi)."""
    bad = _hom_range(A.antipode_cols, A, A, lo, hi, anti=True)
    if bad is None:
        return None
    i, j = bad
    return f"S(xy) != S(y)S(x) at ({A.label_str(i)}, {A.label_str(j)})"


def verify_antipode(A, threads=None):
    """Axiom 4 (eq1-eq3), S invertibility, and the anti-homomorphism laws.

    The coalgebra anti-homomorphism law runs on the dual A* (see `dual`):
    after S(1) = 1, S*(1*) = 1* says eps S = eps, and S* must be an algebra
    anti-homomorphism of A*.
    """
    threads = default_threads() if threads is None else threads
    rep = Report(A.name, "antipode")

    detail = _sweep(A, _axiom4_eq1_range, threads)
    rep.add("axiom4-eq1", detail is None, detail)

    detail = _sweep(A, _axiom4_eq2_range, threads)
    rep.add("axiom4-eq2", detail is None, detail)

    detail = _sweep(A, _axiom4_eq3_range, threads)
    rep.add("axiom4-eq3", detail is None, detail)

    invertible = A.antipode.rank() == A.dim
    rep.add("antipode-invertible", invertible, None if invertible else "S has nontrivial kernel")

    detail = _sweep(A, _antihom_range, threads)
    rep.add("antipode-algebra-antihom", detail is None, detail)

    detail = None
    if A.apply_antipode(A.one()) != A.one():
        detail = "S(1) != 1"
    else:
        D = dual(A)
        eps = _prune(A.counit)
        eps_s = D.apply_antipode(eps)  # S*(1*) = eps S
        if eps_s != eps:
            detail = f"eps(S(x)) != eps(x) at {A.label_str(_first_diff(eps_s, eps))}"
        else:
            detail = _in_dual(_sweep(D, _antihom_range, threads))
    rep.add("antipode-coalgebra-antihom", detail is None, detail)
    return rep


# ---------------------------------------------------------------------------
# derived structure
# ---------------------------------------------------------------------------


class BaseAlgebraReport:
    def __init__(self, eps_lr, eps_rr, basis_l, basis_r, p, report):
        self.eps_lr = eps_lr
        self.eps_rr = eps_rr
        self.basis_l = basis_l  # list of sparse element vectors spanning A^l
        self.basis_r = basis_r
        self.p = p              # separability idempotent, sparse over (i, j)
        self.report = report

    @property
    def dim_l(self):
        return len(self.basis_l)

    @property
    def dim_r(self):
        return len(self.basis_r)


def _projection_matrix(A, cols):
    data = {(i, x): v for x, col in cols.items() for i, v in col.items()}
    return SparseMatrix(A.dim, A.dim, A.conductor, data)


def base_algebras(A):
    """Base counital subalgebras, their interplay, and the idempotent p."""
    rep = Report(A.name, "base-algebras")
    E_lr = _projection_matrix(A, A.eps_t)
    E_rr = _projection_matrix(A, A.eps_s_prime)

    rep.add("eps-lr-idempotent", E_lr.matmul(E_lr) == E_lr)
    rep.add("eps-rr-idempotent", E_rr.matmul(E_rr) == E_rr)

    basis_l = [E_lr.column(j) for j in E_lr.pivot_columns()]
    basis_r = [E_rr.column(j) for j in E_rr.pivot_columns()]

    span_l = SparseMatrix.from_columns(A.dim, basis_l, A.conductor)
    span_r = SparseMatrix.from_columns(A.dim, basis_r, A.conductor)

    def in_span(span, vec):
        return span.solve(vec) is not None

    ok = in_span(span_l, A.one()) and in_span(span_r, A.one())
    rep.add("bases-contain-unit", ok)

    detail = None
    for u in basis_l:
        for v in basis_l:
            if not in_span(span_l, A.mul(u, v)):
                detail = "A^l not closed under mu"
                break
        if detail:
            break
    for u in basis_r:
        for v in basis_r:
            if not in_span(span_r, A.mul(u, v)):
                detail = "A^r not closed under mu"
                break
        if detail:
            break
    rep.add("bases-closed-under-mu", detail is None, detail)

    detail = None
    for u in basis_l:
        for v in basis_r:
            if A.mul(u, v) != A.mul(v, u):
                detail = "A^l and A^r do not commute"
                break
        if detail:
            break
    rep.add("bases-mutually-commute", detail is None, detail)

    # eps^lr restricted to A^r and eps^rr restricted to A^l: mutually inverse
    # algebra anti-isomorphisms
    detail = None
    for u in basis_r:
        if A.eps_rr(A.eps_lr(u)) != u:
            detail = "eps^rr . eps^lr != id on A^r"
            break
    if detail is None:
        for u in basis_l:
            if A.eps_lr(A.eps_rr(u)) != u:
                detail = "eps^lr . eps^rr != id on A^l"
                break
    if detail is None:
        for u in basis_r:
            for v in basis_r:
                lhs = A.eps_lr(A.mul(u, v))
                rhs = A.mul(A.eps_lr(v), A.eps_lr(u))
                if lhs != rhs:
                    detail = "eps^lr not an anti-homomorphism on A^r"
                    break
            if detail:
                break
    rep.add("counital-maps-anti-isomorphisms", detail is None, detail)

    # separability idempotent p = (eps^lr (x) id) Delta(1)
    p = {}
    for (i, j), c in A.delta_of_unit().items():
        for k, v in A.eps_lr({i: c}).items():
            _acc(p, (k, j), v)

    # p is in A^l (x) A^l iff it is fixed by eps^lr applied to both legs
    projected = {}
    for (i, j), c in p.items():
        for i2, v in A.eps_lr({i: c}).items():
            for j2, w in A.eps_lr({j: v}).items():
                _acc(projected, (i2, j2), w)
    ok = projected == p
    rep.add("p-lands-in-Al-tensor-Al", ok, None if ok else "p has a leg outside A^l")

    bad, unital, idempotent = _separability_laws(A, p, basis_l)
    rep.add("p-balances-Al", bad is None,
            None if bad is None else "x p(1) (x) p(2) != p(1) (x) p(2) x on A^l")
    rep.add("p-contracts-to-unit", unital, None if unital else "p(1) p(2) != 1")
    rep.add("p-idempotent-op", idempotent,
            None if idempotent else "p not idempotent in A^l (x) (A^l)^op")

    return BaseAlgebraReport(E_lr, E_rr, basis_l, basis_r, p, rep)


def _separability_laws(A, p, elems):
    """The separability laws of p = sum p(1) (x) p(2) in A (x) A.

    Returns the index in `elems` of the first x with
    x p(1) (x) p(2) != p(1) (x) p(2) x (None if there is none), whether
    p(1) p(2) = 1, and whether p is idempotent in A (x) A^op.
    """
    bad = None
    for t, x in enumerate(elems):
        lhs = {}
        rhs = {}
        for (i, j), c in p.items():
            for k, v in A.mul(x, {i: c}).items():
                _acc(lhs, (k, j), v)
            for k, v in A.mul({j: c}, x).items():
                _acc(rhs, (i, k), v)
        if lhs != rhs:
            bad = t
            break

    contracted = {}
    for (i, j), c in p.items():
        for k, v in A.mul({i: c}, A.basis_elem(j)).items():
            _acc(contracted, k, v)

    sq = {}
    for (i, j), c in p.items():
        for (i2, j2), c2 in p.items():
            t1 = A.mu_pairs.get((i, i2))
            t2 = A.mu_pairs.get((j2, j))
            if not t1 or not t2:
                continue
            cc = c * c2
            for k1, a in t1:
                for k2, b in t2:
                    _acc(sq, (k1, k2), cc * a * b)
    return bad, contracted == A.one(), sq == p


def center_dim(A):
    """dim of {z : zx = xz for all x}, via the commutator nullspace."""
    row_of = {}  # (j, k) or (i, k) -> row index, in order of first use
    data = {}
    for (i, j, k), c in A.mu.data.items():
        _acc(data, (row_of.setdefault((j, k), len(row_of)), i), c)
        _acc(data, (row_of.setdefault((i, k), len(row_of)), j), -c)
    return SparseMatrix(len(row_of), A.dim, A.conductor, data).nullspace_dim()


def is_cocommutative(A):
    for i in range(A.dim):
        terms = {(j, k): c for j, k, c in A.delta_terms[i]}
        flipped = {(k, j): c for j, k, c in A.delta_terms[i]}
        if terms != flipped:
            return False
    return True


def dual(A):
    """The dual weak Hopf algebra A* on the basis dual to A's, with A's labels.

    mu* is Delta transposed, 1* = eps, Delta* is mu transposed, eps* is
    evaluation at 1 and S* is S transposed (Boehm-Nill-Szlachanyi 1999), so
    each coalgebra law of A is an algebra law of A*.
    """
    d, n = A.dim, A.conductor
    return WeakHopfAlgebra(
        labels=A.labels,
        conductor=n,
        mu=SparseTensor3((d, d, d), n, {(j, k, i): c for (i, j, k), c in A.delta.data.items()}),
        unit=dict(A.counit),
        delta=SparseTensor3((d, d, d), n, {(k, i, j): c for (i, j, k), c in A.mu.data.items()}),
        counit=dict(A.unit),
        antipode=A.antipode.transpose(),
        name=f"{A.name}*",
    )


def opposite(A):
    """Reversed multiplication with antipode S^-1."""
    mu = SparseTensor3((A.dim, A.dim, A.dim), A.conductor)
    for (i, j, k), c in A.mu.data.items():
        mu.add_to(j, i, k, c)
    return WeakHopfAlgebra(
        labels=list(A.labels),
        conductor=A.conductor,
        mu=mu,
        unit=dict(A.unit),
        delta=SparseTensor3((A.dim, A.dim, A.dim), A.conductor, dict(A.delta.data)),
        counit=dict(A.counit),
        antipode=A.antipode.inverse(),
        name=A.name + "^op",
        meta=dict(A.meta),
    )


def coopposite(A):
    """Reversed comultiplication with antipode S^-1."""
    delta = SparseTensor3((A.dim, A.dim, A.dim), A.conductor)
    for (i, j, k), c in A.delta.data.items():
        delta.add_to(i, k, j, c)
    return WeakHopfAlgebra(
        labels=list(A.labels),
        conductor=A.conductor,
        mu=SparseTensor3((A.dim, A.dim, A.dim), A.conductor, dict(A.mu.data)),
        unit=dict(A.unit),
        delta=delta,
        counit=dict(A.counit),
        antipode=A.antipode.inverse(),
        name=A.name + "^cop",
        meta=dict(A.meta),
    )


# ---------------------------------------------------------------------------
# quasi-triangularity
# ---------------------------------------------------------------------------


def _cop(U):
    return {(j, i): c for (i, j), c in U.items()}


def verify_quasitriangular(A, cand, threads=None):
    """The five quasi-triangular laws plus the Yang-Baxter identity.

    `threads` is accepted for call compatibility with the other suites and
    ignored: these laws are checked serially.
    """
    rep = Report(A.name, "quasi-triangular")
    R = cand.terms
    d1 = A.delta_of_unit()

    ok = A.mul2(R, d1) == R
    rep.add("r-lives-in-right-ideal", ok, None if ok else "R Delta(1) != R")

    x = _intertwining_failure(A, R)
    detail = None if x is None else f"R Delta(x) != Delta^cop(x) R at x = {A.label_str(x)}"
    rep.add("r-intertwines-coproducts", detail is None, detail)

    lhs = {}
    for (i, j), c in R.items():
        for a, b, c2 in A.delta_terms[i]:
            _acc(lhs, (a, b, j), c * c2)
    r13r23 = {}
    for (i1, j1), c1 in R.items():
        for (i2, j2), c2 in R.items():
            for k, cm in A.mu_pairs.get((j1, j2), ()):
                _acc(r13r23, (i1, i2, k), c1 * c2 * cm)
    ok = lhs == r13r23
    rep.add("delta-leg-one", ok, None if ok else "(Delta (x) id)(R) != R13 R23")

    lhs = {}
    for (i, j), c in R.items():
        for a, b, c2 in A.delta_terms[j]:
            _acc(lhs, (i, a, b), c * c2)
    r13r12 = {}
    for (i1, j1), c1 in R.items():
        for (i2, j2), c2 in R.items():
            for k, cm in A.mu_pairs.get((i1, i2), ()):
                _acc(r13r12, (k, j2, j1), c1 * c2 * cm)
    ok = lhs == r13r12
    rep.add("delta-leg-two", ok, None if ok else "(id (x) Delta)(R) != R13 R12")

    rbar, detail = _find_weak_inverse(A, cand)
    rep.add("weak-inverse-exists", rbar is not None, detail)
    cand.rbar = rbar

    r12, r13, r23 = (_lift(R, a, b, A) for a, b in ((0, 1), (0, 2), (1, 2)))
    lhs = A.mul3(A.mul3(r12, r13), r23)
    rhs = A.mul3(A.mul3(r23, r13), r12)
    ok = lhs == rhs
    rep.add("yang-baxter", ok, None if ok else "R12 R13 R23 != R23 R13 R12")
    return rep


def _intertwining_failure(A, R):
    """First basis x with R Delta(x) != Delta^cop(x) R, or None; on scalar ids.

    R is indexed by its first leg, and mu's id rows are kept for the pairs
    with one factor among R's first legs a: a u for the left side
    R (u (x) v), u a for the right side (u (x) v) R.  Each term of Delta(x)
    meets only the R terms whose first legs multiply with its own to
    nonzero; both sides are keyed (k1, k2).
    """
    ids = _ScalarIds()
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    table_id = ids.table_id
    mp = A.mu_pairs
    r_rows = {}  # a -> [(b, id)] over the terms a (x) b of R
    for (a, b), c in R.items():
        if (i := table_id(c)):
            r_rows.setdefault(a, []).append((b, i))
    r_left = {}  # u -> {a: [(k, id)]} for e_a e_u
    r_right = {}  # u -> {a: [(k, id)]} for e_u e_a
    for (x, y), terms in mp.items():
        if x in r_rows or y in r_rows:
            row = [(k, i) for k, c in terms if (i := table_id(c))]
            if row and x in r_rows:
                r_left.setdefault(y, {})[x] = row
            if row and y in r_rows:
                r_right.setdefault(x, {})[y] = row
    dt = ids.triple_rows(A.delta_terms)

    def side(firsts_of, u, v, c0, out, r_first):
        # out += c0 (a (x) b)(u (x) v) over R's terms a (x) b when r_first,
        # else c0 (u (x) v)(a (x) b); firsts_of[a] holds a u, or u a
        if firsts_of is None:
            return
        p0 = products[c0]
        for a, firsts in firsts_of.items():
            for b, c1 in r_rows[a]:
                seconds = mp.get((b, v) if r_first else (v, b))
                if seconds is None:
                    continue
                c01 = p0.get(c1)
                if c01 is None:
                    c01 = mul(c0, c1)
                p01 = products[c01]
                for k1, c2 in firsts:
                    c012 = p01.get(c2)
                    if c012 is None:
                        c012 = mul(c01, c2)
                    prod = products[c012]
                    for k2, cm in seconds:
                        c3 = table_id(cm)
                        if not c3:
                            continue
                        c = prod.get(c3)
                        if c is None:
                            c = mul(c012, c3)
                        key = (k1, k2)
                        if key in out:
                            add_into(out, key, c)
                        else:
                            out[key] = c

    for x in range(A.dim):
        lhs = {}
        rhs = {}
        for s, t, c0 in dt.get(x, ()):
            side(r_left.get(s), s, t, c0, lhs, True)
            side(r_right.get(t), t, s, c0, rhs, False)
        if lhs != rhs:
            return x
    return None


def _lift(R, leg1, leg2, A):
    """Place a two-leg tensor into legs (leg1, leg2) of A^(x)3, unit elsewhere."""
    out = {}
    for (i, j), c in R.items():
        for u, cu in A.unit.items():
            key = [None, None, None]
            key[leg1] = i
            key[leg2] = j
            key[[k for k in range(3) if key[k] is None][0]] = u
            _acc(out, tuple(key), c * cu)
    return out


def _find_weak_inverse(A, cand):
    """The weak inverse of R, checked by its three defining laws.

    Checks the supplied Rbar if there is one, else (S (x) id)(R): in a
    quasi-triangular weak Hopf algebra the weak inverse is unique and equals
    (S (x) id)(R) (Nikshych-Turaev-Vainerman 2003), so when that fails R is
    not quasi-triangular.
    """
    R = cand.terms
    d1 = A.delta_of_unit()
    d1cop = _cop(d1)
    if cand.rbar is not None:
        rb, detail = cand.rbar, "supplied weak inverse fails its defining laws"
    else:
        rb, detail = {}, "(S (x) id)(R) is not a weak inverse of R"
        for (i, j), c in R.items():
            for k, v in A.apply_antipode({i: c}).items():
                _acc(rb, (k, j), v)
    if A.mul2(R, rb) == d1cop and A.mul2(rb, R) == d1 and A.mul2(rb, d1cop) == rb:
        return rb, None
    return None, detail


# ---------------------------------------------------------------------------
# structure-constant comparison
# ---------------------------------------------------------------------------


def compare_structure(A, B, index_map):
    """Entrywise equality of all structure tensors under a basis bijection.

    index_map: list with index_map[i] = index in B of A's basis vector i.
    """
    rep = Report(f"{A.name} vs {B.name}", "compare")
    if A.dim != B.dim:
        rep.add("dimensions-match", False, f"{A.dim} != {B.dim}")
        return rep
    rep.add("dimensions-match", True)
    if sorted(index_map) != list(range(A.dim)):
        rep.add("map-bijective", False, "index map is not a bijection")
        return rep
    rep.add("map-bijective", True)
    m = index_map
    mu_ok = {(m[i], m[j], m[k]): c for (i, j, k), c in A.mu.data.items()} == B.mu.data
    rep.add("mu-equal", mu_ok, None if mu_ok else "multiplication tensors differ")
    unit_ok = {m[i]: c for i, c in A.unit.items()} == B.unit
    rep.add("unit-equal", unit_ok, None if unit_ok else "unit vectors differ")
    delta_ok = {(m[i], m[j], m[k]): c for (i, j, k), c in A.delta.data.items()} == B.delta.data
    rep.add("delta-equal", delta_ok, None if delta_ok else "comultiplication tensors differ")
    counit_ok = {m[i]: c for i, c in A.counit.items()} == B.counit
    rep.add("counit-equal", counit_ok, None if counit_ok else "counit covectors differ")
    s_ok = {(m[k], m[i]): c for (k, i), c in A.antipode.data.items()} == B.antipode.data
    rep.add("antipode-equal", s_ok, None if s_ok else "antipode matrices differ")
    return rep
