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

Two law kernels serve every caller of their law shape:

- `_hom_range`, the homomorphism kernel: the least basis pair on which a
  linear map given by its basis images fails to be an algebra
  (anti-)homomorphism.  It runs the antipode's anti-homomorphism law, `chi`,
  the Tube/Tube' transport and the Drinfeld double's sharp map.
- `_mixed_assoc_range`, the mixed-associativity kernel: the least basis
  triple on which f(g(x, y), z) != h(x, k(y, z)) for four sparse bilinear
  tables indexed by `_bilinear_index`.  It runs mu-associativity, the tube
  bimodule and compose-tower laws and the module action law.  Inside one
  call every scalar is a small-int id (0 for zero) with memoized products
  and sums, so the sweep hashes ints, not cyclotomic values.
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

    @property
    def mu_by_result(self):
        return self.mu_index[2]

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
        """epsilon^lr(u) = eps(1_(1) u) 1_(2)."""
        eps_u = _push(self.eps_left, u)  # x -> eps(x u)
        out = {}
        for (p, q), c in self.delta_of_unit().items():
            val = eps_u.get(p)
            if val:
                _acc(out, q, c * val)
        return out

    def eps_rr(self, u):
        """epsilon^rr(u) = 1_(1) eps(1_(2) u)."""
        eps_u = _push(self.eps_left, u)  # x -> eps(x u)
        out = {}
        for (p, q), c in self.delta_of_unit().items():
            val = eps_u.get(q)
            if val:
                _acc(out, p, c * val)
        return out

    def elem_str(self, u):
        if not u:
            return "0"
        parts = []
        for i in sorted(u):
            parts.append(f"({u[i]!r})*{self.label_str(i)}")
        return " + ".join(parts)

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
    """First basis element on which 1 fails to act as a two-sided unit."""
    one = A.one()
    for x in range(A.dim):
        ex = A.basis_elem(x)
        if A.mul(one, ex) != ex or A.mul(ex, one) != ex:
            return f"unit law fails at {A.label_str(x)}"
    return None


def _mixed_assoc_range(f, g, h, k, lo, hi):
    """Least basis triple (x, y, z), x in [lo, hi), with f(g(x, y), z) != h(x, k(y, z)).

    f, g, h, k are `_bilinear_index` tables.  For each x both sides are
    expanded, keyed (y, z, w), over exactly the (y, z) on which they can be
    nonzero: the left through g's entries of x and f's entries of each
    product, the right through h's entries of x and k's by-result index.

    Scalars enter the sweep as small-int ids, 0 for zero, that are given out
    per call; products and sums are memoized on id pairs and both sides hold
    ids, so equal sides are equal dicts of ints.  Each distinct table is
    converted once, to rows x -> [(y, w, id)] (and k to its by-result
    index), dropping stored zeros: a zero term changes no sum.  The product
    of two nonzero ids is never zero; a sum that cancels is removed.
    """
    ids = {}           # scalar -> id; the zero scalar, once seen, -> 0
    vals = [None]
    products = [None]  # products[a][b] = id of vals[a] * vals[b]
    sums = [None]      # sums[a][b] = id of vals[a] + vals[b]
    by_object = {}     # id() of a table scalar -> its scalar id

    def scalar_id(c):
        i = ids.get(c)
        if i is None:
            i = ids[c] = len(vals) if c else 0
            if i:
                vals.append(c)
                products.append({})
                sums.append({})
        return i

    def table_id(c):
        # table scalars repeat as shared objects: key them on identity first
        i = by_object.get(id(c))
        if i is None:
            i = by_object[id(c)] = scalar_id(c)
        return i

    def add_into(side, key, c):
        cur = side[key]
        s = sums[cur].get(c)
        if s is None:
            s = sums[cur][c] = scalar_id(vals[cur] + vals[c])
        if s:
            side[key] = s
        else:
            del side[key]

    converted = {}

    def rows(t):
        out = converted.get(id(t))
        if out is None:
            out = converted[id(t)] = {}
            for (x, y), terms in t[0].items():
                for w, c in terms:
                    i = table_id(c)
                    if i:
                        out.setdefault(x, []).append((y, w, i))
        return out

    f_rows = rows(f)
    g_rows = rows(g)
    h_rows = rows(h)
    k_byr = {}
    for w, terms in k[2].items():
        for y, z, c in terms:
            i = table_id(c)
            if i:
                k_byr.setdefault(w, []).append((y, z, i))
    for x in range(lo, hi):
        lhs = {}
        for y, p, c1 in g_rows.get(x, ()):
            prod = products[c1]
            for z, w, c2 in f_rows.get(p, ()):
                c = prod.get(c2)
                if c is None:
                    c = prod[c2] = scalar_id(vals[c1] * vals[c2])
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
                    c = prod[c3] = scalar_id(vals[c2] * vals[c3])
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
    """First Delta(x)Delta(y) != Delta(xy) counterexample with x in [lo, hi)."""
    mp = A.mu_pairs
    rc = A.right_companions
    dt = A.delta_terms
    dinv = A.delta_left_inv
    for x in range(lo, hi):
        lhs = {}
        for s, s2, c0 in dt[x]:
            for t in rc.get(s, ()):
                pairs_st = mp[(s, t)]
                for y, t2, c2 in dinv.get(t, ()):
                    second = mp.get((s2, t2))
                    if not second:
                        continue
                    c02 = c0 * c2
                    for k, c1 in pairs_st:
                        for k2, c4 in second:
                            _acc(lhs, (y, k, k2), c02 * c1 * c4)
        rhs = {}
        for y in rc.get(x, ()):
            for k0, c in mp[(x, y)]:
                for j, k, c5 in dt[k0]:
                    _acc(rhs, (y, j, k), c * c5)
        if lhs != rhs:
            y = _first_diff(lhs, rhs)[0]
            return (
                f"Delta(x)Delta(y) != Delta(xy) at (x, y) = "
                f"({A.label_str(x)}, {A.label_str(y)})"
            )
    return None


def _counit_weak_mult_range(A, lo, hi):
    """Axiom 2 (both equalities), swept per middle element y in [lo, hi)."""
    mp = A.mu_pairs
    rc = A.right_companions
    dt = A.delta_terms
    epsL = A.eps_left
    epsR = A.eps_right
    for y in range(lo, hi):
        rhs = {}
        for z in rc.get(y, ()):
            for k, c1 in mp[(y, z)]:
                for x, c2 in epsL.get(k, {}).items():
                    _acc(rhs, (x, z), c2 * c1)
        lhs1 = {}
        lhs2 = {}
        for s, t, c0 in dt[y]:
            eLs = epsL.get(s, {})
            eRt = epsR.get(t, {})
            for x, a in eLs.items():
                for z, b in eRt.items():
                    _acc(lhs1, (x, z), a * c0 * b)
            eLt = epsL.get(t, {})
            eRs = epsR.get(s, {})
            for x, a in eLt.items():
                for z, b in eRs.items():
                    _acc(lhs2, (x, z), a * c0 * b)
        if lhs1 != rhs:
            x, z = _first_diff(lhs1, rhs)
            return (
                f"eps(x y_(1)) eps(y_(2) z) != eps(xyz) at "
                f"({A.label_str(x)}, {A.label_str(y)}, {A.label_str(z)})"
            )
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


_PARALLEL = {}


def _worker(args):
    fn_name, key, lo, hi = args
    A = _PARALLEL[key]
    return globals()[fn_name](A, lo, hi)


def _sweep(A, fn, threads):
    """Run a per-basis-range sweep, optionally forked across processes.

    Returns the failure detail from the lowest range, or None; deterministic
    regardless of worker count.
    """
    d = A.dim
    if threads <= 1 or d < 64 or multiprocessing.get_start_method(allow_none=False) != "fork":
        return fn(A, 0, d)
    key = id(A)
    _PARALLEL[key] = A
    try:
        nchunks = threads * 4
        step = max(1, (d + nchunks - 1) // nchunks)
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


def verify_weak_bialgebra(A, threads=None, dense=False):
    """All weak bialgebra laws, exactly; returns a Report.

    dense=True runs the literal unpruned basis-tuple loops (meta-testing
    aid; only sensible at small dimension).
    """
    threads = default_threads() if threads is None else threads
    rep = Report(A.name, "weak-bialgebra")

    detail = _unit_law(A)
    rep.add("unit-law", detail is None, detail)

    # associativity
    if dense:
        detail = _assoc_dense(A)
    else:
        detail = _sweep(A, _assoc_range, threads)
    rep.add("mu-associativity", detail is None, detail)

    # counit law
    detail = None
    for x in range(A.dim):
        lhs = {}
        rhs = {}
        for j, k, c in A.delta_terms[x]:
            e = A.counit.get(j)
            if e:
                _acc(lhs, k, e * c)
            e = A.counit.get(k)
            if e:
                _acc(rhs, j, c * e)
        if lhs != A.basis_elem(x) or rhs != A.basis_elem(x):
            detail = f"counit law fails at {A.label_str(x)}"
            break
    rep.add("counit-law", detail is None, detail)

    # coassociativity
    detail = None
    for x in range(A.dim):
        lhs = {}
        rhs = {}
        for j, k, c in A.delta_terms[x]:
            for a, b, c2 in A.delta_terms[j]:
                _acc(lhs, (a, b, k), c * c2)
            for a, b, c2 in A.delta_terms[k]:
                _acc(rhs, (j, a, b), c * c2)
        if lhs != rhs:
            detail = f"coassociativity fails at {A.label_str(x)}"
            break
    rep.add("delta-coassociativity", detail is None, detail)

    # Axiom 1
    if dense:
        detail = _axiom1_dense(A)
    else:
        detail = _sweep(A, _axiom1_range, threads)
    rep.add("axiom1-delta-multiplicative", detail is None, detail)

    # Axiom 2
    if dense:
        detail = _axiom2_dense(A)
    else:
        detail = _sweep(A, _counit_weak_mult_range, threads)
    rep.add("axiom2-counit-weak-multiplicative", detail is None, detail)

    # Axiom 3
    d1 = A.delta_of_unit()
    d2 = {}
    for (j, k), c in d1.items():
        for a, b, c2 in A.delta_terms[j]:
            _acc(d2, (a, b, k), c * c2)
    lhs1 = {}
    lhs2 = {}
    for (j, k), c in d1.items():
        for (j2, k2), c2 in d1.items():
            for kk, cm in A.mu_pairs.get((k, j2), ()):
                _acc(lhs1, (j, kk, k2), c * c2 * cm)
            for kk, cm in A.mu_pairs.get((j2, k), ()):
                _acc(lhs2, (j, kk, k2), c2 * c * cm)
    ok1 = lhs1 == d2
    ok2 = lhs2 == d2
    detail = None
    if not ok1:
        detail = "(Delta(1) (x) 1)(1 (x) Delta(1)) != Delta^2(1)"
    elif not ok2:
        detail = "(1 (x) Delta(1))(Delta(1) (x) 1) != Delta^2(1)"
    rep.add("axiom3-unit-weak-comultiplicative", ok1 and ok2, detail)
    return rep


def _assoc_dense(A):
    for i in range(A.dim):
        for j in range(A.dim):
            for z in range(A.dim):
                lhs = A.mul(A.mul(A.basis_elem(i), A.basis_elem(j)), A.basis_elem(z))
                rhs = A.mul(A.basis_elem(i), A.mul(A.basis_elem(j), A.basis_elem(z)))
                if lhs != rhs:
                    return (
                        f"mu not associative at ({A.label_str(i)}, {A.label_str(j)}, "
                        f"{A.label_str(z)})"
                    )
    return None


def _axiom1_dense(A):
    for x in range(A.dim):
        dx = A.coproduct(A.basis_elem(x))
        for y in range(A.dim):
            dy = A.coproduct(A.basis_elem(y))
            if A.mul2(dx, dy) != A.coproduct(A.mul(A.basis_elem(x), A.basis_elem(y))):
                return (
                    f"Delta(x)Delta(y) != Delta(xy) at (x, y) = "
                    f"({A.label_str(x)}, {A.label_str(y)})"
                )
    return None


def _axiom2_dense(A):
    for x in range(A.dim):
        ex = A.basis_elem(x)
        for y in range(A.dim):
            dy = A.delta_terms[y]
            for z in range(A.dim):
                ez = A.basis_elem(z)
                mid = A.mul(ex, A.mul(A.basis_elem(y), ez))
                target = A.apply_counit(mid)
                lhs1 = A.zero_scalar()
                lhs2 = A.zero_scalar()
                for s, t, c in dy:
                    lhs1 = lhs1 + A.apply_counit(A.mul(ex, {s: c})) * A.apply_counit(
                        A.mul({t: A.one_scalar()}, ez)
                    )
                    lhs2 = lhs2 + A.apply_counit(A.mul(ex, {t: c})) * A.apply_counit(
                        A.mul({s: A.one_scalar()}, ez)
                    )
                if lhs1 != target or lhs2 != target:
                    return (
                        f"axiom 2 fails at ({A.label_str(x)}, {A.label_str(y)}, "
                        f"{A.label_str(z)})"
                    )
    return None


# ---------------------------------------------------------------------------
# antipode verifier
# ---------------------------------------------------------------------------


def _axiom4_eq1_range(A, lo, hi):
    for x in range(lo, hi):
        lhs = {}
        for s, t, c in A.delta_terms[x]:
            st = A.mul({s: c}, A.apply_antipode({t: A.one_scalar()}))
            for k, v in st.items():
                _acc(lhs, k, v)
        if lhs != A.eps_lr(A.basis_elem(x)):
            return f"x_(1) S(x_(2)) != eps^lr(x) at {A.label_str(x)}"
    return None


def _axiom4_eq2_range(A, lo, hi):
    eps_left = A.eps_left
    for x in range(lo, hi):
        lhs = {}
        for s, t, c in A.delta_terms[x]:
            st = A.mul(A.apply_antipode({s: c}), {t: A.one_scalar()})
            for k, v in st.items():
                _acc(lhs, k, v)
        rhs = {}
        for (p, q), c in A.delta_of_unit().items():
            val = eps_left[q].get(x)  # eps(x q)
            if val:
                _acc(rhs, p, c * val)
        if lhs != rhs:
            return f"S(x_(1)) x_(2) != 1_(1) eps(x 1_(2)) at {A.label_str(x)}"
    return None


def _axiom4_eq3_range(A, lo, hi):
    for x in range(lo, hi):
        lhs = {}
        for (s, t, u), c in A.coproduct2(A.basis_elem(x)).items():
            term = A.mul(
                A.mul(A.apply_antipode({s: c}), {t: A.one_scalar()}),
                A.apply_antipode({u: A.one_scalar()}),
            )
            for k, v in term.items():
                _acc(lhs, k, v)
        if lhs != A.apply_antipode(A.basis_elem(x)):
            return f"S(x_(1)) x_(2) S(x_(3)) != S(x) at {A.label_str(x)}"
    return None


def _hom_range(phi, A, B, lo, hi, anti=False):
    """Least (i, j), i in [lo, hi), with phi(e_i e_j) != phi(e_i) phi(e_j).

    phi[i] is the sparse image in B of A's basis element i, for every i.  With
    `anti` the right side is phi(e_j) phi(e_i).  For each i only the j on which
    a side can be nonzero are visited: A's right companions of i, and each j
    whose image meets B's companions of supp phi(e_i), found through an
    inverse index of phi's support.
    """
    mp = A.mu_pairs
    rc = A.right_companions
    partners = B.left_companions if anti else B.right_companions
    holders = {}
    for j in range(A.dim):
        for b in phi[j]:
            holders.setdefault(b, []).append(j)
    for i in range(lo, hi):
        pi = phi[i]
        cand = set(rc.get(i, ()))
        for b in pi:
            for b2 in partners.get(b, ()):
                cand.update(holders.get(b2, ()))
        for j in sorted(cand):
            lhs = _push(phi, dict(mp.get((i, j), ())))
            rhs = B.mul(phi[j], pi) if anti else B.mul(pi, phi[j])
            if lhs != rhs:
                return i, j
    return None


def _antihom_range(A, lo, hi):
    """First S(xy) != S(y)S(x) counterexample with x = e_i in [lo, hi)."""
    bad = _hom_range(A.antipode_cols, A, A, lo, hi, anti=True)
    if bad is None:
        return None
    i, j = bad
    return f"S(xy) != S(y)S(x) at ({A.label_str(i)}, {A.label_str(j)})"


def verify_antipode(A, threads=None):
    """Axiom 4 (eq1-eq3), S invertibility, and the anti-homomorphism laws."""
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
    for x in range(A.dim):
        lhs = A.coproduct(A.apply_antipode(A.basis_elem(x)))
        rhs = {}
        for j, k, c in A.delta_terms[x]:
            sk = A.apply_antipode({k: c})
            sj = A.apply_antipode(A.basis_elem(j))
            for a, va in sk.items():
                for b, vb in sj.items():
                    _acc(rhs, (a, b), va * vb)
        if lhs != rhs:
            detail = f"Delta(S(x)) != (S (x) S)(Delta^cop(x)) at {A.label_str(x)}"
            break
        if A.apply_counit(A.apply_antipode(A.basis_elem(x))) != A.apply_counit(A.basis_elem(x)):
            detail = f"eps(S(x)) != eps(x) at {A.label_str(x)}"
            break
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


def _projection_matrix(A, which):
    m = SparseMatrix(A.dim, A.dim, A.conductor)
    for x in range(A.dim):
        img = A.eps_lr(A.basis_elem(x)) if which == "lr" else A.eps_rr(A.basis_elem(x))
        for i, v in img.items():
            m.add_to(i, x, v)
    return m


def base_algebras(A):
    """Base counital subalgebras, their interplay, and the idempotent p."""
    rep = Report(A.name, "base-algebras")
    E_lr = _projection_matrix(A, "lr")
    E_rr = _projection_matrix(A, "rr")

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

    detail = None
    for x in range(A.dim):
        dx = A.coproduct(A.basis_elem(x))
        if A.mul2(R, dx) != A.mul2(_cop(dx), R):
            detail = f"R Delta(x) != Delta^cop(x) R at x = {A.label_str(x)}"
            break
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
    R = cand.terms
    d1 = A.delta_of_unit()
    d1cop = _cop(d1)

    def laws_hold(rb):
        return (
            A.mul2(R, rb) == d1cop
            and A.mul2(rb, R) == d1
            and A.mul2(rb, d1cop) == rb
        )

    if cand.rbar is not None:
        if laws_hold(cand.rbar):
            return cand.rbar, None
        return None, "supplied weak inverse fails its defining laws"

    candidates = []
    s_r = {}
    for (i, j), c in R.items():
        for k, v in A.apply_antipode({i: c}).items():
            _acc(s_r, (k, j), v)
    candidates.append(s_r)
    sinv = None
    try:
        sinv = A.antipode.inverse()
    except ValueError:
        pass
    if sinv is not None:
        id_sinv = {}
        for (i, j), c in R.items():
            for k, v in sinv.apply({j: c}).items():
                _acc(id_sinv, (i, k), v)
        candidates.append(id_sinv)
    for rb in candidates:
        if laws_hold(rb):
            return rb, None

    rb = _solve_weak_inverse(A, R, d1, d1cop)
    if rb is not None and laws_hold(rb):
        return rb, None
    return None, "no weak inverse: the three defining linear equations are unsolvable"


def _solve_weak_inverse(A, R, d1, d1cop):
    """Exact linear solve for Rbar; used when no closed-form candidate works."""
    d = A.dim
    idx = {}
    # full unknown space when small; at larger dims restrict to the support
    # reachable from R and Delta(1) (the verifying laws_hold() call in the
    # caller keeps a restricted miss honest)
    if d * d <= 4096:
        unknowns = [(i, j) for i in range(d) for j in range(d)]
    else:
        support = set(d1) | set(d1cop) | set(R)
        unknowns = sorted(support)
    for u in unknowns:
        idx[u] = len(idx)
    rows = []

    # R Rbar = Delta^cop(1)
    eq = {}
    for (a, b), c in R.items():
        for (i, j) in unknowns:
            t1 = A.mu_pairs.get((a, i))
            t2 = A.mu_pairs.get((b, j))
            if not t1 or not t2:
                continue
            for k1, x1 in t1:
                for k2, x2 in t2:
                    eq.setdefault((k1, k2), {})
                    _acc(eq[(k1, k2)], idx[(i, j)], c * x1 * x2)
    outputs = set(eq) | set(d1cop)
    for out in outputs:
        row = eq.get(out, {})
        rows.append((row, d1cop.get(out, A.zero_scalar())))
    # Rbar R = Delta(1)
    eq = {}
    for (i, j) in unknowns:
        for (a, b), c in R.items():
            t1 = A.mu_pairs.get((i, a))
            t2 = A.mu_pairs.get((j, b))
            if not t1 or not t2:
                continue
            for k1, x1 in t1:
                for k2, x2 in t2:
                    eq.setdefault((k1, k2), {})
                    _acc(eq[(k1, k2)], idx[(i, j)], c * x1 * x2)
    outputs = set(eq) | set(d1)
    for out in outputs:
        rows.append((eq.get(out, {}), d1.get(out, A.zero_scalar())))
    # Rbar Delta^cop(1) = Rbar
    eq = {}
    for (i, j) in unknowns:
        for (a, b), c in d1cop.items():
            t1 = A.mu_pairs.get((i, a))
            t2 = A.mu_pairs.get((j, b))
            if not t1 or not t2:
                continue
            for k1, x1 in t1:
                for k2, x2 in t2:
                    eq.setdefault((k1, k2), {})
                    _acc(eq[(k1, k2)], idx[(i, j)], c * x1 * x2)
    for (i, j), col in idx.items():
        row = dict(eq.get((i, j), {}))
        _acc(row, col, -A.one_scalar())
        rows.append((row, A.zero_scalar()))

    m = SparseMatrix(len(rows), len(idx), A.conductor)
    b = {}
    for rnum, (row, rhs_val) in enumerate(rows):
        for col, c in row.items():
            m.add_to(rnum, col, c)
        if rhs_val:
            b[rnum] = rhs_val
    sol = m.solve(b)
    if sol is None:
        return None
    rb = {}
    rev = {v: k for k, v in idx.items()}
    for col, c in sol.items():
        rb[rev[col]] = c
    return _prune(rb)


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
