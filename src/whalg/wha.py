"""Weak Hopf algebra data model and the exact axiom verifier suites.

`PlainAlgebra` is the shared base of every algebra in the package (tube
algebras, separable Frobenius algebras and `WeakHopfAlgebra`): it owns the
labeled basis, the sparse index of mu, the element product and the one
product on tensor powers A^(x)k, and validates its unit and associativity
laws with the same sweeps as the weak bialgebra suite.  mu is indexed
once, in scalar ids (`mu_ids`, i -> {j: [(k, id)]}), and every product of
elements reads those rows through the algebra's id -> scalar list
(`_product`).  The tensor-power product (`mul_tensor`, behind
`mul2`/`mul3`) joins its operands on their first two legs through the
rows' keys, the right companions of each index, so a term meets only the
terms it multiplies to nonzero on both of those legs.

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
  triple on which f(g(x, y), z) != h(x, k(y, z)) for four id-coded
  bilinear tables (`_nested`, `_by_leg`).  It runs mu-associativity, the tube
  bimodule and compose-tower laws and the module action law.
- `_convolution`, the convolution kernel: x -> f(x_(1)) g(x_(2)) for two
  linear maps f, g of A, each given by its columns or the identity.  Axiom 4
  is three convolution identities (Boehm-Nill-Szlachanyi 1999):
  id * S = eps_t, S * id = eps_s and (S * id) * S = S.

The counital maps eps_t, eps_s and eps'_s are cached on the algebra by
columns, each built in one pass over Delta(1); `eps_lr`, `eps_rr` and
`base_algebras` read them.

An algebra's tensors are not edited after it is built (a mutant is a fresh
algebra: `clone_with` in the tests, `assemble` in the benchmark), so every
index is built once and cached on it.  Every law sweep runs on scalar ids:
each algebra numbers its scalars when it is built (`_scalar_table`, id 0
for zero; `scalar_values` lists them by id), the kernels read the id-coded
indexes cached on it (`mu_ids`, `delta_ids`, ...), and each call starts its
`_ScalarIds` from that table with its own memo of products and sums, so the
sweeps hash ints, not cyclotomic values.  A table that belongs to no algebra
is coded per call (`_coded`).  The sweeps on ids are the three kernels
above, Axioms 1 and 2 and the intertwining law (`_intertwining_failure`).
The rest of the quasi-triangular suite is a few products of whole tensors
rather than a sweep over the basis, on scalar values.  R's two-leg products
R12 R13, R23 R13, R13 R23 and R13 R12 are contracted from R's terms
(`_r_products`), with the unit read through mu as e_b 1 and 1 e_b, so no
unit-lifted tensor is built for them; the coproduct-leg laws compare
against them, and Yang-Baxter multiplies them on `mul3` by the lifted R23
and R12 only.  The weak-inverse laws are products in A (x) A on `mul2`.

The weak Hopf axioms are self-dual, so the coalgebra laws are not swept
separately: the suites run the algebra sweeps above on the dual A* (`dual`).

Every law sweep runs in this process through `_sweep`: over the whole
basis or, for mu-associativity and Axiom 1, over a generating set S of A,
which is exact (Light's associativity test).  For any algebra, associative
or not, the left nucleus N = {a : (a y) z = a (y z) for all y, z} is a
subspace closed under products:
((ab)y)z = (a(by))z = a((by)z) = a(b(yz)) = (ab)(yz).  So if the
associativity sweep passes on x in S, N = A.  Likewise, once mu is
associative, {x : Delta(xy) = Delta(x) Delta(y) for all y} is closed under
products, so Axiom 1 needs only x in S.  S is `mu_generators`, computed
from mu alone (`_generators`): the least index not yet reached is taken,
and the reached set is closed under the products e_i e_j with exactly one
nonzero term c e_k, since e_k = c^-1 e_i e_j.  The unit is not used, so S
is sound for any mu.  On the grouplike data of the paper mu is monomial and
S is small (78 of 1296 indices for A(Z6, p=1)).  Because S is taken by
least index, every x outside S lies in the subalgebra generated by the
generators below x, so the least counterexample is always a generator:
the first one that fails, and every detail is the full sweep's.  Axiom 1
is swept on the whole basis when associativity failed.
"""

from __future__ import annotations

import functools
import itertools

from .exactmath import Cyclotomic, SparseMatrix, SparseTensor3
from .report import Report


_NO_ROW = {}  # the row of an index absent from a nested id table; never written


def _id_rows(tensor, leg):
    """A cached property: the sparse tensor `tensor` in scalar ids, by one leg (`_by_leg`)."""
    return functools.cached_property(
        lambda A: _by_leg(_coded(getattr(A, tensor).data, A._scalar_id), leg))


def _id_columns(name):
    """A cached property: the index `name`, x -> {k: scalar}, as x -> {k: id};
    a value new to the scalar table (a counital map's) joins it."""
    return functools.cached_property(
        lambda A: {x: dict(_coded(col, A._scalar_id)) for x, col in getattr(A, name).items()})


class PlainAlgebra:
    """Associative unital algebra by sparse structure constants, not edited once built."""

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
        self.scalar_ids = _scalar_table(conductor, self._scalar_tables())
        self.scalar_values = list(self.scalar_ids)  # id -> scalar

    def _scalar_tables(self):
        """The sparse {key: scalar} tables that `scalar_ids` numbers."""
        return (self.mu.data, self.unit)

    def _scalar_id(self, c):
        """Id of c in `scalar_ids`; a value new to the table gets the next id,
        and joins `scalar_values`."""
        table = self.scalar_ids
        i = table.get(c)
        if i is None:
            i = table[c] = len(table)
            self.scalar_values.append(c)
        return i

    @functools.cached_property
    def mu_generators(self):
        """Sorted basis indices that generate A under products (`_generators`)."""
        return _generators(self)

    # -- id-coded indexes (built once) ---------------------------------------

    @functools.cached_property
    def mu_ids(self):
        """mu in scalar ids: i -> {j: [(k, id)]}, zero terms left out.

        The one index of mu: the keys of row i are the right companions of
        i, the j with e_i e_j != 0, and `mu_ids_by_right` gives the left ones.
        """
        return _nested(_coded(self.mu.data, self._scalar_id))

    @functools.cached_property
    def mu_ids_by_right(self):
        """`mu_ids` keyed by the right factor, j -> {i: [(k, id)]}; shares its term lists."""
        return _flipped(self.mu_ids)

    mu_ids_by_result = _id_rows("mu", 2)  # k -> [(i, j, id)]

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
        return _product(self.mu_ids, self.scalar_values, u, v)

    def mul_tensor(self, U, V):
        """Product of sparse elements of A^(x)k, k >= 2, keyed by k-tuples of indices.

        V is indexed by its first two legs (first -> second -> terms).  A term
        of U meets, on each of those legs, only the V legs among the right
        companions of its own leg (the keys of its `mu_ids` row), so it
        reaches just the V terms whose first two legs both multiply to
        nonzero.  Legs beyond the second are probed term by term.
        """
        mp = self.mu_ids
        vals = self.scalar_values
        by_two = {}
        for key, c in V.items():
            by_two.setdefault(key[0], {}).setdefault(key[1], []).append((key[2:], c))
        firsts_of = by_two.keys()
        out = {}
        for key1, c1 in U.items():
            row1 = mp.get(key1[0], _NO_ROW)
            row2 = mp.get(key1[1], _NO_ROW)
            rest1 = key1[2:]
            for i2 in firsts_of & row1.keys():
                first = row1[i2]
                by_second = by_two[i2]
                for a2 in by_second.keys() & row2.keys():
                    second = row2[a2]
                    for rest2, c2 in by_second[a2]:
                        legs = [first, second]
                        for a, b in zip(rest1, rest2):
                            terms = mp.get(a, _NO_ROW).get(b)
                            if terms is None:
                                break
                            legs.append(terms)
                        else:
                            c12 = c1 * c2
                            for combo in itertools.product(*legs):
                                c = c12
                                for _k, ck in combo:
                                    c = c * vals[ck]
                                _acc(out, tuple(k for k, _ck in combo), c)
        return out

    def mul2(self, U, V):
        """Product of sparse elements of A (x) A.

        Kept apart from `mul3` under its own name: the benchmark's tracer
        wraps `mul2` and `mul3` by name to count and time their calls.
        """
        return self.mul_tensor(U, V)

    def mul3(self, U, V):
        """Product of sparse elements of A (x) A (x) A (see `mul2`)."""
        return self.mul_tensor(U, V)

    def label_str(self, i):
        return repr(self.labels[i])

    def validate(self):
        """Unit law and associativity, swept like the weak bialgebra suite."""
        rep = Report(self.name, "plain-algebra")
        detail = _unit_law(self)
        rep.add("unit-law", detail is None, detail)
        detail = _sweep(self, _assoc_range, True)
        rep.add("associativity", detail is None, detail)
        return rep


class WeakHopfAlgebra(PlainAlgebra):
    """A `PlainAlgebra` plus sparse structure tensors for Delta, eps and S.

    Nothing is assumed at construction: the verifier suites below establish
    (or refute) every axiom.
    """

    def __init__(self, labels, conductor, mu, unit, delta, counit, antipode, name="A", meta=None):
        self.delta = delta      # SparseTensor3: (i, j, k) -> coeff of e_j (x) e_k in Delta(e_i)
        self.counit = counit    # sparse covector {i: coeff}
        self.antipode = antipode  # SparseMatrix: (k, i) -> coeff of e_k in S(e_i)
        self.meta = meta or {}
        super().__init__(labels, conductor, mu, unit, name)

    def _scalar_tables(self):
        return (self.mu.data, self.unit, self.delta.data, self.counit, self.antipode.data)

    # -- comultiplication and antipode indexes (built once) -----------------

    @functools.cached_property
    def delta_terms(self):
        out = {i: [] for i in range(self.dim)}
        for (i, j, k), c in self.delta.data.items():
            out[i].append((j, k, c))
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

    # -- id-coded indexes of the law kernels (built once) --------------------

    delta_ids = _id_rows("delta", 0)  # i -> [(j, k, id)]
    delta_left_ids = _id_rows("delta", 1)  # j -> [(i, k, id)]
    # S's columns and the counital maps, x -> {k: id}
    antipode_ids = _id_columns("antipode_cols")
    eps_left_ids = _id_columns("eps_left")
    eps_right_ids = _id_columns("eps_right")
    eps_t_ids = _id_columns("eps_t")
    eps_s_ids = _id_columns("eps_s")

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


def _product(rows, vals, u, v):
    """Sparse bilinear product of u and v through `_nested` id rows
    x -> {y: [(w, id)]} whose ids index the scalar list vals."""
    out = {}
    for i, ci in u.items():
        row = rows.get(i)
        if row is None:
            continue
        for j, cj in v.items():
            terms = row.get(j)
            if terms:
                cij = ci * cj
                for k, c in terms:
                    _acc(out, k, cij * vals[c])
    return out


def _push(phi, u):
    """Image of a sparse vector under the linear map with basis images phi."""
    out = {}
    for i, ci in u.items():
        for k, c in phi[i].items():
            _acc(out, k, ci * c)
    return out


def _scalar_table(conductor, tables):
    """Intern the scalars of the sparse tables in place, and number them:
    {value: id} in id order, zero 0, then the distinct nonzero values sorted
    by their canonical form, whatever the order of the entries."""
    shared = {}
    for table in tables:
        for key, c in table.items():
            s = shared.setdefault(c, c)
            if s is not c:
                table[key] = s
    nonzero = sorted((c for c in shared if c), key=lambda c: (c.v, c.d))
    ids = {Cyclotomic.zero(conductor): 0}
    for c in nonzero:
        ids[c] = len(ids)
    return ids


def _coded(table, scalar_id):
    """The entries of a sparse table {key: scalar} as (key, id) pairs, zeros
    left out; scalar_id is an algebra's `_scalar_id`, or a call's
    `_ScalarIds.scalar_id` for a table that belongs to no algebra."""
    return ((key, i) for key, c in table.items() if (i := scalar_id(c)))


def _nested(terms):
    """Id-coded bilinear terms ((x, y, w), id) as x -> {y: [(w, id)]}."""
    out = {}
    for (x, y, w), i in terms:
        out.setdefault(x, {}).setdefault(y, []).append((w, i))
    return out


def _flipped(rows):
    """Nested rows x -> {y: terms} as y -> {x: terms}, sharing the term lists."""
    out = {}
    for x, row in rows.items():
        for y, terms in row.items():
            out.setdefault(y, {})[x] = terms
    return out


def _by_leg(terms, leg):
    """Id-coded terms ((a, b, c), id) by one leg: key[leg] -> [(other two legs, id)]."""
    out = {}
    for key, i in terms:
        out.setdefault(key[leg], []).append((*key[:leg], *key[leg + 1:], i))
    return out


def _generators(A):
    """Sorted basis indices S whose products reach every basis index of A.

    S is taken greedily, the least index not yet reached first, and the
    reached set is closed under the products e_i e_j with exactly one
    nonzero term c e_k, which reach e_k = c^-1 e_i e_j.  Every reached e_k
    is then in the subalgebra that S generates.  The unit is not used, so
    the certificate holds for any mu; a mu with few single-term products
    only gives a larger S.
    """
    by_left, by_right = A.mu_ids, A.mu_ids_by_right  # zero terms left out
    reached = [False] * A.dim
    popped = [False] * A.dim
    gens = []
    for g in range(A.dim):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        todo = [g]
        while todo:
            n = todo.pop()
            popped[n] = True
            # each pair of reached indices is met once, when its later one is popped
            met = itertools.chain((t for m, t in by_left.get(n, _NO_ROW).items() if popped[m]),
                                  (t for m, t in by_right.get(n, _NO_ROW).items() if popped[m] and m != n))
            for terms in met:
                if len(terms) == 1 and not reached[k := terms[0][0]]:
                    reached[k] = True
                    todo.append(k)
    return gens


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

    1 e_x and e_x 1 are gathered for every x from the rows of mu, by left
    and by right factor, of the unit's basis elements.
    """
    one = A.one()
    vals = A.scalar_values
    left, right = {}, {}
    for u, cu in one.items():
        for j, terms in A.mu_ids.get(u, _NO_ROW).items():
            out = left.setdefault(j, {})
            for k, c in terms:
                _acc(out, k, cu * vals[c])
        for i, terms in A.mu_ids_by_right.get(u, _NO_ROW).items():
            out = right.setdefault(i, {})
            for k, c in terms:
                _acc(out, k, vals[c] * cu)
    for x in range(A.dim):
        ex = A.basis_elem(x)
        if left.get(x, {}) != ex or right.get(x, {}) != ex:
            return f"unit law fails at {A.label_str(x)}"
    return None


class _ScalarIds:
    """Small-int ids for the scalars of one law-kernel call.

    A call starts from an algebra's `scalar_ids`, read after the indexes it
    sweeps (building a counital map's adds to the table), or empty.  Each
    new value it meets takes the next id, 0 for zero, so two ids are equal
    exactly when their scalars are and `_first_diff` picks the key the values
    would.  Kernels read the memoized products and sums inline
    (`products[a].get(b)`) and call `mul` or `add_into` on a miss or a
    repeated key.  A nonzero product is never zero; a cancelling sum is removed.
    """

    def __init__(self, table=None):
        self.ids = dict(table) if table else {}  # scalar -> id; zero -> 0
        self.vals = list(self.ids) or [None]     # vals[id] = scalar, in id order
        self.products = [{} for _ in self.vals]  # products[a][b] = id of vals[a] * vals[b]
        self.sums = [{} for _ in self.vals]      # sums[a][b] = id of vals[a] + vals[b]

    def scalar_id(self, c):
        i = self.ids.get(c)
        if i is None:
            i = self.ids[c] = len(self.vals) if c else 0
            if i:
                self.vals.append(c)
                self.products.append({})
                self.sums.append({})
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


def _mixed_assoc_range(ids, f, g, h, k, xs):
    """Least basis triple (x, y, z), x in the increasing xs, with f(g(x, y), z) != h(x, k(y, z)).

    f, g and h are `_nested` id-coded bilinear tables and k one by result,
    w -> [(x, y, id)] (`_by_leg`), in the ids of `ids`.  For each x both sides are
    expanded, keyed (y, z, w), over exactly the (y, z) on which they can be
    nonzero: the left through g's entries of x and f's entries of each
    product, the right through h's entries of x and k's by-result index.
    """
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    for x in xs:
        lhs = {}
        for y, g_terms in g.get(x, _NO_ROW).items():
            for p, c1 in g_terms:
                prod = products[c1]
                for z, f_terms in f.get(p, _NO_ROW).items():
                    for w, c2 in f_terms:
                        c = prod.get(c2)
                        if c is None:
                            c = mul(c1, c2)
                        key = (y, z, w)
                        if key in lhs:
                            add_into(lhs, key, c)
                        else:
                            lhs[key] = c
        rhs = {}
        for q, h_terms in h.get(x, _NO_ROW).items():
            for w, c2 in h_terms:
                prod = products[c2]
                for y, z, c3 in k.get(q, ()):
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


def _mixed_assoc_by_value(f, g, h, k, xs):
    """`_mixed_assoc_range` on sparse bilinear tables {(x, y, w): scalar} that
    belong to no algebra, each distinct table coded once in one fresh `_ScalarIds`."""
    ids = _ScalarIds()
    coded = {i: list(_coded(t, ids.scalar_id)) for i, t in {id(t): t for t in (f, g, h, k)}.items()}
    rows = {i: _nested(coded[i]) for i in {id(f), id(g), id(h)}}
    return _mixed_assoc_range(ids, rows[id(f)], rows[id(g)], rows[id(h)], _by_leg(coded[id(k)], 2), xs)


def _assoc_range(A, xs):
    """First associativity counterexample with left factor in the increasing xs."""
    mu, by_result = A.mu_ids, A.mu_ids_by_result
    bad = _mixed_assoc_range(_ScalarIds(A.scalar_ids), mu, mu, mu, by_result, xs)
    if bad is None:
        return None
    i, j, z = bad
    return f"mu not associative at ({A.label_str(i)}, {A.label_str(j)}, {A.label_str(z)})"


def _axiom1_range(A, xs):
    """First Delta(x)Delta(y) != Delta(xy) counterexample with x in the increasing xs.

    Both sides are keyed (y, j, k) and hold scalar ids (`_ScalarIds`).  The
    left meets each term s (x) s2 of Delta(x) with the Delta(y) terms
    t (x) t2, found through Delta's left-leg index, on which s t and s2 t2
    are both nonzero.
    """
    mp, dt, dinv = A.mu_ids, A.delta_ids, A.delta_left_ids
    ids = _ScalarIds(A.scalar_ids)
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    for x in xs:
        lhs = {}
        for s, s2, c0 in dt.get(x, ()):
            row2 = mp.get(s2)
            if row2 is None:
                continue
            p0 = products[c0]
            for t, pairs_st in mp.get(s, _NO_ROW).items():
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
        for y, terms in mp.get(x, _NO_ROW).items():
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


def _counit_weak_mult_range(A, ys):
    """Axiom 2 (both equalities), swept per middle element y in the increasing ys.

    For each y the sides are keyed (x, z) and hold scalar ids (`_ScalarIds`):
    eps(x (yz)) through the products y z and eps_left, and each left side
    through the terms of Delta(y), eps_left and eps_right.
    """
    mp, dt, epsL, epsR = A.mu_ids, A.delta_ids, A.eps_left_ids, A.eps_right_ids
    ids = _ScalarIds(A.scalar_ids)
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into

    def left_side(y, swap):
        lhs = {}
        for s, t, c0 in dt.get(y, ()):
            if swap:
                s, t = t, s
            eRt = epsR[t]
            if not eRt:
                continue
            for x, a in epsL[s].items():
                ac0 = products[a].get(c0)
                if ac0 is None:
                    ac0 = mul(a, c0)
                prod = products[ac0]
                for z, b in eRt.items():
                    c = prod.get(b)
                    if c is None:
                        c = mul(ac0, b)
                    key = (x, z)
                    if key in lhs:
                        add_into(lhs, key, c)
                    else:
                        lhs[key] = c
        return lhs

    for y in ys:
        rhs = {}
        for z, terms in mp.get(y, _NO_ROW).items():
            for k, c1 in terms:
                prod = products[c1]
                for x, c2 in epsL[k].items():
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


def _sweep(A, fn, generated):
    """The failure detail of the range kernel `fn` on A, or None.

    `fn` is swept over every basis index x, or with `generated` over the
    generators `A.mu_generators` only.  That is exact for a law whose
    passing x are closed under products (see the module docstring): passing
    on the generators means passing on all of A, and the first failing
    generator is the least counterexample, so the detail is the full
    sweep's.  A non-generator x was reached from generators below x: if
    they all pass, so does x.

    Callers pass `generated` by position: the benchmark's tracer wraps
    `_sweep` by name and reads its third positional argument.
    """
    return fn(A, A.mu_generators if generated else range(A.dim))


def verify_weak_bialgebra(A, threads=None):
    """All weak bialgebra laws, exactly; returns a Report.

    The coalgebra laws run as the matching algebra laws of the dual A*
    (see `dual`): the counit law is the unit law of A*, coassociativity is
    its associativity and Axiom 3 is its Axiom 2.  mu-associativity (on A
    and on A*) and, once it holds, Axiom 1 are swept on generators of A
    (`_sweep`; see the module docstring).

    `threads` is accepted and ignored: every sweep runs in this process,
    and the benchmark's workloads still pass it.
    """
    rep = Report(A.name, "weak-bialgebra")

    detail = _unit_law(A)
    rep.add("unit-law", detail is None, detail)

    detail = _sweep(A, _assoc_range, True)
    rep.add("mu-associativity", detail is None, detail)
    associative = detail is None

    D = dual(A)
    detail = _in_dual(_unit_law(D))
    rep.add("counit-law", detail is None, detail)

    detail = _in_dual(_sweep(D, _assoc_range, True))
    rep.add("delta-coassociativity", detail is None, detail)

    detail = _sweep(A, _axiom1_range, associative)
    rep.add("axiom1-delta-multiplicative", detail is None, detail)

    detail = _sweep(A, _counit_weak_mult_range, False)
    rep.add("axiom2-counit-weak-multiplicative", detail is None, detail)

    detail = _in_dual(_sweep(D, _counit_weak_mult_range, False))
    rep.add("axiom3-unit-weak-comultiplicative", detail is None, detail)
    return rep


def _in_dual(detail):
    """A failure detail of a law swept on A*, whose basis carries A's labels."""
    return None if detail is None else f"in A*: {detail}"


# ---------------------------------------------------------------------------
# antipode verifier
# ---------------------------------------------------------------------------


def _convolution(ids, A, left, right):
    """The convolution x -> left(x_(1)) right(x_(2)) of two linear maps of A.

    Returns a memoized function x -> {k: id} in the ids of `ids`, started
    from A's table.  `left` and `right` each give a map's image of e_x as
    {k: id}, or are None for the identity.
    """
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    mp = A.mu_ids
    dt = A.delta_ids
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
                row = mp.get(l)
                if row is None:
                    continue
                c01 = p0.get(c1)
                if c01 is None:
                    c01 = mul(c0, c1)
                p01 = products[c01]
                for r, c2 in rights:
                    terms = row.get(r)
                    if terms is None:
                        continue
                    c012 = p01.get(c2)
                    if c012 is None:
                        c012 = mul(c01, c2)
                    prod = products[c012]
                    for k, c3 in terms:
                        c = prod.get(c3)
                        if c is None:
                            c = mul(c012, c3)
                        if k in out:
                            add_into(out, k, c)
                        else:
                            out[k] = c
        return out

    return value


def _first_unequal(lhs_of, rhs, xs):
    """First x of the increasing xs with lhs_of(x) != rhs[x], or None."""
    return next((x for x in xs if lhs_of(x) != rhs[x]), None)


def _axiom4_eq1_range(A, xs):
    """First x in xs with x_(1) S(x_(2)) != eps_t(x): id * S against eps_t."""
    S, eps_t = A.antipode_ids, A.eps_t_ids
    ids = _ScalarIds(A.scalar_ids)
    x = _first_unequal(_convolution(ids, A, None, S.__getitem__), eps_t, xs)
    return None if x is None else f"x_(1) S(x_(2)) != eps^lr(x) at {A.label_str(x)}"


def _axiom4_eq2_range(A, xs):
    """First x in xs with S(x_(1)) x_(2) != eps_s(x): S * id against eps_s."""
    S, eps_s = A.antipode_ids, A.eps_s_ids
    ids = _ScalarIds(A.scalar_ids)
    x = _first_unequal(_convolution(ids, A, S.__getitem__, None), eps_s, xs)
    return None if x is None else f"S(x_(1)) x_(2) != 1_(1) eps(x 1_(2)) at {A.label_str(x)}"


def _axiom4_eq3_range(A, xs):
    """First x in xs with S(x_(1)) x_(2) S(x_(3)) != S(x): (S * id) * S against S.

    With x_(1) (x) x_(2) (x) x_(3) = (Delta (x) id) Delta(x), as in
    `coproduct2`, the left side is the convolution of S * id, each value
    computed once per call, with S.
    """
    S = A.antipode_ids
    ids = _ScalarIds(A.scalar_ids)
    s_id = _convolution(ids, A, S.__getitem__, None)
    x = _first_unequal(_convolution(ids, A, s_id, S.__getitem__), S, xs)
    return None if x is None else f"S(x_(1)) x_(2) S(x_(3)) != S(x) at {A.label_str(x)}"


def _hom_range(phi, A, B, xs, anti=False):
    """Least (i, j), i in the increasing xs, with phi(e_i e_j) != phi(e_i) phi(e_j).

    phi[i] is the sparse image in B of A's basis element i, for every i (a
    list or a dict).  With `anti` the right side is phi(e_j) phi(e_i).  For
    each i both sides are built once, keyed (j, k) for the coefficient of
    e_k: the left through A's products e_i e_j and phi's images, the right
    through B's products of each b in supp phi(e_i) with its partners b2,
    met with the j whose image holds b2.  Keys order by j first, so the
    least differing key names the least j.  phi's images and B's mu are coded
    per call.
    """
    ids = _ScalarIds(A.scalar_ids)
    images = [dict(_coded(phi[j], ids.scalar_id)) for j in range(A.dim)]
    b_rows = _nested(_coded(B.mu.data, ids.scalar_id))
    return _hom_ids(ids, A.mu_ids, images, _flipped(b_rows) if anti else b_rows, xs)


def _hom_ids(ids, a_rows, images, b_rows, xs):
    """`_hom_range` on the `_nested` mu of A and of B (keyed by the right
    factor for `anti`) and images[j] = phi(e_j) as {k: id}."""
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    holders = {}
    for j in range(len(images)):
        for b, c in images[j].items():
            holders.setdefault(b, []).append((j, c))
    for i in xs:
        lhs = {}
        for j, terms in a_rows.get(i, _NO_ROW).items():
            for w, c0 in terms:
                prod = products[c0]
                for k, c1 in images[w].items():
                    c = prod.get(c1)
                    if c is None:
                        c = mul(c0, c1)
                    key = (j, k)
                    if key in lhs:
                        add_into(lhs, key, c)
                    else:
                        lhs[key] = c
        rhs = {}
        for b, c0 in images[i].items():
            p0 = products[c0]
            for b2, terms in b_rows.get(b, _NO_ROW).items():
                held = holders.get(b2)
                if held is None:
                    continue
                for k, c1 in terms:
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


def _antihom_range(A, xs):
    """First S(xy) != S(y)S(x) counterexample with x = e_i in the increasing xs."""
    a_rows, by_right, S = A.mu_ids, A.mu_ids_by_right, A.antipode_ids
    bad = _hom_ids(_ScalarIds(A.scalar_ids), a_rows, S, by_right, xs)
    if bad is None:
        return None
    i, j = bad
    return f"S(xy) != S(y)S(x) at ({A.label_str(i)}, {A.label_str(j)})"


def verify_antipode(A, threads=None):
    """Axiom 4 (eq1-eq3), S invertibility, and the anti-homomorphism laws.

    The coalgebra anti-homomorphism law runs on the dual A* (see `dual`):
    after S(1) = 1, S*(1*) = 1* says eps S = eps, and S* must be an algebra
    anti-homomorphism of A*.

    `threads` is accepted and ignored, as in `verify_weak_bialgebra`.
    """
    rep = Report(A.name, "antipode")

    detail = _sweep(A, _axiom4_eq1_range, False)
    rep.add("axiom4-eq1", detail is None, detail)

    detail = _sweep(A, _axiom4_eq2_range, False)
    rep.add("axiom4-eq2", detail is None, detail)

    detail = _sweep(A, _axiom4_eq3_range, False)
    rep.add("axiom4-eq3", detail is None, detail)

    invertible = A.antipode.rank() == A.dim
    rep.add("antipode-invertible", invertible, None if invertible else "S has nontrivial kernel")

    detail = _sweep(A, _antihom_range, False)
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
            detail = _in_dual(_sweep(D, _antihom_range, False))
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

    mp, vals = A.mu_ids, A.scalar_values
    sq = {}
    for (i, j), c in p.items():
        row = mp.get(i, _NO_ROW)
        for (i2, j2), c2 in p.items():
            t1 = row.get(i2)
            t2 = mp.get(j2, _NO_ROW).get(j)
            if t1 is None or t2 is None:
                continue
            cc = c * c2
            for k1, a in t1:
                for k2, b in t2:
                    _acc(sq, (k1, k2), cc * vals[a] * vals[b])
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

    `threads` is accepted and ignored, as in `verify_weak_bialgebra`.
    """
    rep = Report(A.name, "quasi-triangular")
    R = cand.terms
    d1 = A.delta_of_unit()

    ok = A.mul2(R, d1) == R
    rep.add("r-lives-in-right-ideal", ok, None if ok else "R Delta(1) != R")

    x = _intertwining_failure(A, R)
    detail = None if x is None else f"R Delta(x) != Delta^cop(x) R at x = {A.label_str(x)}"
    rep.add("r-intertwines-coproducts", detail is None, detail)

    r12r13, r23r13, r13r23, r13r12 = _r_products(A, R)
    lhs = {}
    for (i, j), c in R.items():
        for a, b, c2 in A.delta_terms[i]:
            _acc(lhs, (a, b, j), c * c2)
    ok = lhs == r13r23
    rep.add("delta-leg-one", ok, None if ok else "(Delta (x) id)(R) != R13 R23")

    lhs = {}
    for (i, j), c in R.items():
        for a, b, c2 in A.delta_terms[j]:
            _acc(lhs, (i, a, b), c * c2)
    ok = lhs == r13r12
    rep.add("delta-leg-two", ok, None if ok else "(id (x) Delta)(R) != R13 R12")

    rbar = weak_inverse(A, cand)
    detail = None
    if rbar is None:
        detail = ("supplied weak inverse fails its defining laws" if cand.rbar is not None
                  else "(S (x) id)(R) is not a weak inverse of R")
    rep.add("weak-inverse-exists", rbar is not None, detail)

    lhs = A.mul3(r12r13, _lift(R, A, 0))
    rhs = A.mul3(r23r13, _lift(R, A, 2))
    ok = lhs == rhs
    rep.add("yang-baxter", ok, None if ok else "R12 R13 R23 != R23 R13 R12")
    return rep


def _intertwining_failure(A, R):
    """First basis x with R Delta(x) != Delta^cop(x) R, or None; on scalar ids.

    R is indexed by its first leg, and mu's id rows are gathered for the
    pairs with one factor among R's first legs a: a u for the left side
    R (u (x) v), u a for the right side (u (x) v) R.  Each term of Delta(x)
    meets only the R terms whose first legs multiply with its own to
    nonzero; both sides are keyed (k1, k2).
    """
    mp, by_right, dt = A.mu_ids, A.mu_ids_by_right, A.delta_ids
    ids = _ScalarIds(A.scalar_ids)
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    r_rows = {}  # a -> [(b, id)] over the terms a (x) b of R
    for (a, b), i in _coded(R, ids.scalar_id):
        r_rows.setdefault(a, []).append((b, i))
    r_left = {}  # u -> {a: [(k, id)]} for e_a e_u
    r_right = {}  # u -> {a: [(k, id)]} for e_u e_a
    for a in r_rows:
        for u, terms in mp.get(a, _NO_ROW).items():
            r_left.setdefault(u, {})[a] = terms
        for u, terms in by_right.get(a, _NO_ROW).items():
            r_right.setdefault(u, {})[a] = terms

    def side(firsts_of, u, v, c0, out, r_first):
        # out += c0 (a (x) b)(u (x) v) over R's terms a (x) b when r_first,
        # else c0 (u (x) v)(a (x) b); firsts_of[a] holds a u, or u a
        if firsts_of is None:
            return
        p0 = products[c0]
        for a, firsts in firsts_of.items():
            for b, c1 in r_rows[a]:
                seconds = mp.get(b, _NO_ROW).get(v) if r_first else mp.get(v, _NO_ROW).get(b)
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
                    for k2, c3 in seconds:
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


def _r_products(A, R):
    """R12 R13, R23 R13, R13 R23 and R13 R12 in A^(x)3, contracted from R's terms.

    With rho(b) = e_b 1 and lambda(b) = 1 e_b, and primes on the second
    factor's term a' (x) b':

        R12 R13 = sum a a' (x) rho(b) (x) lambda(b')
        R13 R12 = sum a a' (x) lambda(b') (x) rho(b)
        R23 R13 = sum lambda(a') (x) rho(a) (x) b b'
        R13 R23 = sum rho(a) (x) lambda(a') (x) b b'

    so each pair of products is one contraction joined on a leg of R,
    with its legs placed two ways.  The contraction indexes R by the joined
    leg x, sums c rho(y) and c lambda(y) over its terms x (x) y (or y (x) x)
    first, and meets a joined index only the joined indices among its right
    companions (the keys of its `mu_ids` row).  rho and lambda are read
    through mu and the unit, so each result equals the product of the
    unit-lifted tensors by bilinearity, for any mu and unit, with no lifted
    operand built.
    """
    mp, vals = A.mu_ids, A.scalar_values
    unit = A.unit
    rho = {}
    lam = {}
    out = []
    for leg in (0, 1):
        rho_of = {}  # x -> sum of c rho(y) over R's terms with x on `leg`, y on the other
        lam_of = {}
        for key, c in R.items():
            x, y = key[leg], key[1 - leg]
            if y not in rho:
                e_y = A.basis_elem(y)
                rho[y] = _product(mp, vals, e_y, unit)
                lam[y] = _product(mp, vals, unit, e_y)
            for target, image in ((rho_of, rho[y]), (lam_of, lam[y])):
                row = target.setdefault(x, {})
                for k, ck in image.items():
                    _acc(row, k, c * ck)
        joined = {}  # (x x', rho, lambda) -> coeff
        for x1, row1 in rho_of.items():
            mu_row = mp.get(x1, _NO_ROW)
            for x2 in lam_of.keys() & mu_row.keys():
                row2 = lam_of[x2]
                for k, cm in mu_row[x2]:
                    for r, cr in row1.items():
                        cmr = vals[cm] * cr
                        for l, cl in row2.items():
                            _acc(joined, (k, r, l), cmr * cl)
        out.append(joined)
    on_first, on_second = out
    return (
        on_first,
        {(l, r, k): c for (k, r, l), c in on_second.items()},
        {(r, l, k): c for (k, r, l), c in on_second.items()},
        {(k, l, r): c for (k, r, l), c in on_first.items()},
    )


def _lift(R, A, unit_leg):
    """R in A^(x)3 with the unit on leg `unit_leg`: R23 for 0, R12 for 2.

    Yang-Baxter's last factors R12 and R23 are the only lifted tensors.  R's
    terms and the unit's are nonzero, so every product is.
    """
    unit = [(u, cu) for u, cu in A.unit.items() if cu]
    if unit_leg == 0:
        return {(u, i, j): c * cu for u, cu in unit for (i, j), c in R.items()}
    return {(i, j, u): c * cu for (i, j), c in R.items() for u, cu in unit}


def weak_inverse(A, cand):
    """The weak inverse of R, checked by its three defining laws, or None.

    Checks the candidate's supplied Rbar if there is one, else (S (x) id)(R):
    in a quasi-triangular weak Hopf algebra the weak inverse is unique and
    equals (S (x) id)(R) (Nikshych-Turaev-Vainerman 2003), so when that
    fails R is not quasi-triangular.  The candidate is not changed.
    """
    R = cand.terms
    d1 = A.delta_of_unit()
    d1cop = _cop(d1)
    if cand.rbar is not None:
        rb = cand.rbar
    else:
        rb = {}
        for (i, j), c in R.items():
            for k, v in A.apply_antipode({i: c}).items():
                _acc(rb, (k, j), v)
    if A.mul2(R, rb) == d1cop and A.mul2(rb, R) == d1 and A.mul2(rb, d1cop) == rb:
        return rb
    return None


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
