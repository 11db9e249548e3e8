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
  (anti-)homomorphism.  It runs the antipode's anti-homomorphism law and
  the multiplicative law of `verify_morphism`, the one check of a linear
  map as a morphism (the double's pairing and sharp map, `chi` and the
  Tube/Tube' transport).
- `_mixed_assoc_range`, the mixed-associativity kernel: the least basis
  triple on which f(g(x, y), z) != h(x, k(y, z)) for four id-coded
  bilinear tables (`_nested`, `_by_leg`).  It runs mu-associativity, the tube
  bimodule and compose-tower laws and the module action law.
- `_convolution`, the convolution kernel: x -> f(x_(1)) g(x_(2)) for two
  linear maps f, g of A, each given by its columns or the identity.  Axiom 4
  is three convolution identities (Boehm-Nill-Szlachanyi 1999):
  id * S = eps_t, S * id = eps_s and (S * id) * S = S.

An algebra's tensors are not edited after it is built (a mutant is a fresh
algebra: `clone_with` in the tests, `assemble` in the benchmark), so every
index is built once and cached on it, one per structure map and in scalar
ids only.  Each algebra holds one scalar table, `ids` (a `_ScalarIds`; the
dual A* takes A's, see `dual`), and mu, Delta and S are stored in its ids
only: `mu_ids` (i -> {j: [(k, id)]}), `delta_ids` (i -> [(j, k, id)]) and
`antipode_ids` (S by columns, i -> {k: id}), with the unit and counit as
small {i: scalar} dicts.  The value tensors `mu`, `delta` and `antipode`
are formed from the ids only when something reads them (the double's S^-1,
the tests).

That layout is this module's alone.  One way in, `_store_entries`, takes
each table as flat entries, ((i, j, k), scalar) for mu and Delta, (i,
scalar) for the unit and counit and ((k, i), scalar) for S, and numbers the
distinct scalars canonically (`_numbered`: 0 for zero, then the nonzero
values sorted by their canonical form), so the loaded and the built algebra
get the same table and rows.  Two ways out: `sorted_entries` gives the scalar
list and each table's sorted (indices..., id) entries, and `mu_entries`
mu's ((i, j, k), scalar) entries in store order.
Other modules use the element arithmetic (`mul`, `coproduct`,
`apply_antipode`, `eps_lr`, `eps_rr`) and the public value-level entry
points (`verify_morphism`, `mixed_assoc_failure`, `action_failure`,
`separability_laws`, `counital_matrices`);
`tests/test_layering.py` holds them to it.  Inside, `ids.vals` decodes an
index where values are needed, and the other indexes are derived from the
stored ones: mu's companions (`mu_ids_by_right`, `mu_ids_by_result`),
`delta_left_ids`, the rows of eps(x w) (`eps_right_ids`, read off the
products onto the counit's support) and the counital maps eps_t, eps_s and
eps'_s by columns, each built in one pass over Delta(1) (`eps_t_ids`,
`eps_s_ids`, `eps_s_prime_ids`).  Every kernel
call on the algebra reads them and shares the table's memo of products and
sums, so the sweeps hash ints, not cyclotomic values, and a product met by
one call is not recomputed by the next.  A table that belongs to no algebra
is coded in a fresh `_ScalarIds` (`_coded`).  The sweeps on ids are the
three kernels above and Axioms 1 and 2.
The quasi-triangular suite runs on scalar values: its intertwining law is
two `mul2` products for each x it sweeps (see below), and the rest is a few
products of whole tensors rather than a sweep over the basis.  R's two-leg
products R12 R13, R23 R13, R13 R23 and R13 R12 are contracted from R's
terms (`_r_products`), with the unit read through mu as e_b 1 and 1 e_b,
so no unit-lifted tensor is built for them; the coproduct-leg laws compare
against them, and Yang-Baxter multiplies them on `mul3` by the lifted R23
and R12 only.  The weak-inverse laws are products in A (x) A on `mul2`.

The weak Hopf axioms are self-dual, so the coalgebra laws are not swept
separately: the suites run the algebra sweeps above on the dual A* (`dual`).
A* is a reading of A that forms only mu* and S*; each suite calls `dual(A)`
and drops A* when it returns (see `dual` for what A* shares, and why it is
not cached on A).

Every law sweep runs in this process through `_sweep`: over the whole
basis or, for mu-associativity, Axiom 1 and the two laws below, over a
generating set S of A, which is exact (Light's associativity test).  For
any algebra, associative or not, the left nucleus
N = {a : (a y) z = a (y z) for all y, z} is a subspace closed under
products:
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

Two more laws are swept on the generators, each given a precondition:

- S(xy) = S(y)S(x) on A, once mu is associative.  If a and b pass, then
  S((ab)y) = S(a(by)) = S(by)S(a) = S(y)S(b)S(a) = S(y)S(ab), so the
  passing x are a subspace closed under products.  The law on A* is swept
  on the whole basis: A* is not cached (see above), so its associativity
  would be swept again by the antipode suite and cost as much as the
  generator sweep saves.
- R Delta(x) = Delta^cop(x) R, once mu is associative and Axiom 1 holds.
  For any R, if x and x' pass, then R Delta(xx') = R Delta(x) Delta(x') =
  Delta^cop(x) R Delta(x') = Delta^cop(x) Delta^cop(x') R = Delta^cop(xx') R.
  Each x takes two products in A (x) A on `mul2` (`_intertwining_failure`).

The preconditions are swept once per algebra and cached on it
(`associativity_detail`, `axiom1_detail`): the weak bialgebra suite reports
them, and the antipode and quasi-triangular suites read them, sweeping them
first when run alone.

Axiom 2 is swept over every middle element y, but with x reduced to a
basis of the row space of E(x, w) = eps(x w).  Fix y.
Each side is a bilinear form in (x, z) of the shape sum_w E(x, w) V(w, z):
eps(x y_(1)) eps(y_(2) z) has V(w, z) = the sum of c eps(t z) over the
terms c s (x) t of Delta(y) with s = w (the other equality swaps the legs),
and eps(x y z) has V(w, z) = the coefficient of e_w in y z.  If the rows of
a matrix Q span E's row space, then E d = 0 exactly when Q d = 0, since
each row of either is a combination of the rows of the other.  So the two
sides agree for all (x, z) exactly when Q V agrees, keyed (i, z) for the
rows i of Q.  Q is the reduced echelon form of E (`SparseMatrix.rref`), taken
of E's distinct nonzero rows only: equal id rows hold equal values, and a
row space has one reduced echelon form, however many times a row repeats.
Once the law holds at y = 1, eps(x w) = eps(x eps_t(w)), so E factors
through eps_t and rank E is at most dim A^l: |G| for the paper's
algebras, 6 rows instead of 1296 x for A(Z6, p=1).  Each y's reduced test is equivalent to its full one, so the
first failing y, and which equality fails there, are the full sweep's; for
that one y the full forms, keyed (x, z), name the least (x, z).  Axiom 3 is
the same kernel on A*.

The derived structure is computed on generators and spans as well.  Once
mu is associative, the centre Z(A) is the centraliser of the generators:
if z commutes with a and b, then z(ab) = (za)b = (az)b = a(zb) = a(bz) =
(ab)z, so the x that commute with z form a subalgebra, and it holds every
basis element once it holds the generators.  `center_dim` takes the
commutator rows of the generators alone, and of every basis element when
associativity failed.  `base_algebras` tests membership in A^l and A^r
against one elimination of each basis (`_span_test`): in the reduced
echelon form R of the basis vectors as rows, each pivot column is nonzero
in its own pivot row only, so v - sum_p v[p] R_p vanishes in every pivot
column, and it is zero exactly when v is in the span.
"""

from __future__ import annotations

import functools
import itertools

from .exactmath import Cyclotomic, SparseMatrix, SparseTensor3, acc, push
from .report import Report


_NO_ROW = {}  # the row of an index absent from a nested id table; never written


def _stored(attr):
    """A store attribute: set by `_store_entries`, or, on an algebra made from
    value tables, formed with the whole store when first read (`_index_values`)."""
    return functools.cached_property(lambda A: A._index_values()[attr])


class PlainAlgebra:
    """Associative unital algebra by sparse structure constants, not edited once built.

    mu is stored once, in scalar ids (`mu_ids`), with the scalar table `ids`
    and the unit as a small {i: scalar} dict; the value tensor `mu` is formed
    from `mu_ids` only when something reads it.  The constructor keeps its
    value tables and stores them when the store is first read.
    """

    def __init__(self, labels, conductor, mu, unit, name="T"):
        self._labeled(labels, conductor, name)
        self._values = (mu.data.items(), unit.items())

    def _labeled(self, labels, conductor, name):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.conductor = conductor
        self.name = name
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.label_index) != self.dim:
            raise ValueError("labels must be distinct")

    def _index_values(self):
        """Store the value tables; returns the instance dict.  Lazy, since storing
        at construction doubled mutants' `build_s` (0.029 to 0.058 s) for 0.03 s
        less `verify_s`, and raised tower's `peak_rss_mb` (32.04 to 32.30 MB)."""
        _store_entries(self, *self.__dict__.pop("_values"))
        return self.__dict__

    ids = _stored("ids")
    mu_ids = _stored("mu_ids")
    unit = _stored("unit")

    def mu_entries(self):
        """mu's nonzero entries ((i, j, k), scalar) in store order, not cached."""
        vals = self.ids.vals
        return (((i, j, k), vals[c]) for i, row in self.mu_ids.items()
                for j, terms in row.items() for k, c in terms)

    @functools.cached_property
    def mu(self):
        """mu as a value tensor, formed from `mu_entries` when read."""
        d = self.dim
        return SparseTensor3((d, d, d), self.conductor, dict(self.mu_entries()))

    @functools.cached_property
    def mu_generators(self):
        """Sorted basis indices that generate A under products (`_generators`)."""
        return _generators(self)

    @functools.cached_property
    def associativity_detail(self):
        """The first associativity counterexample, or None; swept once, on `mu_generators`."""
        return _sweep(self, _assoc_range, True)

    @functools.cached_property
    def semisimple(self):
        """Whether A is unital, associative and semisimple, by Dickson's criterion.

        The regular trace form is T(x, y) = Tr L_{xy}: T(e_i, e_j) =
        sum_k mu(i, j, k) t_k with t_k = Tr L_{e_k} = sum_j mu(k, j, j).  In
        characteristic 0, rad A = rad T, so A is semisimple exactly when T
        has full rank.  If x is in rad A, then xy is nilpotent, so
        T(x, y) = 0.  T(ax, y) = T(x, ya) and T(xa, y) = T(x, ay), so rad T
        is an ideal, and each x in it has Tr L_x^k = T(x^(k-1), x) = 0 for
        every k >= 1, so L_x is nilpotent, and so is x: x^k = L_x^k(1).
        """
        if _unit_law(self) is not None or self.associativity_detail is not None:
            return False
        vals = self.ids.vals
        trace = {}
        for k, row in self.mu_ids.items():
            for j, terms in row.items():
                for m, c in terms:
                    if j == m:
                        acc(trace, k, vals[c])
        form = {}
        for i, row in self.mu_ids.items():
            for j, terms in row.items():
                for k, c in terms:
                    t = trace.get(k)
                    if t is not None:
                        acc(form, (i, j), vals[c] * t)
        return SparseMatrix(self.dim, self.dim, self.conductor, form).rank() == self.dim

    # -- id-coded indexes derived from `mu_ids` (built once) -----------------
    # the keys of row i of `mu_ids` are the right companions of i, the j with
    # e_i e_j != 0, and `mu_ids_by_right` gives the left ones

    @functools.cached_property
    def mu_ids_by_right(self):
        """`mu_ids` keyed by the right factor, j -> {i: [(k, id)]}; shares its term lists."""
        return _flipped(self.mu_ids)

    @functools.cached_property
    def mu_ids_by_result(self):
        """`mu_ids` keyed by the result, k -> [(i, j, id)]."""
        out = {}
        for i, row in self.mu_ids.items():
            for j, terms in row.items():
                for k, c in terms:
                    t = out.get(k)
                    if t is None:
                        out[k] = [(i, j, c)]
                    else:
                        t.append((i, j, c))
        return out

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
        return _product(self.mu_ids, self.ids.vals, u, v)

    def mul_tensor(self, U, V):
        """Product of sparse elements of A^(x)k, k >= 2, keyed by k-tuples of indices.

        V is indexed by its first two legs (first -> second -> terms).  A term
        of U meets, on each of those legs, only the V legs among the right
        companions of its own leg (the keys of its `mu_ids` row), so it
        reaches just the V terms whose first two legs both multiply to
        nonzero.  Legs beyond the second are probed term by term.
        """
        mp = self.mu_ids
        vals = self.ids.vals
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
                                # the key from a list, not a generator: a generator
                                # object per term fragments the small-object heap
                                acc(out, tuple([k for k, _ck in combo]), c)
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
        detail = self.associativity_detail
        rep.add("associativity", detail is None, detail)
        return rep


class WeakHopfAlgebra(PlainAlgebra):
    """A `PlainAlgebra` plus Delta, eps and S.

    Delta and S are stored in scalar ids only (`delta_ids`, `antipode_ids`)
    and the counit as a small {i: scalar} dict; the value tensors `delta` and
    `antipode` are formed when read, as `mu` is.  Nothing is assumed at
    construction: the verifier suites below establish (or refute) every
    axiom.
    """

    def __init__(self, labels, conductor, mu, unit, delta, counit, antipode, name="A", meta=None):
        self._labeled(labels, conductor, name)
        self.meta = meta or {}
        self._values = (mu.data.items(), unit.items(), delta.data.items(), counit.items(),
                        antipode.data.items())

    @classmethod
    def from_entries(cls, labels, conductor, mu, unit, delta, counit, antipode, name="A", meta=None):
        """The algebra of the flat entries of its tables, stored at once (`_store_entries`)."""
        A = cls.__new__(cls)
        A._labeled(labels, conductor, name)
        A.meta = meta or {}
        _store_entries(A, mu, unit, delta, counit, antipode)
        return A

    def sorted_entries(self):
        """(vals, tables): the id -> scalar list and each table's entries as
        sorted (indices..., id), by table name in file order."""
        mu, dt, cols, code = self.mu_ids, self.delta_ids, self.antipode_ids, self.ids.ids
        return self.ids.vals, {
            "mu": ((i, j, k, c) for i in sorted(mu) for j in sorted(mu[i]) for k, c in sorted(mu[i][j])),
            "unit": ((i, code[v]) for i, v in sorted(self.unit.items())),
            "delta": ((i, j, k, c) for i in sorted(dt) for j, k, c in sorted(dt[i])),
            "counit": ((i, code[v]) for i, v in sorted(self.counit.items())),
            "antipode": sorted((k, i, c) for i, col in cols.items() for k, c in col.items()),
        }

    delta_ids = _stored("delta_ids")
    counit = _stored("counit")
    antipode_ids = _stored("antipode_ids")

    @functools.cached_property
    def delta(self):
        """Delta as a value tensor, (i, j, k) -> coeff of e_j (x) e_k in
        Delta(e_i); formed from `delta_ids` when read."""
        vals = self.ids.vals
        d = self.dim
        return SparseTensor3((d, d, d), self.conductor,
                             {(i, j, k): vals[c] for i, terms in self.delta_ids.items()
                              for j, k, c in terms})

    @functools.cached_property
    def antipode(self):
        """S as a value matrix, (k, i) -> coeff of e_k in S(e_i); formed from `antipode_ids` when read."""
        return _matrix(self, self.antipode_ids)

    @functools.cached_property
    def delta_of_unit(self):
        """Delta(1), sparse over (j, k)."""
        return self.coproduct(self.unit)

    @functools.cached_property
    def axiom1_detail(self):
        """The first Delta(xy) != Delta(x)Delta(y) counterexample, or None; swept
        once, on `mu_generators` if mu is associative."""
        return _sweep(self, _axiom1_range, self.associativity_detail is None)

    # -- id-coded indexes of the law kernels (built once) --------------------

    @functools.cached_property
    def delta_left_ids(self):
        """`delta_ids` keyed by the left leg, j -> [(i, k, id)]."""
        out = {}
        for i, terms in self.delta_ids.items():
            for j, k, c in terms:
                t = out.get(j)
                if t is None:
                    out[j] = [(i, k, c)]
                else:
                    t.append((i, k, c))
        return out

    @functools.cached_property
    def eps_right_ids(self):
        """t -> {z: id of eps(t z)}, the rows of E(x, w) = eps(x w)."""
        return _eps_rows(self, 0)

    # the counital maps by columns, x -> {k: id}, each one pass over Delta(1)

    @functools.cached_property
    def eps_t_ids(self):
        """x -> eps_t(x) = eps(1_(1) x) 1_(2)."""
        return _counital_map(self, self.eps_right_ids, self.delta_of_unit)

    @functools.cached_property
    def eps_s_ids(self):
        """x -> eps_s(x) = 1_(1) eps(x 1_(2)), through eps(x s) by s, kept for this map only."""
        return _counital_map(self, _eps_rows(self, 1), _cop(self.delta_of_unit))

    @functools.cached_property
    def eps_s_prime_ids(self):
        """x -> eps'_s(x) = 1_(1) eps(1_(2) x)."""
        return _counital_map(self, self.eps_right_ids, _cop(self.delta_of_unit))

    # -- coalgebra and antipode arithmetic, decoded through `ids` ------------

    def coproduct(self, u):
        out = {}
        dt, vals = self.delta_ids, self.ids.vals
        for i, ci in u.items():
            for j, k, c in dt.get(i, ()):
                acc(out, (j, k), ci * vals[c])
        return out

    def coproduct2(self, u):
        """(Delta (x) id) Delta(u); coassociativity makes the order moot."""
        out = {}
        dt, vals = self.delta_ids, self.ids.vals
        for (j, k), c in self.coproduct(u).items():
            for a, b, c2 in dt.get(j, ()):
                acc(out, (a, b, k), c * vals[c2])
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
        return _image(self.antipode_ids, self.ids.vals, u)

    def eps_lr(self, u):
        """epsilon^lr(u) = eps(1_(1) u) 1_(2), the image of u under eps_t."""
        return _image(self.eps_t_ids, self.ids.vals, u)

    def eps_rr(self, u):
        """epsilon^rr(u) = 1_(1) eps(1_(2) u), the image of u under eps'_s."""
        return _image(self.eps_s_prime_ids, self.ids.vals, u)

    def __repr__(self):
        return f"WeakHopfAlgebra({self.name}, dim={self.dim}, conductor={self.conductor})"


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
                    acc(out, k, cij * vals[c])
    return out


def _image(cols, vals, u):
    """`push` through id-coded columns x -> {k: id} whose ids index the scalar list vals."""
    out = {}
    for i, ci in u.items():
        for k, c in cols[i].items():
            acc(out, k, ci * vals[c])
    return out


def _store_entries(A, mu, unit, *coalgebra):
    """Store the flat entries of mu, the unit and, on a `WeakHopfAlgebra`,
    Delta, the counit and S on A, each table read once in that order and
    shaped as it is kept, zeros left out; the distinct scalar objects are
    then numbered and the tables coded in place by object identity."""
    met = {}
    mu, unit = _nested(_nonzero(mu, met)), dict(_nonzero(unit, met))
    if coalgebra:
        delta, counit, antipode = coalgebra
        delta, counit = _by_leg(_nonzero(delta, met), 0), dict(_nonzero(counit, met))
        cols = {i: {} for i in range(A.dim)}
        for (k, i), c in _nonzero(antipode, met):
            cols[i][k] = c
    ids, of = _numbered(A.conductor, met.values())
    own = lambda vec: {i: ids.vals[of[id(c)]] for i, c in vec.items()}  # the table's own objects
    A.ids, A.mu_ids, A.unit = ids, _code_rows(mu, of), own(unit)
    if coalgebra:
        A.delta_ids, A.counit, A.antipode_ids = _code_terms(delta, of), own(counit), _code_columns(cols, of)


def _nonzero(entries, met):
    """The entries with a nonzero scalar, each distinct object tested once and
    kept in met (id -> scalar) or, while the entries are read, in zeros."""
    zeros = {}
    for entry in entries:
        c = entry[1]
        if id(c) not in met:
            if id(c) in zeros:
                continue
            if not c:
                zeros[id(c)] = c
                continue
            met[id(c)] = c
        yield entry


def _numbered(conductor, scalars):
    """(ids, of): the scalar table of an algebra whose tables hold the nonzero
    scalar objects `scalars`, and of[id(c)], the id of each.

    Zero is 0, then the distinct values take 1.. sorted by their canonical
    form, whatever order they were met in, so every way of building an
    algebra numbers its scalars alike; equal values under two objects get
    one id.  Each value is hashed once per object, not once per entry.
    """
    table = {Cyclotomic.zero(conductor): 0}
    for c in sorted(dict.fromkeys(scalars), key=lambda c: (c.v, c.d)):
        table[c] = len(table)
    return _ScalarIds(table), {id(c): table[c] for c in scalars}


# The coders below replace each scalar of a table in the store's shape by
# its id, in place, through of = {id(scalar): id}.


def _code_rows(rows, of):
    """Rows x -> {y: [(w, scalar)]} in ids."""
    for row in rows.values():
        for terms in row.values():
            for t, (w, c) in enumerate(terms):
                terms[t] = (w, of[id(c)])
    return rows


def _code_terms(rows, of):
    """Rows x -> [(y, w, scalar)] in ids."""
    for terms in rows.values():
        for t, (y, w, c) in enumerate(terms):
            terms[t] = (y, w, of[id(c)])
    return rows


def _code_columns(cols, of):
    """Columns x -> {k: scalar} in ids."""
    for col in cols.values():
        for k, c in col.items():
            col[k] = of[id(c)]
    return cols


def _coded(table, scalar_id):
    """The entries of a sparse table {key: scalar} as (key, id) pairs, zeros
    left out; scalar_id is a `_ScalarIds.scalar_id`, an algebra's `ids` or
    a fresh table for a table that belongs to no algebra."""
    return ((key, i) for key, c in table.items() if (i := scalar_id(c)))


def _nested(terms):
    """Id-coded bilinear terms ((x, y, w), id) as x -> {y: [(w, id)]}.

    Rows and term lists are made only when first met (`get`, not
    `setdefault`, which would make and drop one of each per term).
    """
    out = {}
    for (x, y, w), i in terms:
        row = out.get(x)
        if row is None:
            out[x] = {y: [(w, i)]}
            continue
        t = row.get(y)
        if t is None:
            row[y] = [(w, i)]
        else:
            t.append((w, i))
    return out


def _flipped(rows):
    """Nested rows x -> {y: terms} as y -> {x: terms}, sharing the term lists."""
    out = {}
    for x, row in rows.items():
        for y, terms in row.items():
            col = out.get(y)
            if col is None:
                out[y] = {x: terms}
            else:
                col[x] = terms
    return out


def _by_leg(terms, leg):
    """Id-coded terms ((a, b, c), id) by one leg: key[leg] -> [(other two legs, id)]."""
    out = {}
    for key, i in terms:
        term = (*key[:leg], *key[leg + 1:], i)
        t = out.get(key[leg])
        if t is None:
            out[key[leg]] = [term]
        else:
            t.append(term)
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
    vals = A.ids.vals
    left, right = {}, {}
    for u, cu in one.items():
        for j, terms in A.mu_ids.get(u, _NO_ROW).items():
            out = left.setdefault(j, {})
            for k, c in terms:
                acc(out, k, cu * vals[c])
        for i, terms in A.mu_ids_by_right.get(u, _NO_ROW).items():
            out = right.setdefault(i, {})
            for k, c in terms:
                acc(out, k, vals[c] * cu)
    for x in range(A.dim):
        ex = A.basis_elem(x)
        if left.get(x, {}) != ex or right.get(x, {}) != ex:
            return f"unit law fails at {A.label_str(x)}"
    return None


class _ScalarIds:
    """Small-int ids for scalars, with a memo of their products and sums.

    Each algebra holds one, `ids`, started from the numbering of its
    structure tensors (`_numbered`): its id-coded indexes and every
    kernel call on it share that table and memo.  A table that belongs to
    no algebra starts empty.  Each new value takes the next id, 0 for zero,
    so two ids are equal exactly when their scalars are and `_first_diff`
    picks the key the values would.  Kernels read the memoized products and
    sums inline (`products[a].get(b)`) and call `mul` or `add_into` on a
    miss or a repeated key.  A nonzero product is never zero; a cancelling
    sum is removed.
    """

    def __init__(self, table=None):
        self.ids = table or {}                   # scalar -> id; zero -> 0
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


def mixed_assoc_failure(f, g, h, k, xs):
    """`_mixed_assoc_range` on sparse bilinear tables {(x, y, w): scalar} that
    belong to no algebra, each distinct table coded once in one fresh `_ScalarIds`."""
    ids = _ScalarIds()
    coded = {i: list(_coded(t, ids.scalar_id)) for i, t in {id(t): t for t in (f, g, h, k)}.items()}
    rows = {i: _nested(coded[i]) for i in {id(f), id(g), id(h)}}
    return _mixed_assoc_range(ids, rows[id(f)], rows[id(g)], rows[id(h)], _by_leg(coded[id(k)], 2), xs)


def action_failure(A, action, xs):
    """Least (x, y, v), x in the increasing xs, with (xy).v != x.(y.v) for the
    action {(x, v, w): coeff of e_w in x.e_v}, coded in A's ids; or None."""
    ids = A.ids
    act = list(_coded(action, ids.scalar_id))
    rows = _nested(act)
    return _mixed_assoc_range(ids, rows, A.mu_ids, rows, _by_leg(act, 2), xs)


def _assoc_range(A, xs):
    """First associativity counterexample with left factor in the increasing xs."""
    mu, by_result = A.mu_ids, A.mu_ids_by_result
    bad = _mixed_assoc_range(A.ids, mu, mu, mu, by_result, xs)
    if bad is None:
        return None
    i, j, z = bad
    return f"mu not associative at ({A.label_str(i)}, {A.label_str(j)}, {A.label_str(z)})"


def _axiom1_range(A, xs):
    """First Delta(x)Delta(y) != Delta(xy) counterexample with x in the increasing xs.

    Both sides are keyed (y, j, k) and hold scalar ids (`A.ids`).  The
    left meets each term s (x) s2 of Delta(x) with the Delta(y) terms
    t (x) t2, found through Delta's left-leg index, on which s t and s2 t2
    are both nonzero.
    """
    mp, dt, dinv = A.mu_ids, A.delta_ids, A.delta_left_ids
    ids = A.ids
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

    Each side is sum_w E(x, w) V(w, z) with E(x, w) = eps(x w), and holds
    scalar ids (`A.ids`).  Given the columns of a matrix, w -> {i: id},
    each side is that matrix times V, keyed (i, z): each left side through
    the terms c s (x) t of Delta(y) and E's rows, eps(x (yz)) through the
    terms c e_k of the products y z.  Only the terms that meet a nonzero
    column, at s (at t for the second equality) or at k, are kept, gathered
    by y once per call.  The sweep takes a basis of E's row space
    (see the module docstring); for the first y and equality that fail,
    E's own columns give the full sides, keyed (x, z), which name the least
    (x, z).
    """
    by_result, dt, epsR = A.mu_ids_by_result, A.delta_ids, A.eps_right_ids
    ids = A.ids
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into

    def columns(rows):
        cols = {}
        for i, row in enumerate(rows):
            for w, c in row.items():
                cols.setdefault(w, {})[i] = c
        return cols

    def terms_by_y(cols):
        # per equality, y -> [(cols[s], epsR[t], c)] over the terms
        # c s (x) t of Delta(y), the legs swapped for the second; and
        # y -> [(z, cols[k], c)] over the terms c e_k of y z
        first, second = {}, {}
        for y, terms in dt.items():
            for s, t, c in terms:
                col = cols.get(s)
                if col is not None and epsR[t]:
                    first.setdefault(y, []).append((col, epsR[t], c))
                col = cols.get(t)
                if col is not None and epsR[s]:
                    second.setdefault(y, []).append((col, epsR[s], c))
        right = {}
        for k, col in cols.items():
            for y, z, c in by_result.get(k, ()):
                right.setdefault(y, []).append((z, col, c))
        return (first, second), right

    def left_side(terms):
        lhs = {}
        for col, row, c0 in terms:
            for i, a in col.items():
                ac0 = products[a].get(c0)
                if ac0 is None:
                    ac0 = mul(a, c0)
                prod = products[ac0]
                for z, b in row.items():
                    c = prod.get(b)
                    if c is None:
                        c = mul(ac0, b)
                    key = (i, z)
                    if key in lhs:
                        add_into(lhs, key, c)
                    else:
                        lhs[key] = c
        return lhs

    def right_side(terms):
        rhs = {}
        for z, col, c1 in terms:
            prod = products[c1]
            for i, c2 in col.items():
                c = prod.get(c2)
                if c is None:
                    c = mul(c1, c2)
                key = (i, z)
                if key in rhs:
                    add_into(rhs, key, c)
                else:
                    rhs[key] = c
        return rhs

    # E's row x is epsR[x], w -> eps(x w).  Equal id rows hold equal values,
    # so only E's distinct nonzero rows are eliminated: they span its row space
    vals = ids.vals
    rows = list({frozenset(row.items()): row for row in epsR.values() if row}.values())
    E = SparseMatrix(len(rows), A.dim, A.conductor,
                     {(x, w): vals[c] for x, row in enumerate(rows) for w, c in row.items()})
    lefts, right = terms_by_y(columns([dict(_coded(row, ids.scalar_id)) for row in E.rref()[0]]))
    for y in ys:
        rhs = right_side(right.get(y, ()))
        for eq, text in enumerate(("eps(x y_(1)) eps(y_(2) z)", "eps(x y_(2)) eps(y_(1) z)")):
            if left_side(lefts[eq].get(y, ())) != rhs:
                lefts, right = terms_by_y(columns(epsR[x] for x in range(A.dim)))  # E's own columns
                x, z = _first_diff(left_side(lefts[eq].get(y, ())), right_side(right.get(y, ())))
                return f"{text} != eps(xyz) at ({A.label_str(x)}, {A.label_str(y)}, {A.label_str(z)})"
    return None


def _eps_rows(A, leg):
    """eps(e_i e_j) in A's ids by one factor: i -> {j: id} for leg 0, j -> {i: id} for leg 1.

    Read from the products e_i e_j by result, over the counit's support only.
    """
    ids = A.ids
    products = ids.products
    mul = ids.mul
    add_into = ids.add_into
    by_result = A.mu_ids_by_result
    out = {i: {} for i in range(A.dim)}
    for k, e in A.counit.items():
        e = ids.scalar_id(e)
        for i, j, c in by_result.get(k, ()):
            v = products[c].get(e)
            if v is None:
                v = mul(c, e)
            x, w = (j, i) if leg else (i, j)
            row = out[x]
            if w in row:
                add_into(row, w, v)
            else:
                row[w] = v
    return out


def _counital_map(A, eps_rows, d1):
    """x -> sum of c eps_rows[a][x] b over the terms c a (x) b of d1, by columns in A's ids.

    eps_rows is `_eps_rows` of either leg and d1 is Delta(1) or its flip,
    so one pass over d1 builds a whole counital map.
    """
    vals = A.ids.vals
    out = {x: {} for x in range(A.dim)}
    for (a, b), c in d1.items():
        for x, e in eps_rows[a].items():
            acc(out[x], b, c * vals[e])
    return {x: dict(_coded(col, A.ids.scalar_id)) for x, col in out.items()}


def _sweep(A, fn, generated, *args):
    """The failure detail of the range kernel `fn` on A, or None.

    `fn(A, xs, *args)` is swept over every basis index x, or with
    `generated` over the generators `A.mu_generators` only.  That is exact
    for a law whose passing x are closed under products (see the module
    docstring): passing on the generators means passing on all of A, and
    the first failing generator is the least counterexample, so the detail
    is the full sweep's.  A non-generator x was reached from generators
    below x: if they all pass, so does x.

    Callers pass `generated` by position: the benchmark's tracer wraps
    `_sweep` by name and reads its third positional argument.
    """
    return fn(A, A.mu_generators if generated else range(A.dim), *args)


def verify_weak_bialgebra(A, threads=None):
    """All weak bialgebra laws, exactly; returns a Report.

    The coalgebra laws run as the matching algebra laws of the dual A*
    (see `dual`): the counit law is the unit law of A*, coassociativity is
    its associativity and Axiom 3 is its Axiom 2.  mu-associativity (on A
    and on A*) and, once it holds, Axiom 1 are swept on generators of A
    (`_sweep`; see the module docstring), and A keeps their results
    (`associativity_detail`, `axiom1_detail`) for the other suites.

    `threads` is accepted and ignored: every sweep runs in this process,
    and the benchmark's workloads still pass it.
    """
    rep = Report(A.name, "weak-bialgebra")

    detail = _unit_law(A)
    rep.add("unit-law", detail is None, detail)

    detail = A.associativity_detail
    rep.add("mu-associativity", detail is None, detail)

    D = dual(A)
    detail = _in_dual(_unit_law(D))
    rep.add("counit-law", detail is None, detail)

    detail = _in_dual(D.associativity_detail)
    rep.add("delta-coassociativity", detail is None, detail)

    detail = A.axiom1_detail
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
    ids = A.ids
    x = _first_unequal(_convolution(ids, A, None, S.__getitem__), eps_t, xs)
    return None if x is None else f"x_(1) S(x_(2)) != eps^lr(x) at {A.label_str(x)}"


def _axiom4_eq2_range(A, xs):
    """First x in xs with S(x_(1)) x_(2) != eps_s(x): S * id against eps_s."""
    S, eps_s = A.antipode_ids, A.eps_s_ids
    ids = A.ids
    x = _first_unequal(_convolution(ids, A, S.__getitem__, None), eps_s, xs)
    return None if x is None else f"S(x_(1)) x_(2) != 1_(1) eps(x 1_(2)) at {A.label_str(x)}"


def _axiom4_eq3_range(A, xs):
    """First x in xs with S(x_(1)) x_(2) S(x_(3)) != S(x): (S * id) * S against S.

    With x_(1) (x) x_(2) (x) x_(3) = (Delta (x) id) Delta(x), as in
    `coproduct2`, the left side is the convolution of S * id, each value
    computed once per call, with S.
    """
    S = A.antipode_ids
    ids = A.ids
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
    least differing key names the least j.  phi's images are coded per call,
    and B's mu rows are recoded into A's ids through one id per scalar of B's.
    """
    ids = A.ids
    images = [dict(_coded(phi[j], ids.scalar_id)) for j in range(A.dim)]
    b_rows = B.mu_ids
    if B.ids is not ids:
        recode = [ids.scalar_id(c) for c in B.ids.vals]
        b_rows = {x: {y: [(w, recode[c]) for w, c in terms] for y, terms in row.items()}
                  for x, row in b_rows.items()}
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
    bad = _hom_ids(A.ids, a_rows, S, by_right, xs)
    if bad is None:
        return None
    i, j = bad
    return f"S(xy) != S(y)S(x) at ({A.label_str(i)}, {A.label_str(j)})"


def verify_antipode(A, threads=None):
    """Axiom 4 (eq1-eq3), S invertibility, and the anti-homomorphism laws.

    The coalgebra anti-homomorphism law runs on the dual A* (see `dual`):
    after S(1) = 1, S*(1*) = 1* says eps S = eps, and S* must be an algebra
    anti-homomorphism of A*.  The law on A is swept on generators once mu
    is associative (see the module docstring).

    `threads` is accepted and ignored, as in `verify_weak_bialgebra`.
    """
    rep = Report(A.name, "antipode")

    detail = _sweep(A, _axiom4_eq1_range, False)
    rep.add("axiom4-eq1", detail is None, detail)

    detail = _sweep(A, _axiom4_eq2_range, False)
    rep.add("axiom4-eq2", detail is None, detail)

    detail = _sweep(A, _axiom4_eq3_range, False)
    rep.add("axiom4-eq3", detail is None, detail)

    # a column outside the pivots of a reduced echelon form is in the span of those before it
    pivots = set(_matrix(A, A.antipode_ids).pivot_columns())
    x = next((x for x in range(A.dim) if x not in pivots), None)
    detail = None if x is None else f"S(x) is in the span of the earlier images at {A.label_str(x)}"
    rep.add("antipode-invertible", detail is None, detail)

    detail = _sweep(A, _antihom_range, A.associativity_detail is None)
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


def _matrix(A, cols):
    """The value matrix of A's id-coded columns x -> {i: id}: S, eps_t, eps'_s, ..."""
    vals = A.ids.vals
    data = {(i, x): vals[v] for x, col in cols.items() for i, v in col.items()}
    return SparseMatrix(A.dim, A.dim, A.conductor, data)


def _span_test(A, basis):
    """A membership test for the span of the sparse vectors `basis`, after one
    elimination: v is in the span exactly when reducing it against the pivot
    rows of the vectors' reduced echelon form leaves zero (see the module
    docstring)."""
    data = {(r, i): c for r, vec in enumerate(basis) for i, c in vec.items()}
    ech, pivots = SparseMatrix(len(basis), A.dim, A.conductor, data).rref()

    def in_span(vec):
        rest = _prune(vec)
        for p, row in zip(pivots, ech):
            c = vec.get(p)
            if c:
                for i, v in row.items():
                    acc(rest, i, -(c * v))
        return not rest

    return in_span


def counital_matrices(A):
    """The value matrices of eps^lr = eps_t and eps^rr = eps'_s, by columns, in turn."""
    yield _matrix(A, A.eps_t_ids)
    yield _matrix(A, A.eps_s_prime_ids)


def base_algebras(A):
    """Base counital subalgebras, their interplay, and the idempotent p.

    Membership in A^l and A^r is tested against one elimination of each
    basis (`_span_test`), not one solve per vector.
    """
    rep = Report(A.name, "base-algebras")
    E_lr, E_rr = counital_matrices(A)

    rep.add("eps-lr-idempotent", E_lr.matmul(E_lr) == E_lr)
    rep.add("eps-rr-idempotent", E_rr.matmul(E_rr) == E_rr)

    basis_l = [E_lr.column(j) for j in E_lr.pivot_columns()]
    basis_r = [E_rr.column(j) for j in E_rr.pivot_columns()]

    in_l = _span_test(A, basis_l)
    in_r = _span_test(A, basis_r)

    ok = in_l(A.one()) and in_r(A.one())
    rep.add("bases-contain-unit", ok)

    detail = None
    for basis, in_span, text in ((basis_l, in_l, "A^l not closed under mu"),
                                 (basis_r, in_r, "A^r not closed under mu")):
        if any(not in_span(A.mul(u, v)) for u in basis for v in basis):
            detail = text
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
    # algebra anti-isomorphisms; eps^lr of each basis vector of A^r is taken once
    lr = [(u, A.eps_lr(u)) for u in basis_r]
    detail = None
    if any(A.eps_rr(lu) != u for u, lu in lr):
        detail = "eps^rr . eps^lr != id on A^r"
    elif any(A.eps_lr(A.eps_rr(u)) != u for u in basis_l):
        detail = "eps^lr . eps^rr != id on A^l"
    elif any(A.eps_lr(A.mul(u, v)) != A.mul(lv, lu) for u, lu in lr for v, lv in lr):
        detail = "eps^lr not an anti-homomorphism on A^r"
    rep.add("counital-maps-anti-isomorphisms", detail is None, detail)

    # separability idempotent p = (eps^lr (x) id) Delta(1), off eps_t's columns
    eps_t, vals = A.eps_t_ids, A.ids.vals
    p = {}
    for (i, j), c in A.delta_of_unit.items():
        for k, e in eps_t[i].items():
            acc(p, (k, j), c * vals[e])

    # p is in A^l (x) A^l iff it is fixed by eps^lr applied to both legs
    projected = {}
    for (i, j), c in p.items():
        for i2, e in eps_t[i].items():
            for j2, f in eps_t[j].items():
                acc(projected, (i2, j2), c * vals[e] * vals[f])
    ok = projected == p
    rep.add("p-lands-in-Al-tensor-Al", ok, None if ok else "p has a leg outside A^l")

    bad, unital, idempotent = separability_laws(A, p, basis_l)
    rep.add("p-balances-Al", bad is None,
            None if bad is None else "x p(1) (x) p(2) != p(1) (x) p(2) x on A^l")
    rep.add("p-contracts-to-unit", unital, None if unital else "p(1) p(2) != 1")
    rep.add("p-idempotent-op", idempotent,
            None if idempotent else "p not idempotent in A^l (x) (A^l)^op")

    return BaseAlgebraReport(E_lr, E_rr, basis_l, basis_r, p, rep)


def separability_laws(A, p, elems):
    """The separability laws of p = sum p(1) (x) p(2) in A (x) A.

    Returns the index in `elems` of the first x with
    x p(1) (x) p(2) != p(1) (x) p(2) x (None if there is none), whether
    p(1) p(2) = 1, and whether p is idempotent in A (x) A^op.  Every product
    is read from the rows of mu, with p's terms indexed by their first and
    by their second leg and joined through the rows' keys, as in
    `mul_tensor`: x p(1) through the row of mu of each term of x, p(2) x
    through its row by right factor, and p p through the row of each p(1).
    """
    mp, by_right, vals = A.mu_ids, A.mu_ids_by_right, A.ids.vals
    by_first, by_second = {}, {}
    for (i, j), c in p.items():
        by_first.setdefault(i, []).append((j, c))
        by_second.setdefault(j, []).append((i, c))
    bad = None
    for t, x in enumerate(elems):
        lhs = {}
        rhs = {}
        for a, ca in x.items():
            row = mp.get(a, _NO_ROW)  # e_a e_i
            for i in by_first.keys() & row.keys():
                for j, c in by_first[i]:
                    cc = ca * c
                    for k, v in row[i]:
                        acc(lhs, (k, j), cc * vals[v])
            col = by_right.get(a, _NO_ROW)  # e_j e_a
            for j in by_second.keys() & col.keys():
                for i, c in by_second[j]:
                    cc = c * ca
                    for k, v in col[j]:
                        acc(rhs, (i, k), cc * vals[v])
        if lhs != rhs:
            bad = t
            break

    contracted = {}
    for (i, j), c in p.items():
        for k, v in mp.get(i, _NO_ROW).get(j, ()):
            acc(contracted, k, c * vals[v])

    sq = {}
    for (i, j), c in p.items():
        row = mp.get(i, _NO_ROW)
        for i2 in by_first.keys() & row.keys():
            t1 = row[i2]
            for j2, c2 in by_first[i2]:
                t2 = mp.get(j2, _NO_ROW).get(j)
                if t2 is None:
                    continue
                cc = c * c2
                for k1, a in t1:
                    for k2, b in t2:
                        acc(sq, (k1, k2), cc * vals[a] * vals[b])
    return bad, contracted == A.one(), sq == p


def center_dim(A):
    """dim Z(A) = dim {z : zx = xz for all x}, via the commutator nullspace.

    Once mu is associative, Z(A) is the centraliser of the generators
    `mu_generators`: if z commutes with a and b, then
    z(ab) = (za)b = (az)b = a(zb) = a(bz) = (ab)z, and every basis element
    is reached from the generators by products.  So the commutator rows,
    keyed (x, k) for the coefficient of e_k in z e_x - e_x z, are built for
    the generators x only, read from the rows of mu by each factor.  When
    associativity failed they are built for every basis element.
    """
    xs = A.mu_generators if A.associativity_detail is None else range(A.dim)
    vals = A.ids.vals
    row_of = {}  # (x, k) -> row index, in order of first use
    data = {}
    for x in xs:
        for z, terms in A.mu_ids_by_right.get(x, _NO_ROW).items():  # z e_x
            for k, c in terms:
                acc(data, (row_of.setdefault((x, k), len(row_of)), z), vals[c])
        for z, terms in A.mu_ids.get(x, _NO_ROW).items():  # e_x z
            for k, c in terms:
                acc(data, (row_of.setdefault((x, k), len(row_of)), z), -vals[c])
    return SparseMatrix(len(row_of), A.dim, A.conductor, data).nullspace_dim()


def is_cocommutative(A):
    """Whether Delta = Delta^cop, compared on ids, which are equal exactly when their scalars are."""
    return all({(j, k): c for j, k, c in terms} == {(k, j): c for j, k, c in terms}
               for terms in A.delta_ids.values())


def dual(A):
    """The dual weak Hopf algebra A* on the basis dual to A's, with A's labels.

    mu* is Delta transposed, 1* = eps, Delta* is mu transposed, eps* is
    evaluation at 1 and S* is S transposed (Boehm-Nill-Szlachanyi 1999), so
    each coalgebra law of A is an algebra law of A*.

    A* is a reading of A (`_Dual`): it shares A's labels, label index, unit
    and counit, and A's scalar table `ids`, since A* has exactly A's
    scalars; so its sweeps reuse the products that A's kernel calls
    memoized.  Its mu rows are formed from A's Delta index, its Delta index
    (by first leg) is A's mu index by result, and its mu index by result is
    A's Delta index.  Its value tensors, Delta* among them, are formed from
    these only when read, as any algebra's are.
    A* is not cached on A: a cached A* lives as long as A, and it raised
    the benchmark's peak RSS, so each suite builds its own A* and drops it.
    """
    return _Dual(A)


class _Dual(WeakHopfAlgebra):
    """A* read off A (see `dual`): the mu* rows and S*'s columns are its only new indexes."""

    def __init__(self, A):
        self._a = A
        self.labels, self.label_index, self.dim = A.labels, A.label_index, A.dim
        self.conductor, self.name, self.meta = A.conductor, f"{A.name}*", {}
        self.ids = A.ids
        self.unit, self.counit = A.counit, A.unit
        self.mu_ids = _nested(((j, k, i), c) for i, terms in A.delta_ids.items() for j, k, c in terms)
        self.antipode_ids = cols = {i: {} for i in range(A.dim)}  # S* = S transposed
        for i, col in A.antipode_ids.items():
            for k, c in col.items():
                cols[k][i] = c

    delta_ids = functools.cached_property(lambda D: D._a.mu_ids_by_result)
    mu_ids_by_result = functools.cached_property(lambda D: D._a.delta_ids)


# ---------------------------------------------------------------------------
# quasi-triangularity
# ---------------------------------------------------------------------------


def _cop(U):
    return {(j, i): c for (i, j), c in U.items()}


def verify_quasitriangular(A, cand, threads=None):
    """The five quasi-triangular laws plus the Yang-Baxter identity.

    The intertwining law compares R Delta(x) with Delta^cop(x) R on `mul2`
    for each x, swept on generators once mu is associative and Axiom 1 holds
    (see the module docstring).

    `threads` is accepted and ignored, as in `verify_weak_bialgebra`.
    """
    rep = Report(A.name, "quasi-triangular")
    R = cand.terms
    d1 = A.delta_of_unit

    ok = A.mul2(R, d1) == R
    rep.add("r-lives-in-right-ideal", ok, None if ok else "R Delta(1) != R")

    generated = A.associativity_detail is None and A.axiom1_detail is None
    detail = _sweep(A, _intertwining_failure, generated, R)
    rep.add("r-intertwines-coproducts", detail is None, detail)

    r12r13, r23r13, r13r23, r13r12 = _r_products(A, R)
    dt, vals = A.delta_ids, A.ids.vals
    lhs = {}
    for (i, j), c in R.items():
        for a, b, c2 in dt.get(i, ()):
            acc(lhs, (a, b, j), c * vals[c2])
    ok = lhs == r13r23
    rep.add("delta-leg-one", ok, None if ok else "(Delta (x) id)(R) != R13 R23")

    lhs = {}
    for (i, j), c in R.items():
        for a, b, c2 in dt.get(j, ()):
            acc(lhs, (i, a, b), c * vals[c2])
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


def _intertwining_failure(A, xs, R):
    """First R Delta(x) != Delta^cop(x) R counterexample with x in the increasing xs."""
    one = A.one_scalar()
    for x in xs:
        dx = A.coproduct({x: one})
        if A.mul2(R, dx) != A.mul2(_cop(dx), R):
            return f"R Delta(x) != Delta^cop(x) R at x = {A.label_str(x)}"
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
    mp, vals = A.mu_ids, A.ids.vals
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
                    acc(row, k, c * ck)
        joined = {}  # (x x', rho, lambda) -> coeff
        for x1, row1 in rho_of.items():
            mu_row = mp.get(x1, _NO_ROW)
            for x2 in lam_of.keys() & mu_row.keys():
                row2 = lam_of[x2]
                for k, cm in mu_row[x2]:
                    for r, cr in row1.items():
                        cmr = vals[cm] * cr
                        for l, cl in row2.items():
                            acc(joined, (k, r, l), cmr * cl)
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
    d1 = A.delta_of_unit
    d1cop = _cop(d1)
    if cand.rbar is not None:
        rb = cand.rbar
    else:
        rb = {}
        for (i, j), c in R.items():
            for k, v in A.apply_antipode({i: c}).items():
                acc(rb, (k, j), v)
    if A.mul2(R, rb) == d1cop and A.mul2(rb, R) == d1 and A.mul2(rb, d1cop) == rb:
        return rb
    return None


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def verify_morphism(rep, prefix, phi, A, B, *, anti=False):
    """Add to `rep` the checks `<prefix>-<law>` that the linear map phi: A -> B,
    phi[i] the sparse image of A's basis element i, is an isomorphism of
    every structure that A and B both carry.

    The laws are bijective (equal dims and full rank), unital, multiplicative
    (phi(xy) = phi(x) phi(y), or phi(y) phi(x) with `anti`, on `_hom_range`
    over every x) and, only when A and B are both `WeakHopfAlgebra`s,
    counital, comultiplicative (Delta_B phi = (phi (x) phi) Delta_A) and
    antipode (phi S_A = S_B phi).  With `anti`, phi is a map from A^op, which
    has A's coalgebra and the antipode S_A^-1, so that law reads
    S_B phi S_A = phi.  Where S_B^2 = id the two forms agree, and S^2 = id on
    every algebra probed (B, A and the double over Z3 p=1 and Z4 p=1).  Each
    detail names the least counterexample by labels: a basis element of A
    (or pair), or for phi(1) != 1 a basis element of B.

    `double.build_pairing` checks its columns a -> <-, a> as such a map
    A -> B* with `anti`.  B* (`dual`) has unit eps_B, counit evaluation at
    1_B, product Delta_B transposed and coproduct mu_B transposed, so the
    four pairing laws are exactly the map's laws: <b, 1_A> = eps_B(b) is
    unital, <1_B, a> = eps_A(a) counital, <bb', a> = <b, a_(1)> <b', a_(2)>
    comultiplicative and <b, a'a> = <b_(1), a> <b_(2), a'> multiplicative
    under `anti`.  The rows b -> <b, -> multiply into A*, but the last law
    makes them comultiplicative only into (A*)^cop, A* with its coproduct's
    legs swapped.
    """
    phi = [_prune(img) for img in phi]
    # a column outside the pivots of a reduced echelon form is in the span of those before it
    pivots = set(SparseMatrix.from_columns(B.dim, phi, A.conductor).pivot_columns())
    x = next((x for x in range(A.dim) if x not in pivots), None)
    detail = None if x is None else f"phi(x) is in the span of the earlier images at {A.label_str(x)}"
    if A.dim != B.dim:
        detail = f"dim {A.dim} != dim {B.dim}"
    rep.add(f"{prefix}-bijective", detail is None, detail)

    lhs, rhs = push(phi, A.unit), _prune(B.unit)
    detail = None if lhs == rhs else f"phi(1) != 1 at {B.label_str(_first_diff(lhs, rhs))}"
    rep.add(f"{prefix}-unital", detail is None, detail)

    bad = _hom_range(phi, A, B, range(A.dim), anti)
    rhs = "phi(v)phi(u)" if anti else "phi(u)phi(v)"
    detail = None if bad is None else f"phi(uv) != {rhs} at ({A.label_str(bad[0])}, {A.label_str(bad[1])})"
    rep.add(f"{prefix}-multiplicative", detail is None, detail)
    if not (isinstance(A, WeakHopfAlgebra) and isinstance(B, WeakHopfAlgebra)):
        return

    def tensor_image(x):
        out = {}
        for (s, t), c in A.coproduct(A.basis_elem(x)).items():
            for k1, v1 in phi[s].items():
                for k2, v2 in phi[t].items():
                    acc(out, (k1, k2), c * v1 * v2)
        return out

    def antipode(x):
        s_phi = push(phi, A.apply_antipode(A.basis_elem(x)))
        return B.apply_antipode(s_phi) == phi[x] if anti else s_phi == B.apply_antipode(phi[x])

    laws = [
        ("counital", "eps(phi(x)) != eps(x)",
         lambda x: B.apply_counit(phi[x]) == A.apply_counit(A.basis_elem(x))),
        ("comultiplicative", "Delta(phi(x)) != (phi (x) phi)(Delta(x))",
         lambda x: B.coproduct(phi[x]) == tensor_image(x)),
        ("antipode", "S(phi(S(x))) != phi(x)" if anti else "phi(S(x)) != S(phi(x))", antipode),
    ]
    for name, law, holds in laws:
        x = next((x for x in range(A.dim) if not holds(x)), None)
        detail = None if x is None else f"{law} at {A.label_str(x)}"
        rep.add(f"{prefix}-{name}", detail is None, detail)


def compare_structure(A, B, index_map):
    """Entrywise equality of all structure tensors under the basis bijection
    index_map (index_map[i] = index in B of A's basis vector i): the map
    e_i -> e_index_map[i] is then a weak Hopf isomorphism (`verify_morphism`)."""
    rep = Report(f"{A.name} vs {B.name}", "compare")
    verify_morphism(rep, "map", [{j: A.one_scalar()} for j in index_map], A, B)
    return rep
