"""Concrete weak Hopf algebra constructors.

One builder writes the structure constants of the weak Hopf algebra A(C, M)
of a grouplike skeletal category C and a C-module M.  The pointed family runs
it on skeletal data: B(G, omega), the |G|^3 algebra of a group with
3-cocycle, on the right-regular module, and A(G, omega), its |G|^4
quasi-triangular two-sided variant, on G as a C (x) C^rev-module.  The
paper's closed formulas for both live on only as test references, which the
builders must match entrywise.  Groupoid algebras and the double of a
separable Frobenius algebra round out the catalog.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactmath import Cyclotomic, SparseMatrix, SparseTensor3, memoized_product
from .groups import GroupReport, validate_cocycle
from .skeleton import (
    SkeletonError,
    boxtimes_rev_skeleton,
    dual_data_pointed,
    right_regular_module,
)
from .wha import (
    PlainAlgebra,
    RMatrixCandidate,
    WeakHopfAlgebra,
    _acc,
    _separability_laws,
)


def _new_tensors(d, n):
    return SparseTensor3((d, d, d), n), SparseTensor3((d, d, d), n)


def _check_cocycle(G, omega):
    rep = validate_cocycle(G, omega)
    if not rep.ok:
        raise ValueError(f"invalid cocycle: {rep.first_failure}")


def build_b_g_omega(G, omega):
    """The |G|^3-dimensional weak Hopf algebra of (G, omega).

    A(C, M) for the right-regular module of `right_regular_module`, on the
    basis f_{a|y|x} = ("f", a, y, x): the product of f_{a'|y'|x'} with
    f_{a|y|x} requires y' = ya, x' = xa and lands on f_{aa'|y|x} with
    coefficient omega(y,a,a')/omega(x,a,a').
    """
    _check_cocycle(G, omega)
    C, M = right_regular_module(G, omega)
    return _build_a_m_c(
        C, M, lambda a, y, x: ("f", a, y, x),
        name=f"B({G.name},{omega.name})",
        meta={"builder": "b-g-omega", "group": G.name, "cocycle": omega.name},
    )


def build_a_g_omega(G, omega):
    """The |G|^4-dimensional algebra of (G, omega) plus its R-matrix.

    A(C, M) for the two-sided module of `boxtimes_rev_skeleton`, on the basis
    e_{a|b|y|x} = ("e", a, b, y, x), and
    R = sum_{a,b,z} omega(a,z,b)^-1 e_{1|b|az|z} (x) e_{a|1|z|zb}.
    """
    _check_cocycle(G, omega)
    C, M = boxtimes_rev_skeleton(G, omega)
    A = _build_a_m_c(
        C, M, lambda ab, y, x: ("e", *ab, y, x),
        name=f"A({G.name},{omega.name})",
        meta={"builder": "a-g-omega", "group": G.name, "cocycle": omega.name},
    )
    index = A.label_index
    mul = G.mul
    e_id = G.identity
    terms = {}
    for a, b, z in itertools.product(G.elements(), repeat=3):
        i = index[("e", e_id, b, mul(a, z), z)]
        j = index[("e", a, e_id, z, mul(z, b))]
        terms[(i, j)] = omega(a, z, b).inverse()
    return A, RMatrixCandidate(terms)


def build_a_m_c(C, M):
    """General multiplicity-free builder from skeletal module data.

    Requires grouplike skeletal data (one-dimensional composite hom spaces);
    the antipode reads the dual data of C (`dual_data_pointed`).
    """
    return _build_a_m_c(
        C, M, lambda a, y, x: (a, y, x),
        name=f"A[{M.name} over {C.name}]",
        meta={"builder": "a-m-c", "category": C.name, "module": M.name},
    )


def _build_a_m_c(C, M, label, name, meta):
    """A(C, M) on the basis label(a, y, x), a in C and y, x in M, in that order.

    The only place the structure constants of A(C, M) are written:
        f_{b|ay|ax} f_{a|y|x} = L(b,a,x)/L(b,a,y) f_{ba|y|x},
        Delta(f_{a|y|x}) = sum_z f_{a|y|z} (x) f_{a|z|x},  eps(f_{a|y|x}) = delta_{y,x},
        S(f_{a|y|x}) = coev(a') L(a',a,x) L(a,a',ay)^-1 ev(a') f_{a'|ax|ay},
    where a' is the right dual of a and L the module associator of M.
    """
    if not C.ring.is_grouplike():
        raise SkeletonError("builder requires grouplike (multiplicity-free, "
                            "one-path) fusion data")
    dual = dual_data_pointed(C)
    n = C.conductor
    labels, objects = C.labels, M.objects
    triples = list(itertools.product(labels, objects, objects))
    index = {t: i for i, t in enumerate(triples)}
    act = M.act
    massoc = M.massoc
    fuse = {(b, a): C.fuse(b, a) for b in labels for a in labels}
    # each L(b,a,y) is the denominator of |M| coefficients, one per x
    den = {(b, a, y): massoc(b, a, y).inverse() for b in labels for a in labels for y in objects}
    product = memoized_product()
    one = Cyclotomic.one(n)

    # the entries are generated as the algebra stores them (`from_entries`);
    # the data is grouplike, so each product e_i e_j has one term
    def mu():
        for right, (a, y, x) in enumerate(triples):
            ay, ax = act(a, y), act(a, x)
            for b in labels:
                yield ((index[(b, ay, ax)], right, index[(fuse[b, a], y, x)]),
                       product(massoc(b, a, x), den[b, a, y]))

    def antipode():
        for i, (a, y, x) in enumerate(triples):
            ar, ay = dual.right_dual(a), act(a, y)
            yield ((index[(ar, act(a, x), ay)], i),
                   dual.coev[ar] * massoc(ar, a, x) * den[a, ar, ay] * dual.ev[ar])

    return WeakHopfAlgebra.from_entries(
        [label(*t) for t in triples], n,
        mu(),
        ((index[(C.unit, y, x)], one) for y in objects for x in objects),
        (((i, index[(a, y, z)], index[(a, z, x)]), one)
         for i, (a, y, x) in enumerate(triples) for z in objects),
        ((index[(a, y, y)], one) for a in labels for y in objects),
        antipode(),
        name=name, meta=meta,
    )


# ---------------------------------------------------------------------------
# groupoid algebras
# ---------------------------------------------------------------------------


class Groupoid:
    """Finite groupoid: explicit morphism list with a composition table.

    morphisms: list of names; src/tgt: name -> object; comp[(h, g)] = h . g
    defined exactly when src(h) = tgt(g).
    """

    def __init__(self, objects, morphisms, src, tgt, comp):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.comp = dict(comp)
        rep = self.validate()
        if not rep.ok:
            raise ValueError(f"not a groupoid: {rep.first_failure}")

    def validate(self):
        ms = self.morphisms
        comp = self.comp
        for (h, g), k in comp.items():
            if self.src[h] != self.tgt[g]:
                return GroupReport(False, f"composite {h} . {g} not composable")
            if self.src[k] != self.src[g] or self.tgt[k] != self.tgt[h]:
                return GroupReport(False, f"composite {h} . {g} has wrong endpoints")
        for h in ms:
            for g in ms:
                defined = (h, g) in comp
                if defined != (self.src[h] == self.tgt[g]):
                    return GroupReport(False, f"composability mismatch at ({h}, {g})")
        for f in ms:
            for g in ms:
                for h in ms:
                    if (g, f) in comp and (h, g) in comp:
                        if comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)]:
                            return GroupReport(False, f"associativity fails at ({h},{g},{f})")
        self.identity = {}
        for a in self.objects:
            for e in ms:
                if self.src[e] == self.tgt[e] == a:
                    if all(comp[(e, g)] == g for g in ms if self.tgt[g] == a) and all(
                        comp[(g, e)] == g for g in ms if self.src[g] == a
                    ):
                        self.identity[a] = e
                        break
            if a not in self.identity:
                return GroupReport(False, f"object {a} has no identity morphism")
        self.inverse = {}
        for g in ms:
            for h in ms:
                if (
                    (h, g) in comp
                    and (g, h) in comp
                    and comp[(h, g)] == self.identity[self.src[g]]
                    and comp[(g, h)] == self.identity[self.tgt[g]]
                ):
                    self.inverse[g] = h
                    break
            if g not in self.inverse:
                return GroupReport(False, f"morphism {g} is not invertible")
        return GroupReport(True)


def indiscrete_groupoid(n_objects):
    """One morphism between every ordered pair of objects."""
    objects = list(range(n_objects))
    morphisms = [(b, a) for b in objects for a in objects]  # (target, source)
    src = {m: m[1] for m in morphisms}
    tgt = {m: m[0] for m in morphisms}
    comp = {}
    for h in morphisms:
        for g in morphisms:
            if h[1] == g[0]:
                comp[(h, g)] = (h[0], g[1])
    return Groupoid(objects, morphisms, src, tgt, comp)


def group_as_groupoid(G):
    objects = ["*"]
    morphisms = list(G.elements())
    src = {m: "*" for m in morphisms}
    tgt = {m: "*" for m in morphisms}
    comp = {(h, g): G.mul(h, g) for h in morphisms for g in morphisms}
    return Groupoid(objects, morphisms, src, tgt, comp)


def build_groupoid_algebra(gpd, conductor=1):
    """Groupoid algebra with Delta(g) = g (x) g, eps = 1, S(g) = g^-1."""
    labels = list(gpd.morphisms)
    index = {m: i for i, m in enumerate(labels)}
    d = len(labels)
    n = conductor
    one = Cyclotomic.one(n)
    mu, delta = _new_tensors(d, n)
    for (h, g), k in gpd.comp.items():
        mu.add_to(index[h], index[g], index[k], one)
    unit = {index[gpd.identity[a]]: one for a in gpd.objects}
    for m in labels:
        i = index[m]
        delta.add_to(i, i, i, one)
    counit = {i: one for i in range(d)}
    antipode = SparseMatrix(d, d, n)
    for m in labels:
        antipode.add_to(index[gpd.inverse[m]], index[m], one)
    return WeakHopfAlgebra(
        labels, n, mu, unit, delta, counit, antipode,
        name="k[groupoid]",
        meta={"builder": "groupoid"},
    )


# ---------------------------------------------------------------------------
# separable Frobenius algebras and their doubles
# ---------------------------------------------------------------------------


class SeparableFrobenius(PlainAlgebra):
    """Algebra with a bimodule-map comultiplication s splitting mu."""

    def __init__(self, labels, conductor, mu, unit, s_terms, delta, name="B"):
        super().__init__(labels, conductor, mu, unit, name)
        self.s_terms = s_terms        # i -> list of (j, k, coeff)
        self.delta = delta            # sparse covector

    def s_of(self, u):
        out = {}
        for i, ci in u.items():
            for j, k, c in self.s_terms.get(i, ()):
                _acc(out, (j, k), ci * c)
        return out

    def delta_of(self, u):
        tot = Cyclotomic.zero(self.conductor)
        for i, ci in u.items():
            e = self.delta.get(i)
            if e:
                tot = tot + ci * e
        return tot

    def p(self):
        return self.s_of(self.unit)

    def validate(self):
        from .report import Report

        rep = Report(self.name, "separable-frobenius")
        one = Cyclotomic.one(self.conductor)
        d = self.dim

        # s(xy) = s(x) y = x s(y) on every basis pair, least (x, y) first
        detail = None
        for x, y in itertools.product(range(d), repeat=2):
            ex, ey = {x: one}, {y: one}
            s_xy = self.s_of(self.mul(ex, ey))
            s_x_y, x_s_y = {}, {}
            for (a, b), c in self.s_of(ex).items():
                for k, v in self.mul({b: c}, ey).items():
                    _acc(s_x_y, (a, k), v)
            for (a, b), c in self.s_of(ey).items():
                for k, v in self.mul(ex, {a: c}).items():
                    _acc(x_s_y, (k, b), v)
            if s_x_y != s_xy or x_s_y != s_xy:
                detail = f"s is not a bimodule map at ({x}, {y})"
                break
        rep.add("s-bimodule-map", detail is None, detail)

        detail = None
        for x in range(d):
            ms = {}
            for (a, b), c in self.s_of({x: one}).items():
                for k, v in self.mul({a: c}, {b: one}).items():
                    _acc(ms, k, v)
            if ms != {x: one}:
                detail = f"m . s != id at basis {x}"
                break
        rep.add("s-splits-mu", detail is None, detail)

        bad, unital, idempotent = _separability_laws(self, self.p(), [{x: one} for x in range(d)])
        detail = None if bad is None else f"x p(1) (x) p(2) != p(1) (x) p(2) x at basis {bad}"
        rep.add("p-balances", detail is None, detail)
        rep.add("p-contracts-to-unit", unital)
        rep.add("p-idempotent-op", idempotent)
        return rep


def standard_frobenius(kind, nsize, conductor=1):
    """The diagonal algebra k^n or the matrix algebra M_n with canonical data."""
    n = conductor
    one = Cyclotomic.one(n)
    if kind == "diagonal":
        d = nsize
        mu = SparseTensor3((d, d, d), n)
        for i in range(d):
            mu.add_to(i, i, i, one)
        unit = {i: one for i in range(d)}
        s_terms = {i: [(i, i, one)] for i in range(d)}
        delta = {i: one for i in range(d)}
        return SeparableFrobenius(range(d), n, mu, unit, s_terms, delta,
                                  name=f"k^{nsize}")
    if kind == "matrix":
        m = nsize
        d = m * m
        idx = lambda i, j: i * m + j
        mu = SparseTensor3((d, d, d), n)
        for i, j, k, l in itertools.product(range(m), repeat=4):
            if j == k:
                mu.add_to(idx(i, j), idx(k, l), idx(i, l), one)
        unit = {idx(i, i): one for i in range(m)}
        inv_m = Cyclotomic.rational(n, Fraction(1, m))
        s_terms = {}
        for k, l in itertools.product(range(m), repeat=2):
            # s(E_kl) = (1/m) sum_j E_kj (x) E_jl
            s_terms[idx(k, l)] = [(idx(k, j), idx(j, l), inv_m) for j in range(m)]
        delta = {idx(i, i): Cyclotomic.rational(n, m) for i in range(m)}
        return SeparableFrobenius(range(d), n, mu, unit, s_terms, delta,
                                  name=f"M_{m}")
    raise ValueError("kind must be 'diagonal' or 'matrix'")


def build_frobenius_double(B):
    """Weak Hopf algebra on B (x) B^op from a separable Frobenius B."""
    rep = B.validate()
    if not rep.ok:
        raise ValueError(f"invalid separable Frobenius input: {rep.first_failure.detail}")
    n = B.conductor
    db = B.dim
    labels = [("t", i, j) for i in range(db) for j in range(db)]
    index = {lab: k for k, lab in enumerate(labels)}
    d = len(labels)
    one = Cyclotomic.one(n)
    mu, delta = _new_tensors(d, n)

    e = [B.basis_elem(i) for i in range(db)]
    for (i1, j1) in itertools.product(range(db), repeat=2):
        for (i2, j2) in itertools.product(range(db), repeat=2):
            left = index[("t", i1, j1)]
            right = index[("t", i2, j2)]
            for k1, c1 in B.mul(e[i1], e[i2]).items():
                for k2, c2 in B.mul(e[j2], e[j1]).items():
                    mu.add_to(left, right, index[("t", k1, k2)], c1 * c2)

    unit = {}
    for i, ci in B.unit.items():
        for j, cj in B.unit.items():
            unit[index[("t", i, j)]] = ci * cj

    p = B.p()
    for (i, j) in itertools.product(range(db), repeat=2):
        x = index[("t", i, j)]
        for (p1, p2), c in p.items():
            delta.add_to(x, index[("t", i, p1)], index[("t", p2, j)], c)

    counit = {}
    for (i, j) in itertools.product(range(db), repeat=2):
        val = B.delta_of(B.mul({i: one}, {j: one}))
        if val:
            counit[index[("t", i, j)]] = val

    # tau(a) = delta(a p(2)) p(1), the Nakayama automorphism of B
    tau = {}
    for i in range(db):
        img = {}
        for (p1, p2), c in p.items():
            val = B.delta_of(B.mul({i: one}, {p2: c}))
            if val:
                _acc(img, p1, val)
        tau[i] = img

    antipode = SparseMatrix(d, d, n)
    for (i, j) in itertools.product(range(db), repeat=2):
        x = index[("t", i, j)]
        for k, v in tau[i].items():
            antipode.add_to(index[("t", j, k)], x, v)

    return WeakHopfAlgebra(
        labels, n, mu, unit, delta, counit, antipode,
        name=f"{B.name} (x) {B.name}^op",
        meta={"builder": "frobenius-double", "base": B.name},
    )
