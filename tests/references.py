"""Dense and loop references for the weak bialgebra, antipode and
quasi-triangular suites.

The `*_dense` loops visit every basis tuple through the element product
alone, in the order the sparse kernels sweep, so they must return the same
first-counterexample detail; `unit_law_loop` is the unit law as two
element products per basis element.  The coalgebra loops (`counit_law_loop`,
`coassociativity_loop`, `axiom3_loop`, `coalgebra_antihom_loop`) are the
direct loops the suites ran before the coalgebra laws moved onto the dual
A*: they keep their own detail strings, so only their verdicts are compared.
`hom_range_loop`, the `axiom4_eq*_loop`s and `intertwining_loop` are the
kernels that multiplied cyclotomic values term by term before the sweeps
moved onto scalar ids; their verdicts and details are compared.

`generated_indices` closes a set of basis indices under the products with
one nonzero term, pass by pass: the reference for the generator certificate
`PlainAlgebra.mu_generators`.

Every product here goes through `pairs_index`, mu as (i, j) -> [(k, c)]
built by the reference itself from `A.mu.data`, stored zeros kept, so no
reference reads an index of the code it checks.

`double_antipode_solved` and `weak_inverse_solved` are the exact linear
solves that the closed forms replaced: the Drinfeld double's antipode from
Axiom 4, and a weak inverse of R over all d^2 unknowns.
`cyclotomic_inverse_solved` is the dense rational solve that the product of
Galois conjugates replaced in `Cyclotomic.inverse`.

`eps_t_per_element`, `eps_s_per_element` and `eps_s_prime_per_element`
evaluate the counital maps on one element at a time, one pass over Delta(1)
each, as the algebra's methods did before the maps were built once by
columns.

`b_g_omega_closed` and `a_g_omega_closed` write the structure constants of
B(G, omega) and A(G, omega) straight from the paper's closed formulas; the
builders, which run the general A(C, M) construction, must match them
entrywise.
"""

import functools
import itertools
from fractions import Fraction

from whalg.exactmath import _FIELDS, Cyclotomic, SparseMatrix, SparseTensor3
from whalg.wha import RMatrixCandidate, WeakHopfAlgebra, _acc, _push


def pairs_index(A):
    """mu as (i, j) -> [(k, c)], read from `A.mu.data` with its stored zeros."""
    pairs = {}
    for (i, j, k), c in A.mu.data.items():
        pairs.setdefault((i, j), []).append((k, c))
    return pairs


def _product(pairs, u, v):
    """Product of sparse elements through a `pairs_index`."""
    out = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for k, c in pairs.get((i, j), ()):
                _acc(out, k, ci * cj * c)
    return out


def element_product(A):
    """u, v -> u v in A, through a fresh `pairs_index` of A."""
    return functools.partial(_product, pairs_index(A))


def _basis_products(A):
    mul = element_product(A)
    e = [A.basis_elem(i) for i in range(A.dim)]
    return mul, e, [[mul(e[i], e[j]) for j in range(A.dim)] for i in range(A.dim)]


def assoc_dense(A):
    """Reference for associativity: (e_i e_j) e_z = e_i (e_j e_z) on every triple."""
    mul, e, prod = _basis_products(A)
    for i in range(A.dim):
        for j in range(A.dim):
            for z in range(A.dim):
                if mul(prod[i][j], e[z]) != mul(e[i], prod[j][z]):
                    return (
                        f"mu not associative at ({A.label_str(i)}, {A.label_str(j)}, "
                        f"{A.label_str(z)})"
                    )
    return None


def unit_law_loop(A):
    """1 e_x = e_x = e_x 1 on every basis x, two element products each."""
    mul = element_product(A)
    one = A.one()
    for x in range(A.dim):
        ex = A.basis_elem(x)
        if mul(one, ex) != ex or mul(ex, one) != ex:
            return f"unit law fails at {A.label_str(x)}"
    return None


def generated_indices(A, gens):
    """The basis indices that products reach from gens, by passes to a fixpoint.

    Each pass tries every pair of reached indices; a product e_i e_j with
    exactly one nonzero term c e_k reaches e_k = c^-1 e_i e_j.
    """
    singles = []
    for (i, j), terms in pairs_index(A).items():
        nonzero = [k for k, c in terms if c]
        if len(nonzero) == 1:
            singles.append((i, j, nonzero[0]))
    reached = set(gens)
    size = None
    while size != len(reached):
        size = len(reached)
        reached.update([k for i, j, k in singles if i in reached and j in reached])
    return reached


def axiom1_dense(A):
    """Reference for Axiom 1: Delta(x) Delta(y) = Delta(xy) on every basis pair.

    Each coproduct is grouped by its first leg, Delta(x) = sum_s e_s (x) X_s,
    so Delta(x) Delta(y) = sum_(s, t) e_s e_t (x) X_s Y_t takes one element
    product X_s Y_t per pair of first legs; the coproducts and the basis
    products are computed once per sweep.
    """
    mul, e, prod = _basis_products(A)
    legs = []
    for y in range(A.dim):
        by_first = {}
        for (s, s2), c in A.coproduct(e[y]).items():
            by_first.setdefault(s, {})[s2] = c
        legs.append(by_first)
    for x in range(A.dim):
        for y in range(A.dim):
            lhs = {}
            for s, xs in legs[x].items():
                for t, yt in legs[y].items():
                    st = prod[s][t]
                    if not st:
                        continue
                    second = mul(xs, yt)
                    for k, a in st.items():
                        for k2, b in second.items():
                            _acc(lhs, (k, k2), a * b)
            if lhs != A.coproduct(prod[x][y]):
                return (
                    f"Delta(x)Delta(y) != Delta(xy) at (x, y) = "
                    f"({A.label_str(x)}, {A.label_str(y)})"
                )
    return None


def axiom2_dense(A):
    """Reference for Axiom 2 on every (x, y, z), swept per y: first equality, then second.

    With E[a][b] = eps(e_a e_b), the sides are sum_(y) E[x][y_(1)] E[y_(2)][z]
    (or with y_(1) and y_(2) swapped) and eps(x (y z)) = sum_k (yz)_k E[x][k].
    For each y both sides fill a full d x d table of (x, z), compared entry
    by entry.
    """
    d = A.dim
    _mul, e, prod = _basis_products(A)
    E = [[A.apply_counit(prod[a][b]) for b in range(d)] for a in range(d)]
    cols = [[(x, E[x][s]) for x in range(d) if E[x][s]] for s in range(d)]
    rows = [[(z, v) for z, v in enumerate(E[t]) if v] for t in range(d)]
    zero = A.zero_scalar()
    laws = (("eps(x y_(1)) eps(y_(2) z)", False), ("eps(x y_(2)) eps(y_(1) z)", True))
    for y in range(d):
        target = [[zero] * d for _ in range(d)]
        for z in range(d):
            for k, c in prod[y][z].items():
                for x, a in cols[k]:
                    target[x][z] = target[x][z] + c * a
        for text, swap in laws:
            lhs = [[zero] * d for _ in range(d)]
            for (s, t), c in A.coproduct(e[y]).items():
                if swap:
                    s, t = t, s
                for x, a in cols[s]:
                    ca = c * a
                    row = lhs[x]
                    for z, b in rows[t]:
                        row[z] = row[z] + ca * b
            for x in range(d):
                for z in range(d):
                    if lhs[x][z] != target[x][z]:
                        return (
                            f"{text} != eps(xyz) at "
                            f"({A.label_str(x)}, {A.label_str(y)}, {A.label_str(z)})"
                        )
    return None


def counit_law_loop(A):
    """(eps (x) id) Delta(x) = x = (id (x) eps) Delta(x) on every basis x."""
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
            return f"counit law fails at {A.label_str(x)}"
    return None


def coassociativity_loop(A):
    """(Delta (x) id) Delta(x) = (id (x) Delta) Delta(x) on every basis x."""
    for x in range(A.dim):
        lhs = {}
        rhs = {}
        for j, k, c in A.delta_terms[x]:
            for a, b, c2 in A.delta_terms[j]:
                _acc(lhs, (a, b, k), c * c2)
            for a, b, c2 in A.delta_terms[k]:
                _acc(rhs, (j, a, b), c * c2)
        if lhs != rhs:
            return f"coassociativity fails at {A.label_str(x)}"
    return None


def axiom3_loop(A):
    """Delta^2(1) against both products of Delta(1) (x) 1 and 1 (x) Delta(1)."""
    d1 = A.delta_of_unit()
    d2 = {}
    for (j, k), c in d1.items():
        for a, b, c2 in A.delta_terms[j]:
            _acc(d2, (a, b, k), c * c2)
    mp = pairs_index(A)
    lhs1 = {}
    lhs2 = {}
    for (j, k), c in d1.items():
        for (j2, k2), c2 in d1.items():
            for kk, cm in mp.get((k, j2), ()):
                _acc(lhs1, (j, kk, k2), c * c2 * cm)
            for kk, cm in mp.get((j2, k), ()):
                _acc(lhs2, (j, kk, k2), c2 * c * cm)
    if lhs1 != d2:
        return "(Delta(1) (x) 1)(1 (x) Delta(1)) != Delta^2(1)"
    if lhs2 != d2:
        return "(1 (x) Delta(1))(Delta(1) (x) 1) != Delta^2(1)"
    return None


def delta_s_fails(A, x):
    """Whether Delta(S(x)) != (S (x) S)(Delta^cop(x)) at the basis element x."""
    lhs = A.coproduct(A.apply_antipode(A.basis_elem(x)))
    rhs = {}
    for j, k, c in A.delta_terms[x]:
        sk = A.apply_antipode({k: c})
        sj = A.apply_antipode(A.basis_elem(j))
        for a, va in sk.items():
            for b, vb in sj.items():
                _acc(rhs, (a, b), va * vb)
    return lhs != rhs


def coalgebra_antihom_loop(A):
    """S(1) = 1, then per basis x: Delta(S(x)) = (S (x) S)(Delta^cop(x)) and eps(S(x)) = eps(x)."""
    if A.apply_antipode(A.one()) != A.one():
        return "S(1) != 1"
    for x in range(A.dim):
        if delta_s_fails(A, x):
            return f"Delta(S(x)) != (S (x) S)(Delta^cop(x)) at {A.label_str(x)}"
        if A.apply_counit(A.apply_antipode(A.basis_elem(x))) != A.apply_counit(A.basis_elem(x)):
            return f"eps(S(x)) != eps(x) at {A.label_str(x)}"
    return None


def hom_range_loop(phi, A, B, lo, hi, anti=False):
    """Least (i, j), i in [lo, hi), with phi(e_i e_j) != phi(e_i) phi(e_j).

    With `anti` the right side is phi(e_j) phi(e_i).  For each i the
    candidate j (A's right companions of i, and each j whose image meets B's
    companions of supp phi(e_i)) are tried in order, one element product per
    pair.
    """
    mp = pairs_index(A)
    b_mul = element_product(B)
    rc, partners = {}, {}
    for i, j in mp:
        rc.setdefault(i, []).append(j)
    for x, y in pairs_index(B):
        if anti:
            x, y = y, x
        partners.setdefault(x, []).append(y)
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
            rhs = b_mul(phi[j], pi) if anti else b_mul(pi, phi[j])
            if lhs != rhs:
                return i, j
    return None


def axiom4_eq1_loop(A):
    """x_(1) S(x_(2)) = eps^lr(x) on every basis x."""
    mul = element_product(A)
    for x in range(A.dim):
        lhs = {}
        for s, t, c in A.delta_terms[x]:
            st = mul({s: c}, A.apply_antipode({t: A.one_scalar()}))
            for k, v in st.items():
                _acc(lhs, k, v)
        if lhs != eps_t_per_element(A, A.basis_elem(x)):
            return f"x_(1) S(x_(2)) != eps^lr(x) at {A.label_str(x)}"
    return None


def axiom4_eq2_loop(A):
    """S(x_(1)) x_(2) = 1_(1) eps(x 1_(2)) on every basis x."""
    eps_left = A.eps_left
    mul = element_product(A)
    for x in range(A.dim):
        lhs = {}
        for s, t, c in A.delta_terms[x]:
            st = mul(A.apply_antipode({s: c}), {t: A.one_scalar()})
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


def axiom4_eq3_loop(A):
    """S(x_(1)) x_(2) S(x_(3)) = S(x) on every basis x."""
    mul = element_product(A)
    for x in range(A.dim):
        lhs = {}
        for (s, t, u), c in A.coproduct2(A.basis_elem(x)).items():
            term = mul(
                mul(A.apply_antipode({s: c}), {t: A.one_scalar()}),
                A.apply_antipode({u: A.one_scalar()}),
            )
            for k, v in term.items():
                _acc(lhs, k, v)
        if lhs != A.apply_antipode(A.basis_elem(x)):
            return f"S(x_(1)) x_(2) S(x_(3)) != S(x) at {A.label_str(x)}"
    return None


def intertwining_loop(A, R):
    """R Delta(x) = Delta^cop(x) R on every basis x, two products in A (x) A each."""
    mp = pairs_index(A)

    def mul2(U, V):
        out = {}
        for (a, b), c in U.items():
            for (a2, b2), c2 in V.items():
                for k1, x1 in mp.get((a, a2), ()):
                    for k2, x2 in mp.get((b, b2), ()):
                        _acc(out, (k1, k2), c * c2 * x1 * x2)
        return out

    for x in range(A.dim):
        dx = A.coproduct(A.basis_elem(x))
        if mul2(R, dx) != mul2({(j, i): c for (i, j), c in dx.items()}, R):
            return f"R Delta(x) != Delta^cop(x) R at x = {A.label_str(x)}"
    return None


def double_antipode_solved(D):
    """The antipode of D solved from Axiom 4 as an exact linear system, or None.

    The unknowns are the d^2 entries S[k, q] (the coefficient of e_k in
    S(e_q)); the rows are the first two identities, and the solution must
    pass the third.  D's own antipode is not read.
    """
    n = D.conductor
    d = D.dim
    unknown = lambda k, q: k * d + q
    rows = {}
    rhs = {}

    def add(key, col, coeff):
        row = rows.setdefault(key, {})
        _acc(row, col, coeff)

    mp = pairs_index(D)
    right_of, left_of = {}, {}  # s -> sorted l with (s, l) in mp; t -> sorted l with (l, t)
    for s, t in sorted(mp):
        right_of.setdefault(s, []).append(t)
        left_of.setdefault(t, []).append(s)
    # eq1: sum_{(s,t)} mu(s, S(t)) = eps^lr(x)
    for x in range(d):
        target = eps_t_per_element(D, D.basis_elem(x))
        for s, t, c in D.delta_terms[x]:
            for l in right_of.get(s, ()):
                for k, cm in mp[(s, l)]:
                    add(("1", x, k), unknown(l, t), c * cm)
        for k, v in target.items():
            rhs[("1", x, k)] = v
            rows.setdefault(("1", x, k), {})
    # eq2: sum_{(s,t)} mu(S(s), t) = 1_(1) eps(x 1_(2))
    for x in range(d):
        target = {}
        for (p, q), c in D.delta_of_unit().items():
            val = D.apply_counit(_product(mp, D.basis_elem(x), {q: c}))
            if val:
                _acc(target, p, val)
        for s, t, c in D.delta_terms[x]:
            for l in left_of.get(t, ()):
                for k, cm in mp[(l, t)]:
                    add(("2", x, k), unknown(l, s), c * cm)
        for k, v in target.items():
            rhs[("2", x, k)] = v
            rows.setdefault(("2", x, k), {})

    keys = sorted(rows)
    mat = SparseMatrix(len(keys), d * d, n)
    bvec = {}
    for rnum, key in enumerate(keys):
        for col, c in rows[key].items():
            mat.add_to(rnum, col, c)
        v = rhs.get(key)
        if v:
            bvec[rnum] = v
    sol = mat.solve(bvec)
    if sol is None:
        return None
    smat = SparseMatrix(d, d, n)
    for col, c in sol.items():
        k, q = divmod(col, d)
        smat.set(k, q, c)
    candidate = WeakHopfAlgebra(D.labels, n, D.mu, D.unit, D.delta, D.counit, smat,
                                name=D.name, meta=D.meta)
    return None if axiom4_eq3_loop(candidate) is not None else smat


def weak_inverse_solved(A, R):
    """One Rbar with R Rbar = Delta^cop(1), Rbar R = Delta(1) and
    Rbar Delta^cop(1) = Rbar, solved exactly over all d^2 unknowns, or None.

    Every product (a (x) b)(e_i (x) e_j) is read from the basis products.
    """
    d, n = A.dim, A.conductor
    d1 = A.delta_of_unit()
    d1cop = {(j, i): c for (i, j), c in d1.items()}
    _mul, _e, prod = _basis_products(A)
    unknowns = [(i, j) for i in range(d) for j in range(d)]
    rows = {}  # (law, k1, k2) -> {unknown: coeff}

    def times(known, law, known_left):
        for col, (i, j) in enumerate(unknowns):
            for (a, b), c in known.items():
                p1, p2 = (prod[a][i], prod[b][j]) if known_left else (prod[i][a], prod[j][b])
                for k1, x1 in p1.items():
                    for k2, x2 in p2.items():
                        _acc(rows.setdefault((law, k1, k2), {}), col, c * x1 * x2)

    times(R, 0, True)
    times(R, 1, False)
    times(d1cop, 2, False)
    for col, (i, j) in enumerate(unknowns):
        _acc(rows.setdefault((2, i, j), {}), col, -A.one_scalar())
    rhs = {(0, *k): v for k, v in d1cop.items()}
    rhs.update({(1, *k): v for k, v in d1.items()})
    keys = sorted(set(rows) | set(rhs))
    mat = SparseMatrix(len(keys), len(unknowns), n)
    bvec = {}
    for rnum, key in enumerate(keys):
        for col, c in rows.get(key, {}).items():
            mat.add_to(rnum, col, c)
        if key in rhs:
            bvec[rnum] = rhs[key]
    sol = mat.solve(bvec)
    return None if sol is None else {unknowns[col]: c for col, c in sol.items() if c}


def b_g_omega_closed(G, omega):
    """B(G, omega) from its closed form, on the basis ("f", a, y, x).

    The product of f_{a'|y'|x'} with f_{a|y|x} requires y' = ya, x' = xa and
    lands on f_{aa'|y|x} with coefficient omega(y,a,a')/omega(x,a,a').
    """
    n = omega.conductor
    els = list(G.elements())
    labels = [("f", a, y, x) for a, y, x in itertools.product(els, repeat=3)]
    index = {lab: i for i, lab in enumerate(labels)}
    d = len(labels)
    mu, delta = SparseTensor3((d, d, d), n), SparseTensor3((d, d, d), n)
    mul = G.mul

    for a, y, x in itertools.product(els, repeat=3):
        right = index[("f", a, y, x)]
        ya, xa = mul(y, a), mul(x, a)
        for ap in els:
            left = index[("f", ap, ya, xa)]
            out = index[("f", mul(a, ap), y, x)]
            mu.add_to(left, right, out, omega(y, a, ap) / omega(x, a, ap))

    one = Cyclotomic.one(n)
    unit = {index[("f", G.identity, y, x)]: one for y in els for x in els}

    for a, y, x in itertools.product(els, repeat=3):
        i = index[("f", a, y, x)]
        for z in els:
            delta.add_to(i, index[("f", a, y, z)], index[("f", a, z, x)], one)

    counit = {index[("f", a, y, y)]: one for a in els for y in els}

    antipode = SparseMatrix(d, d, n)
    for a, y, x in itertools.product(els, repeat=3):
        ai = G.inv(a)
        coeff = omega(y, a, ai) / omega(x, a, ai)
        antipode.add_to(index[("f", ai, mul(x, a), mul(y, a))], index[("f", a, y, x)], coeff)

    return WeakHopfAlgebra(labels, n, mu, unit, delta, counit, antipode,
                           name=f"B({G.name},{omega.name}) closed form")


def a_g_omega_closed(G, omega):
    """A(G, omega) and its R-matrix from the closed three-ratio forms.

    Basis ("e", a, b, y, x); R = sum_{a,b,z} omega(a,z,b)^-1
    e_{1|b|az|z} (x) e_{a|1|z|zb}.
    """
    n = omega.conductor
    els = list(G.elements())
    labels = [("e", a, b, y, x) for a, b, y, x in itertools.product(els, repeat=4)]
    index = {lab: i for i, lab in enumerate(labels)}
    d = len(labels)
    mu, delta = SparseTensor3((d, d, d), n), SparseTensor3((d, d, d), n)
    mul = G.mul
    e_id = G.identity

    for a, b, y, x in itertools.product(els, repeat=4):
        right = index[("e", a, b, y, x)]
        ay, ax = mul(a, y), mul(a, x)
        ayb, axb = mul(ay, b), mul(ax, b)
        for ap, bp in itertools.product(els, repeat=2):
            left = index[("e", ap, bp, ayb, axb)]
            out = index[("e", mul(ap, a), mul(b, bp), y, x)]
            coeff = (
                (omega(ap, a, x) / omega(ap, a, y))
                * (omega(ap, ax, b) / omega(ap, ay, b))
                * (omega(mul(ap, ay), b, bp) / omega(mul(ap, ax), b, bp))
            )
            mu.add_to(left, right, out, coeff)

    one = Cyclotomic.one(n)
    unit = {index[("e", e_id, e_id, y, x)]: one for y in els for x in els}

    for a, b, y, x in itertools.product(els, repeat=4):
        i = index[("e", a, b, y, x)]
        for z in els:
            delta.add_to(i, index[("e", a, b, y, z)], index[("e", a, b, z, x)], one)

    counit = {index[("e", a, b, y, y)]: one for a, b, y in itertools.product(els, repeat=3)}

    antipode = SparseMatrix(d, d, n)
    for a, b, y, x in itertools.product(els, repeat=4):
        ai, bi = G.inv(a), G.inv(b)
        ayb = G.prod((a, y, b))
        axb = G.prod((a, x, b))
        coeff = (
            (omega(y, b, bi) / omega(x, b, bi))
            * (omega(a, y, b) / omega(a, x, b))
            * (omega(a, ai, axb) / omega(a, ai, ayb))
        )
        antipode.add_to(index[("e", ai, bi, axb, ayb)], index[("e", a, b, y, x)], coeff)

    A = WeakHopfAlgebra(labels, n, mu, unit, delta, counit, antipode,
                        name=f"A({G.name},{omega.name}) closed form")
    terms = {}
    for a, b, z in itertools.product(els, repeat=3):
        i = index[("e", e_id, b, mul(a, z), z)]
        j = index[("e", a, e_id, z, mul(z, b))]
        terms[(i, j)] = omega(a, z, b).inverse()
    return A, RMatrixCandidate(terms)


def cyclotomic_inverse_solved(x):
    """1/x for an irrational x, from the dense rational system x y = 1 in the
    power-basis coordinates y of 1/x, by Gauss-Jordan elimination."""
    n = x.n
    f = _FIELDS[n]
    deg = f.degree
    num = Cyclotomic(n, x.v, 1)
    cols = [(num * Cyclotomic(n, f.powtab[j], 1)).v for j in range(deg)]
    m = [[Fraction(cols[j][i]) for j in range(deg)] + [Fraction(int(i == 0))] for i in range(deg)]
    for col in range(deg):
        r = next(i for i in range(col, deg) if m[i][col])
        m[col], m[r] = m[r], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for i in range(deg):
            c = m[i][col]
            if i != col and c:
                m[i] = [a - c * b for a, b in zip(m[i], m[col])]
    # 1/(num/d) = d y
    return Cyclotomic.from_pairs(n, ((j, m[j][deg] * x.d) for j in range(deg)))


def eps_t_per_element(A, u):
    """eps_t(u) = eps(1_(1) u) 1_(2)."""
    eps_u = _push(A.eps_left, u)  # x -> eps(x u)
    out = {}
    for (p, q), c in A.delta_of_unit().items():
        val = eps_u.get(p)
        if val:
            _acc(out, q, c * val)
    return out


def eps_s_per_element(A, u):
    """eps_s(u) = 1_(1) eps(u 1_(2))."""
    out = {}
    for (p, q), c in A.delta_of_unit().items():
        val = sum((cu * e for x, cu in u.items() if (e := A.eps_left[q].get(x))),
                  A.zero_scalar())  # eps(u q)
        if val:
            _acc(out, p, c * val)
    return out


def eps_s_prime_per_element(A, u):
    """eps'_s(u) = 1_(1) eps(1_(2) u)."""
    eps_u = _push(A.eps_left, u)  # x -> eps(x u)
    out = {}
    for (p, q), c in A.delta_of_unit().items():
        val = eps_u.get(q)
        if val:
            _acc(out, p, c * val)
    return out
