"""Dense and loop references for the weak bialgebra, antipode and
quasi-triangular suites.

The `*_dense` loops visit every basis tuple through the element product
alone, in the order the sparse kernels sweep, so they must return the same
first-counterexample detail; `unit_law_loop` is the unit law as two
element products per basis element.  The coalgebra loops (`counit_law_loop`,
`coassociativity_loop`, `axiom3_loop`, `coalgebra_antihom_loop`) are the
direct loops the suites ran before the coalgebra laws moved onto the dual
A*: they keep their own detail strings, so only their verdicts are compared.
`morphism_laws_dense` is every law of `wha.verify_morphism` swept over
every basis element and pair, with bijectivity as one rank per prefix of
the images; `assert_morphism_laws_match` compares a report's checks to it.
`hom_range_loop`, the `axiom4_eq*_loop`s and `intertwining_loop` are the
kernels that multiplied cyclotomic values term by term before the sweeps
moved onto scalar ids; their verdicts and details are compared.

`generated_indices` closes a set of basis indices under the products with
one nonzero term, pass by pass: the reference for the generator certificate
`PlainAlgebra.mu_generators`.

Every product here goes through `pairs_index`, mu as (i, j) -> [(k, c)]
built by the reference itself from `A.mu.data`, stored zeros kept, and
every coproduct term, value of eps(x s) and column of S likewise through
`delta_index`, `eps_by_right_factor` and `antipode_columns`, built from
`A.delta.data`, `A.mu.data` with `A.counit`, and `A.antipode.data`.  So no
reference reads an index of the code it checks.

`drinfeld_double_reference` is the Drinfeld double as `double` built it
before the quotient and the exchange read the sparsity of their inputs:
every relation row, zero and repeated ones included, goes through one
`SparseMatrix.rref`, every projection walks the RREF rows, and each
exchange X(a', b) sweeps every pair of Delta^2 terms.

`double_antipode_solved` and `weak_inverse_solved` are the exact linear
solves that the closed forms replaced: the Drinfeld double's antipode from
Axiom 4, and a weak inverse of R over all d^2 unknowns.
`cyclotomic_inverse_solved` is the dense rational solve that the product of
Galois conjugates replaced in `Cyclotomic.inverse`.

`eps_t_per_element`, `eps_s_per_element` and `eps_s_prime_per_element`
evaluate the counital maps on one element at a time, one pass over Delta(1)
each, as the algebra's methods did before the maps were built once by
columns.

`center_dim_dense` is the centre's dimension from the commutator rows of
every basis element, read from `A.mu.data`, as `center_dim` computed it
before it took the rows of the generators alone.  `base_algebras_solved` is
the base algebra suite as it ran before membership in A^l and A^r was
tested against one elimination of each basis: one `SparseMatrix.solve` per
vector, and the separability laws through one product per term of p and
every pair of p's terms.  It reports which base algebra fails closure first,
A^l before A^r.

`cup_cocycle` writes (-1)^(f(a) g(b) h(c)) for three homomorphisms to Z2,
a cup product of 1-cocycles: the sign pullback on S3 (`s3_sign_pullback`)
and the type II and type III cocycles on Z2^2 and Z2^3, which are no
standard cyclic cocycles.

`sweedler_h4` is Sweedler's 4-dimensional Hopf algebra, a Hopf algebra
that is not semisimple, with `h4_module` for its modules given by the
matrices of g and x.  `isomorphic_by_hom_dims` is the exact isomorphism
test by intertwiner dimensions over a semisimple algebra, the reference
for the character test of `repcat.modules_isomorphic`.

`opposite` and `coopposite` are A with reversed multiplication or
comultiplication and antipode S^-1, built from A's value tensors.

`product_assoc_table` is the F table of the product of two grouplike
skeleta, written out entry by entry as `skeleton.product_skeleton` did
before its F was read from the factors.

`comb_scalar_recursive` and `rebracket_recursive` are the bracket-tree
calculus of `tube.WordCalc` as it ran before each tree's scalar was read
from the family's table: the whole recursion on every call, one associator
inverse per leaf of each right subtree, and the word compared first.  Both
take the `WordCalc` as their first argument, so `rebracket_recursive` can
stand in for `WordCalc.rebracket`.

`sorted_by_json_text` is the sort of `jsonio`'s sparse entries as it ran
before each distinct label and scalar was encoded once: one `json.dumps`
per entry.

`b_g_omega_closed` and `a_g_omega_closed` write the structure constants of
B(G, omega) and A(G, omega) straight from the paper's closed formulas; the
builders, which run the general A(C, M) construction, must match them
entrywise.
"""

import functools
import itertools
import json
from fractions import Fraction

from whalg.double import DoubleAlgebra, copairing, solve_antipode
from whalg.exactmath import _FIELDS, Cyclotomic, SparseMatrix, SparseTensor3, acc, memoized_product, push
from whalg.groups import ThreeCocycle, symmetric_group_3
from whalg.repcat import WHAModule, intertwiner_space
from whalg.wha import RMatrixCandidate, WeakHopfAlgebra, counital_matrices


def pairs_index(A):
    """mu as (i, j) -> [(k, c)], read from `A.mu.data` with its stored zeros."""
    pairs = {}
    for (i, j, k), c in A.mu.data.items():
        pairs.setdefault((i, j), []).append((k, c))
    return pairs


def delta_index(A):
    """Delta as i -> [(j, k, c)] for every basis i, read from `A.delta.data` with its stored zeros."""
    terms = {i: [] for i in range(A.dim)}
    for (i, j, k), c in A.delta.data.items():
        terms[i].append((j, k, c))
    return terms


def eps_by_right_factor(A):
    """s -> {x: eps(x s)} for every basis s, read from `A.mu.data` and `A.counit`."""
    out = {s: {} for s in range(A.dim)}
    for (x, s, k), c in A.mu.data.items():
        e = A.counit.get(k)
        if e:
            acc(out[s], x, c * e)
    return out


def antipode_columns(A):
    """S as i -> {k: c} for every basis i, read from `A.antipode.data` with its stored zeros."""
    cols = {i: {} for i in range(A.dim)}
    for (k, i), c in A.antipode.data.items():
        cols[i][k] = c
    return cols


def _product(pairs, u, v):
    """Product of sparse elements through a `pairs_index`."""
    out = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for k, c in pairs.get((i, j), ()):
                acc(out, k, ci * cj * c)
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
                            acc(lhs, (k, k2), a * b)
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
    dt = delta_index(A)
    for x in range(A.dim):
        lhs = {}
        rhs = {}
        for j, k, c in dt[x]:
            e = A.counit.get(j)
            if e:
                acc(lhs, k, e * c)
            e = A.counit.get(k)
            if e:
                acc(rhs, j, c * e)
        if lhs != A.basis_elem(x) or rhs != A.basis_elem(x):
            return f"counit law fails at {A.label_str(x)}"
    return None


def coassociativity_loop(A):
    """(Delta (x) id) Delta(x) = (id (x) Delta) Delta(x) on every basis x."""
    dt = delta_index(A)
    for x in range(A.dim):
        lhs = {}
        rhs = {}
        for j, k, c in dt[x]:
            for a, b, c2 in dt[j]:
                acc(lhs, (a, b, k), c * c2)
            for a, b, c2 in dt[k]:
                acc(rhs, (j, a, b), c * c2)
        if lhs != rhs:
            return f"coassociativity fails at {A.label_str(x)}"
    return None


def axiom3_loop(A):
    """Delta^2(1) against both products of Delta(1) (x) 1 and 1 (x) Delta(1)."""
    d1 = A.delta_of_unit
    dt = delta_index(A)
    d2 = {}
    for (j, k), c in d1.items():
        for a, b, c2 in dt[j]:
            acc(d2, (a, b, k), c * c2)
    mp = pairs_index(A)
    lhs1 = {}
    lhs2 = {}
    for (j, k), c in d1.items():
        for (j2, k2), c2 in d1.items():
            for kk, cm in mp.get((k, j2), ()):
                acc(lhs1, (j, kk, k2), c * c2 * cm)
            for kk, cm in mp.get((j2, k), ()):
                acc(lhs2, (j, kk, k2), c2 * c * cm)
    if lhs1 != d2:
        return "(Delta(1) (x) 1)(1 (x) Delta(1)) != Delta^2(1)"
    if lhs2 != d2:
        return "(1 (x) Delta(1))(Delta(1) (x) 1) != Delta^2(1)"
    return None


def delta_s_fails(A, x):
    """Whether Delta(S(x)) != (S (x) S)(Delta^cop(x)) at the basis element x."""
    lhs = A.coproduct(A.apply_antipode(A.basis_elem(x)))
    rhs = {}
    for j, k, c in delta_index(A)[x]:
        sk = A.apply_antipode({k: c})
        sj = A.apply_antipode(A.basis_elem(j))
        for a, va in sk.items():
            for b, vb in sj.items():
                acc(rhs, (a, b), va * vb)
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
            lhs = push(phi, dict(mp.get((i, j), ())))
            rhs = b_mul(phi[j], pi) if anti else b_mul(pi, phi[j])
            if lhs != rhs:
                return i, j
    return None


def morphism_laws_dense(phi, A, B, anti=False):
    """Reference for `wha.verify_morphism`: law -> the first-counterexample
    detail of that check, or None, over every basis element and pair.

    Bijectivity scans the images in order, one rank per prefix; the unit is
    compared on every basis element of B; multiplicativity takes every pair
    (i, j), least i first, through the element products; the counit,
    coproduct and antipode laws, present when A and B are both weak Hopf
    algebras, take every x, through `delta_index` and `antipode_columns`.
    """
    n = A.conductor
    zero, one = Cyclotomic.zero(n), Cyclotomic.one(n)
    out = {}

    detail = None
    if A.dim != B.dim:
        detail = f"dim {A.dim} != dim {B.dim}"
    else:
        for k in range(1, A.dim + 1):
            if SparseMatrix.from_columns(B.dim, phi[:k], n).rank() < k:
                detail = f"phi(x) is in the span of the earlier images at {A.label_str(k - 1)}"
                break
    out["bijective"] = detail

    lhs = push(phi, {i: c for i, c in A.unit.items() if c})
    detail = None
    for k in range(B.dim):
        if lhs.get(k, zero) != B.unit.get(k, zero):
            detail = f"phi(1) != 1 at {B.label_str(k)}"
            break
    out["unital"] = detail

    a_mul, b_mul = element_product(A), element_product(B)
    detail = None
    for i, j in itertools.product(range(A.dim), repeat=2):
        left = push(phi, a_mul({i: one}, {j: one}))
        if left != (b_mul(phi[j], phi[i]) if anti else b_mul(phi[i], phi[j])):
            rhs = "phi(v)phi(u)" if anti else "phi(u)phi(v)"
            detail = f"phi(uv) != {rhs} at ({A.label_str(i)}, {A.label_str(j)})"
            break
    out["multiplicative"] = detail
    if not (isinstance(A, WeakHopfAlgebra) and isinstance(B, WeakHopfAlgebra)):
        return out

    a_delta, b_delta = delta_index(A), delta_index(B)
    a_s, b_s = antipode_columns(A), antipode_columns(B)
    image = {x: {k: c for k, c in phi[x].items() if c} for x in range(A.dim)}

    def counit(X, u):
        tot = zero
        for k, c in u.items():
            tot = tot + c * X.counit.get(k, zero)
        return tot

    def coproduct(terms, u, f):
        # (f (x) f)(Delta(u)) through the terms of Delta
        total = {}
        for i, ci in u.items():
            for j, k, c in terms[i]:
                for j2, cj in f(j).items():
                    for k2, ck in f(k).items():
                        acc(total, (j2, k2), ci * c * cj * ck)
        return total

    texts = {"counital": "eps(phi(x)) != eps(x)",
             "comultiplicative": "Delta(phi(x)) != (phi (x) phi)(Delta(x))",
             "antipode": "S(phi(S(x))) != phi(x)" if anti else "phi(S(x)) != S(phi(x))"}
    out.update(dict.fromkeys(texts))
    for x in range(A.dim):
        img, ex = image[x], {x: one}
        s_img = push(image, a_s[x])
        holds = {
            "counital": counit(B, img) == counit(A, ex),
            "comultiplicative": coproduct(b_delta, img, lambda k: {k: one}) == coproduct(a_delta, ex, image.get),
            "antipode": push(b_s, s_img) == img if anti else s_img == push(b_s, img),
        }
        for law, ok in holds.items():
            if not ok and out[law] is None:
                out[law] = f"{texts[law]} at {A.label_str(x)}"
    return out


def assert_morphism_laws_match(rep, prefix, phi, A, B, anti=False):
    """Assert that every `<prefix>-<law>` check of rep has the verdict and
    detail of `morphism_laws_dense`; returns the dense details."""
    dense = morphism_laws_dense(phi, A, B, anti)
    checks = {c.name: (c.ok, c.detail) for c in rep.checks}
    for law, detail in dense.items():
        assert checks[f"{prefix}-{law}"] == (detail is None, detail), law
    return dense


def axiom4_eq1_loop(A):
    """x_(1) S(x_(2)) = eps^lr(x) on every basis x."""
    mul = element_product(A)
    dt = delta_index(A)
    for x in range(A.dim):
        lhs = {}
        for s, t, c in dt[x]:
            st = mul({s: c}, A.apply_antipode({t: A.one_scalar()}))
            for k, v in st.items():
                acc(lhs, k, v)
        if lhs != eps_t_per_element(A, A.basis_elem(x)):
            return f"x_(1) S(x_(2)) != eps^lr(x) at {A.label_str(x)}"
    return None


def axiom4_eq2_loop(A):
    """S(x_(1)) x_(2) = 1_(1) eps(x 1_(2)) on every basis x."""
    dt, eps_left = delta_index(A), eps_by_right_factor(A)
    mul = element_product(A)
    for x in range(A.dim):
        lhs = {}
        for s, t, c in dt[x]:
            st = mul(A.apply_antipode({s: c}), {t: A.one_scalar()})
            for k, v in st.items():
                acc(lhs, k, v)
        rhs = {}
        for (p, q), c in A.delta_of_unit.items():
            val = eps_left[q].get(x)  # eps(x q)
            if val:
                acc(rhs, p, c * val)
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
                acc(lhs, k, v)
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
                        acc(out, (k1, k2), c * c2 * x1 * x2)
        return out

    for x in range(A.dim):
        dx = A.coproduct(A.basis_elem(x))
        if mul2(R, dx) != mul2({(j, i): c for (i, j), c in dx.items()}, R):
            return f"R Delta(x) != Delta^cop(x) R at x = {A.label_str(x)}"
    return None


def drinfeld_double_reference(P):
    """The double of the pairing P through the full generator matrix: one
    row per (x, b, a), and the 16 x 16 sweep of Delta^2 terms per exchange."""
    B, A = P.B, P.A
    n = B.conductor
    dB, dA = B.dim, A.dim
    flat = lambda i, j: i * dA + j

    gens = {}  # (generator, flat index) -> coefficient, one row per generator
    ngens = 0
    for E, side in zip(counital_matrices(A), "lr"):
        for x in (E.column(j) for j in E.pivot_columns()):
            pair_row = push(P.cols, x)
            xa = [A.mul(x, A.basis_elem(a)) for a in range(dA)]
            paired = []
            for (p, q), c in B.delta_of_unit.items():
                val, other = (pair_row.get(p), q) if side == "l" else (pair_row.get(q), p)
                if val:
                    paired.append((other, val * c))
            for b in range(dB):
                eb = B.basis_elem(b)
                by = {}
                for other, vc in paired:
                    for k, ck in B.mul(eb, B.basis_elem(other)).items():
                        acc(by, k, vc * ck)
                for a in range(dA):
                    for k, ck in xa[a].items():
                        acc(gens, (ngens, flat(b, k)), ck)
                    for k, ck in by.items():
                        acc(gens, (ngens, flat(k, a)), -ck)
                    ngens += 1

    ech, pivots = SparseMatrix(ngens, dB * dA, n, gens).rref()
    pivot_set = set(pivots)
    piv_row = {p: r for r, p in enumerate(pivots)}
    reps = [f for f in range(dB * dA) if f not in pivot_set]
    rep_index = {f: t for t, f in enumerate(reps)}

    def project(vec):
        out = {}
        for f, c in vec.items():
            if f in pivot_set:
                for f2, c2 in ech[piv_row[f]].items():
                    if f2 != f:
                        acc(out, rep_index[f2], -(c * c2))
            else:
                acc(out, rep_index[f], c)
        return out

    d = len(reps)
    labels = [("d", B.labels[f // dA], A.labels[f % dA]) for f in reps]
    sinvA = A.antipode.inverse()
    mu = SparseTensor3((d, d, d), n)
    delta = SparseTensor3((d, d, d), n)

    pair_sinv = [push(P.cols, sinvA.column(k)) for k in range(dA)]
    by_a, by_b = {}, {}
    for t, f in enumerate(reps):
        b, a = divmod(f, dA)
        by_a.setdefault(a, []).append((t, b))
        by_b.setdefault(b, []).append((t, a))
    d2B = {b: B.coproduct2(B.basis_elem(b)) for b in by_b}
    a_products, b_products = pairs_index(A), pairs_index(B)
    for ap, lefts in by_a.items():
        d2ap = A.coproduct2(A.basis_elem(ap))
        for b, rights in by_b.items():
            exchange = {}
            for (b1, b2, b3), cb in d2B[b].items():
                row1 = P.rows[b1]
                for (a1, a2, a3), ca in d2ap.items():
                    v1 = row1.get(a1)
                    v3 = pair_sinv[a3].get(b3)
                    if v1 is not None and v3 is not None:
                        acc(exchange, (b2, a2), cb * v1 * v3 * ca)
            for t1, bp in lefts:
                for t2, a in rights:
                    out = {}
                    for (b2, a2), x in exchange.items():
                        for kb, ckb in b_products.get((bp, b2), ()):
                            for ka, cka in a_products.get((a2, a), ()):
                                acc(out, flat(kb, ka), x * ckb * cka)
                    for k, v in project(out).items():
                        mu.add_to(t1, t2, k, v)

    unit = project({flat(i, j): ci * cj for i, ci in B.unit.items() for j, cj in A.unit.items()})

    for t, f in enumerate(reps):
        b, a = divmod(f, dA)
        out = {}
        for (b1, b2), cb in B.coproduct(B.basis_elem(b)).items():
            for (a1, a2), ca in A.coproduct(A.basis_elem(a)).items():
                left = project({flat(b1, a1): cb * ca})
                right = project({flat(b2, a2): Cyclotomic.one(n)})
                for k1, v1 in left.items():
                    for k2, v2 in right.items():
                        acc(out, (k1, k2), v1 * v2)
        for (k1, k2), v in out.items():
            delta.add_to(t, k1, k2, v)

    counit = {}
    for t, f in enumerate(reps):
        b, a = divmod(f, dA)
        val = P.pair({b: Cyclotomic.one(n)}, A.eps_rr(A.basis_elem(a)))
        if val:
            counit[t] = val

    D = WeakHopfAlgebra(labels, n, mu, unit, delta, counit, solve_antipode(P, project, reps, mu),
                        name=f"D[{A.name}]")
    theta, _ = copairing(P)
    r_terms = {}
    for (ai, bi), c in theta.items():
        left = project({flat(i, ai): ci for i, ci in B.unit.items()})
        right = project({flat(bi, j): cj for j, cj in A.unit.items()})
        for k1, v1 in left.items():
            for k2, v2 in right.items():
                acc(r_terms, (k1, k2), c * v1 * v2)
    return DoubleAlgebra(D, RMatrixCandidate(r_terms), project, reps, P)


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
        acc(row, col, coeff)

    mp = pairs_index(D)
    right_of, left_of = {}, {}  # s -> sorted l with (s, l) in mp; t -> sorted l with (l, t)
    for s, t in sorted(mp):
        right_of.setdefault(s, []).append(t)
        left_of.setdefault(t, []).append(s)
    dt = delta_index(D)
    # eq1: sum_{(s,t)} mu(s, S(t)) = eps^lr(x)
    for x in range(d):
        target = eps_t_per_element(D, D.basis_elem(x))
        for s, t, c in dt[x]:
            for l in right_of.get(s, ()):
                for k, cm in mp[(s, l)]:
                    add(("1", x, k), unknown(l, t), c * cm)
        for k, v in target.items():
            rhs[("1", x, k)] = v
            rows.setdefault(("1", x, k), {})
    # eq2: sum_{(s,t)} mu(S(s), t) = 1_(1) eps(x 1_(2))
    for x in range(d):
        target = {}
        for (p, q), c in D.delta_of_unit.items():
            val = D.apply_counit(_product(mp, D.basis_elem(x), {q: c}))
            if val:
                acc(target, p, val)
        for s, t, c in dt[x]:
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
    d1 = A.delta_of_unit
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
                        acc(rows.setdefault((law, k1, k2), {}), col, c * x1 * x2)

    times(R, 0, True)
    times(R, 1, False)
    times(d1cop, 2, False)
    for col, (i, j) in enumerate(unknowns):
        acc(rows.setdefault((2, i, j), {}), col, -A.one_scalar())
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
    eps_u = push(eps_by_right_factor(A), u)  # x -> eps(x u)
    out = {}
    for (p, q), c in A.delta_of_unit.items():
        val = eps_u.get(p)
        if val:
            acc(out, q, c * val)
    return out


def eps_s_per_element(A, u):
    """eps_s(u) = 1_(1) eps(u 1_(2))."""
    eps_left = eps_by_right_factor(A)
    out = {}
    for (p, q), c in A.delta_of_unit.items():
        val = sum((cu * e for x, cu in u.items() if (e := eps_left[q].get(x))),
                  A.zero_scalar())  # eps(u q)
        if val:
            acc(out, p, c * val)
    return out


def eps_s_prime_per_element(A, u):
    """eps'_s(u) = 1_(1) eps(1_(2) u)."""
    eps_u = push(eps_by_right_factor(A), u)  # x -> eps(x u)
    out = {}
    for (p, q), c in A.delta_of_unit.items():
        val = eps_u.get(q)
        if val:
            acc(out, p, c * val)
    return out


def center_dim_dense(A, xs=None):
    """dim of {z : z e_x = e_x z for every x in xs (default: every basis
    element)}, the nullspace of the commutator rows (x, k) read from `A.mu.data`."""
    xs = set(range(A.dim) if xs is None else xs)
    row_of = {}
    data = {}
    for (i, j, k), c in A.mu.data.items():
        if j in xs:  # z = e_i, e_x = e_j: z e_x
            acc(data, (row_of.setdefault((j, k), len(row_of)), i), c)
        if i in xs:  # e_x = e_i, z = e_j: e_x z
            acc(data, (row_of.setdefault((i, k), len(row_of)), j), -c)
    return SparseMatrix(len(row_of), A.dim, A.conductor, data).nullspace_dim()


def _counital_columns(A):
    """eps_t and eps'_s by columns, x -> {k: c}, from `eps_by_right_factor`
    and Delta(1) summed from `delta_index` over the unit's terms."""
    d1 = {}
    dt = delta_index(A)
    for u, cu in A.unit.items():
        for j, k, c in dt[u]:
            acc(d1, (j, k), cu * c)
    eps_t = {x: {} for x in range(A.dim)}
    eps_s_prime = {x: {} for x in range(A.dim)}
    for x, col in eps_by_right_factor(A).items():  # col: p -> eps(p x)
        for (p, q), c in d1.items():
            e = col.get(p)
            if e:
                acc(eps_t[x], q, c * e)  # eps(1_(1) x) 1_(2)
            e = col.get(q)
            if e:
                acc(eps_s_prime[x], p, c * e)  # 1_(1) eps(1_(2) x)
    return eps_t, eps_s_prime, d1


def base_algebras_solved(A):
    """The checks of `base_algebras` as (name, ok, detail) triples, then dim A^l and dim A^r."""
    mul = element_product(A)
    n, d = A.conductor, A.dim
    eps_t, eps_s_prime, d1 = _counital_columns(A)
    eps_lr = functools.partial(push, eps_t)
    eps_rr = functools.partial(push, eps_s_prime)
    E_lr, E_rr = (SparseMatrix(d, d, n, {(i, x): c for x, col in cols.items() for i, c in col.items()})
                  for cols in (eps_t, eps_s_prime))
    checks = [("eps-lr-idempotent", E_lr.matmul(E_lr) == E_lr, None),
              ("eps-rr-idempotent", E_rr.matmul(E_rr) == E_rr, None)]
    basis_l = [E_lr.column(j) for j in E_lr.pivot_columns()]
    basis_r = [E_rr.column(j) for j in E_rr.pivot_columns()]
    span_l = SparseMatrix.from_columns(d, basis_l, n)
    span_r = SparseMatrix.from_columns(d, basis_r, n)

    def in_span(span, vec):
        return span.solve(vec) is not None

    one = A.one()
    checks.append(("bases-contain-unit", in_span(span_l, one) and in_span(span_r, one), None))

    detail = None
    for basis, span, side in ((basis_l, span_l, "A^l"), (basis_r, span_r, "A^r")):
        if any(not in_span(span, mul(u, v)) for u in basis for v in basis):
            detail = f"{side} not closed under mu"
            break
    checks.append(("bases-closed-under-mu", detail is None, detail))

    detail = None
    if any(mul(u, v) != mul(v, u) for u in basis_l for v in basis_r):
        detail = "A^l and A^r do not commute"
    checks.append(("bases-mutually-commute", detail is None, detail))

    detail = None
    if any(eps_rr(eps_lr(u)) != u for u in basis_r):
        detail = "eps^rr . eps^lr != id on A^r"
    elif any(eps_lr(eps_rr(u)) != u for u in basis_l):
        detail = "eps^lr . eps^rr != id on A^l"
    elif any(eps_lr(mul(u, v)) != mul(eps_lr(v), eps_lr(u)) for u in basis_r for v in basis_r):
        detail = "eps^lr not an anti-homomorphism on A^r"
    checks.append(("counital-maps-anti-isomorphisms", detail is None, detail))

    p = {}
    for (i, j), c in d1.items():
        for k, v in eps_lr({i: c}).items():
            acc(p, (k, j), v)
    projected = {}
    for (i, j), c in p.items():
        for i2, v in eps_lr({i: c}).items():
            for j2, w in eps_lr({j: v}).items():
                acc(projected, (i2, j2), w)
    ok = projected == p
    checks.append(("p-lands-in-Al-tensor-Al", ok, None if ok else "p has a leg outside A^l"))

    balanced = True
    for x in basis_l:
        lhs, rhs = {}, {}
        for (i, j), c in p.items():
            for k, v in mul(x, {i: c}).items():
                acc(lhs, (k, j), v)
            for k, v in mul({j: c}, x).items():
                acc(rhs, (i, k), v)
        if lhs != rhs:
            balanced = False
            break
    checks.append(("p-balances-Al", balanced,
                   None if balanced else "x p(1) (x) p(2) != p(1) (x) p(2) x on A^l"))

    contracted = {}
    for (i, j), c in p.items():
        for k, v in mul({i: c}, A.basis_elem(j)).items():
            acc(contracted, k, v)
    unital = contracted == one
    checks.append(("p-contracts-to-unit", unital, None if unital else "p(1) p(2) != 1"))

    sq = {}  # p p in A (x) A^op, over every pair of p's terms
    for (i, j), c in p.items():
        for (i2, j2), c2 in p.items():
            for k1, a in mul({i: c}, {i2: c2}).items():
                for k2, b in mul(A.basis_elem(j2), A.basis_elem(j)).items():
                    acc(sq, (k1, k2), a * b)
    idempotent = sq == p
    checks.append(("p-idempotent-op", idempotent,
                   None if idempotent else "p not idempotent in A^l (x) (A^l)^op"))
    return checks, len(basis_l), len(basis_r)


def cup_cocycle(G, f, g, h, name="cup"):
    """(-1)^(f(a) g(b) h(c)) on G, for f, g, h: G -> Z2 = {0, 1} homomorphisms."""
    one = Cyclotomic.one(2)
    vals = {(a, b, c): -one if f(a) * g(b) * h(c) else one
            for a, b, c in itertools.product(range(G.order), repeat=3)}
    return ThreeCocycle(G, vals, 2, name=name)


def s3_sign_pullback():
    """S3 with the Z2 cocycle (-1)^(abc) pulled back along the sign."""
    G = symmetric_group_3()
    perms = sorted(itertools.permutations(range(3)))  # symmetric_group_3's element order
    sign = lambda g: sum(a > b for a, b in itertools.combinations(perms[g], 2)) % 2
    return G, cup_cocycle(G, sign, sign, sign, name="sign pullback")


def sweedler_h4():
    """Sweedler's Hopf algebra H4 over Q, basis g^a x^b at index a + 2b (1, g, x, gx).

    g^2 = 1, x^2 = 0, xg = -gx, Delta(x) = x (x) 1 + g (x) x, eps(x) = 0,
    S(x) = -gx.  Its radical is spanned by x and gx, so it is not semisimple.
    """
    one = Cyclotomic.one(1)
    sign = lambda k: one if k % 2 == 0 else -one
    mu = SparseTensor3((4, 4, 4), 1)
    delta = SparseTensor3((4, 4, 4), 1)
    antipode = SparseMatrix(4, 4, 1)
    for a, b, c, d in itertools.product(range(2), repeat=4):
        if b + d < 2:  # (g^a x^b)(g^c x^d) = (-1)^(bc) g^(a+c) x^(b+d)
            mu.add_to(a + 2 * b, c + 2 * d, (a + c) % 2 + 2 * (b + d), sign(b * c))
    for a in range(2):
        delta.add_to(a, a, a, one)
        delta.add_to(a + 2, a + 2, a, one)  # g^a x (x) g^a
        delta.add_to(a + 2, 1 - a, a + 2, one)  # g^(a+1) (x) g^a x
        antipode.add_to(a, a, one)
        antipode.add_to(3 - a, a + 2, sign(a + 1))  # S(g^a x) = -(-1)^a g^(a+1) x
    return WeakHopfAlgebra(["1", "g", "x", "gx"], 1, mu, {0: one}, delta, {0: one, 1: one},
                           antipode, name="H4")


def h4_module(H, g, x, name):
    """The H4-module with g and x acting by the integer matrices g and x (lists of rows)."""
    d = len(g)
    mat = lambda m: {(r, c): Cyclotomic.rational(1, v)
                     for r, row in enumerate(m) for c, v in enumerate(row) if v}
    rho = [SparseMatrix.identity(d, 1), SparseMatrix(d, d, 1, mat(g)), SparseMatrix(d, d, 1, mat(x))]
    rho.append(rho[1].matmul(rho[2]))
    act = SparseTensor3((4, d, d), 1)
    for i, m in enumerate(rho):
        for (r, c), v in m.data.items():
            act.add_to(i, r, c, v)
    return WHAModule(H, d, act, name=name)


def regular_module_by_products(A):
    """The regular module of A read off one `mul` per basis pair (dim^2 products)."""
    act = {(i, k, j): c for i in range(A.dim) for j in range(A.dim)
           for k, c in A.mul(A.basis_elem(i), A.basis_elem(j)).items()}
    return WHAModule(A, A.dim, SparseTensor3((A.dim, A.dim, A.dim), A.conductor, act),
                     name=f"{A.name}-regular")


def isomorphic_by_hom_dims(V, W):
    """V = W over a semisimple algebra iff dim End V + dim End W = 2 dim Hom(V, W).

    With V = sum m_i S_i and W = sum n_i S_i, the difference is
    sum d_i (m_i - n_i)^2 for d_i = dim End S_i > 0, over the base field with
    no splitting; every dimension is an exact `intertwiner_space`.
    """
    dim = lambda X, Y: intertwiner_space(X, Y)[0]
    return dim(V, V) + dim(W, W) == 2 * dim(V, W)


def opposite(A):
    """Reversed multiplication with antipode S^-1."""
    mu = SparseTensor3((A.dim, A.dim, A.dim), A.conductor,
                       {(j, i, k): c for (i, j, k), c in A.mu.data.items()})
    return WeakHopfAlgebra(A.labels, A.conductor, mu, A.unit, A.delta, A.counit,
                           A.antipode.inverse(), name=A.name + "^op", meta=dict(A.meta))


def coopposite(A):
    """Reversed comultiplication with antipode S^-1."""
    delta = SparseTensor3((A.dim, A.dim, A.dim), A.conductor,
                          {(i, k, j): c for (i, j, k), c in A.delta.data.items()})
    return WeakHopfAlgebra(A.labels, A.conductor, A.mu, A.unit, delta, A.counit,
                           A.antipode.inverse(), name=A.name + "^cop", meta=dict(A.meta))


def product_assoc_table(C1, C2):
    """F of C1 x C2 as a dict over every pair of component triples:
    F((a1,a2),(b1,b2),(c1,c2);(d1,d2)) = F1(a1,b1,c1;d1) F2(a2,b2,c2;d2)."""
    def entries(C):
        return [((a, b, c, C.fuse(C.fuse(a, b), c)), C.assoc(a, b, c))
                for a, b, c in itertools.product(C.labels, repeat=3)]

    F = {}
    entries2 = entries(C2)
    product = memoized_product()
    for (a1, b1, c1, d1), f1 in entries(C1):
        for (a2, b2, c2, d2), f2 in entries2:
            F[((a1, a2), (b1, b2), (c1, c2), (d1, d2))] = product(f1, f2)
    return F


def _leafs(t):
    if isinstance(t, tuple) and len(t) == 2 and t[0] == "*":
        l, r = t[1]
        return _leafs(l) + _leafs(r)
    return (t,)


def _merge_recursive(C, one, x, r_word):
    """Scalar of LC([x]) (x) LC(r_word) -> LC([x] + r_word)."""
    if len(r_word) == 1:
        return one
    head = r_word[:-1]
    return C.assoc(x, C.fuse_all(head), r_word[-1]).inverse() * _merge_recursive(C, one, x, head)


def comb_scalar_recursive(wc, t):
    """Scalar of the coherence iso t -> left comb of its word."""
    if not (isinstance(t, tuple) and len(t) == 2 and t[0] == "*"):
        return wc.one
    l, r = t[1]
    s = comb_scalar_recursive(wc, l) * comb_scalar_recursive(wc, r)
    return s * _merge_recursive(wc.C, wc.one, wc.C.fuse_all(_leafs(l)), _leafs(r))


def rebracket_recursive(wc, src, dst):
    """Scalar of the canonical iso src -> dst (same underlying word)."""
    if _leafs(src) != _leafs(dst):
        raise ValueError("rebracket between different words")
    return comb_scalar_recursive(wc, src) / comb_scalar_recursive(wc, dst)


def sorted_by_json_text(entries):
    """Entries (lists of JSON values) in the order of their canonical JSON text."""
    return sorted(entries, key=lambda e: json.dumps(e, sort_keys=True))
