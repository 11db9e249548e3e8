"""Dense references for the weak bialgebra and antipode suites.

The `*_dense` loops visit every basis tuple through the element product
alone, in the order the sparse kernels sweep, so they must return the same
first-counterexample detail.  The `*_loop` functions are the direct coalgebra
loops the suites ran before the coalgebra laws moved onto the dual A*: they
keep their own detail strings, so only their verdicts are compared.
"""

from whalg.wha import _acc


def _basis_products(A):
    e = [A.basis_elem(i) for i in range(A.dim)]
    return e, [[A.mul(e[i], e[j]) for j in range(A.dim)] for i in range(A.dim)]


def assoc_dense(A):
    """Reference for associativity: (e_i e_j) e_z = e_i (e_j e_z) on every triple."""
    e, prod = _basis_products(A)
    for i in range(A.dim):
        for j in range(A.dim):
            for z in range(A.dim):
                if A.mul(prod[i][j], e[z]) != A.mul(e[i], prod[j][z]):
                    return (
                        f"mu not associative at ({A.label_str(i)}, {A.label_str(j)}, "
                        f"{A.label_str(z)})"
                    )
    return None


def axiom1_dense(A):
    """Reference for Axiom 1: Delta(x) Delta(y) = Delta(xy) on every basis pair."""
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


def axiom2_dense(A):
    """Reference for Axiom 2 on every (x, y, z), swept per y: first equality, then second.

    With E[a][b] = eps(e_a e_b), the sides are sum_(y) E[x][y_(1)] E[y_(2)][z]
    (or with y_(1) and y_(2) swapped) and eps(x (y z)) = sum_k (yz)_k E[x][k].
    For each y both sides fill a full d x d table of (x, z), compared entry
    by entry.
    """
    d = A.dim
    e, prod = _basis_products(A)
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
    lhs1 = {}
    lhs2 = {}
    for (j, k), c in d1.items():
        for (j2, k2), c2 in d1.items():
            for kk, cm in A.mu_pairs.get((k, j2), ()):
                _acc(lhs1, (j, kk, k2), c * c2 * cm)
            for kk, cm in A.mu_pairs.get((j2, k), ()):
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
