"""The pairing between the one-sided |G|^3 algebras, the induced Drinfeld
double presentation, and the identification with the |G|^4 algebra.

Everything here is pointed: the two one-sided algebras are built with the
general skeletal builder, the pairing is the closed delta-and-associator
form, the double is an exact quotient whose antipode is the closed form
S[b (x) a] = [1 (x) S_A a][S_B b (x) 1], and the identification map carries
its R-matrix to the closed-form one.

The pairing laws are the laws of a weak Hopf map, checked by
`wha.verify_morphism`: the columns of the pairing matrix anti-map A into the
dual B* (`wha.dual`: Delta_B transposed, unit eps_B).  The double's product
on representatives is

    [b' (x) a'][b (x) a] = b' X(a', b) a,
    X(a', b) = <b_(1), a'_(1)> <b_(3), S^-1 a'_(3)> b_(2) (x) a'_(2),

with each exchange X(a', b) computed once.  The exchange is a join on the
pairing's support: Delta^2(a')'s terms are grouped by their first leg, and
each term b_(1) (x) b_(2) (x) b_(3) of Delta^2(b) meets only the terms whose
a'_(1) is in the support of the row <b_(1), ->.

The double is B (x) A modulo the ideal that the relations of A^l and A^r
generate, one row per x of their bases and per flat basis vector b (x) a.
Only the distinct nonzero relation rows are eliminated, since the RREF of a
row space does not depend on which spanning rows it is given.  Each flat
basis vector is then projected once onto the quotient's coordinates, and
every later projection reads that table.
"""

from __future__ import annotations

from .exactmath import Cyclotomic, SparseMatrix, SparseTensor3
from .report import Report
from .builders import build_a_m_c
from .skeleton import (
    pointed_to_group_cocycle,
    regular_module,
    right_regular_module,
)
from .wha import (
    PlainAlgebra,
    RMatrixCandidate,
    WeakHopfAlgebra,
    _acc,
    _push,
    counital_matrices,
    dual,
    verify_morphism,
)


def _decode3(lab):
    """(a, y, x) from a general-builder or closed-form one-sided label."""
    if isinstance(lab, tuple) and len(lab) == 4 and lab[0] == "f":
        return lab[1], lab[2], lab[3]
    return lab


class PairingForm:
    def __init__(self, B, A, matrix, report):
        self.B = B  # the left-regular-side algebra
        self.A = A  # the right-regular-side algebra
        self.matrix = matrix  # (i, j) -> <b_i, a_j>
        self.report = report
        self.rows = matrix.row_dicts()  # b_i -> the functional <b_i, -> on A
        self.cols = matrix.transpose().row_dicts()  # a_j -> the functional <-, a_j> on B

    def pair(self, b_vec, a_vec):
        f = _push(self.rows, b_vec)
        tot = Cyclotomic.zero(self.B.conductor)
        for j, cj in a_vec.items():
            v = f.get(j)
            if v is not None:
                tot = tot + cj * v
        return tot


def build_pairing(C, B=None, A=None):
    """The closed-form pairing matrix, with all four laws verified.

    B and A default to the general builder on the left-regular and
    right-regular module data of the pointed skeleton C.  The pairing laws
    say that the columns a -> <-, a> are a unital, counital, comultiplicative
    algebra anti-map A -> B*; `wha.verify_morphism` checks them as one, with
    nondegeneracy as bijectivity and <S_B b, S_A a> = <b, a> as its antipode law.
    """
    G, omega = pointed_to_group_cocycle(C)
    if B is None:
        B = build_a_m_c(C, regular_module(C))
    if A is None:
        Crev, M = right_regular_module(G, omega)
        A = build_a_m_c(Crev, M)
    n = C.conductor
    rep = Report(f"pairing[{C.name}]", "pairing")

    mat = SparseMatrix(B.dim, A.dim, n)
    for i, lab_b in enumerate(B.labels):
        a1, y1, x1 = _decode3(lab_b)
        # the unique partner: a2 = y1^-1 x1, y2 = a1 y1, x2 = y1
        a2 = G.mul(G.inv(y1), x1)
        y2 = G.mul(a1, y1)
        x2 = y1
        j = A.label_index.get((a2, y2, x2))
        if j is None:
            j = A.label_index[("f", a2, y2, x2)]
        mat.set(i, j, omega(a1, y1, a2))

    P = PairingForm(B, A, mat, rep)
    verify_morphism(rep, "pairing", P.cols, A, dual(B), anti=True)
    return P


def copairing(P):
    """Theta = sum_t a (x) b with the inverse matrix relation, snake-checked."""
    # With M[k, i] = <b_k, a_i>, Theta = sum_{i,j} X[i, j] a_i (x) b_j needs
    # M X = I, i.e. X = M^-1.
    X = P.matrix.inverse()
    terms = {(i, j): v for (i, j), v in X.data.items()}
    rep = Report(f"copairing[{P.B.name}]", "copairing")

    # snake 1: sum <b_k, a_i> X[i, j] b_j = b_k
    M = P.matrix
    prod = M.matmul(X)
    ok = prod == SparseMatrix.identity(P.B.dim, P.B.conductor)
    rep.add("snake-on-B", ok)
    prod = X.matmul(M)
    ok = prod == SparseMatrix.identity(P.A.dim, P.A.conductor)
    rep.add("snake-on-A", ok)
    return terms, rep


class DoubleAlgebra:
    def __init__(self, algebra, r_candidate, projection, reps, pairing):
        self.algebra = algebra
        self.r = r_candidate
        self.projection = projection  # flat (i,j) vector -> quotient coords
        self.reps = reps              # quotient coordinate -> flat (i,j)
        self.pairing = pairing


def _relation_rows(P, x, side):
    """The ideal's rows for one x of A^l (side "l") or A^r (side "r").

    One row per (b, a), in flat coordinates: b (x) x a minus the B leg
    sum <1_(1), x> b 1_(2) (x) a (side l) or sum <1_(2), x> b 1_(1) (x) a
    (side r), summed over Delta(1) of B.  Rows that cancel come out empty.
    """
    B, A = P.B, P.A
    dA = A.dim
    pair_row = _push(P.cols, x)  # b -> <b, x>
    xa = [A.mul(x, A.basis_elem(a)) for a in range(dA)]
    # the B leg is the same for every a
    paired = []
    for (p, q), c in B.delta_of_unit.items():
        val, other = (pair_row.get(p), q) if side == "l" else (pair_row.get(q), p)
        if val:
            paired.append((other, val * c))
    for b in range(B.dim):
        eb = B.basis_elem(b)
        by = {}
        for other, vc in paired:
            for k, ck in B.mul(eb, B.basis_elem(other)).items():
                _acc(by, k, vc * ck)
        b_leg = [(k * dA, -ck) for k, ck in by.items()]
        for a in range(dA):
            row = {b * dA + k: ck for k, ck in xa[a].items()}
            for f, ck in b_leg:
                _acc(row, f + a, ck)
            yield row


def _projection_table(P):
    """(reps, table): the flat indices kept as the quotient's basis, and for
    every flat index f the image of e_f as a list of (coordinate, coefficient).

    The ideal is spanned by the relation rows of every x in the bases of A^l
    and A^r (the pivot columns of the matrices of eps^lr and eps^rr).  Only
    the distinct nonzero rows are eliminated: the RREF of a row space does not
    depend on which spanning rows it is given.  A flat index is a pivot of the
    RREF or a representative; a pivot's image is minus the rest of its row.
    """
    A = P.A
    n = A.conductor
    ncols = P.B.dim * A.dim
    distinct = {}  # the entries of a nonzero row -> that row, first seen first
    for E, side in zip(counital_matrices(A), "lr"):
        for j in E.pivot_columns():
            for row in _relation_rows(P, E.column(j), side):
                if row:
                    distinct.setdefault(frozenset(row.items()), row)
    gens = SparseMatrix(len(distinct), ncols, n, {
        (r, f): c for r, row in enumerate(distinct.values()) for f, c in row.items()
    })
    del distinct  # its keys hold every row a second time: free them before the elimination
    ech, pivots = gens.rref()
    piv_row = dict(zip(pivots, ech))
    reps = [f for f in range(ncols) if f not in piv_row]
    rep_index = {f: t for t, f in enumerate(reps)}
    one = Cyclotomic.one(n)
    table = []
    for f in range(ncols):
        row = piv_row.get(f)
        if row is None:
            table.append([(rep_index[f], one)])
        else:
            table.append([(rep_index[f2], -c2) for f2, c2 in row.items() if f2 != f])
    return reps, table


def build_drinfeld_double(P):
    """Quotient presentation of the double with its closed-form antipode and R."""
    B, A = P.B, P.A
    n = B.conductor
    dA = A.dim
    flat = lambda i, j: i * dA + j

    reps, table = _projection_table(P)

    def project(vec):
        out = {}
        for f, c in vec.items():
            for t, v in table[f]:
                _acc(out, t, c * v)
        return out

    d = len(reps)
    labels = [("d", B.labels[f // dA], A.labels[f % dA]) for f in reps]
    sinvA = A.antipode.inverse()

    mu = SparseTensor3((d, d, d), n)
    delta = SparseTensor3((d, d, d), n)

    # [b' (x) a'][b (x) a] = b' X(a', b) a (see the module docstring): each
    # exchange X(a', b) is computed once, then multiplied out for every
    # representative with that a' on the left and that b on the right
    pair_sinv = [_push(P.cols, sinvA.column(k)) for k in range(dA)]  # a -> <-, S^-1 a>
    by_a, by_b = {}, {}
    for t, f in enumerate(reps):
        b, a = divmod(f, dA)
        by_a.setdefault(a, []).append((t, b))
        by_b.setdefault(b, []).append((t, a))
    d2B = {b: B.coproduct2(B.basis_elem(b)) for b in by_b}
    a_products, b_products = _basis_products(A), _basis_products(B)
    for ap, lefts in by_a.items():
        # Delta^2(a')'s terms by their first leg, joined to each B term
        # (b1, b2, b3) through the support of the pairing's row b1
        by_first = {}
        for (a1, a2, a3), ca in A.coproduct2(A.basis_elem(ap)).items():
            by_first.setdefault(a1, []).append((a2, a3, ca))
        for b, rights in by_b.items():
            exchange = {}
            for (b1, b2, b3), cb in d2B[b].items():
                for a1, v1 in P.rows[b1].items():
                    for a2, a3, ca in by_first.get(a1, ()):
                        v3 = pair_sinv[a3].get(b3)
                        if v3 is not None:
                            _acc(exchange, (b2, a2), cb * v1 * v3 * ca)
            if not exchange:
                continue
            for t1, bp in lefts:
                for t2, a in rights:
                    out = {}
                    for (b2, a2), x in exchange.items():
                        right = a_products.get((a2, a))
                        if right is None:
                            continue
                        for kb, ckb in b_products.get((bp, b2), ()):
                            for ka, cka in right:
                                f = flat(kb, ka)
                                if table[f]:
                                    _acc(out, f, x * ckb * cka)
                    for k, v in project(out).items():
                        mu.add_to(t1, t2, k, v)

    unit_flat = {}
    for i, ci in B.unit.items():
        for j, cj in A.unit.items():
            unit_flat[flat(i, j)] = ci * cj
    unit = project(unit_flat)

    for t, f in enumerate(reps):
        b, a = f // dA, f % dA
        out = {}
        for (b1, b2), cb in B.coproduct(B.basis_elem(b)).items():
            for (a1, a2), ca in A.coproduct(A.basis_elem(a)).items():
                left = table[flat(b1, a1)]
                if not left:
                    continue
                c = cb * ca
                right = table[flat(b2, a2)]
                for k1, v1 in left:
                    v1 = c * v1
                    for k2, v2 in right:
                        _acc(out, (k1, k2), v1 * v2)
        for (k1, k2), v in out.items():
            delta.add_to(t, k1, k2, v)

    counit = {}
    for t, f in enumerate(reps):
        b, a = f // dA, f % dA
        val = P.pair({b: Cyclotomic.one(n)}, A.eps_rr(A.basis_elem(a)))
        if val:
            counit[t] = val

    smat = solve_antipode(P, project, reps, mu)
    D = WeakHopfAlgebra(
        labels, n, mu, unit, delta, counit, smat,
        name=f"D[{A.name}]",
        meta={"builder": "drinfeld-double"},
    )

    theta, _ = copairing(P)
    r_terms = {}
    for (ai, bi), c in theta.items():
        left = project({flat(i, ai): ci for i, ci in B.unit.items()})
        right = project({flat(bi, j): cj for j, cj in A.unit.items()})
        for k1, v1 in left.items():
            for k2, v2 in right.items():
                _acc(r_terms, (k1, k2), c * v1 * v2)
    return DoubleAlgebra(D, RMatrixCandidate(r_terms), project, reps, P)


def _basis_products(X):
    """{(i, j): [(k, coeff)]}, the products e_i e_j of X, read once: through
    `mul`, the Z4 double's exchange loop took 0.02 s more per build."""
    vals, tables = X.sorted_entries()
    out = {}
    for i, j, k, c in tables["mu"]:
        out.setdefault((i, j), []).append((k, vals[c]))
    return out


def solve_antipode(P, project, reps, mu):
    """The double's antipode in closed form, S[b (x) a] = [1 (x) S_A a][S_B b (x) 1].

    An antipode is an algebra anti-homomorphism, [b (x) a] = [b (x) 1][1 (x) a],
    and S restricts to S_B and S_A on the two factors; the product is the
    double's own mu on representatives.  `verify_antipode` checks the result.
    """
    B, A = P.B, P.A
    dA = A.dim
    mul = PlainAlgebra(range(len(reps)), B.conductor, mu, {}).mul  # the double's mu, before D exists
    left, right = {}, {}  # a -> [1 (x) S_A a], b -> [S_B b (x) 1]
    for f in reps:
        b, a = divmod(f, dA)
        if a not in left:
            s_a = A.apply_antipode(A.basis_elem(a))
            left[a] = project({i * dA + k: ci * v for i, ci in B.unit.items() for k, v in s_a.items()})
        if b not in right:
            s_b = B.apply_antipode(B.basis_elem(b))
            right[b] = project({k * dA + j: v * cj for k, v in s_b.items() for j, cj in A.unit.items()})
    smat = SparseMatrix(len(reps), len(reps), B.conductor)
    for t, f in enumerate(reps):
        b, a = divmod(f, dA)
        for k, c in mul(left[a], right[b]).items():
            smat.set(k, t, c)
    return smat


def sharp_iso(C, double=None, pairing=None):
    """The identification of the double with the |G|^4 algebra, verified.

    Evaluates the delta-and-composition map on flat representatives and
    checks that it is well defined on the ideal, that it is a weak Hopf
    isomorphism D -> A(G, omega) (`wha.verify_morphism`: the algebra laws,
    and the coalgebra and antipode laws without which Rep D ~ Rep A(G, omega)
    need not be monoidal), and that it carries the copairing R to the closed form.
    """
    from .builders import build_a_g_omega

    G, omega = pointed_to_group_cocycle(C)
    P = pairing if pairing is not None else build_pairing(C)
    dbl = double if double is not None else build_drinfeld_double(P)
    D = dbl.algebra
    B, A = P.B, P.A
    dA = A.dim
    n = C.conductor
    Abox, Rbox = build_a_g_omega(G, omega)
    rep = Report(f"sharp[{C.name}]", "double-vs-closed-form")

    # sharp on flat coordinates
    sharp_flat = {}
    for i, lab_b in enumerate(B.labels):
        a1, y1, x1 = _decode3(lab_b)
        for j, lab_a in enumerate(A.labels):
            a2, y2, x2 = _decode3(lab_a)
            if G.mul(y2, a2) != y1 or G.mul(x2, a2) != x1:
                continue
            coeff = omega(a1, x2, a2) / omega(a1, y2, a2)
            target = Abox.label_index[("e", a1, a2, y2, x2)]
            sharp_flat[i * dA + j] = (target, coeff)

    def push_flat(vec):
        out = {}
        for f, c in vec.items():
            hit = sharp_flat.get(f)
            if hit is None:
                continue
            t, s = hit
            _acc(out, t, c * s)
        return out

    # well-definedness: the ideal maps to zero.  The ideal is the kernel of
    # the projection, so check sharp(v) = sharp(reps(project(v))) on flat
    # basis vectors.
    def lift(qvec):
        out = {}
        for t, c in qvec.items():
            _acc(out, dbl.reps[t], c)
        return out

    detail = None
    one = Cyclotomic.one(n)
    for f in range(B.dim * dA):
        direct = push_flat({f: one})
        via_quot = push_flat(lift(dbl.projection({f: one})))
        if direct != via_quot:
            detail = f"sharp not constant on cosets at flat index {f}"
            break
    rep.add("sharp-well-defined", detail is None, detail)

    images = [push_flat(lift(D.basis_elem(t))) for t in range(D.dim)]
    verify_morphism(rep, "sharp", images, D, Abox)

    # R-matrix transport
    r_img = {}
    for (t1, t2), c in dbl.r.terms.items():
        for k1, v1 in images[t1].items():
            for k2, v2 in images[t2].items():
                _acc(r_img, (k1, k2), c * v1 * v2)
    ok = r_img == Rbox.terms
    rep.add("sharp-carries-R", ok, None if ok else "transported R differs from the closed form")
    return rep, dbl, Abox
