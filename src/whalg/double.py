"""The pairing between the one-sided |G|^3 algebras, the induced Drinfeld
double presentation, and the identification with the |G|^4 algebra.

Everything here is pointed: the two one-sided algebras are built with the
general skeletal builder, the pairing is the closed delta-and-associator
form, the double is an exact quotient whose antipode is the closed form
S[b (x) a] = [1 (x) S_A a][S_B b (x) 1], and the identification map carries
its R-matrix to the closed-form one.

The pairing laws are algebra-map laws checked by the homomorphism kernel:
the rows of the pairing matrix map B into the dual A* (`wha.dual`: Delta_A
transposed, unit eps_A) and its columns anti-map A into B*.  The double's
product on representatives is

    [b' (x) a'][b (x) a] = b' X(a', b) a,
    X(a', b) = <b_(1), a'_(1)> <b_(3), S^-1 a'_(3)> b_(2) (x) a'_(2),

with each exchange X(a', b) computed once.
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
    RMatrixCandidate,
    WeakHopfAlgebra,
    _NO_ROW,
    _ScalarIds,
    _acc,
    _coded,
    _first_diff,
    _hom_range,
    _nested,
    _product,
    _projection_matrix,
    _prune,
    _push,
    dual,
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
    right-regular module data of the pointed skeleton C.  The rows of the
    matrix are a map B -> A* and its columns a map A -> B*; the pairing laws
    say the first is a unital algebra map and the second a unital algebra
    anti-map, and are checked as such by the homomorphism kernel.
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

    ok = mat.rank() == B.dim == A.dim
    rep.add("pairing-nondegenerate", ok, None if ok else "pairing matrix is rank-deficient")

    P = PairingForm(B, A, mat, rep)
    rows, cols = P.rows, P.cols
    dualA, dualB = dual(A), dual(B)

    # <1_B, a> = eps_A(a)
    lhs, rhs = _push(rows, B.one()), _prune(A.counit)
    detail = None if lhs == rhs else f"<1_B, a> != eps_A(a) at {A.label_str(_first_diff(lhs, rhs))}"
    rep.add("pairing-unit-counit-B", detail is None, detail)

    # <b, 1_A> = eps_B(b)
    lhs, rhs = _push(cols, A.one()), _prune(B.counit)
    detail = None if lhs == rhs else f"<b, 1_A> != eps_B(b) at {B.label_str(_first_diff(lhs, rhs))}"
    rep.add("pairing-unit-counit-A", detail is None, detail)

    # <b, a_(1)> <b', a_(2)> = <b b', a>: the rows multiply
    detail = None
    bad = _hom_range(rows, B, dualA, range(B.dim))
    if bad is not None:
        i1, i2 = bad
        j = _first_diff(_push(rows, B.mul(B.basis_elem(i1), B.basis_elem(i2))),
                        dualA.mul(rows[i1], rows[i2]))
        detail = (
            f"<b,a_(1)><b',a_(2)> != <bb',a> at "
            f"({B.label_str(i1)}, {B.label_str(i2)}, {A.label_str(j)})"
        )
    rep.add("pairing-multiplicative-in-B", detail is None, detail)

    # <b_(1), a> <b_(2), a'> = <b, a' a>: the columns anti-multiply
    detail = None
    bad = _hom_range(cols, A, dualB, range(A.dim), anti=True)
    if bad is not None:
        j2, j1 = bad  # (a', a)
        i = _first_diff(_push(cols, A.mul(A.basis_elem(j2), A.basis_elem(j1))),
                        dualB.mul(cols[j1], cols[j2]))
        detail = (
            f"<b_(1),a><b_(2),a'> != <b,a'a> at "
            f"({B.label_str(i)}, {A.label_str(j1)}, {A.label_str(j2)})"
        )
    rep.add("pairing-comultiplicative-in-B", detail is None, detail)
    return P


def copairing(P):
    """Theta = sum_t a (x) b with the inverse matrix relation, snake-checked."""
    X = P.matrix.inverse()  # X[j, i]: coefficient of a_j (x) b_i ... see below
    # With M[k, i] = <b_k, a_i>, Theta = sum_{i,j} X[i, j] a_i (x) b_j needs
    # M X = I, i.e. X = M^-1.
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


def build_drinfeld_double(P):
    """Quotient presentation of the double with its closed-form antipode and R."""
    B, A = P.B, P.A
    n = B.conductor
    dB, dA = B.dim, A.dim
    flat = lambda i, j: i * dA + j

    d1B = B.delta_of_unit

    gens = {}  # (generator, flat index) -> coefficient, one row per generator
    ngens = 0
    # A^l and A^r: the pivot columns of the matrices of eps^lr and eps^rr
    for cols, side in ((A.eps_t_ids, "l"), (A.eps_s_prime_ids, "r")):
        E = _projection_matrix(A, cols)
        for x in (E.column(j) for j in E.pivot_columns()):
            pair_row = _push(P.cols, x)  # b -> <b, x>
            xa = [A.mul(x, A.basis_elem(a)) for a in range(dA)]
            # the B leg, the same for every a: sum over Delta(1) of
            # <1_(1), x> b 1_(2) (side l) or <1_(2), x> b 1_(1) (side r)
            paired = []
            for (p, q), c in d1B.items():
                val, other = (pair_row.get(p), q) if side == "l" else (pair_row.get(q), p)
                if val:
                    paired.append((other, val * c))
            for b in range(dB):
                eb = B.basis_elem(b)
                by = {}
                for other, vc in paired:
                    for k, ck in B.mul(eb, B.basis_elem(other)).items():
                        _acc(by, k, vc * ck)
                for a in range(dA):
                    for k, ck in xa[a].items():
                        _acc(gens, (ngens, flat(b, k)), ck)
                    for k, ck in by.items():
                        _acc(gens, (ngens, flat(k, a)), -ck)
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
                row = ech[piv_row[f]]
                for f2, c2 in row.items():
                    if f2 == f:
                        continue
                    _acc(out, rep_index[f2], -(c * c2))
            else:
                _acc(out, rep_index[f], c)
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
    a_rows, a_vals = A.mu_ids, A.ids.vals
    b_rows, b_vals = B.mu_ids, B.ids.vals
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
                        _acc(exchange, (b2, a2), cb * v1 * v3 * ca)
            if not exchange:
                continue
            for t1, bp in lefts:
                left_row = b_rows.get(bp, _NO_ROW)
                for t2, a in rights:
                    out = {}
                    for (b2, a2), x in exchange.items():
                        right = a_rows.get(a2, _NO_ROW).get(a)
                        if right is None:
                            continue
                        for kb, ckb in left_row.get(b2, ()):
                            for ka, cka in right:
                                _acc(out, flat(kb, ka), x * b_vals[ckb] * a_vals[cka])
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
                left = project({flat(b1, a1): cb * ca})
                right = project({flat(b2, a2): Cyclotomic.one(n)})
                for k1, v1 in left.items():
                    for k2, v2 in right.items():
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


def solve_antipode(P, project, reps, mu):
    """The double's antipode in closed form, S[b (x) a] = [1 (x) S_A a][S_B b (x) 1].

    An antipode is an algebra anti-homomorphism, [b (x) a] = [b (x) 1][1 (x) a],
    and S restricts to S_B and S_A on the two factors; the product is the
    double's own mu on representatives.  `verify_antipode` checks the result.
    """
    B, A = P.B, P.A
    dA = A.dim
    ids = _ScalarIds()  # the double's mu belongs to no algebra yet: coded once here
    rows = _nested(_coded(mu.data, ids.scalar_id))
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
        for k, c in _product(rows, ids.vals, left[a], right[b]).items():
            smat.set(k, t, c)
    return smat


def sharp_iso(C, double=None, pairing=None):
    """The identification of the double with the |G|^4 algebra, verified.

    Evaluates the delta-and-composition map on flat representatives, checks
    well-definedness on the ideal, the algebra-map laws, bijectivity, and
    that the copairing R-matrix is carried to the closed-form one.
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

    def push_quot(vec):
        return push_flat(lift(vec))

    images = [push_quot(D.basis_elem(t)) for t in range(D.dim)]
    img_mat = SparseMatrix(Abox.dim, D.dim, n)
    for t, img in enumerate(images):
        for k, v in img.items():
            img_mat.add_to(k, t, v)
    ok = D.dim == Abox.dim and img_mat.rank() == Abox.dim
    rep.add("sharp-bijective", ok, None if ok else "sharp is not a bijection")

    ok = push_quot(D.one()) == Abox.one()
    rep.add("sharp-unital", ok, None if ok else "sharp(1) != unit")

    bad = _hom_range(images, D, Abox, range(D.dim))
    detail = None if bad is None else f"sharp(uv) != sharp(u)sharp(v) at ({bad[0]}, {bad[1]})"
    rep.add("sharp-multiplicative", detail is None, detail)

    # R-matrix transport
    r_img = {}
    for (t1, t2), c in dbl.r.terms.items():
        for k1, v1 in images[t1].items():
            for k2, v2 in images[t2].items():
                _acc(r_img, (k1, k2), c * v1 * v2)
    ok = r_img == Rbox.terms
    rep.add("sharp-carries-R", ok, None if ok else "transported R differs from the closed form")
    return rep, dbl, Abox
