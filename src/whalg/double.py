"""The pairing between the one-sided |G|^3 algebras, the induced Drinfeld
double presentation, and the identification with the |G|^4 algebra.

Everything here is pointed: the two one-sided algebras are built with the
general skeletal builder, the pairing is the closed delta-and-associator
form, the double is an exact quotient with antipode solved from the axioms,
and the identification map carries its R-matrix to the closed-form one.
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
from .wha import RMatrixCandidate, WeakHopfAlgebra, _acc, _hom_range


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

    def pair(self, b_vec, a_vec):
        tot = Cyclotomic.zero(self.B.conductor)
        for i, ci in b_vec.items():
            for j, cj in a_vec.items():
                v = self.matrix.data.get((i, j))
                if v is not None:
                    tot = tot + ci * cj * v
        return tot


def build_pairing(C, B=None, A=None):
    """The closed-form pairing matrix, with all four laws verified.

    B and A default to the general builder on the left-regular and
    right-regular module data of the pointed skeleton C.
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

    detail = None
    for j in range(A.dim):
        lhs = P.pair(B.one(), A.basis_elem(j))
        if lhs != A.apply_counit(A.basis_elem(j)):
            detail = f"<1_B, a> != eps_A(a) at {A.label_str(j)}"
            break
    rep.add("pairing-unit-counit-B", detail is None, detail)

    detail = None
    for i in range(B.dim):
        lhs = P.pair(B.basis_elem(i), A.one())
        if lhs != B.apply_counit(B.basis_elem(i)):
            detail = f"<b, 1_A> != eps_B(b) at {B.label_str(i)}"
            break
    rep.add("pairing-unit-counit-A", detail is None, detail)

    # <b, a_(1)> <b', a_(2)> = <b b', a>
    detail = None
    for j in range(A.dim):
        da = A.delta_terms[j]
        for i1 in range(B.dim):
            for i2 in range(B.dim):
                lhs = Cyclotomic.zero(n)
                for s, t, c in da:
                    v1 = mat.data.get((i1, s))
                    if v1 is None:
                        continue
                    v2 = mat.data.get((i2, t))
                    if v2 is None:
                        continue
                    lhs = lhs + v1 * (c * v2)
                rhs = P.pair(B.mul(B.basis_elem(i1), B.basis_elem(i2)), A.basis_elem(j))
                if lhs != rhs:
                    detail = (
                        f"<b,a_(1)><b',a_(2)> != <bb',a> at "
                        f"({B.label_str(i1)}, {B.label_str(i2)}, {A.label_str(j)})"
                    )
                    break
            if detail:
                break
        if detail:
            break
    rep.add("pairing-multiplicative-in-B", detail is None, detail)

    # <b_(1), a> <b_(2), a'> = <b, a' a>
    detail = None
    for i in range(B.dim):
        db = B.delta_terms[i]
        for j1 in range(A.dim):
            for j2 in range(A.dim):
                lhs = Cyclotomic.zero(n)
                for s, t, c in db:
                    v1 = mat.data.get((s, j1))
                    if v1 is None:
                        continue
                    v2 = mat.data.get((t, j2))
                    if v2 is None:
                        continue
                    lhs = lhs + v1 * (c * v2)
                rhs = P.pair(B.basis_elem(i), A.mul(A.basis_elem(j2), A.basis_elem(j1)))
                if lhs != rhs:
                    detail = (
                        f"<b_(1),a><b_(2),a'> != <b,a'a> at "
                        f"({B.label_str(i)}, {A.label_str(j1)}, {A.label_str(j2)})"
                    )
                    break
            if detail:
                break
        if detail:
            break
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
    """Quotient presentation of the double with solved antipode and R."""
    B, A = P.B, P.A
    n = B.conductor
    dB, dA = B.dim, A.dim
    flat = lambda i, j: i * dA + j

    from .wha import base_algebras

    baA = base_algebras(A)
    d1B = B.delta_of_unit()

    def pair_elem_left(x_vec):
        # b-index -> <b, x> for the sparse A-element x
        out = {}
        for i in range(dB):
            tot = Cyclotomic.zero(n)
            for j, cj in x_vec.items():
                v = P.matrix.data.get((i, j))
                if v is not None:
                    tot = tot + cj * v
            if tot:
                out[i] = tot
        return out

    gens = {}  # (generator, flat index) -> coefficient, one row per generator
    ngens = 0
    for xsrc, side in ((baA.basis_l, "l"), (baA.basis_r, "r")):
        for x in xsrc:
            pair_row = pair_elem_left(x)
            for b in range(dB):
                for a in range(dA):
                    for k, ck in A.mul(x, A.basis_elem(a)).items():
                        _acc(gens, (ngens, flat(b, k)), ck)
                    for (p, q), c in d1B.items():
                        if side == "l":
                            val = pair_row.get(p)
                            other = q
                        else:
                            val = pair_row.get(q)
                            other = p
                        if not val:
                            continue
                        for k, ck in B.mul(B.basis_elem(b), B.basis_elem(other)).items():
                            _acc(gens, (ngens, flat(k, a)), -(val * c * ck))
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

    # multiplication on representatives, then projected
    d2B = {x: B.coproduct2(B.basis_elem(x)) for x in range(dB)}
    d2A = {x: A.coproduct2(A.basis_elem(x)) for x in range(dA)}
    for t1, f1 in enumerate(reps):
        bp, ap = f1 // dA, f1 % dA  # [b' (x) a']
        legsA = {}
        for (a1, a2, a3), ca in d2A[ap].items():
            s_inv_a3 = sinvA.apply({a3: Cyclotomic.one(n)})
            legsA[(a1, a2, a3)] = (ca, s_inv_a3)
        for t2, f2 in enumerate(reps):
            b, a = f2 // dA, f2 % dA  # [b (x) a]
            out = {}
            for (b1, b2, b3), cb in d2B[b].items():
                for (a1, a2, a3), (ca, s_inv_a3) in legsA.items():
                    v1 = P.matrix.data.get((b1, a1))
                    if v1 is None:
                        continue
                    v3 = Cyclotomic.zero(n)
                    for k, ck in s_inv_a3.items():
                        vv = P.matrix.data.get((b3, k))
                        if vv is not None:
                            v3 = v3 + ck * vv
                    if not v3:
                        continue
                    coeff = cb * v1 * v3
                    left = B.mul(B.basis_elem(bp), B.basis_elem(b2))
                    right = A.mul({a2: ca}, A.basis_elem(a))
                    for kb, ckb in left.items():
                        for ka, cka in right.items():
                            _acc(out, flat(kb, ka), coeff * ckb * cka)
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
        for (b1, b2), cb in _delta_pairs(B, b).items():
            for (a1, a2), ca in _delta_pairs(A, a).items():
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

    def with_antipode(antipode):
        return WeakHopfAlgebra(
            labels, n, mu, unit, delta, counit, antipode,
            name=f"D[{A.name}]",
            meta={"builder": "drinfeld-double"},
        )

    smat = solve_antipode(with_antipode(SparseMatrix(d, d, n)))
    if smat is None:
        raise ValueError("no antipode solves Axiom 4 for the double")
    D = with_antipode(smat)

    theta, _ = copairing(P)
    r_terms = {}
    for (ai, bi), c in theta.items():
        left = project({flat(i, ai): ci for i, ci in B.unit.items()})
        right = project({flat(bi, j): cj for j, cj in A.unit.items()})
        for k1, v1 in left.items():
            for k2, v2 in right.items():
                _acc(r_terms, (k1, k2), c * v1 * v2)
    return DoubleAlgebra(D, RMatrixCandidate(r_terms), project, reps, P)


def _delta_pairs(X, i):
    out = {}
    for j, k, c in X.delta_terms[i]:
        _acc(out, (j, k), c)
    return out


def solve_antipode(D):
    """Solve the two linear antipode identities for S, then check the third.

    Returns the antipode matrix, or None when the system has no solution or
    the solved map fails the remaining identity.
    """
    n = D.conductor
    d = D.dim
    unknown = lambda k, q: k * d + q  # S[k, q] = coeff of e_k in S(e_q)
    rows = {}
    rhs = {}

    def add(key, col, coeff):
        row = rows.setdefault(key, {})
        _acc(row, col, coeff)

    # eq1: sum_{(s,t)} mu(s, S(t)) = eps^lr(x)
    for x in range(d):
        target = D.eps_lr(D.basis_elem(x))
        for s, t, c in D.delta_terms[x]:
            for l in range(d):
                for k, cm in D.mu_pairs.get((s, l), ()):
                    add(("1", x, k), unknown(l, t), c * cm)
        for k, v in target.items():
            rhs[("1", x, k)] = v
            rows.setdefault(("1", x, k), {})
    # eq2: sum_{(s,t)} mu(S(s), t) = 1_(1) eps(x 1_(2))
    for x in range(d):
        target = {}
        for (p, q), c in D.delta_of_unit().items():
            val = D.apply_counit(D.mul(D.basis_elem(x), {q: c}))
            if val:
                _acc(target, p, val)
        for s, t, c in D.delta_terms[x]:
            for l in range(d):
                for k, cm in D.mu_pairs.get((l, t), ()):
                    add(("2", x, k), unknown(l, s), c * cm)
        for k, v in target.items():
            rhs[("2", x, k)] = v
            rows.setdefault(("2", x, k), {})

    keys = sorted(rows, key=lambda k: (k[0], k[1], k[2]))
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

    # eq3: S(x_(1)) x_(2) S(x_(3)) = S(x)
    cols = {}
    for (k, q), c in smat.data.items():
        cols.setdefault(q, {})[k] = c

    def s_of(vec):
        out = {}
        for q, cq in vec.items():
            for k, c in cols.get(q, {}).items():
                _acc(out, k, cq * c)
        return out

    for x in range(d):
        lhs = {}
        for (s, t, u), c in D.coproduct2(D.basis_elem(x)).items():
            term = D.mul(D.mul(s_of({s: c}), {t: Cyclotomic.one(n)}), s_of({u: Cyclotomic.one(n)}))
            for k, v in term.items():
                _acc(lhs, k, v)
        if lhs != s_of(D.basis_elem(x)):
            return None
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

    bad = _hom_range(images, D, Abox, 0, D.dim)
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
