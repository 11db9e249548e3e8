"""Finite-dimensional modules over a weak Hopf algebra and their monoidal
and braided structure.

Tensor products are realized concretely: the product of two modules is the
image of the idempotent built from the coproduct of 1, presented by an exact
column-space basis with its retraction/section pair, so every canonical map
(associator, unitor, braiding) is an explicit sparse matrix.

Every retract comes from one elimination: if R is the reduced echelon form
of a matrix E, rows ordered by pivot, and P its pivot columns, then
E = E[:, P] . R, and R . E[:, P] = id when E is idempotent
(`retract_of_idempotent`).  The tensor unit A^l is read off the same
factorization of the matrix of eps^lr.  The actions of Delta(1), Delta(x)
and R on V (x) W all come from one builder, `_pair_action`.

Isomorphism is decided from characters on an algebra certified semisimple
by its trace form, and is None, undecided, otherwise (`modules_isomorphic`).
"""

from __future__ import annotations

import itertools

from .exactmath import SparseMatrix, SparseTensor3
from .report import Report
from .wha import _acc, _action_range, counital_matrices


class WHAModule:
    """Left module: action tensor (algebra basis, out index, in index)."""

    def __init__(self, algebra, dim, action, name="V"):
        self.algebra = algebra
        self.dim = dim
        self.action = action  # SparseTensor3
        self.name = name
        self._mats = None

    def action_matrix(self, i):
        if self._mats is None:
            mats = [SparseMatrix(self.dim, self.dim, self.algebra.conductor)
                    for _ in range(self.algebra.dim)]
            for (a, r, c), v in self.action.data.items():
                mats[a].data[(r, c)] = v
            self._mats = mats
        return self._mats[i]

    def rho(self, x):
        """Matrix of a sparse algebra element."""
        m = SparseMatrix(self.dim, self.dim, self.algebra.conductor)
        for i, ci in x.items():
            for (r, c), v in self.action_matrix(i).data.items():
                m.add_to(r, c, ci * v)
        return m

    def __repr__(self):
        return f"WHAModule({self.name}, dim={self.dim})"


def validate_module(A, V):
    """Action laws on all basis pairs plus unitality of eta(1)."""
    rep = Report(V.name, "module")
    idm = SparseMatrix.identity(V.dim, A.conductor)
    ok = V.rho(A.one()) == idm
    rep.add("unit-acts-as-identity", ok, None if ok else "eta(1) does not act as id")

    bad = _action_range(A, {(a, c, r): v for (a, r, c), v in V.action.data.items()}, range(A.dim))
    detail = None
    if bad is not None:
        i, j, _v = bad
        detail = f"(xy).v != x.(y.v) at ({A.label_str(i)}, {A.label_str(j)})"
    rep.add("action-multiplicative", detail is None, detail)
    return rep


def regular_module(A):
    act = {(i, k, j): c for i in range(A.dim) for j in range(A.dim)
           for k, c in A.mul(A.basis_elem(i), A.basis_elem(j)).items()}
    return WHAModule(A, A.dim, SparseTensor3((A.dim, A.dim, A.dim), A.conductor, act),
                     name=f"{A.name}-regular")


def k_module(A, G, omega, g):
    """The |G|-dimensional module of the right-regular algebra at grade g."""
    n = A.conductor
    act = SparseTensor3((A.dim, G.order, G.order), n)
    for a, y, x in itertools.product(G.elements(), repeat=3):
        if y == G.mul(g, x):
            i = A.label_index[("f", a, y, x)]
            act.add_to(i, G.mul(x, a), x, omega(g, x, a))
    return WHAModule(A, G.order, act, name=f"K({g})")


class TensorProductResult:
    def __init__(self, module, r, i, idempotent, left, right):
        self.module = module
        self.r = r  # retraction: ambient coords -> retract coords
        self.i = i  # section: retract coords -> ambient coords
        self.idempotent = idempotent
        self.left, self.right = left, right  # the factors V, W of V (x) W


def retract_of_idempotent(e):
    """(section i, retraction r) with i . r = e, from one elimination of e.

    Let R be the reduced echelon form of e, rows ordered by pivot, and P its
    pivot columns.  Column j of e is sum_k R[k, j] e[:, P_k], so i = e[:, P]
    and r = R give e = i . r for any e.  When e is idempotent, i (r i) =
    e i = i, and i has full column rank, so r . i = id.
    """
    ech, pivots = e.rref()
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    i_mat = SparseMatrix(e.rows, len(pivots), e.n)
    r_mat = SparseMatrix(len(pivots), e.cols, e.n)
    for k, rr in enumerate(order):
        for row, v in e.column(pivots[rr]).items():
            i_mat.data[(row, k)] = v
        for j, v in ech[rr].items():
            r_mat.data[(k, j)] = v
    return i_mat, r_mat


def _kron(a, b):
    out = SparseMatrix(a.rows * b.rows, a.cols * b.cols, a.n)
    for (r1, c1), v1 in a.data.items():
        for (r2, c2), v2 in b.data.items():
            out.data[(r1 * b.rows + r2, c1 * b.cols + c2)] = v1 * v2
    return out


def _pair_action(terms, V, W, swap=False):
    """Matrix of sum c rho_V(p) (x) rho_W(q) over terms {(p, q): c} of A (x) A,
    on V (x) W; with `swap`, its rows are placed in W (x) V."""
    out = SparseMatrix(V.dim * W.dim, V.dim * W.dim, V.algebra.conductor)
    for (p, q), c in terms.items():
        for (r1, c1), v1 in V.action_matrix(p).data.items():
            for (r2, c2), v2 in W.action_matrix(q).data.items():
                row = r2 * V.dim + r1 if swap else r1 * W.dim + r2
                out.add_to(row, c1 * W.dim + c2, c * v1 * v2)
    return out


def _product_retract(V, W):
    """The coproduct-of-1 idempotent e on V (x) W with its (section, retraction)."""
    e = _pair_action(V.algebra.delta_of_unit, V, W)
    return (e,) + retract_of_idempotent(e)


def tensor_product(V, W):
    """V . W: the retract of the coproduct-of-1 idempotent, with action."""
    A = V.algebra
    e, i_mat, r_mat = _product_retract(V, W)
    d = i_mat.cols
    act = SparseTensor3((A.dim, d, d), A.conductor)
    for x in range(A.dim):
        big = _pair_action(A.coproduct(A.basis_elem(x)), V, W)
        for (r, c), v in r_mat.matmul(big).matmul(i_mat).data.items():
            act.add_to(x, r, c, v)
    mod = WHAModule(A, d, act, name=f"({V.name}.{W.name})")
    return TensorProductResult(mod, r_mat, i_mat, e, V, W)


def tensor_unit(A):
    """A^l with the x (x) u -> eps^lr(xu) action.

    E, the matrix of eps^lr, factors as E = i . r (`retract_of_idempotent`);
    A^l = im E has i's columns as basis, and eps^lr(w) = i (r w), so the
    coordinates of eps^lr(x u) in that basis are r (x u).
    """
    i_mat, r_mat = retract_of_idempotent(next(counital_matrices(A)))
    d = i_mat.cols
    basis = [i_mat.column(b) for b in range(d)]
    act = SparseTensor3((A.dim, d, d), A.conductor)
    for x in range(A.dim):
        for b, u in enumerate(basis):
            for r, v in r_mat.apply(A.mul(A.basis_elem(x), u)).items():
                act.add_to(x, r, b, v)
    mod = WHAModule(A, d, act, name="1")
    mod._ba_basis = basis
    return mod


def dual_module(V):
    """Left dual space, with the antipode-transpose action."""
    A = V.algebra
    act = SparseTensor3((A.dim, V.dim, V.dim), A.conductor)
    for i in range(A.dim):
        for k, c in A.apply_antipode(A.basis_elem(i)).items():
            for (r, cc), v in V.action_matrix(k).data.items():
                act.add_to(i, cc, r, c * v)  # transpose
    return WHAModule(A, V.dim, act, name=f"{V.name}^L")


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------


def intertwiner_space(V, W):
    """Exact basis of {T : T rho_V(x) = rho_W(x) T for all basis x}."""
    A = V.algebra
    n = A.conductor
    col = lambda r, c: r * V.dim + c  # T entry (row in W, col in V)
    row_of = {}  # (x, r, c) -> row index, in order of first use
    data = {}
    for x in range(A.dim):
        mv = V.action_matrix(x)
        mw = W.action_matrix(x)
        for (j, c), v in mv.data.items():
            for r in range(W.dim):
                _acc(data, (row_of.setdefault((x, r, c), len(row_of)), col(r, j)), v)
        for (r, j), v in mw.data.items():
            for c in range(V.dim):
                _acc(data, (row_of.setdefault((x, r, c), len(row_of)), col(j, c)), -v)
    basis = []
    for vec in SparseMatrix(len(row_of), W.dim * V.dim, n, data).nullspace_basis():
        T = SparseMatrix(W.dim, V.dim, n)
        for key, v in vec.items():
            T.data[(key // V.dim, key % V.dim)] = v
        basis.append(T)
    return len(basis), basis


def _character(V):
    """chi_V(e_i) = Tr rho_V(e_i) by basis index, zeros left out."""
    chi = {}
    for (a, r, c), v in V.action.data.items():
        if r == c:
            _acc(chi, a, v)
    return chi


def modules_isomorphic(V, W):
    """Decide V = W from characters: True, False, or None for undecided.

    Isomorphic modules have equal characters, so different dimensions or
    characters answer False over any algebra.  Over a semisimple algebra
    (`PlainAlgebra.semisimple`) in characteristic 0, equal characters answer
    True: the central idempotent e_j of the j-th block acts as the identity
    on the j-th simple module S_j and as 0 on the others, so
    chi_V(e_j) = m_j dim S_j fixes the multiplicity m_j of S_j in V.
    Otherwise equal characters decide nothing, except between zero modules.
    """
    if V.dim != W.dim or _character(V) != _character(W):
        return False
    return True if V.dim == 0 or V.algebra.semisimple else None


def is_module_map(T, V, W):
    """T: V -> W commutes with every basis action."""
    A = V.algebra
    for x in range(A.dim):
        if T.matmul(V.action_matrix(x)) != W.action_matrix(x).matmul(T):
            return False
    return True


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------


def tensor_morphism(src, dst, f, g):
    """f . g between retracts: dst.r . (f (x) g) . src.i."""
    return dst.r.matmul(_kron(f, g)).matmul(src.i)


def _assoc_matrix(P_vw, P_wu, P_src, P_tgt):
    """(V.W).U -> V.(W.U) through the shared ambient V (x) W (x) U.

    P_src is the product of (V.W) with U, so its ambient factors as the
    (V.W)-retract tensor U; symmetrically for P_tgt.
    """
    n = P_src.i.n
    left_i = _kron(P_vw.i, SparseMatrix.identity(P_src.right.dim, n)).matmul(P_src.i)
    right_r = P_tgt.r.matmul(_kron(SparseMatrix.identity(P_tgt.left.dim, n), P_wu.r))
    return right_r.matmul(left_i)


class TripleProducts:
    """All products needed to talk about V, W, U coherently at once."""

    def __init__(self, V, W, U, P_vw=None, P_wu=None):
        self.V, self.W, self.U = V, W, U
        self.P_vw = P_vw or tensor_product(V, W)
        self.P_wu = P_wu or tensor_product(W, U)
        self.P_vw_u = tensor_product(self.P_vw.module, U)
        self.P_v_wu = tensor_product(V, self.P_wu.module)
        self.a = _assoc_matrix(self.P_vw, self.P_wu, self.P_vw_u, self.P_v_wu)


def left_unitor(V, unit_mod):
    """l_V: 1.V -> V, u (x) v -> u.v on the retract, with the product 1.V."""
    prod = tensor_product(unit_mod, V)
    ev = SparseMatrix(V.dim, unit_mod.dim * V.dim, V.algebra.conductor)
    for b, u in enumerate(unit_mod._ba_basis):
        for (r, c), v in V.rho(u).data.items():
            ev.add_to(r, b * V.dim + c, v)
    return ev.matmul(prod.i), prod


def right_unitor(V, unit_mod):
    """r_V: V.1 -> V, v (x) u -> eps^rr(u).v on the retract, with the product V.1."""
    A = V.algebra
    prod = tensor_product(V, unit_mod)
    ev = SparseMatrix(V.dim, V.dim * unit_mod.dim, A.conductor)
    for b, u in enumerate(unit_mod._ba_basis):
        for (r, c), v in V.rho(A.eps_rr(u)).data.items():
            ev.add_to(r, c * unit_mod.dim + b, v)
    return ev.matmul(prod.i), prod


def pentagon_check(t_vwu, X):
    """Pentagon for (V, W, U, X) with every endpoint built exactly once.

    t_vwu is the `TripleProducts` of (V, W, U); its products are reused.
    """
    V, W, U = t_vwu.V, t_vwu.W, t_vwu.U
    n = V.algebra.conductor
    idm = lambda M: SparseMatrix.identity(M.dim, n)

    P_vw, P_wu = t_vwu.P_vw, t_vwu.P_wu
    P_ux = tensor_product(U, X)
    VW, UX = P_vw.module, P_ux.module
    t_wux = TripleProducts(W, U, X, P_wu, P_ux)

    P_vwu_x = tensor_product(t_vwu.P_vw_u.module, X)   # ((VW)U)X  [start]
    P_v_wu_x = tensor_product(t_vwu.P_v_wu.module, X)  # (V(WU))X
    P_vw_ux = tensor_product(VW, UX)                   # (VW)(UX)
    P_v_wux = tensor_product(V, t_wux.P_vw_u.module)   # V((WU)X)
    P_v_w_ux = tensor_product(V, t_wux.P_v_wu.module)  # V(W(UX))  [end]

    # route 1: a_{VW,U,X} then a_{V,W,UX}
    a1 = _assoc_matrix(t_vwu.P_vw_u, P_ux, P_vwu_x, P_vw_ux)
    a2 = _assoc_matrix(P_vw, t_wux.P_v_wu, P_vw_ux, P_v_w_ux)
    route1 = a2.matmul(a1)

    # route 2: (a_{V,W,U} . id_X), a_{V,WU,X}, (id_V . a_{W,U,X})
    s1 = tensor_morphism(P_vwu_x, P_v_wu_x, t_vwu.a, idm(X))
    a3 = _assoc_matrix(t_vwu.P_v_wu, t_wux.P_vw_u, P_v_wu_x, P_v_wux)
    s3 = tensor_morphism(P_v_wux, P_v_w_ux, idm(V), t_wux.a)
    route2 = s3.matmul(a3).matmul(s1)

    ok = route1 == route2
    return ok, None if ok else "pentagon instance fails"


def coherence_check(V, W, U, unit_mod=None):
    """Associator/unitor well-formedness, triangle, pentagon with the unit.

    Each tensor product is built once and handed on to the triangle and
    the pentagon.
    """
    A = V.algebra
    rep = Report(f"({V.name}, {W.name}, {U.name})", "coherence")
    unit_mod = unit_mod if unit_mod is not None else tensor_unit(A)

    t = TripleProducts(V, W, U)
    a = t.a
    ok = a.rank() == t.P_vw_u.module.dim == t.P_v_wu.module.dim
    rep.add("associator-invertible", ok, None if ok else "associator not full rank")
    rep.add("associator-module-map", is_module_map(a, t.P_vw_u.module, t.P_v_wu.module))

    l_w, P_1w = left_unitor(W, unit_mod)
    ok = l_w.rank() == W.dim and is_module_map(l_w, P_1w.module, W)
    rep.add("left-unitor-iso-module-map", ok)
    r_v, P_v1 = right_unitor(V, unit_mod)
    ok = r_v.rank() == V.dim and is_module_map(r_v, P_v1.module, V)
    rep.add("right-unitor-iso-module-map", ok)

    # triangle: (id_V . l_W) a_{V,1,W} = r_V . id_W as maps (V.1).W -> V.W
    t1 = TripleProducts(V, unit_mod, W, P_v1, P_1w)
    lhs = tensor_morphism(t1.P_v_wu, t.P_vw, SparseMatrix.identity(V.dim, A.conductor), l_w).matmul(t1.a)
    rhs = tensor_morphism(t1.P_vw_u, t.P_vw, r_v, SparseMatrix.identity(W.dim, A.conductor))
    ok = lhs == rhs
    rep.add("triangle", ok, None if ok else "triangle identity fails")

    ok, detail = pentagon_check(t, unit_mod)
    rep.add("pentagon-with-unit", ok, detail)
    return rep


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------


def braiding_from_R(A, R, V, W, vw=None, wv=None):
    """c_{V,W}: V.W -> W.V from a verified quasi-triangular structure."""
    vw = vw or tensor_product(V, W)
    wv = wv or tensor_product(W, V)
    c = wv.r.matmul(_pair_action(R.terms, V, W, swap=True)).matmul(vw.i)
    return c, vw, wv


def braiding_check(A, R, V, W):
    rep = Report(f"c({V.name}, {W.name})", "braiding")
    c, vw, wv = braiding_from_R(A, R, V, W)
    ok = c.rank() == vw.module.dim == wv.module.dim
    rep.add("braiding-invertible", ok)
    rep.add("braiding-module-map", is_module_map(c, vw.module, wv.module))
    return rep, c, vw, wv


def braid_relation_check(A, R, V, W, U):
    """sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2 on triple retracts."""
    n = A.conductor
    d2u = A.coproduct2(A.one())

    retracts = {}

    def get(X, Y, Z):
        key = (id(X), id(Y), id(Z))
        if key not in retracts:
            e = SparseMatrix(X.dim * Y.dim * Z.dim, X.dim * Y.dim * Z.dim, n)
            for (p, q, s), c in d2u.items():
                for (r1, c1), v1 in X.action_matrix(p).data.items():
                    for (r2, c2), v2 in Y.action_matrix(q).data.items():
                        v12 = v1 * v2
                        for (r3, c3), v3 in Z.action_matrix(s).data.items():
                            e.add_to(
                                (r1 * Y.dim + r2) * Z.dim + r3,
                                (c1 * Y.dim + c2) * Z.dim + c3,
                                c * v12 * v3,
                            )
            retracts[key] = retract_of_idempotent(e)
        return retracts[key]

    def sigma1(X, Y, Z):
        i_mat, _ = get(X, Y, Z)
        _, r_mat = get(Y, X, Z)
        big = _kron(_pair_action(R.terms, X, Y, swap=True), SparseMatrix.identity(Z.dim, n))
        return r_mat.matmul(big).matmul(i_mat)

    def sigma2(X, Y, Z):
        i_mat, _ = get(X, Y, Z)
        _, r_mat = get(X, Z, Y)
        big = _kron(SparseMatrix.identity(X.dim, n), _pair_action(R.terms, Y, Z, swap=True))
        return r_mat.matmul(big).matmul(i_mat)

    lhs = sigma1(W, U, V).matmul(sigma2(W, V, U)).matmul(sigma1(V, W, U))
    rhs = sigma2(U, V, W).matmul(sigma1(V, U, W)).matmul(sigma2(V, W, U))
    return lhs == rhs


def braiding_naturality(A, R, V, W):
    """c_{V,W} (f . g) = (g . f) c_{V,W} for basis endo-intertwiners."""
    _, fs = intertwiner_space(V, V)
    _, gs = intertwiner_space(W, W)
    c, vw, wv = braiding_from_R(A, R, V, W)
    for f in fs:
        for g in gs:
            lhs = c.matmul(tensor_morphism(vw, vw, f, g))
            rhs = tensor_morphism(wv, wv, g, f).matmul(c)
            if lhs != rhs:
                return False
    return True


def reduced_R_roundtrip(A, R):
    """Recover R from the induced braiding on the regular module.

    Reads only the retract of V (x) V and R's flipped action on it, not the
    product's module structure.
    """
    V = regular_module(A)
    i_mat, r_mat = _product_retract(V, V)[1:]  # the idempotent itself is not kept
    flip_R = _pair_action(R.terms, V, V, swap=True)
    one_one = {}
    for i, ci in A.unit.items():
        for j, cj in A.unit.items():
            one_one[i * A.dim + j] = ci * cj
    # i c r (1 (x) 1) with the braiding c = r . flip_R . i, one vector at a time
    v = i_mat.apply(r_mat.apply(flip_R.apply(i_mat.apply(r_mat.apply(one_one)))))
    swapped = {}
    for key, val in v.items():
        i, j = divmod(key, A.dim)
        swapped[(j, i)] = val
    return swapped == R.terms
