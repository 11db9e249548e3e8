"""Finite-dimensional modules over a weak Hopf algebra and their monoidal
and braided structure.

Tensor products are realized concretely: the product of two modules is the
image of the idempotent built from the coproduct of 1, presented by an exact
column-space basis with its retraction/section pair, so every canonical map
(associator, unitor, braiding) is an explicit sparse matrix.
"""

from __future__ import annotations

import itertools
import random

from .exactmath import Cyclotomic, SparseMatrix, SparseTensor3
from .report import Report
from .wha import _acc, _by_leg, _coded, _mixed_assoc_range, _nested, _ScalarIds, base_algebras


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

    mu, ids = A.mu_ids, _ScalarIds(A.scalar_ids)
    act = list(_coded({(a, c, r): v for (a, r, c), v in V.action.data.items()}, ids.scalar_id))
    rows = _nested(act)
    bad = _mixed_assoc_range(ids, rows, mu, rows, _by_leg(act, 2), range(A.dim))
    detail = None
    if bad is not None:
        i, j, _v = bad
        detail = f"(xy).v != x.(y.v) at ({A.label_str(i)}, {A.label_str(j)})"
    rep.add("action-multiplicative", detail is None, detail)
    return rep


def regular_module(A):
    act = SparseTensor3((A.dim, A.dim, A.dim), A.conductor)
    for (i, j, k), c in A.mu.data.items():
        act.add_to(i, k, j, c)
    return WHAModule(A, A.dim, act, name=f"{A.name}-regular")


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
    def __init__(self, module, r, i, idempotent):
        self.module = module
        self.r = r  # retraction: ambient coords -> retract coords
        self.i = i  # section: retract coords -> ambient coords
        self.idempotent = idempotent


def retract_of_idempotent(e):
    """(section, retraction) for an exact idempotent matrix.

    The section is the pivot-column basis of im(e); the retraction is the
    unique solution of i . r = e, which then satisfies r . i = id.
    """
    pivots = e.pivot_columns()
    n = e.n
    i_mat = SparseMatrix(e.rows, len(pivots), n)
    for col_out, p in enumerate(pivots):
        for row, v in e.column(p).items():
            i_mat.data[(row, col_out)] = v
    aug = SparseMatrix(e.rows, len(pivots) + e.cols, n, dict(i_mat.data))
    for (r0, c0), v in e.data.items():
        aug.data[(r0, len(pivots) + c0)] = v
    ech, pivcols = aug.rref()
    r_mat = SparseMatrix(len(pivots), e.cols, n)
    for rr, p in enumerate(pivcols):
        if p >= len(pivots):
            raise ValueError("section has deficient column rank")
        for j, v in ech[rr].items():
            if j >= len(pivots):
                r_mat.data[(p, j - len(pivots))] = v
    return i_mat, r_mat


def _kron(a, b):
    out = SparseMatrix(a.rows * b.rows, a.cols * b.cols, a.n)
    for (r1, c1), v1 in a.data.items():
        for (r2, c2), v2 in b.data.items():
            out.data[(r1 * b.rows + r2, c1 * b.cols + c2)] = v1 * v2
    return out


def tensor_product(V, W):
    """V . W: the retract of the coproduct-of-1 idempotent, with action."""
    A = V.algebra
    n = A.conductor
    e = SparseMatrix(V.dim * W.dim, V.dim * W.dim, n)
    for (p, q), c in A.delta_of_unit().items():
        for (r1, c1), v1 in V.action_matrix(p).data.items():
            for (r2, c2), v2 in W.action_matrix(q).data.items():
                e.add_to(r1 * W.dim + r2, c1 * W.dim + c2, c * v1 * v2)
    i_mat, r_mat = retract_of_idempotent(e)
    d = i_mat.cols
    act = SparseTensor3((A.dim, d, d), n)
    for x in range(A.dim):
        big = SparseMatrix(V.dim * W.dim, V.dim * W.dim, n)
        for j, k, c in A.delta_terms[x]:
            for (r1, c1), v1 in V.action_matrix(j).data.items():
                for (r2, c2), v2 in W.action_matrix(k).data.items():
                    big.add_to(r1 * W.dim + r2, c1 * W.dim + c2, c * v1 * v2)
        small = r_mat.matmul(big).matmul(i_mat)
        for (r, c), v in small.data.items():
            act.add_to(x, r, c, v)
    mod = WHAModule(A, d, act, name=f"({V.name}.{W.name})")
    return TensorProductResult(mod, r_mat, i_mat, e)


def tensor_unit(A, base=None):
    """A^l with the x (x) y -> eps^lr(xy) action."""
    ba = base if base is not None else base_algebras(A)
    basis = ba.basis_l
    d = len(basis)
    span = SparseMatrix.from_columns(A.dim, basis, A.conductor)
    act = SparseTensor3((A.dim, d, d), A.conductor)
    for x in range(A.dim):
        for b, u in enumerate(basis):
            img = A.eps_lr(A.mul(A.basis_elem(x), u))
            if not img:
                continue
            coords = span.solve(img)
            if coords is None:
                raise ValueError("eps^lr image left the base algebra span")
            for r, v in coords.items():
                act.add_to(x, r, b, v)
    mod = WHAModule(A, d, act, name="1")
    mod._ba_basis = basis
    mod._ba = ba
    return mod


def dual_module(V, side="left"):
    """Dual space with the antipode-transpose action."""
    A = V.algebra
    smat = A.antipode if side == "left" else A.antipode.inverse()
    cols = {}
    for (k, i), c in smat.data.items():
        cols.setdefault(i, {})[k] = c
    act = SparseTensor3((A.dim, V.dim, V.dim), A.conductor)
    for i in range(A.dim):
        for k, c in cols.get(i, {}).items():
            for (r, cc), v in V.action_matrix(k).data.items():
                act.add_to(i, cc, r, c * v)  # transpose
    return WHAModule(A, V.dim, act, name=f"{V.name}^{'L' if side == 'left' else 'R'}")


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


_ISO_SEED = 0


def modules_isomorphic(V, W):
    """Decide V = W by hunting for an invertible intertwiner.

    Random exact combinations from the fixed seed `_ISO_SEED`, then a
    deterministic exhaustive fallback for small intertwiner spaces; sound at
    desk scale.
    """
    if V.dim != W.dim:
        return False
    dim, basis = intertwiner_space(V, W)
    if dim == 0:
        return V.dim == 0
    for T in basis:
        if T.rank() == V.dim:
            return True
    n = V.algebra.conductor
    rng = random.Random(_ISO_SEED)
    for _ in range(24):
        T = SparseMatrix(W.dim, V.dim, n)
        for B in basis:
            c = Cyclotomic.rational(n, rng.randint(-3, 3))
            for (r, cc), v in B.data.items():
                T.add_to(r, cc, v * c)
        if T.rank() == V.dim:
            return True
    if dim <= 3:
        for combo in itertools.product(range(-2, 3), repeat=dim):
            T = SparseMatrix(W.dim, V.dim, n)
            for c, B in zip(combo, basis):
                if not c:
                    continue
                cc = Cyclotomic.rational(n, c)
                for (r, ccol), v in B.data.items():
                    T.add_to(r, ccol, v * cc)
            if T.rank() == V.dim:
                return True
    return False


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


def _assoc_matrix(V, P_vw, P_wu, P_src, P_tgt):
    """(V.W).U -> V.(W.U) through the shared ambient V (x) W (x) U.

    P_src is the product of (V.W) with U, so its ambient factors as the
    (V.W)-retract tensor U; symmetrically for P_tgt.
    """
    n = V.algebra.conductor
    u_dim = P_src.idempotent.rows // P_vw.module.dim
    left_i = _kron(P_vw.i, SparseMatrix.identity(u_dim, n)).matmul(P_src.i)
    v_dim = P_tgt.idempotent.rows // P_wu.module.dim
    right_r = P_tgt.r.matmul(_kron(SparseMatrix.identity(v_dim, n), P_wu.r))
    return right_r.matmul(left_i)


class TripleProducts:
    """All products needed to talk about V, W, U coherently at once."""

    def __init__(self, V, W, U, P_vw=None, P_wu=None):
        self.V, self.W, self.U = V, W, U
        self.P_vw = P_vw or tensor_product(V, W)
        self.P_wu = P_wu or tensor_product(W, U)
        self.P_vw_u = tensor_product(self.P_vw.module, U)
        self.P_v_wu = tensor_product(V, self.P_wu.module)
        self.a = _assoc_matrix(V, self.P_vw, self.P_wu, self.P_vw_u, self.P_v_wu)


def _left_unitor_on(W, prod, unit_mod):
    A = W.algebra
    ev = SparseMatrix(W.dim, unit_mod.dim * W.dim, A.conductor)
    for b, u in enumerate(unit_mod._ba_basis):
        m = W.rho(u)
        for (r, c), v in m.data.items():
            ev.add_to(r, b * W.dim + c, v)
    return ev.matmul(prod.i)


def _right_unitor_on(V, prod, unit_mod):
    A = V.algebra
    ev = SparseMatrix(V.dim, V.dim * unit_mod.dim, A.conductor)
    for b, u in enumerate(unit_mod._ba_basis):
        m = V.rho(A.eps_rr(u))
        for (r, c), v in m.data.items():
            ev.add_to(r, c * unit_mod.dim + b, v)
    return ev.matmul(prod.i)


def left_unitor(V, unit_mod):
    prod = tensor_product(unit_mod, V)
    return _left_unitor_on(V, prod, unit_mod), prod


def right_unitor(V, unit_mod):
    prod = tensor_product(V, unit_mod)
    return _right_unitor_on(V, prod, unit_mod), prod


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
    a1 = _assoc_matrix(VW, t_vwu.P_vw_u, P_ux, P_vwu_x, P_vw_ux)
    a2 = _assoc_matrix(V, P_vw, t_wux.P_v_wu, P_vw_ux, P_v_w_ux)
    route1 = a2.matmul(a1)

    # route 2: (a_{V,W,U} . id_X), a_{V,WU,X}, (id_V . a_{W,U,X})
    s1 = tensor_morphism(P_vwu_x, P_v_wu_x, t_vwu.a, idm(X))
    a3 = _assoc_matrix(V, t_vwu.P_v_wu, t_wux.P_vw_u, P_v_wu_x, P_v_wux)
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


def _r_action_swapped(A, R, V, W):
    """(v, w) -> (R2.w, R1.v) as a V (x) W -> W (x) V matrix."""
    n = A.conductor
    out = SparseMatrix(W.dim * V.dim, V.dim * W.dim, n)
    for (i, j), c in R.terms.items():
        for (r1, c1), v1 in V.action_matrix(i).data.items():
            for (r2, c2), v2 in W.action_matrix(j).data.items():
                out.add_to(r2 * V.dim + r1, c1 * W.dim + c2, c * v1 * v2)
    return out


def braiding_from_R(A, R, V, W, vw=None, wv=None):
    """c_{V,W}: V.W -> W.V from a verified quasi-triangular structure."""
    vw = vw or tensor_product(V, W)
    wv = wv or tensor_product(W, V)
    c = wv.r.matmul(_r_action_swapped(A, R, V, W)).matmul(vw.i)
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
        big = _kron(_r_action_swapped(A, R, X, Y), SparseMatrix.identity(Z.dim, n))
        return r_mat.matmul(big).matmul(i_mat)

    def sigma2(X, Y, Z):
        i_mat, _ = get(X, Y, Z)
        _, r_mat = get(X, Z, Y)
        big = _kron(SparseMatrix.identity(X.dim, n), _r_action_swapped(A, R, Y, Z))
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
    """Recover R from the induced braiding on the regular module."""
    V = regular_module(A)
    prod = tensor_product(V, V)
    c, _, _ = braiding_from_R(A, R, V, V, prod, prod)
    one_one = {}
    for i, ci in A.unit.items():
        for j, cj in A.unit.items():
            one_one[i * A.dim + j] = ci * cj
    v = prod.r.apply(one_one)
    v = c.apply(v)
    v = prod.i.apply(v)
    swapped = {}
    for key, val in v.items():
        i, j = divmod(key, A.dim)
        swapped[(j, i)] = val
    return swapped == R.terms
