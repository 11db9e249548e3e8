"""Tube algebras over pointed skeletal input, their Morita tower, and the
fusion-ring-level obstruction detector.

All structure constants are evaluated mechanically in the strict-skeletal
picture: objects are bracket trees of labels, morphisms are scalars, and
every re-bracketing contributes the corresponding associator value.  The
coherence validators run upstream, so the evaluation is path-independent.
"""

from __future__ import annotations

import itertools

from .exactmath import Cyclotomic, SparseTensor3
from .report import Report
from .skeleton import SkeletonError, dual_data_pointed
from .wha import (PlainAlgebra, _by_leg, _coded, _hom_range, _mixed_assoc_by_value,
                  _mixed_assoc_range, _nested, _product, _push, _ScalarIds)


# ---------------------------------------------------------------------------
# bracket-tree scalar calculus for grouplike categories
# ---------------------------------------------------------------------------


def _is_node(t):
    return isinstance(t, tuple) and len(t) == 2 and t[0] == "*"


def node(a, b):
    return ("*", (a, b))


def leafs(t):
    if _is_node(t):
        l, r = t[1]
        return leafs(l) + leafs(r)
    return (t,)


def lc(word):
    """Left-comb tree of a word of labels."""
    if not word:
        raise ValueError("empty word has no tree")
    t = word[0]
    for x in word[1:]:
        t = node(t, x)
    return t


class WordCalc:
    """Scalar evaluation helpers for one grouplike category with duals."""

    def __init__(self, C, dd=None):
        if not C.ring.is_grouplike():
            raise SkeletonError("tube construction needs pointed (grouplike) input")
        self.C = C
        self.dd = dd if dd is not None else dual_data_pointed(C)
        self.one = Cyclotomic.one(C.conductor)

    def prod(self, t):
        return self.C.fuse_all(leafs(t))

    def inv(self, g):
        return self.C.ring.dual[g]

    def comb_scalar(self, t):
        """Scalar of the coherence iso t -> left-comb of its word."""
        if not _is_node(t):
            return self.one
        l, r = t[1]
        s = self.comb_scalar(l) * self.comb_scalar(r)
        return s * self._merge(self.prod(l), leafs(r))

    def _merge(self, x_label, r_word):
        # scalar of LC([x]) (x) LC(r_word) -> LC([x] + r_word)
        if len(r_word) == 1:
            return self.one
        head = r_word[:-1]
        last = r_word[-1]
        p = self.C.fuse_all(head)
        return self.C.assoc(x_label, p, last).inverse() * self._merge(x_label, head)

    def rebracket(self, src, dst):
        """Scalar of the canonical iso src -> dst (same underlying word)."""
        if leafs(src) != leafs(dst):
            raise ValueError("rebracket between different words")
        return self.comb_scalar(src) / self.comb_scalar(dst)

    # right-dual pairings: ev'_g: g (x) g^R -> 1, coev'_g: 1 -> g^R (x) g
    def ev_right(self, g):
        return self.dd.ev[self.dd.right_dual(g)]

    def coev_right(self, g):
        return self.dd.coev[self.dd.right_dual(g)]

    def revdual(self, word):
        return tuple(self.inv(g) for g in reversed(word))

    def ev_word(self, word):
        """Scalar of node(LC(word), LC(revdual word)) -> unit."""
        word = tuple(word)
        if len(word) == 1:
            return self.ev_right(word[0])
        a, rest = word[0], word[1:]
        rd_full = self.revdual(word)
        rd_rest = self.revdual(rest)
        src = node(lc(word), lc(rd_full))
        mid = node(a, node(node(lc(rest), lc(rd_rest)), self.inv(a)))
        s = self.rebracket(src, mid)
        s = s * self.ev_word(rest)          # inner pair collapses to the unit
        return s * self.ev_right(a)          # node(a, a^R) -> 1

    def coev_word(self, word):
        """Scalar of unit -> node(LC(revdual word), LC(word))."""
        word = tuple(word)
        if len(word) == 1:
            return self.coev_right(word[0])
        a, rest = word[0], word[1:]
        rd_full = self.revdual(word)
        rd_rest = self.revdual(rest)
        # build 1 -> (rest^R, rest), insert 1 -> (a^R, a) in the middle,
        # then rebracket to the canonical shape
        s = self.coev_word(rest) * self.coev_right(a)
        mid = node(lc(rd_rest), node(node(self.inv(a), a), lc(rest)))
        dst = node(lc(rd_full), lc(word))
        return s * self.rebracket(mid, dst)

    def right_mate(self, t_label, s_word, f_scalar):
        """Mate s^R -> t^R of f: t -> LC(s_word), for simple t."""
        s_word = tuple(s_word)
        tR = self.inv(t_label)
        rd = self.revdual(s_word)
        s = self.coev_right(t_label) * f_scalar
        after = node(node(tR, lc(s_word)), lc(rd))
        target = node(tR, node(lc(s_word), lc(rd)))
        s = s * self.rebracket(after, target)
        return s * self.ev_word(s_word)


# ---------------------------------------------------------------------------
# bimodules
# ---------------------------------------------------------------------------


class Bimodule:
    """Left/right module structure over two plain algebras."""

    def __init__(self, left_alg, right_alg, labels, left_action, right_action, name="M"):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.left_action = left_action    # {(a_idx, m_idx, m_idx'): coeff}
        self.right_action = right_action  # {(m_idx, b_idx, m_idx'): coeff}
        self.name = name

    def validate(self):
        rep = Report(self.name, "bimodule")
        # both actions coded once, in one table, for the unit laws and (a m) b = a (m b)
        ids = _ScalarIds()
        l_act = list(_coded(self.left_action, ids.scalar_id))
        r_act = list(_coded(self.right_action, ids.scalar_id))
        left, right = _nested(l_act), _nested(r_act)

        one = Cyclotomic.one(self.left_alg.conductor)
        detail = None
        for m in range(self.dim):
            mv = {m: one}
            if _product(left, ids.vals, self.left_alg.one(), mv) != mv:
                detail = f"left unit law fails at {m}"
                break
            if _product(right, ids.vals, mv, self.right_alg.one()) != mv:
                detail = f"right unit law fails at {m}"
                break
        rep.add("unit-laws", detail is None, detail)

        # (a m) b = a (m b), least (a, m, b) first
        bad = _mixed_assoc_range(ids, right, left, left, _by_leg(r_act, 2), range(self.left_alg.dim))
        detail = None
        if bad is not None:
            a, m, b = bad
            detail = f"actions do not commute at ({a}, {m}, {b})"
        rep.add("actions-commute", detail is None, detail)
        return rep


# ---------------------------------------------------------------------------
# the unprimed Morita family
# ---------------------------------------------------------------------------


class _TubeSpaces:
    """The basis shared by the tube spaces of both families, and the unit of
    their algebras."""

    def __init__(self, C, dd=None):
        self.wc = WordCalc(C, dd)
        self.C = C
        self.unit = C.unit

    def basis(self, m, n):
        """Labels (w, xvec[n], yvec[m]) with prod(x) w = w prod(y)."""
        C = self.C
        out = []
        for w in C.labels:
            for xvec in itertools.product(C.labels, repeat=n):
                target = C.fuse(C.fuse(self.wc.inv(w), C.fuse_all(xvec)), w)
                if m == 1:
                    out.append((w, xvec, (target,)))
                else:
                    for yhead in itertools.product(C.labels, repeat=m - 1):
                        ylast = C.fuse(self.wc.inv(C.fuse_all(yhead)), target)
                        out.append((w, xvec, yhead + (ylast,)))
        return out

    def _algebra(self, labels, mu, name):
        unit = {}
        for i, (w, xvec, yvec) in enumerate(labels):
            if w == self.unit and xvec == yvec:
                unit[i] = self.wc.one
        return PlainAlgebra(labels, self.C.conductor, mu, unit, name=name)


class TubeFamily(_TubeSpaces):
    """Tube spaces C(x_1..x_n w, w y_1..y_m) with the composition maps."""

    def compose_scalar(self, h, g):
        """Structure scalar of compose^{mnk}(h, g); None when the legs clash.

        h = (w', x'vec[k], y'vec[n]) and g = (w, xvec[n], yvec[m]); the
        result is (w'w, x'vec, yvec).
        """
        wp, xph, yph = h
        w, xg, yg = g
        if yph != xg:
            return None, None
        wc = self.wc
        C = self.C
        t = C.fuse(wp, w)
        s = wc.one
        # LC(x'vec + [t]) with the trailing t expanded to (w', w)
        T1 = node(lc(tuple(xph)), node(wp, w))
        T2 = node(lc(tuple(xph) + (wp,)), w)
        s = s * wc.rebracket(T1, T2)
        # h applied on the left block: now LC([w'] + y'vec) (x) w
        T3 = node(lc((wp,) + tuple(yph)), w)
        T4 = node(wp, node(lc(tuple(xg)), w))
        s = s * wc.rebracket(T3, T4)
        # g applied in the middle: w' (x) LC([w] + yvec)
        T5 = node(wp, lc((w,) + tuple(yg)))
        T6 = self._expand_first(lc((t,) + tuple(yg)), wp, w, t)
        s = s * wc.rebracket(T5, T6)
        return (t, xph, yg), s

    @staticmethod
    def _expand_first(tree, wp, w, t):
        if _is_node(tree):
            l, r = tree[1]
            return node(TubeFamily._expand_first(l, wp, w, t), r)
        assert tree == t
        return node(wp, w)

    def compose_map(self, m, n, k):
        """dict (h_idx, g_idx) -> (out_idx, scalar) for compose^{mnk}."""
        bh = self.basis(n, k)
        bg = self.basis(m, n)
        bout = self.basis(m, k)
        iout = {lab: i for i, lab in enumerate(bout)}
        out = {}
        for hi, h in enumerate(bh):
            for gi, g in enumerate(bg):
                lab, s = self.compose_scalar(h, g)
                if lab is None:
                    continue
                out[(hi, gi)] = (iout[lab], s)
        return out, bh, bg, bout

    def algebra(self, n_level):
        comp, bh, bg, bout = self.compose_map(n_level, n_level, n_level)
        d = len(bout)
        mu = SparseTensor3((d, d, d), self.C.conductor)
        for (hi, gi), (oi, s) in comp.items():
            mu.add_to(hi, gi, oi, s)
        return self._algebra(bout, mu, f"Tube^({n_level})[{self.C.name}]")

    def bimodule(self, m, n):
        """Tube^{(m,n)} as a Tube^{(n)}-Tube^{(m)}-bimodule."""
        left = self.algebra(n)
        right = self.algebra(m)
        labels = self.basis(m, n)
        # left action: compose^{mnn}: Tube^{(n,n)} (x) Tube^{(m,n)} -> Tube^{(m,n)}
        left_action = _compose_terms(self.compose_map(m, n, n)[0])
        # right action: compose^{mmn}: Tube^{(m,n)} (x) Tube^{(m,m)} -> Tube^{(m,n)}
        right_action = _compose_terms(self.compose_map(m, m, n)[0])
        return Bimodule(left, right, labels, left_action, right_action,
                        name=f"Tube^({m},{n})[{self.C.name}]")

    def section(self, m, n):
        """s: Tube^{(n,n)} -> Tube^{(m,n)} (x) Tube^{(n,m)}, basiswise."""
        wc = self.wc
        C = self.C
        src = self.basis(n, n)
        b1 = {lab: i for i, lab in enumerate(self.basis(m, n))}
        b2 = {lab: i for i, lab in enumerate(self.basis(n, m))}
        out = {}
        for gi, (w, xvec, yvec) in enumerate(src):
            d = C.fuse_all(yvec)
            pad = (d,) + (self.unit,) * (m - 1)
            # g1 = (1 (x) P_d) . g : rebracket LC([w]+yvec) -> node(w, LC(yvec))
            s = wc.rebracket(lc((w,) + tuple(yvec)), node(w, lc(tuple(yvec))))
            lab1 = (w, xvec, pad)
            lab2 = (self.unit, pad, yvec)
            out[gi] = ((b1[lab1], b2[lab2]), s)
        return out

    def verify_section(self, m, n):
        rep = Report(f"Tube section (m={m}, n={n})[{self.C.name}]", "morita-section")
        comp, bh, bg, bout = self.compose_map(n, m, n)
        sec = self.section(m, n)
        iout = {lab: i for i, lab in enumerate(bout)}
        src = self.basis(n, n)
        detail = None
        for gi, ((i1, i2), s) in sec.items():
            got = comp.get((i1, i2))
            expect_idx = iout[src[gi]]
            if got is None:
                detail = f"compose^{{{n}{m}{n}}} . s misses basis {src[gi]!r}"
                break
            oi, cs = got
            if oi != expect_idx or not (cs * s - self.wc.one).is_zero():
                detail = f"compose . s != id at basis {src[gi]!r}"
                break
        rep.add("section-splits-composition", detail is None, detail)
        return rep


def build_tube(C, dd=None):
    """Level-1 tube algebra of a pointed skeletal category."""
    alg = TubeFamily(C, dd).algebra(1)
    alg.name = f"Tube[{C.name}]"
    return alg


def verify_morita_section(C, m, n, dd=None):
    return TubeFamily(C, dd).verify_section(m, n)


def build_tube_bimodule(C, m, n, dd=None):
    return TubeFamily(C, dd).bimodule(m, n)


def _compose_terms(comp):
    """A compose map (h, g) -> (out, scalar) as bilinear terms (h, g, out) -> scalar."""
    return {(h, g, o): s for (h, g), (o, s) in comp.items()}


def tube_generalized_associativity(C, instances=((1, 1, 1, 1),), dd=None):
    """compose^{mnl}(compose^{nkl} (x) id) = compose^{mkl}(id (x) compose^{mnk})."""
    fam = TubeFamily(C, dd)
    rep = Report(f"Tube compose tower[{C.name}]", "generalized-associativity")
    detail = None
    for (m, n, k, l) in instances:
        c_nkl, b_kl, b_nk, _ = fam.compose_map(n, k, l)
        c_mnl, _, b_mn, _ = fam.compose_map(m, n, l)
        c_mnk = fam.compose_map(m, n, k)[0]
        c_mkl = fam.compose_map(m, k, l)[0]
        # (h.g).f = h.(g.f) for h, g, f in Tube^(k,l), Tube^(n,k), Tube^(m,n)
        tables = [_compose_terms(c) for c in (c_mnl, c_nkl, c_mkl, c_mnk)]
        bad = _mixed_assoc_by_value(*tables, range(len(b_kl)))
        if bad is not None:
            hi, gi, fi = bad
            detail = f"tower associativity fails at {(m, n, k, l)}: {b_kl[hi]}, {b_nk[gi]}, {b_mn[fi]}"
            break
    rep.add("compose-tower-associative", detail is None, detail)
    return rep


# ---------------------------------------------------------------------------
# the primed family
# ---------------------------------------------------------------------------


class TubePrimeFamily(_TubeSpaces):
    """Tube' spaces C(x_1..x_n, w y_1..y_n w^R) with their multiplication."""

    def mult_scalar(self, h, g):
        """h = (w', x'vec, y'vec), g = (w, xvec, yvec); needs xvec == y'vec."""
        wp, xph, yph = h
        w, xg, yg = g
        if xg != yph:
            return None, None
        wc = self.wc
        C = self.C
        t = C.fuse(wp, w)
        wR = wc.inv(w)
        wpR = wc.inv(wp)
        tR = wc.inv(t)
        s = wc.one
        # h lands on LC([w'] + y'vec + [w'^R]); expose g's source in the middle
        T1 = lc((wp,) + tuple(yph) + (wpR,))
        T2 = node(wp, node(lc(tuple(xg)), wpR))
        s = s * wc.rebracket(T1, T2)
        # apply g: middle becomes LC([w] + yvec + [w^R])
        T3 = node(wp, node(lc((w,) + tuple(yg) + (wR,)), wpR))
        T4 = node(node(wp, w), node(lc(tuple(yg)), node(wR, wpR)))
        s = s * wc.rebracket(T3, T4)
        # P_t (x) 1 (x) mate(I_t): collapse both ends
        s = s * wc.right_mate(t, (wp, w), wc.one)
        T5 = node(t, node(lc(tuple(yg)), tR))
        T6 = lc((t,) + tuple(yg) + (tR,))
        s = s * wc.rebracket(T5, T6)
        return (t, xph, yg), s

    def algebra(self, n_level):
        b = self.basis(n_level, n_level)
        idx = {lab: i for i, lab in enumerate(b)}
        d = len(b)
        mu = SparseTensor3((d, d, d), self.C.conductor)
        for hi, h in enumerate(b):
            for gi, g in enumerate(b):
                lab, s = self.mult_scalar(h, g)
                if lab is None:
                    continue
                mu.add_to(hi, gi, idx[lab], s)
        return self._algebra(b, mu, f"Tube'^({n_level})[{self.C.name}]")


def build_tube_prime(C, n=1, dd=None):
    if n < 1:
        raise ValueError("level must be >= 1")
    return TubePrimeFamily(C, dd).algebra(n)


# ---------------------------------------------------------------------------
# chi: the |G|^4 algebra vs Tube'^(2)
# ---------------------------------------------------------------------------


def chi_iso(C, A=None, dd=None):
    """chi: A -> Tube'^(2); verifies it is a unital algebra isomorphism.

    A defaults to the general builder applied to the two-sided module data
    recovered from C; a closed-form |G|^4 algebra may be passed instead.
    """
    wc = WordCalc(C, dd)
    if A is None:
        from .builders import build_a_m_c
        from .skeleton import boxtimes_rev_skeleton, pointed_to_group_cocycle

        G, omega = pointed_to_group_cocycle(C)
        Cb, Mb = boxtimes_rev_skeleton(G, omega)
        A = build_a_m_c(Cb, Mb)
    fam = TubePrimeFamily(C, dd)
    Tp2 = fam.algebra(2)
    rep = Report(f"chi[{C.name}]", "tube-bridge")

    # chi on basis elements of A: labels ((a, b), y, x) from the general
    # builder, or ("e", a, b, y, x) from the closed form
    def decode(lab):
        if isinstance(lab, tuple) and len(lab) == 5 and lab[0] == "e":
            _, a, b, y, x = lab
            return a, b, y, x
        (a, b), y, x = lab
        return a, b, y, x

    chi_map = {}
    for i, lab in enumerate(A.labels):
        a, b, y, x = decode(lab)
        ayb = C.fuse_all((a, y, b))
        axb = C.fuse_all((a, x, b))
        xR = wc.inv(x)
        aR = wc.inv(a)
        xpR = wc.inv(axb)
        # target basis element of Tube'^(2): (w=a; (y', x'^R); (y, x^R))
        t_lab = (a, (ayb, xpR), (y, xR))
        s = wc.coev_word((a, x))
        # after inserting coev between y and b:
        T2 = node(node(node(a, y), node(node(node(xR, aR), node(a, x)), b)), xpR)
        # regroup so that s can eat ((a x) b)
        T3 = node(node(node(node(a, y), node(xR, aR)), node(node(a, x), b)), xpR)
        s = s * wc.rebracket(T2, T3)
        # apply s, then pair x' against x'^R
        T4 = node(node(node(node(a, y), node(xR, aR)), axb), xpR)
        T5 = node(node(node(a, y), node(xR, aR)), node(axb, xpR))
        s = s * wc.rebracket(T4, T5)
        s = s * wc.ev_right(axb)
        # land on the basis bracketing LC([a, y, x^R, a^R])
        T6 = node(node(a, y), node(xR, aR))
        s = s * wc.rebracket(T6, lc((a, y, xR, aR)))
        chi_map[i] = (Tp2.label_index[t_lab], s)

    # bijectivity: chi is monomial with nonzero scalars; check label bijection
    images = [v[0] for v in chi_map.values()]
    ok = sorted(images) == list(range(Tp2.dim)) and all(s for _, s in chi_map.values())
    rep.add("chi-bijective", ok, None if ok else "chi is not a bijection")

    phi = {i: {j: s} for i, (j, s) in chi_map.items()}
    ok = _push(phi, A.one()) == Tp2.one()
    rep.add("chi-unital", ok, None if ok else "chi(1) != 1")

    bad = _hom_range(phi, A, Tp2, range(A.dim))
    detail = None
    if bad is not None:
        i, j = bad
        detail = f"chi(uv) != chi(u)chi(v) at ({A.label_str(i)}, {A.label_str(j)})"
    rep.add("chi-multiplicative", detail is None, detail)
    return chi_map, Tp2, rep


# ---------------------------------------------------------------------------
# Tube vs Tube' under a pivotal rescaling
# ---------------------------------------------------------------------------


def _transport_scalar(wc, w, x):
    """Scalar kappa(w, x) of the ev-insertion map Tube' basis -> Tube basis."""
    C = wc.C
    y = C.fuse(C.fuse(wc.inv(w), x), w)
    wR = wc.inv(w)
    T1 = node(lc((w, y, wR)), w)
    T2 = node(node(w, y), node(wR, w))
    s = wc.rebracket(T1, T2)
    return s * wc.dd.ev[w]


def tube_vs_tube_prime(C, t_coeffs, dd=None):
    """Compare Tube' transported through the t-rescaled identification."""
    wc = WordCalc(C, dd)
    fam = TubeFamily(C, wc.dd)
    pfam = TubePrimeFamily(C, wc.dd)
    T = fam.algebra(1)
    Tp = pfam.algebra(1)
    rep = Report(f"Tube vs Tube'[{C.name}]", "pivotal-transport")

    # both families share the label set (w, (x,), (y,))
    phi = {}
    for i, (w, xv, yv) in enumerate(Tp.labels):
        s = t_coeffs[w] * _transport_scalar(wc, w, xv[0])
        phi[i] = {T.label_index[(w, xv, yv)]: s}

    bad = _hom_range(phi, Tp, T, range(Tp.dim))
    detail = None
    if bad is not None:
        i, j = bad
        detail = f"transported product mismatch at ({Tp.label_str(i)}, {Tp.label_str(j)})"
    rep.add("transported-multiplication-matches", detail is None, detail)
    ok = _push(phi, Tp.one()) == T.one()
    rep.add("transported-unit-matches", ok)
    return rep


def solve_pivotal(C, dd=None):
    """Solve for label scalars t making Tube' match Tube, or None.

    Works in exponent space modulo the conductor: every constraint ratio is
    a root of unity by construction.
    """
    wc = WordCalc(C, dd)
    fam = TubeFamily(C, wc.dd)
    pfam = TubePrimeFamily(C, wc.dd)
    T = fam.algebra(1)
    Tp = pfam.algebra(1)
    n = C.conductor
    labels = list(C.labels)
    lab_idx = {w: i for i, w in enumerate(labels)}

    kappa = {}
    for (w, xv, yv) in Tp.labels:
        kappa[(w, xv[0])] = _transport_scalar(wc, w, xv[0])

    # requirement: t_{w'} t_w / t_{w'w} = rho(w', w) for every nonzero pair;
    # collect rho and check it is x-independent
    rho = {}
    for hi, h in enumerate(Tp.labels):
        for gi, g in enumerate(Tp.labels):
            pl = Tp.mu_ids.get(hi, {}).get(gi)
            if pl is None:
                continue
            oi, sp = pl[0]
            wp, xvp, _ = h
            w, xv, _ = g
            st = T.mu_ids[T.label_index[h]][T.label_index[g]][0][1]
            t_lab = Tp.labels[oi]
            ratio = (Tp.scalar_values[sp] * kappa[(t_lab[0], t_lab[1][0])]) / (
                T.scalar_values[st] * kappa[(wp, xvp[0])] * kappa[(w, xv[0])]
            )
            key = (wp, w)
            if key in rho:
                if rho[key] != ratio:
                    return None  # no consistent pivotal rescaling
            else:
                rho[key] = ratio

    # discrete logs
    def dlog(val):
        acc = Cyclotomic.one(n)
        z = Cyclotomic.from_pairs(n, ((1 % n, 1),)) if n > 1 else Cyclotomic.one(n)
        for k in range(n):
            if acc == val:
                return k
            acc = acc * z
        return None

    eqs = []
    for (wp, w), val in rho.items():
        k = dlog(val)
        if k is None:
            return None
        row = {lab_idx[wp]: 1}
        row[lab_idx[w]] = row.get(lab_idx[w], 0) + 1
        ww = C.fuse(wp, w)
        row[lab_idx[ww]] = row.get(lab_idx[ww], 0) - 1
        eqs.append(({c: v % n for c, v in row.items() if v % n}, k % n))

    sol = _solve_mod(eqs, len(labels), max(n, 1))
    if sol is None:
        return None
    t = {w: Cyclotomic.from_pairs(n, ((sol[lab_idx[w]] % n if n > 1 else 0, 1),))
         for w in labels}
    return t


def _solve_mod(eqs, nunk, N):
    """One solution of a linear system over Z_N by pruned search, or None.

    Desk scale: the pivotal systems here have at most a handful of unknowns
    (one per label) with tiny moduli, so depth-first search with constraint
    propagation is exact and instant.
    """
    if N == 1:
        for row, b in eqs:
            if b % 1:
                return None
        return [0] * nunk
    eqs = [({c: v % N for c, v in row.items() if v % N}, b % N) for row, b in eqs]
    for row, b in eqs:
        if not row and b:
            return None
    order = sorted(range(nunk), key=lambda c: -sum(1 for row, _ in eqs if c in row))
    sol = {}

    def consistent():
        for row, b in eqs:
            if all(c in sol for c in row):
                if (sum(v * sol[c] for c, v in row.items()) - b) % N:
                    return False
        return True

    def dfs(pos):
        if pos == len(order):
            return True
        c = order[pos]
        for val in range(N):
            sol[c] = val
            if consistent() and dfs(pos + 1):
                return True
            del sol[c]
        return False

    if not dfs(0):
        return None
    return [sol.get(c, 0) for c in range(nunk)]


# ---------------------------------------------------------------------------
# the fusion-ring obstruction detector
# ---------------------------------------------------------------------------


def weak_bialgebra_obstruction(ring, candidates):
    """Pairs (z, z') with dim J(z (x) z') > dim J(z) dim J(z').

    Each candidate is a dict with keys "object" (multiset of simple labels)
    and "jdim" (total simple multiplicity of the underlying object); the
    product is expanded through the fusion ring.  A nonempty report means no
    weak bialgebra structure can induce the monoidal equivalence.
    """
    rep = Report(ring.name, "obstruction")
    pairs = []
    for z in candidates:
        for zp in candidates:
            total = 0
            for p in z["object"]:
                for q in zp["object"]:
                    for r in ring.labels:
                        total += ring.N(p, q, r)
            bound = z["jdim"] * zp["jdim"]
            if total > bound:
                pairs.append((z, zp, total, bound))
    ok = not pairs
    detail = None
    if pairs:
        z, zp, total, bound = pairs[0]
        detail = (
            f"dim J({z['object']} (x) {zp['object']}) = {total} > {bound}"
        )
    rep.add("no-dimension-obstruction", ok, detail)
    return rep, pairs
