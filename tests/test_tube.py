import itertools
import random

import pytest

from whalg.exactmath import Cyclotomic, SparseTensor3
from whalg.builders import build_a_g_omega
from whalg.groups import cyclic_group, standard_cocycle, trivial_cocycle
from whalg.skeleton import fib_fusion_ring, pointed_skeleton
from whalg.tube import (
    Bimodule,
    PlainAlgebra,
    TubeFamily,
    WordCalc,
    _transport_scalar,
    build_tube,
    build_tube_bimodule,
    build_tube_prime,
    chi_iso,
    solve_pivotal,
    tube_generalized_associativity,
    tube_vs_tube_prime,
    verify_morita_section,
    weak_bialgebra_obstruction,
)
from whalg.wha import center_dim

from references import assoc_dense


def pointed(n, p):
    g = cyclic_group(n)
    w = standard_cocycle(n, p) if p else trivial_cocycle(g, conductor=n)
    return pointed_skeleton(g, w), g, w


def closed_form_tube_product(C, G, omega, left, right):
    """Independent oracle for the level-1 tube product (hand derivation)."""
    wp, (xp,), _ = left
    w, (x,), _ = right
    if x != G.prod((G.inv(wp), xp, wp)):
        return None, None
    y = G.prod((G.inv(w), x, w))
    coeff = omega(wp, x, w) / (omega(xp, wp, w) * omega(wp, w, y))
    t = G.mul(wp, w)
    return (t, (xp,), (G.prod((G.inv(t), xp, t)),)), coeff


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_tube_dim_and_algebra_laws(n, p):
    C, g, w = pointed(n, p)
    T = build_tube(C)
    assert T.dim == n * n
    assert T.validate().ok


@pytest.mark.parametrize("name", ["z4", "z2xz2", "s3", "z6"])
def test_tube_laws_across_catalog(name):
    from whalg.groups import catalog_group

    G = catalog_group(name)
    C = pointed_skeleton(G, trivial_cocycle(G))
    T = build_tube(C)
    assert T.dim == G.order ** 2
    assert T.validate().ok
    Tp = build_tube_prime(C, 1)
    assert Tp.validate().ok


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_tube_matches_closed_form_oracle(n, p):
    C, g, w = pointed(n, p)
    T = build_tube(C)
    for left in T.labels:
        for right in T.labels:
            lab, coeff = closed_form_tube_product(C, g, w, left, right)
            got = T.mul(T.basis_elem(T.label_index[left]), T.basis_elem(T.label_index[right]))
            if lab is None:
                assert got == {}
            else:
                assert got == {T.label_index[lab]: coeff}


def test_tube_z2_trivial_commutative_center():
    C, g, w = pointed(2, 0)
    T = build_tube(C)
    for i in range(T.dim):
        for j in range(T.dim):
            assert T.mul(T.basis_elem(i), T.basis_elem(j)) == T.mul(
                T.basis_elem(j), T.basis_elem(i)
            )
    assert center_dim(T) == 4


@pytest.mark.parametrize("n,p,lvl,expect", [(2, 0, 1, 4), (2, 0, 2, 16), (2, 1, 2, 16), (3, 1, 2, 81)])
def test_tube_prime_dims_and_laws(n, p, lvl, expect):
    C, g, w = pointed(n, p)
    Tp = build_tube_prime(C, lvl)
    assert Tp.dim == expect
    assert Tp.validate().ok


def test_tube_prime_level1_equals_multiplication_of_family():
    # compose^{111} on the unprimed side is the tube multiplication
    C, g, w = pointed(3, 1)
    fam = TubeFamily(C)
    T = fam.algebra(1)
    comp, bh, bg, bout = fam.compose_map(1, 1, 1)
    for (hi, gi), (oi, s) in comp.items():
        prod = T.mul(T.basis_elem(hi), T.basis_elem(gi))
        assert prod == {oi: s}


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 1)])
def test_morita_section(n, p):
    C, g, w = pointed(n, p)
    assert verify_morita_section(C, 1, 2).ok
    assert verify_morita_section(C, 1, 1).ok
    assert verify_morita_section(C, 2, 1).ok


def test_bimodule_axioms():
    C, g, w = pointed(2, 1)
    bim = build_tube_bimodule(C, 1, 2)
    assert bim.validate().ok


def test_generalized_associativity():
    C, g, w = pointed(2, 1)
    instances = list(itertools.product((1, 2), repeat=4))
    assert tube_generalized_associativity(C, instances).ok


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_chi_isomorphism(n, p):
    C, g, w = pointed(n, p)
    chi_map, Tp2, rep = chi_iso(C)
    assert rep.ok, rep.render()
    assert Tp2.dim == n ** 4


def test_chi_with_closed_form_algebra():
    C, g, w = pointed(2, 1)
    A, _ = build_a_g_omega(g, w)
    chi_map, Tp2, rep = chi_iso(C, A)
    assert rep.ok, rep.render()


@pytest.mark.parametrize("n", [2, 3])
def test_tube_vs_tube_prime_trivial_omega(n):
    C, g, w = pointed(n, 0)
    one = Cyclotomic.one(C.conductor)
    t = {lab: one for lab in C.labels}
    rep = tube_vs_tube_prime(C, t)
    assert rep.ok, rep.render()


def _transport_dense(C, t):
    """Reference for "transported-multiplication-matches": every basis pair."""
    wc = WordCalc(C)
    T = TubeFamily(C, wc.dd).algebra(1)
    Tp = build_tube_prime(C, 1, wc.dd)
    phi = {i: {T.label_index[lab]: t[lab[0]] * _transport_scalar(wc, lab[0], lab[1][0])}
           for i, lab in enumerate(Tp.labels)}
    bad = _hom_dense(phi, Tp, T)
    return bad and f"transported product mismatch at ({Tp.label_str(bad[0])}, {Tp.label_str(bad[1])})"


def test_tube_vs_tube_prime_sign_flip_z2_trivial():
    # t = (1, -1) is a character of Z2, so its coboundary is trivial and the
    # flipped rescaling still matches; t = (1, 2) is not a character
    C, g, w = pointed(2, 0)
    one = Cyclotomic.one(C.conductor)
    rep = tube_vs_tube_prime(C, {0: one, 1: -one})
    assert rep.ok, rep.render()
    assert _transport_dense(C, {0: one, 1: -one}) is None

    t = {0: one, 1: one + one}
    check = _check(tube_vs_tube_prime(C, t), "transported-multiplication-matches")
    assert not check.ok
    assert check.detail == _transport_dense(C, t)
    assert check.detail == "transported product mismatch at ((1, (0,), (0,)), (1, (0,), (0,)))"


@pytest.mark.parametrize("n,p", [(2, 0), (3, 0), (3, 1), (3, 2), (4, 1)])
def test_solve_pivotal_then_verify(n, p):
    C, g, w = pointed(n, p)
    t = solve_pivotal(C)
    assert t is not None
    rep = tube_vs_tube_prime(C, t)
    assert rep.ok, rep.render()


def test_obstruction_fibonacci():
    fib = fib_fusion_ring()
    cands = [{"name": "z", "object": ["nu"], "jdim": 1}]
    rep, pairs = weak_bialgebra_obstruction(fib, cands)
    assert not rep.ok
    assert pairs
    z, zp, total, bound = pairs[0]
    assert total == 2 and bound == 1


def test_obstruction_pointed_ring_clear():
    C, g, w = pointed(3, 1)
    cands = [{"name": str(a), "object": [a], "jdim": 1} for a in C.labels]
    rep, pairs = weak_bialgebra_obstruction(C.ring, cands)
    assert rep.ok
    assert not pairs


def test_obstruction_unit_candidate_never_contributes():
    fib = fib_fusion_ring()
    cands = [{"name": "1", "object": ["1"], "jdim": 1}]
    rep, pairs = weak_bialgebra_obstruction(fib, cands)
    assert rep.ok


def test_obstruction_monotone():
    fib = fib_fusion_ring()
    small = [{"name": "z", "object": ["nu"], "jdim": 1}]
    bigger = [{"name": "z", "object": ["nu"], "jdim": 1},
              {"name": "zz", "object": ["nu", "nu"], "jdim": 2}]
    _, pairs_small = weak_bialgebra_obstruction(fib, small)
    _, pairs_big = weak_bialgebra_obstruction(fib, bigger)
    small_keys = {(id0["name"], id1["name"]) for id0, id1, _, _ in pairs_small}
    big_keys = {(id0["name"], id1["name"]) for id0, id1, _, _ in pairs_big}
    assert small_keys <= big_keys


# ---------------------------------------------------------------------------
# the sparse validator against the dense reference
# ---------------------------------------------------------------------------


_TUBES = {
    "tube-z3": lambda: build_tube(pointed(3, 1)[0]),
    "tube-prime-z3": lambda: build_tube_prime(pointed(3, 1)[0], 1),
    "tube-level2-z2": lambda: TubeFamily(pointed(2, 1)[0]).algebra(2),
    "tube-prime-level2-z2": lambda: build_tube_prime(pointed(2, 1)[0], 2),
}


def _tampered(T):
    """T with one structure constant off the unit's rows and columns doubled."""
    i, j, k = next(key for key in sorted(T.mu.data) if key[0] not in T.unit and key[1] not in T.unit)
    mu = SparseTensor3(T.mu.dims, T.conductor, dict(T.mu.data))
    mu.data[(i, j, k)] = mu.data[(i, j, k)] * Cyclotomic.rational(T.conductor, 2)
    return PlainAlgebra(T.labels, T.conductor, mu, dict(T.unit), name=T.name + "'")


def _check(rep, name):
    return next(c for c in rep.checks if c.name == name)


@pytest.mark.parametrize("name", sorted(_TUBES))
def test_validate_agrees_with_dense_reference(name):
    T = _TUBES[name]()
    rep = T.validate()
    assert [c.name for c in rep.checks] == ["unit-law", "associativity"]
    assert rep.ok
    assert assoc_dense(T) is None

    bad = _tampered(T)
    rep = bad.validate()
    assert _check(rep, "unit-law").ok
    assoc = _check(rep, "associativity")
    assert not assoc.ok
    assert assoc.detail is not None
    assert assoc.detail == assoc_dense(bad)


def test_plain_algebra_rejects_duplicate_labels():
    mu = SparseTensor3((2, 2, 2), 1)
    with pytest.raises(ValueError, match="distinct"):
        PlainAlgebra(["a", "a"], 1, mu, {})


# ---------------------------------------------------------------------------
# the law kernels against the dense loops they replaced, on tampered input
# ---------------------------------------------------------------------------


def _push_dense(phi, vec):
    out = {}
    for i, c in vec.items():
        for k, s in phi[i].items():
            out[k] = out[k] + c * s if k in out else c * s
    return {k: c for k, c in out.items() if c}


def _hom_dense(phi, A, B):
    """Least (i, j) with phi(e_i e_j) != phi(e_i) phi(e_j), over every basis pair."""
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = _push_dense(phi, A.mul(A.basis_elem(i), A.basis_elem(j)))
            if lhs != B.mul(phi[i], phi[j]):
                return i, j
    return None


def _scaled(terms, key, factor):
    out = dict(terms)
    out[key] = out[key] * factor
    return out


def _act_dense(action, u, v):
    out = {}
    for (x, y, w), c in action.items():
        if x in u and y in v:
            out[w] = out[w] + u[x] * v[y] * c if w in out else u[x] * v[y] * c
    return {w: c for w, c in out.items() if c}


def _bimodule_commute_dense(M):
    """Reference for "actions-commute": (a m) b = a (m b), least (a, m, b) first."""
    one = Cyclotomic.one(M.left_alg.conductor)
    for a in range(M.left_alg.dim):
        for m in range(M.dim):
            for b in range(M.right_alg.dim):
                av, mv, bv = {a: one}, {m: one}, {b: one}
                lhs = _act_dense(M.right_action, _act_dense(M.left_action, av, mv), bv)
                rhs = _act_dense(M.left_action, av, _act_dense(M.right_action, mv, bv))
                if lhs != rhs:
                    return f"actions do not commute at ({a}, {m}, {b})"
    return None


def test_bimodule_commute_matches_dense_reference_on_tampered_actions():
    C, _, _ = pointed(2, 1)
    M = build_tube_bimodule(C, 1, 2)
    assert _bimodule_commute_dense(M) is None
    two = Cyclotomic.rational(C.conductor, 2)
    rng = random.Random(12)
    for side in ("left", "right"):
        action = getattr(M, side + "_action")
        for key in rng.sample(sorted(action), 3):
            tampered = {"left_action": M.left_action, "right_action": M.right_action}
            tampered[side + "_action"] = _scaled(action, key, two)
            bad = Bimodule(M.left_alg, M.right_alg, M.labels, name="bad", **tampered)
            check = _check(bad.validate(), "actions-commute")
            assert not check.ok
            assert check.detail == _bimodule_commute_dense(bad)


def _tower_dense(C, instances):
    """Reference for "compose-tower-associative": every (h, g, f) of each instance."""
    fam = TubeFamily(C)
    for (m, n, k, l) in instances:
        c_nkl, b_kl, b_nk, _ = fam.compose_map(n, k, l)
        c_mnl, _, b_mn, _ = fam.compose_map(m, n, l)
        c_mnk = fam.compose_map(m, n, k)[0]
        c_mkl = fam.compose_map(m, k, l)[0]
        for hi, h in enumerate(b_kl):
            for gi, g in enumerate(b_nk):
                for fi, f in enumerate(b_mn):
                    lhs = rhs = None
                    if (hi, gi) in c_nkl:
                        oi, s = c_nkl[(hi, gi)]
                        if (oi, fi) in c_mnl:
                            res = c_mnl[(oi, fi)]
                            lhs = (res[0], res[1] * s)
                    if (gi, fi) in c_mnk:
                        oi, s = c_mnk[(gi, fi)]
                        if (hi, oi) in c_mkl:
                            res = c_mkl[(hi, oi)]
                            rhs = (res[0], res[1] * s)
                    if lhs != rhs:
                        return f"tower associativity fails at {(m, n, k, l)}: {h}, {g}, {f}"
    return None


@pytest.mark.parametrize("target,pick", [((1, 1, 1), 5), ((2, 1, 2), 9), ((1, 2, 2), 30)])
def test_tower_matches_dense_reference_on_tampered_compose_scalar(monkeypatch, target, pick):
    C, _, _ = pointed(2, 1)
    instances = list(itertools.product((1, 2), repeat=4))
    original = TubeFamily.compose_map

    def compose_map(self, m, n, k):
        comp, bh, bg, bout = original(self, m, n, k)
        if (m, n, k) == target:
            key = sorted(comp)[pick]
            o, s = comp[key]
            comp = dict(comp)
            comp[key] = (o, s * Cyclotomic.rational(C.conductor, 2))
        return comp, bh, bg, bout

    monkeypatch.setattr(TubeFamily, "compose_map", compose_map)
    check = _check(tube_generalized_associativity(C, instances), "compose-tower-associative")
    assert not check.ok
    assert check.detail == _tower_dense(C, instances)


@pytest.mark.parametrize("n", [2, 3])
def test_chi_matches_dense_reference_on_tampered_mu(n):
    C, g, w = pointed(n, 1)
    A, _ = build_a_g_omega(g, w)
    two = Cyclotomic.rational(A.conductor, 2)
    for key in random.Random(n).sample(sorted(A.mu.data), 2):
        # dropping the entry leaves chi(e_i) chi(e_j) != 0 where e_i e_j = 0
        dropped = dict(A.mu.data)
        del dropped[key]
        for data in (_scaled(A.mu.data, key, two), dropped):
            mu = SparseTensor3(A.mu.dims, A.conductor, data)
            bad = PlainAlgebra(A.labels, A.conductor, mu, dict(A.unit), name="bad")
            chi_map, Tp2, rep = chi_iso(C, bad)
            phi = {i: {j: s} for i, (j, s) in chi_map.items()}
            i, j = _hom_dense(phi, bad, Tp2)
            check = _check(rep, "chi-multiplicative")
            assert not check.ok
            assert check.detail == f"chi(uv) != chi(u)chi(v) at ({bad.label_str(i)}, {bad.label_str(j)})"
