import itertools
import random

import pytest

from whalg.exactmath import Cyclotomic, SparseTensor3, root_of_unity
from whalg.builders import build_a_g_omega
from whalg.groups import (GROUP_CATALOG, ThreeCocycle, catalog_group, cyclic_group, embed_cocycle, product_group,
                          standard_cocycle, symmetric_group_3, trivial_cocycle, validate_cocycle)
from whalg.skeleton import fib_fusion_ring, pointed_skeleton
from whalg.tube import (
    Bimodule,
    PlainAlgebra,
    TubeFamily,
    TubePrimeFamily,
    WordCalc,
    _transport_scalar,
    build_tube,
    build_tube_bimodule,
    build_tube_prime,
    chi_iso,
    node,
    solve_pivotal,
    tube_generalized_associativity,
    tube_vs_tube_prime,
    verify_morita_section,
    weak_bialgebra_obstruction,
)
from whalg import tube
from whalg.wha import center_dim

from references import (assert_morphism_laws_match, assoc_dense, comb_scalar_recursive, cup_cocycle,
                        rebracket_recursive, s3_sign_pullback)


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


@pytest.mark.parametrize("n,p,lvl,expect", [(2, 0, 1, 4), (2, 0, 2, 16), (2, 1, 2, 16), (3, 1, 2, 81),
                                             (4, 1, 2, 256), (4, 3, 2, 256)])
def test_tube_prime_dims_and_laws(n, p, lvl, expect):
    C, g, w = pointed(n, p)
    Tp = build_tube_prime(C, lvl)
    assert Tp.dim == expect
    assert Tp.validate().ok
    assert center_dim(Tp) == n * n


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


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 1), (4, 3)])
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


def _transport_map(C, t):
    """(phi, Tube', Tube): the t-rescaled identification, for the dense reference."""
    fam = TubeFamily(C)
    wc = fam.wc
    T = fam.algebra(1)
    Tp = build_tube_prime(C, 1)
    phi = [{T.label_index[lab]: t[lab[0]] * _transport_scalar(wc, lab[0], lab[1][0])} for lab in Tp.labels]
    return phi, Tp, T


def test_tube_vs_tube_prime_sign_flip_z2_trivial():
    # t = (1, -1) is a character of Z2, so its coboundary is trivial and the
    # flipped rescaling still matches; t = (1, 2) is not a character
    C, g, w = pointed(2, 0)
    one = Cyclotomic.one(C.conductor)
    rep = tube_vs_tube_prime(C, {0: one, 1: -one})
    assert rep.ok, rep.render()
    dense = assert_morphism_laws_match(rep, "transport", *_transport_map(C, {0: one, 1: -one}))
    assert not any(dense.values())

    t = {0: one, 1: one + one}
    rep = tube_vs_tube_prime(C, t)
    check = _check(rep, "transport-multiplicative")
    assert not check.ok
    assert_morphism_laws_match(rep, "transport", *_transport_map(C, t))
    assert check.detail == "phi(uv) != phi(u)phi(v) at ((1, (0,), (0,)), (1, (0,), (0,)))"


@pytest.mark.parametrize("n,p", [(2, 0), (3, 0), (3, 1), (3, 2), (4, 1)])
def test_solve_pivotal_then_verify(n, p):
    C, g, w = pointed(n, p)
    t = solve_pivotal(C)
    assert t is not None
    rep = tube_vs_tube_prime(C, t)
    assert rep.ok, rep.render()


def twisted_by_coboundary(n, p, m, seed):
    """omega_p on Z_n at conductor m, times d(beta) for a seeded 2-cochain beta:
    beta(a, b) = +-zeta_m^k for a, b != 0, 1 when a or b is 0, and
    d(beta)(a, b, c) = beta(b, c) beta(a, b + c) / (beta(a + b, c) beta(a, b))."""
    g = cyclic_group(n)
    w = embed_cocycle(standard_cocycle(n, p) if p else trivial_cocycle(g), m)
    rng = random.Random(seed)
    beta = {}
    for a, b in itertools.product(range(n), repeat=2):
        if a and b:
            k = rng.randrange(m)
            beta[(a, b)] = root_of_unity(m, k) * Cyclotomic.rational(m, rng.choice((1, -1)))
        else:
            beta[(a, b)] = Cyclotomic.one(m)
    vals = {(a, b, c): v * beta[(b, c)] * beta[(a, (b + c) % n)] / (beta[((a + b) % n, c)] * beta[(a, b)])
            for (a, b, c), v in w.values.items()}
    omega = ThreeCocycle(g, vals, m, name="twisted")
    assert validate_cocycle(g, omega).ok
    return pointed_skeleton(g, omega)


TWISTS = [
    (3, 1, 6, 2),
    (4, 1, 4, 2),
    (4, 0, 8, 2),
    (6, 1, 6, 2),
    (3, 1, 3, 1),  # an odd conductor: the cocycle takes values -zeta_3^k
]


@pytest.mark.parametrize("n,p,m,seed", TWISTS)
def test_solve_pivotal_finds_a_nontrivial_rescaling(n, p, m, seed):
    # omega times a coboundary is cohomologous to omega, so a rescaling t
    # exists; for these seeds it is not the all-ones one
    C = twisted_by_coboundary(n, p, m, seed)
    ones = {lab: Cyclotomic.one(m) for lab in C.labels}
    assert not tube_vs_tube_prime(C, ones).ok
    t = solve_pivotal(C)
    assert t is not None
    rep = tube_vs_tube_prime(C, t)
    assert rep.ok, rep.render()


def _z2_power_cocycle(r, legs, name):
    """(-1)^(a_i b_j c_k) on Z2^r for legs (i, j, k); bit 0 is the first factor."""
    G = cyclic_group(2)
    for _ in range(r - 1):
        G = product_group(G, cyclic_group(2))
    f, g, h = (lambda a, k=k: (a >> (r - 1 - k)) & 1 for k in legs)
    return G, cup_cocycle(G, f, g, h, name=name)


def _catalog_pairs():
    out = {}
    for name in sorted(GROUP_CATALOG):
        G = catalog_group(name)
        cyclic = name.startswith("z") and "x" not in name
        for p in range(G.order if cyclic else 1):
            out[f"{name}-p{p}"] = lambda G=G, p=p: (G, standard_cocycle(G.order, p) if p else trivial_cocycle(G))
    return out


PIVOTAL_INPUTS = {
    **_catalog_pairs(),
    "s3-sign-pullback": s3_sign_pullback,
    "z2xz2-type-II": lambda: _z2_power_cocycle(2, (0, 1, 1), "(-1)^(a1 b2 c2)"),
    "z2^3-type-III": lambda: _z2_power_cocycle(3, (0, 1, 2), "(-1)^(a1 b2 c3)"),
}


@pytest.mark.parametrize("name", sorted(PIVOTAL_INPUTS))
def test_solve_pivotal_is_f_of_w_winv_w(name):
    G, omega = PIVOTAL_INPUTS[name]()
    assert validate_cocycle(G, omega).ok
    C = pointed_skeleton(G, omega)
    t = solve_pivotal(C)
    assert t == {w: omega(w, G.inv(w), w) for w in G.elements()}
    rep = tube_vs_tube_prime(C, t)
    assert rep.ok, rep.render()


@pytest.mark.parametrize("n,p,m,seed", TWISTS)
def test_solve_pivotal_is_f_of_w_winv_w_on_coboundary_twists(n, p, m, seed):
    C = twisted_by_coboundary(n, p, m, seed)
    t = solve_pivotal(C)
    assert t == {w: C.assoc(w, (-w) % n, w) for w in range(n)}
    assert tube_vs_tube_prime(C, t).ok


@pytest.mark.parametrize("case", ["z3-p1", "s3-sign-pullback"])
def test_pivotal_rescalings_differ_by_characters(case):
    # t times a character of G still transports Tube' onto Tube; t times a
    # function that is no character does not, at the hom kernel's first pair
    G, omega = PIVOTAL_INPUTS[case]()
    C = pointed_skeleton(G, omega)
    t = solve_pivotal(C)
    one = Cyclotomic.one(C.conductor)
    if case == "z3-p1":
        chi = {w: root_of_unity(3, w) for w in G.elements()}
    else:
        chi = {w: omega(w, w, w) for w in G.elements()}  # (-1)^sign(w)
    rep = tube_vs_tube_prime(C, {w: t[w] * chi[w] for w in t})
    assert rep.ok, rep.render()

    bad = {w: t[w] * (one + one if w == 1 else one) for w in t}
    rep = tube_vs_tube_prime(C, bad)
    assert not _check(rep, "transport-multiplicative").ok
    assert_morphism_laws_match(rep, "transport", *_transport_map(C, bad))


def test_transported_unit_mismatch_names_phi_of_one():
    C, g, w = pointed(2, 1)
    t = solve_pivotal(C)
    t[C.unit] = -t[C.unit]
    check = _check(tube_vs_tube_prime(C, t), "transport-unital")
    assert (check.ok, check.detail) == (False, "phi(1) != 1 at (0, (0,), (0,))")


def _pivotal_identity(mul, inv, F, wp, w, x):
    """The ten associators of rho(w', w) besides its ev factors, times
    d(e)(w', w) = e(w') e(w) / e(w'w) with e(g) = F(g, g^-1, g), as
    (exponent, F value) pairs whose product is 1 (see `solve_pivotal`)."""
    t, xw = mul(wp, w), mul(x, w)
    e = lambda g: F(g, inv(g), g)
    return [(1, F(wp, x, inv(wp))), (1, F(xw, inv(w), inv(wp))), (1, F(wp, w, inv(t))),
            (-1, F(wp, xw, inv(t))), (-1, F(w, inv(w), inv(wp))), (1, F(mul(wp, xw), inv(t), t)),
            (-1, F(wp, x, w)), (1, F(mul(mul(wp, x), inv(wp)), wp, w)), (-1, F(mul(wp, x), inv(wp), wp)),
            (-1, F(xw, inv(w), w)), (1, e(wp)), (1, e(w)), (-1, e(t))]


def test_the_pivotal_ratio_is_the_coboundary_of_f_of_w_winv_w_for_every_cocycle():
    # rho(w', w) as the code computes it is the ten associators times d(e)^2,
    # and the ten associators times d(e) multiply to 1 ...
    C = twisted_by_coboundary(4, 1, 4, 2)
    fam, pfam = TubeFamily(C), TubePrimeFamily(C)
    kappa = lambda w, x: _transport_scalar(fam.wc, w, x)
    mul, inv, F = C.fuse, C.ring.dual.__getitem__, C.assoc
    for wp, w, x in itertools.product(C.labels, repeat=3):
        xp, y, t = mul(mul(wp, x), inv(wp)), mul(mul(inv(w), x), w), mul(wp, w)
        h, g = (wp, (xp,), (x,)), (w, (x,), (y,))
        rho = (pfam.mult_scalar(h, g)[1] * kappa(t, xp)
               / (fam.compose_scalar(h, g)[1] * kappa(wp, xp) * kappa(w, x)))
        ten = Cyclotomic.one(C.conductor)
        for k, v in _pivotal_identity(mul, inv, F, wp, w, x)[:10]:
            ten = ten * v if k > 0 else ten / v
        de = F(wp, inv(wp), wp) * F(w, inv(w), w) / F(t, inv(t), t)
        assert rho == ten * de * de
        assert (ten * de).is_one()

    # ... and the identity holds for every normalized cocycle on every group:
    # pulled back to the free group on (w', w, x), where H^3 vanishes, the
    # cocycle is d(h) for a normalized 2-cochain h, and the h terms cancel
    def fmul(*words):
        out = []
        for letter in itertools.chain(*words):
            if out and out[-1] == (letter[0], -letter[1]):
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    finv = lambda word: tuple((a, -k) for a, k in reversed(word))

    def dh(a, b, c):
        return [(k, pair) for k, pair in ((1, (b, c)), (-1, (fmul(a, b), c)), (1, (a, fmul(b, c))), (-1, (a, b)))
                if all(pair)]

    total = {}
    for k, terms in _pivotal_identity(fmul, finv, dh, (("u", 1),), (("v", 1),), (("x", 1),)):
        for k2, pair in terms:
            total[pair] = total.get(pair, 0) + k * k2
    assert not any(total.values())


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
# the word calculus's table against the recursion it replaced
# ---------------------------------------------------------------------------


def _random_tree(rng, word):
    if len(word) == 1:
        return word[0]
    k = rng.randrange(1, len(word))
    return node(_random_tree(rng, word[:k]), _random_tree(rng, word[k:]))


WORD_CALC_INPUTS = {
    "z3-p1": lambda: pointed(3, 1)[0],
    "z4-p3": lambda: pointed(4, 3)[0],
    "s3-trivial": lambda: pointed_skeleton(symmetric_group_3(), trivial_cocycle(symmetric_group_3())),
    "s3-sign-pullback": lambda: pointed_skeleton(*s3_sign_pullback()),
}


@pytest.mark.parametrize("name", sorted(WORD_CALC_INPUTS))
def test_rebracket_matches_the_recursive_reference(name):
    # one calculus for all trials, so later trees meet subtrees already in
    # its table; words of one to seven labels, random bracketings
    C = WORD_CALC_INPUTS[name]()
    wc = WordCalc(C)
    rng = random.Random(name)
    for _ in range(300):
        word = tuple(rng.choice(C.labels) for _ in range(rng.randint(1, 7)))
        src, dst = _random_tree(rng, word), _random_tree(rng, word)
        assert wc.rebracket(src, dst) == rebracket_recursive(wc, src, dst)
        assert wc.entry(src) == (word, comb_scalar_recursive(wc, src))

        other = list(word)
        if rng.random() < 0.5:
            k = rng.randrange(len(word))
            other[k] = rng.choice([x for x in C.labels if x != word[k]])
        else:
            other.append(rng.choice(C.labels))
        bad = _random_tree(rng, tuple(other))
        for calc in (wc.rebracket, lambda a, b: rebracket_recursive(wc, a, b)):
            with pytest.raises(ValueError, match="different words"):
                calc(src, bad)
            with pytest.raises(ValueError, match="different words"):
                calc(bad, dst)


def _tube_outputs(C):
    """Every product table, the chi map and the section verdicts, entry order kept."""
    tables = [list(T.mu.data.items()) for T in
              (build_tube(C), build_tube_prime(C, 1), build_tube_prime(C, 2))]
    chi_map, _Tp2, rep = chi_iso(C)
    sections = [(c.name, c.ok, c.detail) for m, n in ((1, 1), (1, 2), (2, 1))
                for c in verify_morita_section(C, m, n).checks]
    return tables, chi_map, [(c.name, c.ok, c.detail) for c in rep.checks], sections


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_tube_outputs_match_the_recursive_calculus(monkeypatch, n, p):
    C, _, _ = pointed(n, p)
    got = _tube_outputs(C)
    for table in got[0]:  # entries in (h, g) order
        assert [key for key, _ in table] == sorted(key for key, _ in table)
    monkeypatch.setattr(WordCalc, "rebracket", rebracket_recursive)
    assert got == _tube_outputs(C)


def test_no_word_table_outlives_a_call():
    # the table lives on the family's WordCalc and the right mates on the
    # family: nothing is left on C or in the module after a build, and the
    # next family starts empty
    C, _, _ = pointed(3, 1)
    held = dict(vars(C))
    sizes = {k: len(v) for k, v in held.items() if hasattr(v, "__len__")}
    module = dict(vars(tube))
    build_tube_prime(C, 2)
    chi_iso(C)
    assert vars(C).keys() == held.keys() and all(vars(C)[k] is v for k, v in held.items())
    assert {k: len(v) for k, v in vars(C).items() if hasattr(v, "__len__")} == sizes
    assert vars(tube) == module
    fam = TubePrimeFamily(C)
    assert fam.wc.table == {} and fam.mates == {}
    fam.algebra(2)
    assert len(fam.wc.table) == 444  # the distinct subtrees of Tube'^(2) on Z3
    assert len(fam.mates) == 9  # one right mate per pair (w', w)
    assert set(vars(fam)) == {"wc", "C", "unit", "mates"}
    fresh = TubePrimeFamily(C)
    assert fresh.wc.table == {} and fresh.mates == {}


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


def _bimodule_unit_dense(M):
    """Reference for "unit-laws": 1 m = m = m 1, least m first, the left law first."""
    one = Cyclotomic.one(M.left_alg.conductor)
    for m in range(M.dim):
        mv = {m: one}
        if _act_dense(M.left_action, M.left_alg.one(), mv) != mv:
            return f"left unit law fails at {m}"
        if _act_dense(M.right_action, mv, M.right_alg.one()) != mv:
            return f"right unit law fails at {m}"
    return None


@pytest.mark.parametrize("side", ["left", "right"])
def test_bimodule_unit_laws_match_dense_reference_on_a_tampered_action(side):
    C, _, _ = pointed(2, 1)
    M = build_tube_bimodule(C, 1, 2)
    assert _bimodule_unit_dense(M) is None
    action, alg, leg = (M.left_action, M.left_alg, 0) if side == "left" else (M.right_action, M.right_alg, 1)
    # an entry through which the unit acts on m = key[1 - leg]
    key = random.Random(37).choice(sorted(k for k in action if k[leg] in alg.unit))
    tampered = {"left_action": M.left_action, "right_action": M.right_action}
    tampered[side + "_action"] = _scaled(action, key, Cyclotomic.rational(C.conductor, 2))
    bad = Bimodule(M.left_alg, M.right_alg, M.labels, name="bad", **tampered)
    check = _check(bad.validate(), "unit-laws")
    assert not check.ok
    assert check.detail == _bimodule_unit_dense(bad) == f"{side} unit law fails at {key[1 - leg]}"


def _section_dense(fam, m, n):
    """Reference for "section-splits-composition": compose^{nmn}(s(g)) = g, least g first."""
    comp, _, _, bout = fam.compose_map(n, m, n)
    sec = fam.section(m, n)
    for gi, g in enumerate(fam.basis(n, n)):
        (i1, i2), s = sec[gi]
        if (i1, i2) not in comp:
            return f"compose^{{{n}{m}{n}}} . s misses basis {g!r}"
        oi, cs = comp[(i1, i2)]
        if {bout[oi]: cs * s} != {g: fam.wc.one}:
            return f"compose . s != id at basis {g!r}"
    return None


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1)])
def test_section_check_matches_dense_reference_on_a_tampered_scalar(monkeypatch, m, n):
    C, _, _ = pointed(2, 1)
    assert _section_dense(TubeFamily(C), m, n) is None
    original = TubeFamily.section
    pick = random.Random(37 + m).randrange(len(TubeFamily(C).basis(n, n)))

    def section(self, m2, n2):
        sec = original(self, m2, n2)
        pair, s = sec[pick]
        return {**sec, pick: (pair, s * Cyclotomic.rational(C.conductor, 2))}

    monkeypatch.setattr(TubeFamily, "section", section)
    check = _check(verify_morita_section(C, m, n), "section-splits-composition")
    assert not check.ok
    expected = f"compose . s != id at basis {TubeFamily(C).basis(n, n)[pick]!r}"
    assert check.detail == _section_dense(TubeFamily(C), m, n) == expected


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
            phi = [{j: s} for j, s in chi_map.values()]
            assert not _check(rep, "chi-multiplicative").ok
            assert_morphism_laws_match(rep, "chi", phi, bad, Tp2)
