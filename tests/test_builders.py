import itertools
import random

import pytest

from whalg.exactmath import Cyclotomic, SparseTensor3, root_of_unity
from whalg.builders import (
    SeparableFrobenius,
    build_a_g_omega,
    build_a_m_c,
    build_b_g_omega,
    build_frobenius_double,
    build_groupoid_algebra,
    group_as_groupoid,
    indiscrete_groupoid,
    standard_frobenius,
)
from whalg.groups import ThreeCocycle, cyclic_group, standard_cocycle, trivial_cocycle, validate_cocycle
from whalg.skeleton import right_regular_module
from whalg.wha import (
    center_dim,
    compare_structure,
    is_cocommutative,
    verify_antipode,
    verify_quasitriangular,
    verify_weak_bialgebra,
)

from references import a_g_omega_closed, b_g_omega_closed, delta_index


def omega_for(n, p):
    if p == 0:
        g = cyclic_group(n)
        return g, trivial_cocycle(g, conductor=n)
    w = standard_cocycle(n, p)
    return w.group, w


def test_b_dimensions_and_counit():
    g = cyclic_group(2)
    B = build_b_g_omega(g, trivial_cocycle(g))
    assert B.dim == 8
    for a, y, x in itertools.product(range(2), repeat=3):
        i = B.label_index[("f", a, y, x)]
        got = B.counit.get(i, Cyclotomic.zero(B.conductor))
        assert bool(got) == (x == y)


def test_b_trivial_omega_product_example():
    # additive Z2: f_{1|1|0} . f_{1|0|1} = f_{0|0|1}
    g = cyclic_group(2)
    B = build_b_g_omega(g, trivial_cocycle(g))
    left = B.label_index[("f", 1, 1, 0)]
    right = B.label_index[("f", 1, 0, 1)]
    prod = B.mul(B.basis_elem(left), B.basis_elem(right))
    assert prod == {B.label_index[("f", 0, 0, 1)]: B.one_scalar()}


def test_a_dimensions_and_r_terms():
    g = cyclic_group(2)
    A, R = build_a_g_omega(g, trivial_cocycle(g))
    assert A.dim == 16
    assert len(R) == 8
    assert all(v.is_one() or (-v).is_one() for v in R.terms.values())


def test_a_antipode_trivial_omega():
    g = cyclic_group(2)
    A, _ = build_a_g_omega(g, trivial_cocycle(g))
    for a, b, y, x in itertools.product(range(2), repeat=4):
        i = A.label_index[("e", a, b, y, x)]
        img = A.apply_antipode(A.basis_elem(i))
        axb = (a + x + b) % 2
        ayb = (a + y + b) % 2
        j = A.label_index[("e", (-a) % 2, (-b) % 2, axb, ayb)]
        assert img == {j: A.one_scalar()}


def test_delta_and_unit_term_counts():
    g = cyclic_group(3)
    w = standard_cocycle(3, 1)
    A, _ = build_a_g_omega(g, w)
    for terms in delta_index(A).values():
        assert len(terms) == 3
    assert len(A.unit) == 9


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_general_builder_matches_b_closed_form(n, p):
    g, w = omega_for(n, p)
    B = build_b_g_omega(g, w)
    ref = b_g_omega_closed(g, w)
    assert B.labels == ref.labels
    rep = compare_structure(B, ref, list(range(B.dim)))
    assert rep.ok, rep.render()


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 1)])
def test_general_builder_matches_a_closed_form(n, p):
    g, w = omega_for(n, p)
    A, R = build_a_g_omega(g, w)
    ref, ref_R = a_g_omega_closed(g, w)
    assert A.labels == ref.labels
    rep = compare_structure(A, ref, list(range(A.dim)))
    assert rep.ok, rep.render()
    assert R.terms == ref_R.terms


def test_general_builder_dim_count():
    g, w = omega_for(3, 1)
    C, M = right_regular_module(g, w)
    gen = build_a_m_c(C, M)
    assert gen.dim == 27  # |G|^3 admissible (a, y, x) triples


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (4, 3)])
def test_builders_pass_axioms(n, p):
    g, w = omega_for(n, p)
    B = build_b_g_omega(g, w)
    assert verify_weak_bialgebra(B).ok
    assert verify_antipode(B).ok
    A, _ = build_a_g_omega(g, w)
    assert verify_weak_bialgebra(A).ok
    assert verify_antipode(A).ok


def _twisted_z3_cocycle(seed):
    """standard_cocycle(3, 1) times the coboundary d beta of a seeded 2-cochain.

    beta(a, b) = zeta_3^k with k drawn per pair of non-identity elements, and
    1 when either is the identity; d beta(a, b, c) =
    beta(b, c) beta(a, bc) / (beta(ab, c) beta(a, b)).
    """
    w = standard_cocycle(3, 1)
    G = w.group
    rnd = random.Random(seed)
    one = Cyclotomic.one(3)
    beta = {(a, b): one if G.identity in (a, b) else root_of_unity(3, rnd.randrange(3))
            for a in G.elements() for b in G.elements()}
    mul = G.mul
    d_beta = {(a, b, c): beta[(b, c)] * beta[(a, mul(b, c))] / (beta[(mul(a, b), c)] * beta[(a, b)])
              for (a, b, c) in w.values}
    vals = {t: w(*t) * d_beta[t] for t in w.values}
    return G, ThreeCocycle(G, vals, 3, name=f"p=1 twisted {seed}")


def test_builders_on_a_cocycle_that_is_not_symmetric_in_its_last_two_arguments():
    # every catalog cocycle has omega(a, b, c) = omega(a, c, b), so a builder
    # that swaps those two arguments passes on all of them; this cohomologous
    # twist is not symmetric, and must still give the closed forms and pass
    G, w = _twisted_z3_cocycle(2)
    assert any(w(a, b, c) != w(a, c, b) for (a, b, c) in w.values)
    assert validate_cocycle(G, w).ok
    A, R = build_a_g_omega(G, w)
    assert verify_weak_bialgebra(A).ok
    assert verify_antipode(A).ok
    assert verify_quasitriangular(A, R).ok
    assert center_dim(A) == 9
    ref, ref_R = a_g_omega_closed(G, w)
    assert A.labels == ref.labels
    assert compare_structure(A, ref, list(range(A.dim))).ok
    assert R.terms == ref_R.terms
    B = build_b_g_omega(G, w)
    ref = b_g_omega_closed(G, w)
    assert B.labels == ref.labels
    assert compare_structure(B, ref, list(range(B.dim))).ok


def test_b_not_cocommutative_but_groupoids_are():
    g = cyclic_group(2)
    B = build_b_g_omega(g, trivial_cocycle(g))
    assert not is_cocommutative(B)
    gp = build_groupoid_algebra(group_as_groupoid(g))
    assert is_cocommutative(gp)


def test_groupoid_algebra_suite():
    gpd = indiscrete_groupoid(2)
    A = build_groupoid_algebra(gpd)
    assert A.dim == 4
    assert verify_weak_bialgebra(A).ok
    assert verify_antipode(A).ok
    assert center_dim(A) == 1
    # S(g) = g^-1
    for m in gpd.morphisms:
        i = A.label_index[m]
        assert A.apply_antipode(A.basis_elem(i)) == {
            A.label_index[gpd.inverse[m]]: A.one_scalar()
        }


def test_group_algebra_via_groupoid():
    g = cyclic_group(2)
    A = build_groupoid_algebra(group_as_groupoid(g))
    assert A.dim == 2
    assert verify_weak_bialgebra(A).ok
    assert verify_antipode(A).ok
    assert is_cocommutative(A)


def test_standard_frobenius_diagonal():
    B = standard_frobenius("diagonal", 3)
    assert B.validate().ok
    one = Cyclotomic.one(1)
    # m(s(1)) = 1
    ms = {}
    for (i, j), c in B.p().items():
        for k, v in B.mul({i: c}, {j: one}).items():
            ms[k] = ms.get(k, Cyclotomic.zero(1)) + v
    assert {k: v for k, v in ms.items() if v} == B.unit


def test_standard_frobenius_matrix():
    B = standard_frobenius("matrix", 2)
    assert B.validate().ok


def _s_bimodule_dense(B):
    """Reference for "s-bimodule-map": s(xy) = s(x) y = x s(y) on every basis pair."""
    one = Cyclotomic.one(B.conductor)
    for x in range(B.dim):
        for y in range(B.dim):
            sxy = B.s_of(B.mul({x: one}, {y: one}))
            lhs = {}
            for (a, b), c in B.s_of({x: one}).items():
                for k, v in B.mul({b: c}, {y: one}).items():
                    lhs[(a, k)] = lhs[(a, k)] + v if (a, k) in lhs else v
            rhs = {}
            for (a, b), c in B.s_of({y: one}).items():
                for k, v in B.mul({x: one}, {a: c}).items():
                    rhs[(k, b)] = rhs[(k, b)] + v if (k, b) in rhs else v
            prune = lambda t: {key: v for key, v in t.items() if v}
            if prune(lhs) != sxy or prune(rhs) != sxy:
                return f"s is not a bimodule map at ({x}, {y})"
    return None


def test_separable_frobenius_bimodule_law_matches_dense_reference_when_tampered():
    B = standard_frobenius("matrix", 2)
    two = Cyclotomic.rational(1, 2)
    tampered = []
    for i, terms in B.s_terms.items():
        for t, (j, k, c) in enumerate(terms):
            s_terms = {key: list(v) for key, v in B.s_terms.items()}
            s_terms[i][t] = (j, k, c * two)
            tampered.append(SeparableFrobenius(B.labels, 1, B.mu, B.unit, s_terms, B.delta))
    for key in B.mu.data:
        mu = dict(B.mu.data)
        mu[key] = mu[key] * two
        tampered.append(SeparableFrobenius(B.labels, 1, SparseTensor3(B.mu.dims, 1, mu), B.unit,
                                           B.s_terms, B.delta))
    for X in [B] + tampered:
        check = next(c for c in X.validate().checks if c.name == "s-bimodule-map")
        expected = _s_bimodule_dense(X)
        assert (check.ok, check.detail) == (expected is None, expected)
        assert check.ok == (X is B)
    # a scaled term of s(E_00) changes p = s(1), which then fails all three
    # separability laws as well
    failed = {c.name for c in tampered[0].validate().checks if not c.ok}
    assert {"p-balances", "p-contracts-to-unit", "p-idempotent-op"} <= failed


def _s_splits_dense(B):
    """Reference for "s-splits-mu": m(s(x)) = x on every basis element, least x first,
    with products read from `B.mu.data`."""
    one = Cyclotomic.one(B.conductor)
    for x in range(B.dim):
        sx = B.s_of({x: one})
        ms = {}
        for (i, j, k), v in B.mu.data.items():
            if (i, j) in sx:
                ms[k] = ms[k] + sx[(i, j)] * v if k in ms else sx[(i, j)] * v
        if {k: v for k, v in ms.items() if v} != {x: one}:
            return f"m . s != id at basis {x}"
    return None


def test_s_splits_mu_matches_dense_reference_on_a_tampered_s():
    B = standard_frobenius("matrix", 2)
    assert _s_splits_dense(B) is None
    rng = random.Random(37)
    i = rng.choice(sorted(B.s_terms))
    t = rng.randrange(len(B.s_terms[i]))
    s_terms = {key: list(v) for key, v in B.s_terms.items()}
    j, k, c = s_terms[i][t]
    s_terms[i][t] = (j, k, c * Cyclotomic.rational(1, 2))
    bad = SeparableFrobenius(B.labels, 1, B.mu, B.unit, s_terms, B.delta)
    check = next(c for c in bad.validate().checks if c.name == "s-splits-mu")
    assert not check.ok
    assert check.detail == _s_splits_dense(bad) == f"m . s != id at basis {i}"


def test_frobenius_double_diagonal():
    B = standard_frobenius("diagonal", 2)
    A = build_frobenius_double(B)
    assert A.dim == 4
    assert verify_weak_bialgebra(A).ok
    assert verify_antipode(A).ok
    # tau = identity for the commutative diagonal algebra
    for i in range(2):
        for j in range(2):
            x = A.label_index[("t", i, j)]
            assert A.apply_antipode(A.basis_elem(x)) == {
                A.label_index[("t", j, i)]: A.one_scalar()
            }


def test_frobenius_double_matrix():
    B = standard_frobenius("matrix", 2)
    A = build_frobenius_double(B)
    assert A.dim == 16
    assert verify_weak_bialgebra(A).ok
    assert verify_antipode(A).ok
    assert center_dim(A) == 1


def test_eps_of_unit_is_delta_of_one():
    B = standard_frobenius("diagonal", 2)
    A = build_frobenius_double(B)
    val = A.apply_counit(A.one())
    # eps(1 (x) 1) = delta(1) = n for k^n
    assert val == Cyclotomic.rational(1, 2)
