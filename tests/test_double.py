import random

import pytest

import whalg.double

from whalg.builders import build_a_m_c, build_b_g_omega
from whalg.double import DoubleAlgebra, build_drinfeld_double, build_pairing, copairing, sharp_iso
from whalg.exactmath import Cyclotomic, SparseTensor3
from whalg.groups import cyclic_group, standard_cocycle, trivial_cocycle
from whalg.skeleton import pointed_skeleton, right_regular_module
from whalg.wha import (
    WeakHopfAlgebra,
    compare_structure,
    verify_antipode,
    verify_quasitriangular,
    verify_weak_bialgebra,
)


def pointed(n, p):
    g = cyclic_group(n)
    w = standard_cocycle(n, p) if p else trivial_cocycle(g, conductor=n)
    return pointed_skeleton(g, w), g, w


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 1)])
def test_pairing_laws_and_rank(n, p):
    C, g, w = pointed(n, p)
    P = build_pairing(C)
    assert P.report.ok, P.report.render()
    assert P.matrix.rank() == n ** 3


def test_pairing_laws_up_to_order_4():
    for name, p in (("z4", 1), ("z4", 0), ("z2xz2", 0)):
        from whalg.groups import catalog_group

        G = catalog_group(name)
        omega = standard_cocycle(4, p) if p else trivial_cocycle(G)
        C = pointed_skeleton(G, omega)
        P = build_pairing(C)
        assert P.report.ok, P.report.render()
        assert P.matrix.rank() == G.order ** 3


def test_pairing_against_closed_form_b():
    # the right-regular side can equally be the closed-form algebra
    C, g, w = pointed(2, 1)
    B_closed = build_b_g_omega(g, w)
    P = build_pairing(C, A=B_closed)
    assert P.report.ok


def test_pairing_realizes_dual_cop():
    # the comultiplication of the left algebra transposes to the opposite
    # multiplication of the right algebra under the matrix: that is exactly
    # the third law, so re-assert it via the report check name
    C, g, w = pointed(3, 1)
    P = build_pairing(C)
    names = {c.name: c.ok for c in P.report.checks}
    assert names["pairing-comultiplicative-in-B"]


@pytest.mark.parametrize("n,p", [(2, 0), (3, 2)])
def test_copairing_snakes_and_term_count(n, p):
    C, g, w = pointed(n, p)
    P = build_pairing(C)
    terms, rep = copairing(P)
    assert rep.ok
    assert len(terms) == n ** 3  # the pairing is a scaled permutation


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 1)])
def test_double_dimensions_and_suites(n, p):
    C, g, w = pointed(n, p)
    P = build_pairing(C)
    dbl = build_drinfeld_double(P)
    D = dbl.algebra
    assert D.dim == n ** 4
    assert verify_weak_bialgebra(D).ok
    assert verify_antipode(D).ok
    rep = verify_quasitriangular(D, dbl.r)
    assert rep.ok, rep.render()


def test_double_counit_of_unit():
    # eps_D(1) = <1_B, 1_A> = eps_B(1_B) = |G|, matching eps(1) of the
    # closed-form |G|^4 algebra under the identification (not 1: the counit
    # of a weak Hopf algebra is not normalized on the unit)
    from whalg.exactmath import Cyclotomic

    C, g, w = pointed(2, 0)
    P = build_pairing(C)
    dbl = build_drinfeld_double(P)
    D = dbl.algebra
    assert D.apply_counit(D.one()) == Cyclotomic.rational(D.conductor, 2)
    assert D.apply_counit(D.one()) == P.B.apply_counit(P.B.one())


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_sharp_isomorphism_and_r_transport(n, p):
    C, g, w = pointed(n, p)
    rep, dbl, Abox = sharp_iso(C)
    assert rep.ok, rep.render()


def test_double_general_vs_closed_sides_agree():
    # pairing with the general-builder side equals the closed-form side
    C, g, w = pointed(2, 1)
    Crev, M = right_regular_module(g, w)
    A_gen = build_a_m_c(Crev, M)
    B_closed = build_b_g_omega(g, w)
    index_map = [B_closed.label_index[("f", a, y, x)] for (a, y, x) in A_gen.labels]
    assert compare_structure(A_gen, B_closed, index_map).ok


def _sharp_mult_dense(images, D, Abox):
    """Reference for "sharp-multiplicative": every basis pair (t1, t2)."""
    for t1 in range(D.dim):
        for t2 in range(D.dim):
            lhs = {}
            for k, c in D.mul(D.basis_elem(t1), D.basis_elem(t2)).items():
                for b, s in images[k].items():
                    lhs[b] = lhs[b] + c * s if b in lhs else c * s
            lhs = {b: c for b, c in lhs.items() if c}
            if lhs != Abox.mul(images[t1], images[t2]):
                return f"sharp(uv) != sharp(u)sharp(v) at ({t1}, {t2})"
    return None


def test_sharp_matches_dense_reference_on_tampered_double_mu(monkeypatch):
    C, g, w = pointed(2, 1)
    P = build_pairing(C)
    dbl = build_drinfeld_double(P)
    D = dbl.algebra
    # the basis images of sharp, as handed to the homomorphism kernel
    seen = []
    kernel = whalg.double._hom_range

    def spy(phi, *args):
        seen.append(phi)
        return kernel(phi, *args)

    monkeypatch.setattr(whalg.double, "_hom_range", spy)
    two = Cyclotomic.rational(D.conductor, 2)
    for key in random.Random(2).sample(sorted(D.mu.data), 3):
        scaled = dict(D.mu.data)
        scaled[key] = scaled[key] * two
        dropped = dict(D.mu.data)
        del dropped[key]
        for mu in (scaled, dropped):
            bad = WeakHopfAlgebra(D.labels, D.conductor, SparseTensor3(D.mu.dims, D.conductor, mu),
                                  dict(D.unit), SparseTensor3(D.delta.dims, D.conductor, dict(D.delta.data)),
                                  dict(D.counit), D.antipode.copy(), name="bad")
            tampered = DoubleAlgebra(bad, dbl.r, dbl.projection, dbl.reps, P)
            rep, _, Abox = sharp_iso(C, double=tampered, pairing=P)
            check = next(c for c in rep.checks if c.name == "sharp-multiplicative")
            assert not check.ok
            assert check.detail == _sharp_mult_dense(seen[-1], bad, Abox)
