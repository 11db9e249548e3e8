import random

import pytest

import whalg.builders
import whalg.double
import whalg.wha

from whalg.builders import build_a_g_omega, build_a_m_c
from whalg.double import DoubleAlgebra, build_drinfeld_double, build_pairing, copairing, sharp_iso
from whalg.exactmath import Cyclotomic, SparseMatrix, SparseTensor3
from whalg.groups import cyclic_group, standard_cocycle, trivial_cocycle
from whalg.skeleton import pointed_skeleton, pointed_to_group_cocycle, regular_module, right_regular_module
from whalg.wha import (
    WeakHopfAlgebra,
    compare_structure,
    dual,
    verify_antipode,
    verify_quasitriangular,
    verify_weak_bialgebra,
)

from references import (assert_morphism_laws_match, b_g_omega_closed, double_antipode_solved,
                        drinfeld_double_reference)


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
    B_closed = b_g_omega_closed(g, w)
    P = build_pairing(C, A=B_closed)
    assert P.report.ok


def test_pairing_realizes_dual_cop():
    # the comultiplication of the left algebra transposes to the opposite
    # multiplication of the right algebra under the matrix: that is exactly
    # the third law, so re-assert it via the report check name
    C, g, w = pointed(3, 1)
    P = build_pairing(C)
    names = {c.name: c.ok for c in P.report.checks}
    assert names["pairing-comultiplicative"]


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


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 1)])
def test_double_antipode_matches_linear_solve(n, p):
    # the closed form [1 (x) S_A a][S_B b (x) 1] is the antipode that Axiom 4
    # determines as an exact linear system in the d^2 entries of S
    C, g, w = pointed(n, p)
    D = build_drinfeld_double(build_pairing(C)).algebra
    solved = double_antipode_solved(D)
    assert solved is not None
    assert D.antipode.data == solved.data


def test_the_dual_of_the_dual_is_the_z4_double():
    C, _g, _w = pointed(4, 1)
    D = build_drinfeld_double(build_pairing(C)).algebra
    assert compare_structure(dual(dual(D)), D, list(range(D.dim))).ok


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
    B_closed = b_g_omega_closed(g, w)
    index_map = [B_closed.label_index[("f", a, y, x)] for (a, y, x) in A_gen.labels]
    assert compare_structure(A_gen, B_closed, index_map).ok


def _spy_on_morphism_maps(monkeypatch):
    """The list that collects each map that `verify_morphism` hands to the homomorphism kernel."""
    seen = []
    kernel = whalg.wha._hom_range

    def spy(phi, *args):
        seen.append(phi)
        return kernel(phi, *args)

    monkeypatch.setattr(whalg.wha, "_hom_range", spy)
    return seen


def test_sharp_matches_dense_reference_on_tampered_double_mu(monkeypatch):
    C, g, w = pointed(2, 1)
    P = build_pairing(C)
    dbl = build_drinfeld_double(P)
    D = dbl.algebra
    # the basis images of sharp, as handed to the homomorphism kernel
    seen = _spy_on_morphism_maps(monkeypatch)
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
            assert not next(c for c in rep.checks if c.name == "sharp-multiplicative").ok
            assert_morphism_laws_match(rep, "sharp", seen[-1], bad, Abox)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("table,law", [("delta", "comultiplicative"), ("counit", "counital"),
                                       ("antipode", "antipode")])
def test_sharp_rejects_a_target_tampered_off_mu(n, table, law, monkeypatch):
    # one entry of the target's Delta, eps or S doubled, mu left alone: sharp
    # is still an algebra isomorphism that carries R, and only its coalgebra
    # laws reject it, at the dense reference's first basis element
    C, g, w = pointed(n, 1)
    P = build_pairing(C)
    dbl = build_drinfeld_double(P)
    Abox, Rbox = build_a_g_omega(g, w)
    m = Abox.conductor
    tables = {"delta": dict(Abox.delta.data), "counit": dict(Abox.counit),
              "antipode": dict(Abox.antipode.data)}
    key = random.Random(n).choice(sorted(tables[table]))
    tables[table][key] = tables[table][key] * Cyclotomic.rational(m, 2)
    bad = WeakHopfAlgebra(Abox.labels, m, Abox.mu, dict(Abox.unit),
                          SparseTensor3(Abox.delta.dims, m, tables["delta"]), tables["counit"],
                          SparseMatrix(Abox.dim, Abox.dim, m, tables["antipode"]), name="bad")
    monkeypatch.setattr(whalg.builders, "build_a_g_omega", lambda G, omega: (bad, Rbox))
    seen = _spy_on_morphism_maps(monkeypatch)
    rep, _, target = sharp_iso(C, double=dbl, pairing=P)
    assert target is bad
    assert [c.name for c in rep.checks if not c.ok] == [f"sharp-{law}"]
    assert_morphism_laws_match(rep, "sharp", seen[-1], dbl.algebra, bad)


def _one_sided(n, p):
    C, g, w = pointed(n, p)
    G, omega = pointed_to_group_cocycle(C)
    Crev, M = right_regular_module(G, omega)
    return C, build_a_m_c(C, regular_module(C)), build_a_m_c(Crev, M)


def _retensor(X, mu=None, delta=None):
    n = X.conductor
    return WeakHopfAlgebra(
        X.labels, n,
        SparseTensor3(X.mu.dims, n, dict(X.mu.data if mu is None else mu)), dict(X.unit),
        SparseTensor3(X.delta.dims, n, dict(X.delta.data if delta is None else delta)),
        dict(X.counit), X.antipode.copy(), name=X.name,
    )


def _tamperings(table, rnd, count):
    """One scaled and one dropped copy of `table` per sampled key."""
    two = Cyclotomic.rational(next(iter(table.values())).n, 2)
    for key in rnd.sample(sorted(table), count):
        scaled = dict(table)
        scaled[key] = scaled[key] * two
        dropped = dict(table)
        del dropped[key]
        yield scaled
        yield dropped


def _assert_pairing_matches_dense(P):
    assert [c.name for c in P.report.checks] == [
        f"pairing-{law}" for law in ("bijective", "unital", "multiplicative", "counital",
                                     "comultiplicative", "antipode")]
    return assert_morphism_laws_match(P.report, "pairing", P.cols, P.A, dual(P.B), anti=True)


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1)])
def test_pairing_laws_match_dense_reference_on_tampered_structure(n, p):
    C, B, A = _one_sided(n, p)
    assert not any(_assert_pairing_matches_dense(build_pairing(C, B=B, A=A)).values())
    rnd = random.Random(n)
    cases = [(_retensor(B, mu=mu), A) for mu in _tamperings(B.mu.data, rnd, 2)]
    cases += [(B, _retensor(A, delta=delta)) for delta in _tamperings(A.delta.data, rnd, 2)]
    # the comultiplicative law reads B's delta and A's mu
    cases += [(_retensor(B, delta=delta), A) for delta in _tamperings(B.delta.data, rnd, 1)]
    cases += [(B, _retensor(A, mu=mu)) for mu in _tamperings(A.mu.data, rnd, 1)]
    for Bt, At in cases:
        dense = _assert_pairing_matches_dense(build_pairing(C, B=Bt, A=At))
        assert any(dense.values())


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1)])
def test_pairing_laws_match_dense_reference_on_tampered_matrix(n, p, monkeypatch):
    # each pairing entry is omega(a1, y1, a2) for a distinct triple, so
    # tampering omega at one triple tampers exactly one matrix entry
    C, B, A = _one_sided(n, p)
    G, omega = pointed_to_group_cocycle(C)
    two = Cyclotomic.rational(C.conductor, 2)
    zero = Cyclotomic.zero(C.conductor)
    triples = random.Random(n).sample(sorted(omega.values), 2)
    for triple in triples:
        for factor in (two, zero):
            def tampered(a, b, c, triple=triple, factor=factor):
                v = omega(a, b, c)
                return v * factor if (a, b, c) == triple else v

            monkeypatch.setattr(whalg.double, "pointed_to_group_cocycle", lambda C: (G, tampered))
            P = build_pairing(C, B=B, A=A)
            dense = _assert_pairing_matches_dense(P)
            assert any(dense.values())


def _double_mu_reference(P, dbl):
    """The double's product with the exchange recomputed for every pair of
    representatives, as a reference for the grouped loop."""
    B, A = P.B, P.A
    n = B.conductor
    dA = A.dim
    flat = lambda i, j: i * dA + j
    sinvA = A.antipode.inverse()
    d = len(dbl.reps)
    mu = SparseTensor3((d, d, d), n)
    d2B = {x: B.coproduct2(B.basis_elem(x)) for x in range(B.dim)}
    d2A = {x: A.coproduct2(A.basis_elem(x)) for x in range(dA)}
    for t1, f1 in enumerate(dbl.reps):
        bp, ap = f1 // dA, f1 % dA
        for t2, f2 in enumerate(dbl.reps):
            b, a = f2 // dA, f2 % dA
            out = {}
            for (b1, b2, b3), cb in d2B[b].items():
                for (a1, a2, a3), ca in d2A[ap].items():
                    v1 = P.matrix.data.get((b1, a1))
                    if v1 is None:
                        continue
                    v3 = Cyclotomic.zero(n)
                    for k, ck in sinvA.apply({a3: Cyclotomic.one(n)}).items():
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
                            key = flat(kb, ka)
                            out[key] = out[key] + coeff * ckb * cka if key in out else coeff * ckb * cka
            for k, v in dbl.projection({f: c for f, c in out.items() if c}).items():
                mu.add_to(t1, t2, k, v)
    return mu.data


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 1), (3, 2)])
def test_double_product_matches_per_pair_reference(n, p):
    C, g, w = pointed(n, p)
    P = build_pairing(C)
    dbl = build_drinfeld_double(P)
    assert dbl.algebra.mu.data == _double_mu_reference(P, dbl)


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 1), (3, 2), (4, 1)])
def test_double_matches_the_full_elimination_reference(n, p):
    C, g, w = pointed(n, p)
    P = build_pairing(C)
    dbl, ref = build_drinfeld_double(P), drinfeld_double_reference(P)
    assert dbl.reps == ref.reps
    one = Cyclotomic.one(C.conductor)
    for f in range(P.B.dim * P.A.dim):
        assert dbl.projection({f: one}) == ref.projection({f: one}), f
    D, R = dbl.algebra, ref.algebra
    assert D.mu.data == R.mu.data
    assert D.delta.data == R.delta.data
    assert (D.unit, D.counit) == (R.unit, R.counit)
    assert D.antipode.data == R.antipode.data
    assert dbl.r.terms == ref.r.terms


def test_a_sign_error_in_one_relation_row_changes_the_double(monkeypatch):
    # on Z2 p=1 every nonzero relation row is a single flat index, and each
    # comes from several x, so dropping one x of A^l leaves the quotient as
    # it is; flipping the B leg of a row whose two legs cancel does not
    C, g, w = pointed(2, 1)
    P = build_pairing(C)
    A, dA = P.A, P.A.dim
    ref = drinfeld_double_reference(P)
    rows = whalg.double._relation_rows
    first_l = []

    def drop_one_x(P, x, side):
        if side == "l" and not first_l:
            first_l.append(x)
            return iter(())
        return rows(P, x, side)

    monkeypatch.setattr(whalg.double, "_relation_rows", drop_one_x)
    assert build_drinfeld_double(P).reps == ref.reps and first_l

    flipped = []

    def flip_one_b_leg(P, x, side):
        for m, row in enumerate(rows(P, x, side)):
            b, a = divmod(m, dA)
            a_leg = {b * dA + k: c for k, c in A.mul(x, A.basis_elem(a)).items()}
            if not flipped and not row and a_leg:
                # the row is A leg + B leg, so A leg - B leg is 2 (A leg) - row
                flipped.append((side, b, a))
                row = {f: c + c for f, c in a_leg.items()}
            yield row

    monkeypatch.setattr(whalg.double, "_relation_rows", flip_one_b_leg)
    dbl = build_drinfeld_double(P)
    assert flipped == [("l", 0, 0)]
    assert dbl.reps != ref.reps
    D = dbl.algebra
    assert D.dim == 15
    assert not verify_weak_bialgebra(D).ok
    assert not verify_antipode(D).ok
    assert not sharp_iso(C, double=dbl, pairing=P)[0].ok
