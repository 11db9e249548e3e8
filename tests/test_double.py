import random

import pytest

import whalg.double

from whalg.builders import build_a_m_c
from whalg.double import DoubleAlgebra, build_drinfeld_double, build_pairing, copairing, sharp_iso
from whalg.exactmath import Cyclotomic, SparseTensor3
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

from references import b_g_omega_closed, delta_index, double_antipode_solved


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


# -- dense references for the four pairing laws, iterated in the order the
# homomorphism kernel reports: the least (b, b') then a, the least (a', a) then b


def _pairing_laws_dense(mat, B, A):
    """Reference for the pairing laws: every (i1, i2, j) and (j2, j1, i) in
    turn, each side summed in full.  The matrix is read by sparse rows and
    columns, so only its nonzero entries enter a sum."""
    n = B.conductor
    zero = Cyclotomic.zero(n)
    rows, cols = {}, {}
    for (i, j), v in mat.data.items():
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, {})[i] = v
    a_delta, b_delta = delta_index(A), delta_index(B)

    def pair(b_vec, a_vec):
        tot = zero
        for i, ci in b_vec.items():
            row = rows.get(i, {})
            for j, cj in a_vec.items():
                if j in row:
                    tot = tot + ci * cj * row[j]
        return tot

    def leg_sum(terms, first, second):
        # sum of first[s] c second[t] over the terms (s, t, c)
        tot = zero
        for s, t, c in terms:
            if s in first and t in second:
                tot = tot + first[s] * c * second[t]
        return tot

    out = {}
    detail = None
    for j in range(A.dim):
        if pair(B.one(), A.basis_elem(j)) != A.apply_counit(A.basis_elem(j)):
            detail = f"<1_B, a> != eps_A(a) at {A.label_str(j)}"
            break
    out["pairing-unit-counit-B"] = detail

    detail = None
    for i in range(B.dim):
        if pair(B.basis_elem(i), A.one()) != B.apply_counit(B.basis_elem(i)):
            detail = f"<b, 1_A> != eps_B(b) at {B.label_str(i)}"
            break
    out["pairing-unit-counit-A"] = detail

    def multiplicative():
        for i1 in range(B.dim):
            for i2 in range(B.dim):
                # <e_i1 e_i2, a_j> for every j, through the rows of the product's support
                rhs = {}
                for i, c in B.mul(B.basis_elem(i1), B.basis_elem(i2)).items():
                    for j, v in rows.get(i, {}).items():
                        rhs[j] = rhs.get(j, zero) + c * v
                r1, r2 = rows.get(i1, {}), rows.get(i2, {})
                for j in range(A.dim):
                    if leg_sum(a_delta[j], r1, r2) != rhs.get(j, zero):
                        return (f"<b,a_(1)><b',a_(2)> != <bb',a> at "
                                f"({B.label_str(i1)}, {B.label_str(i2)}, {A.label_str(j)})")
        return None

    def comultiplicative():
        for j2 in range(A.dim):
            for j1 in range(A.dim):
                # <b_i, a_j2 a_j1> for every i, through the columns of the product's support
                rhs = {}
                for j, c in A.mul(A.basis_elem(j2), A.basis_elem(j1)).items():
                    for i, v in cols.get(j, {}).items():
                        rhs[i] = rhs.get(i, zero) + v * c
                c1, c2 = cols.get(j1, {}), cols.get(j2, {})
                for i in range(B.dim):
                    if leg_sum(b_delta[i], c1, c2) != rhs.get(i, zero):
                        return (f"<b_(1),a><b_(2),a'> != <b,a'a> at "
                                f"({B.label_str(i)}, {A.label_str(j1)}, {A.label_str(j2)})")
        return None

    out["pairing-multiplicative-in-B"] = multiplicative()
    out["pairing-comultiplicative-in-B"] = comultiplicative()
    return out


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
    dense = _pairing_laws_dense(P.matrix, P.B, P.A)
    got = {c.name: c for c in P.report.checks if c.name in dense}
    assert set(got) == set(dense)
    for name, detail in dense.items():
        assert (got[name].ok, got[name].detail) == (detail is None, detail), name
    return dense


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


@pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 1)])
def test_double_product_matches_per_pair_reference(n, p):
    C, g, w = pointed(n, p)
    P = build_pairing(C)
    dbl = build_drinfeld_double(P)
    assert dbl.algebra.mu.data == _double_mu_reference(P, dbl)
