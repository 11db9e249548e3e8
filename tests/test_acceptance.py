"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Criteria 1, 2 and 4, the check of the generator certificate, the
semisimplicity certificate, the reference checks of the centre and base
algebras and of the algebra writer on the catalog share one build of every
catalog algebra (the `catalog` fixture).

Every criterion prints one PASS/FAIL line (visible under pytest -s); all
tolerances are zero because the scalars are exact cyclotomics.
"""

import time

import pytest

from whalg import jsonio
from whalg.exactmath import Cyclotomic
from whalg.builders import build_a_g_omega, build_b_g_omega
from whalg.groups import (
    catalog_group,
    standard_cocycle,
    trivial_cocycle,
    validate_cocycle,
    validate_group,
)
from whalg.repcat import (
    coherence_check,
    k_module,
    left_unitor,
    modules_isomorphic,
    reduced_R_roundtrip,
    right_unitor,
    tensor_product,
    tensor_unit,
    validate_module,
)
from whalg.skeleton import (
    fib_fusion_ring,
    pointed_skeleton,
    regular_module,
    validate_module_pentagon,
    validate_pentagon,
)
from whalg.tube import (
    build_tube,
    chi_iso,
    verify_morita_section,
    weak_bialgebra_obstruction,
)
from whalg.double import build_drinfeld_double, build_pairing, sharp_iso
from whalg.wha import (
    RMatrixCandidate,
    base_algebras,
    center_dim,
    compare_structure,
    dual,
    verify_antipode,
    verify_quasitriangular,
    verify_weak_bialgebra,
)

from references import (
    a_g_omega_closed,
    b_g_omega_closed,
    base_algebras_solved,
    center_dim_dense,
    generated_indices,
)

CATALOG = ["z2", "z3", "z4", "z2xz2", "s3", "z6"]


def catalog_cocycles(name):
    """{trivial} union {standard_cocycle(n, p)} for cyclic groups."""
    G = catalog_group(name)
    if name.startswith("z") and "x" not in name:
        n = G.order
        out = []
        for p in range(n):
            if p == 0:
                out.append((G, trivial_cocycle(G, conductor=n)))
            else:
                w = standard_cocycle(n, p)
                out.append((w.group, w))
        return out
    return [(G, trivial_cocycle(G))]


@pytest.fixture(scope="module")
def catalog():
    """(G, omega, B(G, omega), A(G, omega), R) for every catalog cocycle, built once.

    Criteria 1, 2 and 4 and the generator certificate share these algebras,
    and with them the indexes that the suites cache on each.
    """
    out = []
    for name in CATALOG:
        for G, omega in catalog_cocycles(name):
            A, R = build_a_g_omega(G, omega)
            out.append((G, omega, build_b_g_omega(G, omega), A, R))
    return out


def _line(num, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status}{(' ' + extra) if extra else ''}")
    assert ok


def test_criterion_1_weak_hopf_axiom_sweep(catalog):
    t0 = time.monotonic()
    ok = True
    for _G, _omega, B, A, _R in catalog:
        ok = ok and verify_weak_bialgebra(B).ok
        ok = ok and verify_antipode(B).ok
        ok = ok and verify_weak_bialgebra(A).ok
        ok = ok and verify_antipode(A).ok
        if not ok:
            break
    _line(1, ok, f"(full sweep {time.monotonic() - t0:.0f}s)")


def test_criterion_2_quasitriangular_and_ybe(catalog):
    t0 = time.monotonic()
    ok = True
    small_t = None
    for G, _omega, _B, A, R in catalog:
        if small_t is None and G.order > 4:
            small_t = time.monotonic() - t0
        ok = ok and verify_quasitriangular(A, R).ok
        if not ok:
            break
    _line(2, ok, f"(|G|<=4 portion {small_t:.0f}s, full {time.monotonic() - t0:.0f}s)")


def test_criterion_3_closed_form_reproduction():
    ok = True
    for n in (2, 3):
        for p in range(n):
            G = catalog_group(f"z{n}")
            omega = (
                trivial_cocycle(G, conductor=n) if p == 0 else standard_cocycle(n, p)
            )
            B = build_b_g_omega(G, omega)
            B_ref = b_g_omega_closed(G, omega)
            ok = ok and B.labels == B_ref.labels
            ok = ok and compare_structure(B, B_ref, list(range(B.dim))).ok
            A, R = build_a_g_omega(G, omega)
            A_ref, R_ref = a_g_omega_closed(G, omega)
            ok = ok and A.labels == A_ref.labels and R.terms == R_ref.terms
            ok = ok and compare_structure(A, A_ref, list(range(A.dim))).ok
    _line(3, ok)


def test_criterion_4_dimension_and_base_algebra_facts(catalog):
    ok = True
    for G, omega, B, A, _R in catalog:
        g_order = G.order
        ok = ok and B.dim == g_order ** 3
        ok = ok and base_algebras(B).dim_l == g_order
        ok = ok and center_dim(B) == g_order
        ok = ok and A.dim == g_order ** 4
        ok = ok and base_algebras(A).dim_l == g_order
        if omega.name == "trivial" and G.is_abelian():
            ok = ok and center_dim(A) == g_order ** 2
        if not ok:
            break
    _line(4, ok)


def test_centre_and_base_algebras_match_their_references_on_the_catalog(catalog):
    # center_dim reads the commutator rows of the generators alone and
    # base_algebras tests membership against one elimination of each basis;
    # both must give what the full-basis nullspace and one solve per vector
    # give.  A is taken for |G| <= 4, as in the benchmark's catalog: the
    # references take about 0.7 s on each A of dim 1296
    for G, _omega, B, A, _R in catalog:
        for X in (B, A) if G.order <= 4 else (B,):
            ba = base_algebras(X)
            got = ([(c.name, c.ok, c.detail) for c in ba.report.checks], ba.dim_l, ba.dim_r)
            assert got == base_algebras_solved(X), X.name
            assert center_dim(X) == center_dim_dense(X), X.name


def test_write_algebra_writes_the_reference_bytes_on_the_catalog(catalog, tmp_path):
    # the benchmark's 27 catalog algebras: B for every cocycle, A for |G| <= 4
    path = tmp_path / "x.json"
    for G, _omega, B, A, _R in catalog:
        for X in (B, A) if G.order <= 4 else (B,):
            jsonio.write_algebra(str(path), X)
            assert path.read_bytes() == jsonio.dumps(jsonio.algebra_to_json(X)).encode(), X.name


def test_the_dual_of_the_dual_is_the_algebra_on_the_catalog(catalog):
    # A* shares A's scalar table, and the dual of A* forms Delta* when it
    # reads it: every structure tensor comes back, on the 27 catalog algebras
    for G, _omega, B, A, _R in catalog:
        for X in (B, A) if G.order <= 4 else (B,):
            D = dual(X)
            assert D.ids is X.ids, X.name
            assert compare_structure(dual(D), X, list(range(X.dim))).ok, X.name


def test_trace_form_certifies_every_catalog_algebra_semisimple(catalog):
    for _G, _omega, B, A, _R in catalog:
        assert B.semisimple is True, B.name
        assert A.semisimple is True, A.name


def test_generator_certificate_on_the_catalog(catalog):
    # mu-associativity and Axiom 1 are swept on the generators `mu_generators`:
    # on every catalog algebra and its dual they are sorted and reach the
    # whole basis, and on A(Z6, p=1) they are a proper subset
    z6_checked = False
    for G, omega, B, A, _R in catalog:
        for X in (B, dual(B), A, dual(A)):
            gens = X.mu_generators
            assert gens == sorted(set(gens)), X.name
            assert generated_indices(X, gens) == set(range(X.dim)), X.name
        if G.order == 6 and G.is_abelian() and omega.name == "standard(p=1)":
            assert len(A.mu_generators) < A.dim
            z6_checked = True
    assert z6_checked


def test_criterion_5_representation_fusion_and_coherence():
    ok = True
    for n in (2, 3):
        for p in range(n):
            G = catalog_group(f"z{n}")
            omega = (
                trivial_cocycle(G, conductor=n) if p == 0 else standard_cocycle(n, p)
            )
            B = build_b_g_omega(G, omega)
            mods = {g: k_module(B, G, omega, g) for g in G.elements()}
            for V in mods.values():
                ok = ok and validate_module(B, V).ok
            for a in G.elements():
                for b in G.elements():
                    prod = tensor_product(mods[a], mods[b]).module
                    ok = ok and modules_isomorphic(prod, mods[G.mul(a, b)])
            unit_mod = tensor_unit(B)
            l_mat, l_prod = left_unitor(mods[0], unit_mod)
            r_mat, r_prod = right_unitor(mods[0], unit_mod)
            ok = ok and l_mat.rank() == mods[0].dim and r_mat.rank() == mods[0].dim
            g1 = 1 % G.order
            rep = coherence_check(mods[g1], mods[g1], mods[g1], unit_mod)
            ok = ok and rep.ok
            if not ok:
                break
        if not ok:
            break
    _line(5, ok)


def test_criterion_6_braiding_roundtrip():
    ok = True
    for n in (2, 3):
        for p in range(n):
            G = catalog_group(f"z{n}")
            omega = (
                trivial_cocycle(G, conductor=n) if p == 0 else standard_cocycle(n, p)
            )
            A, R = build_a_g_omega(G, omega)
            ok = ok and verify_quasitriangular(A, R).ok
            ok = ok and reduced_R_roundtrip(A, R)
    _line(6, ok)


def test_criterion_7_tube_bridge():
    ok = True
    for n in (2, 3):
        for p in range(n):
            G = catalog_group(f"z{n}")
            omega = (
                trivial_cocycle(G, conductor=n) if p == 0 else standard_cocycle(n, p)
            )
            C = pointed_skeleton(G, omega)
            _map, tp2, rep = chi_iso(C)
            ok = ok and rep.ok and tp2.dim == n ** 4
            ok = ok and verify_morita_section(C, 1, 2).ok
    G2 = catalog_group("z2")
    C2 = pointed_skeleton(G2, trivial_cocycle(G2))
    T = build_tube(C2)
    ok = ok and T.dim == 4 and center_dim(T) == 4 and T.validate().ok
    _line(7, ok)


def test_criterion_8_obstruction():
    fib = fib_fusion_ring()
    rep, pairs = weak_bialgebra_obstruction(
        fib, [{"name": "z", "object": ["nu"], "jdim": 1}]
    )
    ok = (not rep.ok) and len(pairs) == 1 and pairs[0][2] == 2 and pairs[0][3] == 1
    for name in ("z2", "z3", "s3"):
        G = catalog_group(name)
        C = pointed_skeleton(G, trivial_cocycle(G))
        rep2, pairs2 = weak_bialgebra_obstruction(
            C.ring, [{"name": str(a), "object": [a], "jdim": 1} for a in C.labels]
        )
        ok = ok and rep2.ok and not pairs2
    _line(8, ok)


def test_criterion_9_double():
    ok = True
    for n in (2, 3):
        for p in range(n):
            G = catalog_group(f"z{n}")
            omega = (
                trivial_cocycle(G, conductor=n) if p == 0 else standard_cocycle(n, p)
            )
            C = pointed_skeleton(G, omega)
            P = build_pairing(C)
            ok = ok and P.report.ok and P.matrix.rank() == n ** 3
            dbl = build_drinfeld_double(P)
            D = dbl.algebra
            ok = ok and D.dim == n ** 4
            ok = ok and verify_weak_bialgebra(D).ok
            ok = ok and verify_antipode(D).ok
            ok = ok and verify_quasitriangular(D, dbl.r).ok
            rep, _, _ = sharp_iso(C, double=dbl, pairing=P)
            ok = ok and rep.ok
            # sharp is a weak Hopf map: its coalgebra laws are checked and pass
            checks = {c.name: c.ok for c in rep.checks}
            ok = ok and all(checks.get(f"sharp-{law}") is True
                            for law in ("counital", "comultiplicative", "antipode"))
            if not ok:
                break
        if not ok:
            break
    _line(9, ok)


def test_criterion_10_negative_controls():
    from whalg.exactmath import SparseMatrix, SparseTensor3, root_of_unity
    from whalg.groups import cyclic_group
    from whalg.wha import WeakHopfAlgebra

    ok = True

    # broken group table
    rep = validate_group([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    ok = ok and (not rep.ok) and bool(rep.first_failure)

    # tampered cocycle
    g3 = cyclic_group(3)
    w = trivial_cocycle(g3, conductor=3)
    w.values[(1, 1, 1)] = root_of_unity(3)
    rep = validate_cocycle(g3, w)
    ok = ok and (not rep.ok) and "fails at" in rep.first_failure

    # negated F entry
    w1 = standard_cocycle(3, 1)
    C = pointed_skeleton(w1.group, w1)
    key = (1, 1, 1, 0)
    C.F[key] = -C.F[key]
    rep = validate_pentagon(C)
    ok = ok and (not rep.ok) and "pentagon fails" in rep.first_failure

    # perturbed module associator
    C2 = pointed_skeleton(w1.group, w1)
    M = regular_module(C2)
    M.L[(1, 1, 1)] = M.L[(1, 1, 1)] * root_of_unity(3)
    rep = validate_module_pentagon(M)
    ok = ok and not rep.ok

    # zeroed counit
    g2 = cyclic_group(2)
    B = build_b_g_omega(g2, trivial_cocycle(g2))
    broken = WeakHopfAlgebra(
        list(B.labels), B.conductor,
        SparseTensor3(B.mu.dims, B.conductor, dict(B.mu.data)),
        dict(B.unit),
        SparseTensor3(B.delta.dims, B.conductor, dict(B.delta.data)),
        {},
        SparseMatrix(B.dim, B.dim, B.conductor, dict(B.antipode.data)),
    )
    rep = verify_weak_bialgebra(broken)
    ok = ok and (not rep.ok) and rep.first_failure.name == "counit-law"

    # identity antipode
    broken = WeakHopfAlgebra(
        list(B.labels), B.conductor,
        SparseTensor3(B.mu.dims, B.conductor, dict(B.mu.data)),
        dict(B.unit),
        SparseTensor3(B.delta.dims, B.conductor, dict(B.delta.data)),
        dict(B.counit),
        SparseMatrix.identity(B.dim, B.conductor),
    )
    rep = verify_antipode(broken)
    ok = ok and (not rep.ok) and rep.first_failure.name == "axiom4-eq1"
    ok = ok and bool(rep.first_failure.detail)

    # K-module with the cocycle factor dropped
    w2 = standard_cocycle(2, 1)
    B2 = build_b_g_omega(w2.group, w2)
    V = k_module(B2, w2.group, w2, 1)
    act = SparseTensor3(V.action.dims, B2.conductor)
    for (i, r, c), v in V.action.data.items():
        act.add_to(i, r, c, Cyclotomic.one(B2.conductor))
    bad = type(V)(B2, V.dim, act)
    rep = validate_module(B2, bad)
    ok = ok and (not rep.ok) and bool(rep.first_failure.detail)

    # R-matrix candidates: Delta(1) and the leg swap
    A, R = build_a_g_omega(g2, trivial_cocycle(g2))
    rep = verify_quasitriangular(A, RMatrixCandidate(A.delta_of_unit))
    ok = ok and not rep.ok
    swapped = RMatrixCandidate({(j, i): c for (i, j), c in R.terms.items()})
    rep = verify_quasitriangular(A, swapped)
    ok = ok and not rep.ok

    # tampered mu caught with a concrete counterexample
    mu = SparseTensor3(B.mu.dims, B.conductor, dict(B.mu.data))
    key = sorted(mu.data)[0]
    mu.data[key] = mu.data[key] + mu.data[key]
    broken = WeakHopfAlgebra(
        list(B.labels), B.conductor, mu, dict(B.unit),
        SparseTensor3(B.delta.dims, B.conductor, dict(B.delta.data)),
        dict(B.counit),
        SparseMatrix(B.dim, B.dim, B.conductor, dict(B.antipode.data)),
    )
    rep = verify_weak_bialgebra(broken)
    ok = ok and (not rep.ok) and bool(rep.first_failure.detail)

    _line(10, ok)
