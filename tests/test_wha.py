import functools
import gc
import json
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from whalg import jsonio
from whalg.exactmath import Cyclotomic, SparseMatrix, SparseTensor3, push
from whalg.builders import (
    build_a_g_omega,
    build_b_g_omega,
    build_frobenius_double,
    build_groupoid_algebra,
    indiscrete_groupoid,
    standard_frobenius,
)
from whalg.double import build_drinfeld_double, build_pairing
from whalg.groups import cyclic_group, standard_cocycle, trivial_cocycle
from whalg.skeleton import pointed_skeleton
from whalg.tube import TubeFamily, _transport_scalar, build_tube_prime, chi_iso
from whalg.wha import (
    PlainAlgebra,
    RMatrixCandidate,
    WeakHopfAlgebra,
    _antihom_range,
    _assoc_range,
    _axiom1_range,
    _counit_weak_mult_range,
    _hom_ids,
    _hom_range,
    _intertwining_failure,
    _mixed_assoc_range,
    _ScalarIds,
    _unit_law,
    base_algebras,
    center_dim,
    compare_structure,
    dual,
    is_cocommutative,
    verify_antipode,
    verify_quasitriangular,
    verify_weak_bialgebra,
    weak_inverse,
)

from references import (
    antipode_columns,
    assoc_dense,
    axiom1_dense,
    axiom2_dense,
    axiom3_loop,
    axiom4_eq1_loop,
    axiom4_eq2_loop,
    axiom4_eq3_loop,
    base_algebras_solved,
    center_dim_dense,
    coalgebra_antihom_loop,
    coassociativity_loop,
    coopposite,
    counit_law_loop,
    delta_s_fails,
    element_product,
    eps_by_right_factor,
    eps_s_per_element,
    eps_s_prime_per_element,
    eps_t_per_element,
    generated_indices,
    hom_range_loop,
    intertwining_loop,
    opposite,
    pairs_index,
    unit_law_loop,
    weak_inverse_solved,
)


def b_z2(p=0):
    g = cyclic_group(2)
    w = standard_cocycle(2, 1) if p else trivial_cocycle(g)
    return build_b_g_omega(g, w)


def a_z2(p=0):
    g = cyclic_group(2)
    w = standard_cocycle(2, 1) if p else trivial_cocycle(g)
    return build_a_g_omega(g, w)


def clone_with(A, mu=None, unit=None, delta=None, counit=None, antipode=None):
    return WeakHopfAlgebra(
        labels=list(A.labels),
        conductor=A.conductor,
        mu=mu or SparseTensor3(A.mu.dims, A.conductor, dict(A.mu.data)),
        unit=dict(unit if unit is not None else A.unit),
        delta=delta or SparseTensor3(A.delta.dims, A.conductor, dict(A.delta.data)),
        counit=dict(counit if counit is not None else A.counit),
        antipode=antipode or SparseMatrix(A.dim, A.dim, A.conductor, dict(A.antipode.data)),
        name=A.name + "'",
    )


def test_zero_counit_fails_counit_law():
    B = clone_with(b_z2(), counit={})
    rep = verify_weak_bialgebra(B)
    assert not rep.ok
    assert rep.first_failure.name == "counit-law"
    assert rep.first_failure.detail


def test_identity_antipode_fails_eq1():
    B = b_z2()
    rep = verify_antipode(clone_with(B, antipode=SparseMatrix.identity(B.dim, B.conductor)))
    assert not rep.ok
    assert rep.first_failure.name == "axiom4-eq1"


def test_singular_antipode_names_the_first_image_in_the_span_of_the_earlier_ones():
    B = build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    rng = random.Random(37)
    x = rng.randrange(1, B.dim)
    y = rng.randrange(x)
    # S(e_x) := S(e_y)
    data = {(k, i): c for (k, i), c in B.antipode.data.items() if i != x}
    data.update({(k, x): c for (k, i), c in B.antipode.data.items() if i == y})
    bad = clone_with(B, antipode=SparseMatrix(B.dim, B.dim, B.conductor, data))
    cols = antipode_columns(bad)
    rank = lambda xs: SparseMatrix.from_columns(B.dim, [cols[i] for i in xs], B.conductor).rank()
    assert next(i for i in range(B.dim) if rank(range(i + 1)) == rank(range(i))) == x
    check = next(c for c in verify_antipode(bad).checks if c.name == "antipode-invertible")
    assert not check.ok
    assert check.detail == f"S(x) is in the span of the earlier images at {B.label_str(x)}"


def test_tampered_mu_caught_with_counterexample():
    B = b_z2(p=1)
    mu = SparseTensor3(B.mu.dims, B.conductor, dict(B.mu.data))
    key = next(iter(mu.data))
    mu.data[key] = -mu.data[key]
    rep = verify_weak_bialgebra(clone_with(B, mu=mu))
    assert not rep.ok
    assert rep.first_failure.detail  # concrete counterexample carried


def _on_dual(detail):
    return None if detail is None else f"in A*: {detail}"


def test_meta_sparse_equals_dense_sweeps():
    # the streamed sparse sweeps and the dense references must agree on the
    # verdict and the first counterexample, on good algebras and on tampered
    # ones (dims <= 81); the coalgebra laws are swept on the dual A*, so
    # coassociativity and Axiom 3 are checked against the references on A*
    g2, g3 = cyclic_group(2), cyclic_group(3)
    algebras = [
        build_b_g_omega(g2, trivial_cocycle(g2)),
        build_b_g_omega(g3, standard_cocycle(3, 1)),
        build_a_g_omega(g2, standard_cocycle(2, 1))[0],
        build_a_g_omega(g3, standard_cocycle(3, 2))[0],
    ]
    tampered = []
    for A in algebras[:2]:
        mu = SparseTensor3(A.mu.dims, A.conductor, dict(A.mu.data))
        key = sorted(mu.data)[1]
        mu.data[key] = mu.data[key] + mu.data[key]
        tampered.append(clone_with(A, mu=mu))
        delta = SparseTensor3(A.delta.dims, A.conductor, dict(A.delta.data))
        key = sorted(delta.data)[0]
        del delta.data[key]
        tampered.append(clone_with(A, delta=delta))
    for A in algebras + tampered:
        D = dual(A)
        expected = {
            "mu-associativity": assoc_dense(A),
            "delta-coassociativity": _on_dual(assoc_dense(D)),
            "axiom1-delta-multiplicative": axiom1_dense(A),
            "axiom2-counit-weak-multiplicative": axiom2_dense(A),
            "axiom3-unit-weak-comultiplicative": _on_dual(axiom2_dense(D)),
        }
        checks = {c.name: c for c in verify_weak_bialgebra(A).checks}
        for name, detail in expected.items():
            assert checks[name].ok == (detail is None), (A.name, name)
            assert checks[name].detail == detail, (A.name, name)
        # Axiom 1 is self-dual: A* satisfies it exactly when A does
        assert _axiom1_range(D, range(D.dim)) == axiom1_dense(D)
        assert (axiom1_dense(D) is None) == (expected["axiom1-delta-multiplicative"] is None)
    assert any(d is not None for A in tampered for d in (coassociativity_loop(A), axiom3_loop(A)))


@pytest.mark.parametrize("make", ["b_z3", "a_z3"])
def test_dual_is_a_weak_hopf_algebra_and_its_dual_is_the_algebra(make):
    g = cyclic_group(3)
    if make == "b_z3":
        A = build_b_g_omega(g, standard_cocycle(3, 1))
    else:
        A = build_a_g_omega(g, standard_cocycle(3, 1))[0]
    D = dual(A)
    assert verify_weak_bialgebra(D).ok and verify_antipode(D).ok
    assert compare_structure(dual(D), A, list(range(A.dim))).ok
    # <f g, x> = <f (x) g, Delta(x)> and <S*(f), x> = <f, S(x)> on the dual basis
    assert all(D.mu.data[(j, k, i)] == c for (i, j, k), c in A.delta.data.items())
    assert D.apply_antipode(D.basis_elem(0)) == {i: c for (k, i), c in A.antipode.data.items() if k == 0}


def test_dual_reads_its_algebra_and_copies_nothing_it_holds(monkeypatch):
    # A* shares A's scalar table and takes A's own index lists where the
    # indexes coincide; it starts no scalar table and forms its value
    # tensors, Delta* (mu transposed) among them, only when read: the dual
    # of A* reads A*'s indexes, not its tensors.  The shifted basis gives
    # products and coproducts of many terms
    A = _a_z2_shifted()
    assert A.ids  # made from value tables, A indexes them when its store is first read
    tables = []
    init = _ScalarIds.__init__
    monkeypatch.setattr(_ScalarIds, "__init__", lambda ids, *args: tables.append(ids) or init(ids, *args))
    D = dual(A)
    assert D.ids is A.ids and D.labels is A.labels and D.label_index is A.label_index
    assert D.delta_ids is A.mu_ids_by_result and D.mu_ids_by_result is A.delta_ids
    assert not {"mu", "delta", "antipode"} & D.__dict__.keys()
    assert compare_structure(dual(D), A, list(range(A.dim))).ok
    assert not {"mu", "delta", "antipode"} & D.__dict__.keys() and dual(D).ids is A.ids
    assert D.delta.data == {(k, i, j): c for (i, j, k), c in A.mu.data.items()}
    assert tables == []
    assert not any(isinstance(v, WeakHopfAlgebra) for v in A.__dict__.values())


# -- the coalgebra checks, swept on A*, against the direct loops they replaced

COALGEBRA_REFERENCES = {
    "counit-law": counit_law_loop,
    "delta-coassociativity": coassociativity_loop,
    "axiom3-unit-weak-comultiplicative": axiom3_loop,
    "antipode-coalgebra-antihom": coalgebra_antihom_loop,
}


def _tamper(entries, kind, key, d):
    """Copy of a sparse table with one entry doubled, dropped or moved (last index + 1 mod d)."""
    out = dict(entries)
    v = out.pop(key)
    if kind == "scale":
        out[key] = v + v
    elif kind == "move":
        moved = key[:-1] + ((key[-1] + 1) % d,) if isinstance(key, tuple) else (key + 1) % d
        s = out[moved] + v if moved in out else v
        if s:
            out[moved] = s
        else:
            del out[moved]
    return out


def _coalgebra_mutants(A, per_table, kinds=("scale", "drop", "move")):
    """Single-entry mutants of Delta, eps and S at `per_table` spread positions each."""
    n = A.conductor
    wrap = {
        "delta": lambda data: SparseTensor3(A.delta.dims, n, data),
        "counit": lambda data: data,
        "antipode": lambda data: SparseMatrix(A.dim, A.dim, n, data),
    }
    for table, entries in (("delta", A.delta.data), ("counit", A.counit), ("antipode", A.antipode.data)):
        for key in sorted(entries)[:: max(1, len(entries) // per_table)]:
            for kind in kinds:
                data = _tamper(entries, kind, key, A.dim)
                yield f"{table} {kind} {key}", clone_with(A, **{table: wrap[table](data)})


def _coalgebra_checks(A):
    checks = verify_weak_bialgebra(A).checks + verify_antipode(A).checks
    return {c.name: c for c in checks if c.name in COALGEBRA_REFERENCES}


@pytest.mark.parametrize("make", ["b_z3", "a_z2"])
def test_coalgebra_checks_match_loop_references_on_single_entry_mutants(make):
    if make == "b_z3":
        A = build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    else:
        A = a_z2(p=1)[0]
    assert all(ref(A) is None for ref in COALGEBRA_REFERENCES.values())
    rejected = dict.fromkeys(COALGEBRA_REFERENCES, 0)
    for what, bad in _coalgebra_mutants(A, 4):
        checks = _coalgebra_checks(bad)
        for name, ref in COALGEBRA_REFERENCES.items():
            assert checks[name].ok == (ref(bad) is None), (what, name)
            rejected[name] += not checks[name].ok
    assert all(rejected.values()), rejected


def test_coalgebra_checks_match_loop_references_on_b_z4():
    # dim 64, the sweeps on A* included
    A = build_b_g_omega(cyclic_group(4), standard_cocycle(4, 1))
    for what, bad in _coalgebra_mutants(A, 1, kinds=("scale",)):
        checks = _coalgebra_checks(bad)
        assert any(not c.ok for c in checks.values()), what
        for name, ref in COALGEBRA_REFERENCES.items():
            assert checks[name].ok == (ref(bad) is None), (what, name)


def test_s_of_one_is_reported_before_a_later_coalgebra_failure():
    B = build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    u = min(B.unit)
    S = B.antipode.copy()
    for (k, i), v in B.antipode.data.items():
        if i == u:
            S.set(k, i, v + v)
    bad = clone_with(B, antipode=S)
    assert bad.apply_antipode(bad.one()) != bad.one()
    assert any(delta_s_fails(bad, x) for x in range(bad.dim))
    check = _coalgebra_checks(bad)["antipode-coalgebra-antihom"]
    assert not check.ok
    assert check.detail == "S(1) != 1" == coalgebra_antihom_loop(bad)


def test_base_algebras_b_z2():
    B = b_z2()
    ba = base_algebras(B)
    assert ba.report.ok, ba.report.render()
    assert ba.dim_l == 2
    assert ba.dim_r == 2


def test_base_algebras_a_z2():
    A, _ = a_z2()
    ba = base_algebras(A)
    assert ba.report.ok
    assert ba.dim_l == 2


def test_base_algebras_matrix_double_eps_lr():
    # on M2 (x) M2^op the left counital map sends a (x) b to ab (x) 1
    B2 = standard_frobenius("matrix", 2)
    A = build_frobenius_double(B2)
    ba = base_algebras(A)
    assert ba.report.ok
    one = A.one_scalar()
    idx = lambda i, j: i * 2 + j
    for i, j in itertools.product(range(4), repeat=2):
        x = A.label_index[("t", i, j)]
        img = A.eps_lr(A.basis_elem(x))
        expected = {}
        prod = B2.mul({i: one}, {j: one})
        for k, c in prod.items():
            for m in range(2):
                expected[A.label_index[("t", k, idx(m, m))]] = c
        assert img == {k: v for k, v in expected.items() if v}


def _counital_map_cases():
    w = standard_cocycle(2, 1)
    yield a_z2(p=1)[0]
    yield build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    yield build_drinfeld_double(build_pairing(pointed_skeleton(w.group, w))).algebra
    yield build_groupoid_algebra(indiscrete_groupoid(2))
    yield build_frobenius_double(standard_frobenius("matrix", 2))


def test_counital_maps_match_per_element_formulas():
    # eps_t, eps_s and eps'_s are built once by columns from Delta(1), in the
    # algebra's scalar ids; each column, decoded, must equal the map
    # evaluated on that basis element alone
    for A in _counital_map_cases():
        vals = A.ids.vals
        maps = {name: {x: {k: vals[c] for k, c in col.items()} for x, col in getattr(A, name).items()}
                for name in ("eps_t_ids", "eps_s_ids", "eps_s_prime_ids")}
        eps_t, eps_s, eps_s_prime = maps.values()
        nonzero = 0
        for x in range(A.dim):
            ex = A.basis_elem(x)
            assert eps_t[x] == eps_t_per_element(A, ex), (A.name, x)
            assert eps_s[x] == eps_s_per_element(A, ex), (A.name, x)
            assert eps_s_prime[x] == eps_s_prime_per_element(A, ex), (A.name, x)
            nonzero += bool(eps_t[x]) and bool(eps_s[x]) and bool(eps_s_prime[x])
        assert nonzero, A.name
        assert set(eps_t) == set(eps_s) == set(eps_s_prime) == set(range(A.dim))


def test_center_dims():
    B = b_z2()
    assert center_dim(B) == 2
    A, _ = a_z2()
    assert center_dim(A) == 4


def _single_entry_mutants(A, tables):
    """Every single-entry mutant of the named tables of A: each entry scaled by 2, dropped or moved."""
    n = A.conductor
    for table in tables:
        entries = {"mu": A.mu.data, "delta": A.delta.data, "counit": A.counit}[table]
        for key in sorted(entries):
            for kind in ("scale", "drop", "move"):
                data = _tamper(entries, kind, key, A.dim)
                if table != "counit":
                    data = SparseTensor3(A.mu.dims, n, data)
                yield f"{table} {kind} {key}", clone_with(A, **{table: data})


def test_center_dim_matches_the_dense_commutator_nullspace_on_single_entry_mu_mutants():
    # every mutant fails associativity; on some of them the centraliser of
    # their generators is larger than the centre, so center_dim must take
    # every basis element once associativity fails
    total = larger = 0
    for A in (b_z2(0), b_z2(1), a_z2(0)[0], a_z2(1)[0]):
        assert center_dim(A) == center_dim_dense(A) == center_dim_dense(A, A.mu_generators)
        for what, bad in _single_entry_mutants(A, ["mu"]):
            full = center_dim_dense(bad)
            assert center_dim(bad) == full, (A.name, what)
            total += 1
            larger += center_dim_dense(bad, bad.mu_generators) != full
    assert (total, larger) == (480, 96)


def test_single_entry_mu_mutants_are_not_certified_semisimple():
    # every mutant fails associativity, and 12 keep the unit law: the
    # certificate answers False on each, and raises on none
    unit_kept = 0
    for what, bad in _single_entry_mutants(b_z2(1), ["mu"]):
        assert bad.associativity_detail is not None, what
        assert bad.semisimple is False, what
        unit_kept += _unit_law(bad) is None
    assert unit_kept == 12


def _base_checks(X):
    ba = base_algebras(X)
    return [(c.name, c.ok, c.detail) for c in ba.report.checks], ba.dim_l, ba.dim_r


def test_closure_failure_names_the_first_base_algebra_that_fails():
    # doubling Delta(e_0)'s e_0 (x) e_0 term leaves neither A^l nor A^r
    # closed under mu; the detail names A^l, the one checked first
    for A in (b_z2(0), b_z2(1), a_z2(0)[0], a_z2(1)[0],
              build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))):
        delta = dict(A.delta.data)
        delta[(0, 0, 0)] = delta[(0, 0, 0)] * Cyclotomic.rational(A.conductor, 2)
        bad = clone_with(A, delta=SparseTensor3(A.delta.dims, A.conductor, delta))
        ba = base_algebras(bad)
        for basis in (ba.basis_l, ba.basis_r):
            span = SparseMatrix.from_columns(bad.dim, basis, bad.conductor)
            assert any(span.solve(bad.mul(u, v)) is None for u in basis for v in basis), A.name
        check = next(c for c in ba.report.checks if c.name == "bases-closed-under-mu")
        assert (check.ok, check.detail) == (False, "A^l not closed under mu"), A.name


@pytest.mark.parametrize("make", ["b_z2", "a_z2", "b_z3"])
def test_base_algebras_match_the_solved_reference_on_single_entry_mutants(make):
    # membership against one elimination of each basis, and p's laws through
    # the rows of mu, report what one solve per vector and every pair of
    # p's terms report, on Delta, counit and mu mutants
    A = {"b_z2": lambda: b_z2(p=1), "a_z2": lambda: a_z2(p=1)[0],
         "b_z3": lambda: build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))}[make]()
    assert _base_checks(A) == base_algebras_solved(A)
    assert base_algebras(A).report.ok
    open_closure = {"delta": 0, "counit": 0, "mu": 0}
    for what, bad in _single_entry_mutants(A, ("delta", "counit", "mu")):
        got = _base_checks(bad)
        assert got == base_algebras_solved(bad), what
        open_closure[what.split()[0]] += ("bases-closed-under-mu", True, None) not in got[0]
    assert open_closure == {"b_z2": {"delta": 10, "counit": 0, "mu": 12},
                            "a_z2": {"delta": 10, "counit": 0, "mu": 12},
                            "b_z3": {"delta": 28, "counit": 0, "mu": 27}}[make]


def test_cocommutativity():
    assert not is_cocommutative(b_z2())
    g1 = cyclic_group(1)
    B1 = build_b_g_omega(g1, trivial_cocycle(g1))
    assert is_cocommutative(B1)


def test_opposite_and_coopposite():
    g = cyclic_group(3)
    B = build_b_g_omega(g, standard_cocycle(3, 1))
    Bop = opposite(B)
    assert verify_weak_bialgebra(Bop).ok
    assert verify_antipode(Bop).ok
    Bcop = coopposite(B)
    assert verify_weak_bialgebra(Bcop).ok
    assert verify_antipode(Bcop).ok
    # involution
    back = coopposite(Bcop)
    rep = compare_structure(back, B, list(range(B.dim)))
    assert rep.ok


def test_opposite_fixed_point_on_commutative_cocommutative():
    g1 = cyclic_group(1)
    B1 = build_b_g_omega(g1, trivial_cocycle(g1))
    op = opposite(B1)
    assert compare_structure(op, B1, list(range(B1.dim))).ok


@pytest.mark.parametrize("p", [0, 1])
def test_quasitriangular_passes(p):
    A, R = a_z2(p)
    rep = verify_quasitriangular(A, R)
    assert rep.ok, rep.render()


def test_quasitriangular_delta_one_fails():
    A, _ = a_z2()
    cand = RMatrixCandidate(A.delta_of_unit)
    rep = verify_quasitriangular(A, cand)
    assert not rep.ok


def test_quasitriangular_swapped_fails():
    A, R = a_z2(p=1)
    swapped = RMatrixCandidate({(j, i): c for (i, j), c in R.terms.items()})
    rep = verify_quasitriangular(A, swapped)
    assert not rep.ok


def test_quasitriangular_scaled_fails():
    A, R = a_z2()
    two = Cyclotomic.rational(A.conductor, 2)
    scaled = RMatrixCandidate({k: v * two for k, v in R.terms.items()})
    rep = verify_quasitriangular(A, scaled)
    assert not rep.ok


@pytest.mark.parametrize("p", [0, 1])
def test_weak_inverse_check_against_full_solve_on_every_single_entry_mutant(p):
    # the suite checks only (S (x) id)(R); where an unrestricted exact solve
    # still finds a weak inverse of a mutant, another law must reject it
    A, R = a_z2(p)
    R = R.terms
    assert weak_inverse_solved(A, R) is not None
    two = Cyclotomic.rational(A.conductor, 2)
    missed = 0
    for key in sorted(R):
        scaled = dict(R)
        scaled[key] = R[key] * two
        dropped = dict(R)
        del dropped[key]
        moved = dict(dropped)
        moved[(key[0], (key[1] + 1) % A.dim)] = R[key]
        for terms in (scaled, dropped, moved):
            checks = {c.name: c.ok for c in verify_quasitriangular(A, RMatrixCandidate(terms)).checks}
            solved = weak_inverse_solved(A, terms)
            if checks.pop("weak-inverse-exists"):
                assert solved is not None
            elif solved is not None:
                missed += 1
                assert not all(checks.values())
    # the scaled mutants keep a weak inverse that is not (S (x) id)(R)
    assert missed > 0


def _antihom_dense(A):
    """Reference for "antipode-algebra-antihom": S(xy) = S(y)S(x) on every basis pair."""
    S = A.antipode
    mul = element_product(A)
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = S.apply(mul(A.basis_elem(i), A.basis_elem(j)))
            rhs = mul(S.apply(A.basis_elem(j)), S.apply(A.basis_elem(i)))
            if lhs != rhs:
                return f"S(xy) != S(y)S(x) at ({A.label_str(i)}, {A.label_str(j)})"
    return None


@pytest.mark.parametrize("n", [2, 3])
def test_antihom_sweep_matches_dense_reference_on_tampered_antipodes(n):
    A, _ = build_a_g_omega(cyclic_group(n), standard_cocycle(n, 1))
    assert _antihom_range(A, range(A.dim)) is None
    assert _antihom_dense(A) is None
    two = Cyclotomic.rational(A.conductor, 2)
    tampered = []
    for (k, i) in random.Random(n).sample(sorted(A.antipode.data), 4):
        scaled = A.antipode.copy()
        scaled.set(k, i, scaled.get(k, i) * two)
        # moving the entry to another row can make S(e_j) S(e_i) nonzero
        # where e_i e_j = 0
        moved = A.antipode.copy()
        moved.set(k, i, Cyclotomic.zero(A.conductor))
        moved.add_to((k + 1) % A.dim, i, A.antipode.get(k, i))
        tampered += [scaled, moved]
    for S in tampered:
        bad = clone_with(A, antipode=S)
        expected = _antihom_dense(bad)
        assert expected is not None
        check = next(c for c in verify_antipode(bad).checks if c.name == "antipode-algebra-antihom")
        assert not check.ok
        assert check.detail == expected
        assert bad.associativity_detail is None  # swept on the generators
    # mu mutants: where mu is not associative the law is swept on the whole
    # basis; on A(Z3) a sweep of the generators alone would name another pair
    full = misnamed = 0
    for what, bad in itertools.islice(_mu_mutants(A, 2), 6):
        expected = _antihom_dense(bad)
        check = next(c for c in verify_antipode(bad).checks if c.name == "antipode-algebra-antihom")
        assert check.detail == expected, what
        full += bad.associativity_detail is not None and expected is not None
        misnamed += _antihom_range(bad, bad.mu_generators) != expected
    assert full
    assert misnamed or n == 2


# ---------------------------------------------------------------------------
# the product on tensor powers A^(x)k
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _a_z3_with_r():
    return build_a_g_omega(cyclic_group(3), standard_cocycle(3, 1))


def _a_z3():
    return _a_z3_with_r()[0]


def _shifted_coordinates(A, shifted=None):
    """The basis f_i = e_i + e_(i+1) for i in `shifted` (default: every
    i < dim - 1), f_i = e_i otherwise, and the matrix taking e-coordinates
    to f-coordinates."""
    d, n = A.dim, A.conductor
    shifted = range(d - 1) if shifted is None else shifted
    one = A.one_scalar()
    f = [{i: one, i + 1: one} if i in shifted else {i: one} for i in range(d)]
    return f, SparseMatrix.from_columns(d, f, n).inverse()


def _shifted_basis(A, shifted=None):
    """A in the basis f_i = e_i + e_(i+1) (`_shifted_coordinates`): products
    and coproducts have many terms, and sums of them cancel often."""
    d, n = A.dim, A.conductor
    one = A.one_scalar()
    f, to_f = _shifted_coordinates(A, shifted)
    mu = SparseTensor3((d, d, d), n)
    delta = SparseTensor3((d, d, d), n)
    antipode = SparseMatrix(d, d, n)
    for i in range(d):
        for j in range(d):
            for k, c in to_f.apply(A.mul(f[i], f[j])).items():
                mu.add_to(i, j, k, c)
        for (a, b), c in A.coproduct(f[i]).items():
            for a2, ca in to_f.apply({a: c}).items():
                for b2, cb in to_f.apply({b: one}).items():
                    delta.add_to(i, a2, b2, ca * cb)
        for k, c in to_f.apply(A.apply_antipode(f[i])).items():
            antipode.add_to(k, i, c)
    counit = {i: v for i in range(d) if (v := A.apply_counit(f[i]))}
    return WeakHopfAlgebra(range(d), n, mu, to_f.apply(A.unit), delta, counit, antipode,
                           name=f"{A.name} shifted")


@functools.lru_cache(maxsize=None)
def _a_z2_shifted():
    return _shifted_basis(a_z2(p=1)[0])


@functools.lru_cache(maxsize=None)
def _a_z2_half_shifted_with_r():
    """A(Z2, p=1) with its even indices shifted, and its R carried into that
    basis (fully shifted, R has 187 terms and Yang-Baxter takes minutes)."""
    A, R = a_z2(p=1)
    even = range(0, A.dim, 2)
    _f, to_f = _shifted_coordinates(A, even)
    one = A.one_scalar()
    terms = _collect(((a, b), ca * cb) for (i, j), c in R.terms.items()
                     for a, ca in to_f.apply({i: c}).items()
                     for b, cb in to_f.apply({j: one}).items())
    return _shifted_basis(A, even), terms


_TENSOR_ALGEBRAS = [_a_z3, _a_z2_shifted]


def _right_companions(A):
    """i -> the sorted j with (i, j) in A's `pairs_index`."""
    out = {}
    for i, j in sorted(pairs_index(A)):
        out.setdefault(i, []).append(j)
    return out


def _naive_tensor_product(A, U, V):
    """Reference: every one of the |U|.|V| term pairs, legwise element products."""
    mul = element_product(A)
    basis_products = {}

    def leg(a, b):
        if (a, b) not in basis_products:
            basis_products[(a, b)] = list(mul(A.basis_elem(a), A.basis_elem(b)).items())
        return basis_products[(a, b)]

    out = {}
    for key1, c1 in U.items():
        for key2, c2 in V.items():
            legs = [leg(a, b) for a, b in zip(key1, key2)]
            for combo in itertools.product(*legs):
                c = c1 * c2
                for _k, ck in combo:
                    c = c * ck
                key = tuple(k for k, _ck in combo)
                out[key] = out.get(key, A.zero_scalar()) + c
    return {key: c for key, c in out.items() if c}


def _scalars(n):
    z = Cyclotomic.from_pairs(n, ((1, 1),))
    return [Cyclotomic.one(n), Cyclotomic.rational(n, -2), z, z * z + Cyclotomic.rational(n, 3)]


@st.composite
def _operand_pair(draw, which, k):
    """(which, U, V) with U, V in A^(x)k; V's keys lean toward U's right companions."""
    A = _TENSOR_ALGEBRAS[which]()
    index = st.integers(0, A.dim - 1)
    coeff = st.sampled_from(_scalars(A.conductor))
    U = draw(st.dictionaries(st.tuples(*[index] * k), coeff, max_size=5))
    rc = _right_companions(A)
    keys = st.tuples(*[index] * k)
    if U:
        partner = st.sampled_from(sorted(U)).flatmap(
            lambda key: st.tuples(*[st.sampled_from(rc[i]) for i in key])
        )
        keys = st.one_of(keys, partner)
    # up to 15 terms, so V's first legs can outnumber a term's right companions
    V = draw(st.dictionaries(keys, coeff, max_size=15))
    return which, U, V


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(0, 2), (0, 3), (1, 2), (1, 3)]).flatmap(lambda wk: _operand_pair(*wk)))
def test_mul_tensor_matches_naive_reference(case):
    which, U, V = case
    A = _TENSOR_ALGEBRAS[which]()
    assert A.mul_tensor(U, V) == _naive_tensor_product(A, U, V)


@pytest.mark.parametrize("k", [2, 3])
def test_mul_tensor_empty_and_singleton_operands(k):
    A = _a_z3()
    one = A.one_scalar()
    z = Cyclotomic.from_pairs(A.conductor, ((1, 1),))
    i = 5
    rc = _right_companions(A)
    j = rc[i][-1]
    dead = next(x for x in range(A.dim) if x not in rc[i])
    single = {(i,) * k: z}
    live = {(j,) * k: one}
    every = {(x,) * k: one for x in range(A.dim)}
    cases = [
        (single, every),
        (every, single),
        ({}, {}),
        ({}, single),
        (single, {}),
        (single, live),
        (single, {(dead,) * k: one}),
        (single, {(j,) * (k - 1) + (dead,): one}),
    ]
    for U, V in cases:
        assert A.mul_tensor(U, V) == _naive_tensor_product(A, U, V)
    assert A.mul_tensor(single, live)
    assert A.mul_tensor(single, {(j,) * (k - 1) + (dead,): one}) == {}


def _collect(terms):
    """Sparse dict of the summed (key, scalar) pairs, zeros dropped."""
    out = {}
    for key, c in terms:
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def _lift_dense(A, R, legs):
    """R on `legs` of A^(x)3 with the whole unit on the third leg."""
    out = {}
    for (i, j), c in R.items():
        for u, cu in A.unit.items():
            key = [u, u, u]
            key[legs[0]], key[legs[1]] = i, j
            out[tuple(key)] = c * cu
    return out


def _r_shaped(A, count, seed):
    """`count` random terms of A (x) A, several sharing each first leg."""
    rnd = random.Random(seed)
    firsts = rnd.sample(range(A.dim), max(1, count // 3))
    coeffs = _scalars(A.conductor)
    return {(rnd.choice(firsts), rnd.randrange(A.dim)): rnd.choice(coeffs) for _ in range(count)}


@pytest.mark.parametrize("which", [0, 1])
def test_mul_tensor_matches_naive_reference_on_unit_lifted_operands(which):
    # the Yang-Baxter shape: R12 R13 R23 and R23 R13 R12 with the unit lifted
    # into the free leg, so many right terms share their first two legs
    A = _TENSOR_ALGEBRAS[which]()
    R = _a_z3_with_r()[1].terms if which == 0 else _r_shaped(A, 5, 3)
    r12, r13, r23 = (_lift_dense(A, R, legs) for legs in ((0, 1), (0, 2), (1, 2)))
    for U, V, W in ((r12, r13, r23), (r23, r13, r12)):
        UV = A.mul_tensor(U, V)
        assert UV == _naive_tensor_product(A, U, V)
        UVW = A.mul_tensor(UV, W)
        assert UVW == _naive_tensor_product(A, UV, W)
        assert UV and UVW


def _coproduct_dense(A, x):
    return {(j, k): c for (i, j, k), c in A.delta.data.items() if i == x}


def _quasitriangular_dense(A, R):
    """Reference for `verify_quasitriangular`: [(name, ok, detail)] in its order.

    Every product is `_naive_tensor_product`, every leg placement carries the
    whole unit, and Delta is read from the structure tensor.  The weak
    inverse is (S (x) id)(R), read from the antipode tensor, with its laws
    checked by naive products.
    """
    naive = functools.partial(_naive_tensor_product, A)

    def cop(U):
        return {(j, i): c for (i, j), c in U.items()}

    def delta_on(leg):
        return _collect(
            ((a, b, j) if leg == 0 else (i, a, b), c * c2)
            for (i, j), c in R.items()
            for (a, b), c2 in _coproduct_dense(A, (i, j)[leg]).items()
        )

    checks = []
    d1 = _collect((key, cu * c) for u, cu in A.unit.items()
                  for key, c in _coproduct_dense(A, u).items())
    ok = naive(R, d1) == R
    checks.append(("r-lives-in-right-ideal", ok, None if ok else "R Delta(1) != R"))
    detail = None
    for x in range(A.dim):
        dx = _coproduct_dense(A, x)
        if naive(R, dx) != naive(cop(dx), R):
            detail = f"R Delta(x) != Delta^cop(x) R at x = {A.label_str(x)}"
            break
    checks.append(("r-intertwines-coproducts", detail is None, detail))
    r12, r13, r23 = (_lift_dense(A, R, legs) for legs in ((0, 1), (0, 2), (1, 2)))
    ok = delta_on(0) == naive(r13, r23)
    checks.append(("delta-leg-one", ok, None if ok else "(Delta (x) id)(R) != R13 R23"))
    ok = delta_on(1) == naive(r13, r12)
    checks.append(("delta-leg-two", ok, None if ok else "(id (x) Delta)(R) != R13 R12"))
    d1cop = cop(d1)
    rb = _collect(((k, j), c * v) for (i, j), c in R.items()
                  for (k, q), v in A.antipode.data.items() if q == i)
    ok = naive(R, rb) == d1cop and naive(rb, R) == d1 and naive(rb, d1cop) == rb
    detail = "(S (x) id)(R) is not a weak inverse of R"
    checks.append(("weak-inverse-exists", ok, None if ok else detail))
    ok = naive(naive(r12, r13), r23) == naive(naive(r23, r13), r12)
    checks.append(("yang-baxter", ok, None if ok else "R12 R13 R23 != R23 R13 R12"))
    return checks


def _qt_checks(A, terms):
    """`verify_quasitriangular` on a fresh candidate, as [(name, ok, detail)]."""
    return [(c.name, c.ok, c.detail) for c in verify_quasitriangular(A, RMatrixCandidate(terms)).checks]


def _qt_verdicts_match_dense(variants):
    """Assert the suite matches `_quasitriangular_dense` check by check on
    each (A, R) variant; return {check name: verdict} of each."""
    verdicts = []
    for A, terms in variants:
        expected = _quasitriangular_dense(A, terms)
        assert _qt_checks(A, terms) == expected, A.name
        verdicts.append({name: ok for name, ok, _detail in expected})
    return verdicts


def test_quasitriangular_suite_matches_dense_reference_on_single_entry_mutants():
    A, R = _a_z3_with_r()
    R = R.terms
    two = Cyclotomic.rational(A.conductor, 2)
    variants = [R]
    for key in random.Random(3).sample(sorted(R), 2):
        scaled = dict(R)
        scaled[key] = R[key] * two
        dropped = dict(R)
        del dropped[key]
        moved = dict(dropped)
        moved[(key[0], (key[1] + 1) % A.dim)] = R[key]
        variants += [scaled, dropped, moved]
    verdicts = _qt_verdicts_match_dense([(A, terms) for terms in variants])
    assert [all(v.values()) for v in verdicts] == [True] + [False] * (len(variants) - 1)


def test_quasitriangular_suite_matches_dense_reference_on_unit_mutants():
    # R's two-leg products read the unit through mu, e_b 1 and 1 e_b, so a
    # wrong unit shows in the coproduct-leg laws as it does in the reference's
    # unit-lifted products
    A, R = _a_z3_with_r()
    mutants = [clone_with(A, unit=_tamper(A.unit, kind, key, A.dim))
               for key in sorted(A.unit)[:4] for kind in ("scale", "drop")]
    verdicts = _qt_verdicts_match_dense([(bad, R.terms) for bad in mutants])
    assert [(v["delta-leg-one"], v["delta-leg-two"]) for v in verdicts] == [(False, False)] * 8


def test_quasitriangular_suite_matches_dense_reference_in_a_shifted_basis():
    # in the shifted basis the unit, R and the products of R's legs have
    # several terms; each mu mutant changes e_b 1 (or 1 e_b) for a leg b of
    # R, so there rho(b) = e_b 1 (or lambda(b) = 1 e_b) is no longer e_b
    A, R = _a_z2_half_shifted_with_r()
    legs = {x for key in R for x in key}
    assert len(A.unit) > 1 and len(R) > len(a_z2(p=1)[1])
    assert max(len(A.mul(A.basis_elem(a), A.basis_elem(b))) for a in legs for b in legs) > 1
    one = A.one()
    right = [key for key in sorted(A.mu.data) if key[0] in legs and key[1] in A.unit]
    left = [key for key in sorted(A.mu.data) if key[1] in legs and key[0] in A.unit]
    mutants = []
    for leg, keys in ((0, right), (1, left)):
        for key in keys[:: max(1, len(keys) // 3)][:3]:
            for kind in ("scale", "drop"):
                mu = SparseTensor3(A.mu.dims, A.conductor, _tamper(A.mu.data, kind, key, A.dim))
                bad = clone_with(A, mu=mu)
                b = bad.basis_elem(key[leg])
                assert (bad.mul(b, one) if leg == 0 else bad.mul(one, b)) != b, (kind, key)
                mutants.append(bad)
    assert len(mutants) == 12
    verdicts = _qt_verdicts_match_dense([(A, R)] + [(bad, R) for bad in mutants])
    assert all(verdicts[0].values())
    assert not any(all(v.values()) for v in verdicts[1:])


def test_quasitriangular_suite_matches_dense_reference_on_stored_zero_mu_mutants():
    # the reference's products keep mu's stored zeros (`pairs_index`) and the
    # suite's rows leave them out (`mu_ids`); a zero where the product is zero
    # changes nothing, and zeros over the entries of e_b 1 (or 1 e_b) for a
    # leg b of R take those terms out of rho(b) (or lambda(b))
    A, R = _a_z2_half_shifted_with_r()
    zero = Cyclotomic.zero(A.conductor)
    legs = sorted({x for key in R for x in key})

    def with_zeros(keys):
        data = dict(A.mu.data)
        data.update(dict.fromkeys(keys, zero))
        return clone_with(A, mu=SparseTensor3(A.mu.dims, A.conductor, data))

    mp = pairs_index(A)
    i, j = next((i, j) for i in range(A.dim) for j in range(A.dim) if (i, j) not in mp)
    harmless = with_zeros([(i, j, 0)])
    mutants = []
    for leg in (0, 1):
        for b in legs[:2]:
            keys = [key for key in A.mu.data if key[leg] == b and key[1 - leg] in A.unit]
            assert keys, (leg, b)
            mutants.append(with_zeros(keys))
    verdicts = _qt_verdicts_match_dense([(A, R), (harmless, R)] + [(bad, R) for bad in mutants])
    assert all(verdicts[0].values()) and verdicts[1] == verdicts[0]
    assert not any(all(v.values()) for v in verdicts[2:])
    checks = lambda X: [(c.name, c.ok, c.detail) for c in base_algebras(X).report.checks]
    assert checks(harmless) == checks(A)


def test_quasitriangular_suite_leaves_the_candidate_unchanged():
    # a candidate verified once must not carry its weak inverse to the next
    # algebra: there it would be checked as supplied
    A, R = a_z2(p=1)
    cand = RMatrixCandidate(R.terms)
    assert verify_quasitriangular(A, cand).ok
    assert cand.rbar is None
    failed = 0
    for (k, i) in sorted(A.antipode.data):
        S = A.antipode.copy()
        S.set(k, i, S.get(k, i) * Cyclotomic.rational(A.conductor, 2))
        bad = clone_with(A, antipode=S)
        got = [(c.name, c.ok, c.detail) for c in verify_quasitriangular(bad, cand).checks]
        assert got == _qt_checks(bad, R.terms), (k, i)
        failed += not {name: ok for name, ok, _detail in got}["weak-inverse-exists"]
    assert failed == 8
    # a supplied weak inverse is checked as supplied
    rbar = weak_inverse(A, cand)
    assert rbar is not None and cand.rbar is None
    assert verify_quasitriangular(A, RMatrixCandidate(R.terms, rbar)).ok
    two = Cyclotomic.rational(A.conductor, 2)
    wrong = RMatrixCandidate(R.terms, {key: c * two for key, c in rbar.items()})
    check = next(c for c in verify_quasitriangular(A, wrong).checks if c.name == "weak-inverse-exists")
    assert (check.ok, check.detail) == (False, "supplied weak inverse fails its defining laws")


def _first_failure_by_ranges(A, step, kernel=_assoc_range):
    """A range kernel over consecutive ranges of the basis, lowest first."""
    for lo in range(0, A.dim, step):
        detail = kernel(A, range(lo, min(A.dim, lo + step)))
        if detail is not None:
            return detail
    return None


def _cancelling_pair(A):
    """mu with two new entries whose product cancels a term of (e_0 e_y) e_z.

    With e_0 e_y = c0 e_p0 and e_p0 e_z = a e_w, the entries e_0 e_y -> p2
    (coefficient -c0 a) and e_p2 e_z -> w (coefficient 1) add -c0 a at the
    left side's key (y, z, w) for x = 0, the first x swept: the sum there is 0.
    """
    mp = pairs_index(A)
    rc = _right_companions(A)
    y = rc[0][0]
    (p0, c0), = mp[(0, y)]
    z = rc[p0][0]
    (w, a), = mp[(p0, z)]
    p2 = next(p for p in range(A.dim) if p != p0 and (0, y, p) not in A.mu.data
              and (p, z, w) not in A.mu.data)
    mu = SparseTensor3(A.mu.dims, A.conductor, dict(A.mu.data))
    mu.data[(p2, z, w)] = A.one_scalar()
    mu.data[(0, y, p2)] = -(c0 * a)
    return mu


@pytest.mark.parametrize("make", ["b_z3", "a_z2"])
def test_assoc_kernel_matches_dense_on_stored_zeros_and_cancelling_sums(make):
    if make == "b_z3":
        A = build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    else:
        A = a_z2(p=1)[0]
    zero = Cyclotomic.zero(A.conductor)
    stored_zero = []
    for key in sorted(A.mu.data)[:: max(1, len(A.mu.data) // 3)]:
        mu = SparseTensor3(A.mu.dims, A.conductor, dict(A.mu.data))
        mu.data[key] = zero  # the entry's product is gone: a real tamper
        stored_zero.append(mu)
    mu = SparseTensor3(A.mu.dims, A.conductor, dict(A.mu.data))
    mp = pairs_index(A)
    i, j = next((i, j) for i in range(A.dim) for j in range(A.dim) if (i, j) not in mp)
    mu.data[(i, j, 0)] = zero  # a stored zero where the product is zero: no tamper
    harmless = clone_with(A, mu=mu)
    assert _assoc_range(harmless, range(A.dim)) is None and assoc_dense(harmless) is None
    for mu in stored_zero + [_cancelling_pair(A)]:
        bad = clone_with(A, mu=mu)
        expected = assoc_dense(bad)
        assert expected is not None
        assert _assoc_range(bad, range(bad.dim)) == expected
        assert _first_failure_by_ranges(bad, 5) == expected
        check = verify_weak_bialgebra(bad).checks[1]
        assert check.name == "mu-associativity"
        assert check.detail == expected


def test_assoc_kernel_matches_dense_where_long_products_cancel():
    # in the shifted basis products have many terms and sums cancel often
    A = _a_z2_shifted()
    assert _assoc_range(A, range(A.dim)) is None and assoc_dense(A) is None
    two = Cyclotomic.rational(A.conductor, 2)
    for key in random.Random(2).sample(sorted(A.mu.data), 4):
        mu = SparseTensor3(A.mu.dims, A.conductor, dict(A.mu.data))
        mu.data[key] = mu.data[key] * two
        bad = PlainAlgebra(A.labels, A.conductor, mu, A.unit)
        expected = assoc_dense(bad)
        assert expected is not None
        assert _assoc_range(bad, range(bad.dim)) == expected
        assert _first_failure_by_ranges(bad, 5) == expected


# -- mu-associativity and Axiom 1 on the generators of A

def _mu_mutants(A, per_kind, rebuild=None):
    """Single-entry mu mutants at spread positions, then ones that move S.

    The last ones are the first drop and the first move, in key order, of an
    entry the generator closure used: their `mu_generators` differ from A's.
    `rebuild` makes the mutant from its mu (default: `clone_with`).
    """
    rebuild = rebuild or (lambda mu: clone_with(A, mu=mu))

    def mutant(kind, key):
        return rebuild(SparseTensor3(A.mu.dims, A.conductor, _tamper(A.mu.data, kind, key, A.dim)))

    for key in sorted(A.mu.data)[:: max(1, len(A.mu.data) // per_kind)]:
        for kind in ("scale", "drop", "move"):
            yield f"mu {kind} {key}", mutant(kind, key)
    moved = 0
    for kind in ("drop", "move"):
        bad = next((bad for key in sorted(A.mu.data)
                    if (bad := mutant(kind, key)).mu_generators != A.mu_generators), None)
        if bad is not None:
            moved += 1
            yield f"mu {kind}, S moved", bad
    assert moved


def _assoc_triple(A, xs):
    """The least (x, y, z), x in xs, with (x y) z != x (y z), as the kernel finds it."""
    mu = A.mu_ids
    return _mixed_assoc_range(A.ids, mu, mu, mu, A.mu_ids_by_result, xs)


@pytest.mark.parametrize("make", ["b_z3", "a_z2"])
def test_generated_sweeps_match_dense_on_single_entry_mu_mutants(make):
    # the least counterexample is a generator: the first that fails
    if make == "b_z3":
        A = build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    else:
        A = a_z2(p=1)[0]
    assert len(A.mu_generators) < A.dim
    for what, bad in _mu_mutants(A, 4):
        expected = [assoc_dense(bad), axiom1_dense(bad)]
        assert expected[0] is not None, what
        checks = {c.name: c for c in verify_weak_bialgebra(bad).checks}
        got = [checks["mu-associativity"].detail, checks["axiom1-delta-multiplicative"].detail]
        assert got == expected, what
        least = _assoc_triple(bad, range(bad.dim))[0]
        assert least in bad.mu_generators, what
        assert _assoc_triple(bad, bad.mu_generators)[0] == least, what


@pytest.mark.parametrize("make", ["b_z2", "a_z2"])
def test_unit_mutants_fail_the_unit_law_and_keep_associativity(make):
    # the generator closure does not read the unit
    A = b_z2(p=1) if make == "b_z2" else a_z2(p=1)[0]
    control = {c.name: c for c in verify_weak_bialgebra(A).checks}
    assert control["unit-law"].ok and control["mu-associativity"].ok
    assert unit_law_loop(A) is None
    for key in sorted(A.unit):
        for kind in ("scale", "drop", "move"):
            bad = clone_with(A, unit=_tamper(A.unit, kind, key, A.dim))
            expected = unit_law_loop(bad)
            assert expected is not None, (kind, key)
            rep = verify_weak_bialgebra(bad)
            checks = {c.name: c for c in rep.checks}
            assert not rep.ok
            assert checks["unit-law"].detail == expected, (kind, key)
            assert checks["mu-associativity"].ok, (kind, key)
            assert bad.mu_generators == A.mu_generators


def test_generators_reach_every_basis_index_off_the_pointed_family():
    # a tube level, a Drinfeld double, and the shifted bases, whose products
    # have many terms: S is sorted and its closure is the whole basis
    g = cyclic_group(3)
    C = pointed_skeleton(g, standard_cocycle(3, 1))
    cases = [TubeFamily(C).algebra(2),
             build_drinfeld_double(build_pairing(C)).algebra,
             _shifted_basis(b_z2(p=1)), _a_z2_shifted()]
    sizes = []
    for A in cases:
        for X in (A, dual(A)) if isinstance(A, WeakHopfAlgebra) else (A,):
            gens = X.mu_generators
            assert gens == sorted(set(gens)), X.name
            assert generated_indices(X, gens) == set(range(X.dim)), X.name
            sizes.append(len(gens) < X.dim)
    assert any(sizes) and not all(sizes)  # both the generated and the full sweep run


def test_generated_sweeps_keep_the_verdicts_where_products_have_many_terms():
    # A(Z2, p=1) in the shifted basis: S is a proper subset, yet most
    # products are sums; a tube level is a PlainAlgebra whose `validate`
    # sweeps on generators too
    A = _a_z2_shifted()
    assert len(A.mu_generators) < A.dim
    assert any(len(terms) > 1 for terms in pairs_index(A).values())
    assert verify_weak_bialgebra(A).ok
    two = Cyclotomic.rational(A.conductor, 2)
    for key in random.Random(5).sample(sorted(A.mu.data), 3):
        mu = SparseTensor3(A.mu.dims, A.conductor, dict(A.mu.data))
        mu.data[key] = mu.data[key] * two
        bad = clone_with(A, mu=mu)
        expected = assoc_dense(bad)
        check = verify_weak_bialgebra(bad).checks[1]
        assert check.name == "mu-associativity"
        assert expected is not None and check.detail == expected
    C = pointed_skeleton(cyclic_group(3), standard_cocycle(3, 1))
    T = TubeFamily(C).algebra(1)
    assert len(T.mu_generators) < T.dim and T.validate().ok
    rebuild = lambda mu: PlainAlgebra(T.labels, T.conductor, mu, T.unit)
    for what, bad in _mu_mutants(T, 3, rebuild=rebuild):
        check = bad.validate().checks[1]
        assert check.name == "associativity"
        assert check.detail == assoc_dense(bad), what


# -- Axioms 1-3 on scalar ids against the dense references

_AXIOM_CHECKS = (
    "axiom1-delta-multiplicative",
    "axiom2-counit-weak-multiplicative",
    "axiom3-unit-weak-comultiplicative",
)


def _with_stored_zero(entries, key, zero):
    out = dict(entries)
    out[key] = zero
    return out


def _axiom_mutants(A, per_table):
    """Stored zeros in mu and Delta, then single-entry mutants of Delta and eps.

    A stored zero over a nonzero entry removes that entry's product or
    coproduct term, a real tamper; one at a key absent from the table
    changes nothing.  The Delta and eps entries are scaled, dropped or moved
    at `per_table` spread positions each.
    """
    n = A.conductor
    zero = Cyclotomic.zero(n)
    tensors = {"mu": A.mu.data, "delta": A.delta.data}

    def with_zero(table, key):
        data = _with_stored_zero(tensors[table], key, zero)
        return clone_with(A, **{table: SparseTensor3(A.mu.dims, n, data)})

    for table, entries in tensors.items():
        absent = next(k for k in itertools.product(range(A.dim), repeat=3) if k not in entries)
        yield f"harmless {table} zero", with_zero(table, absent)
    for table, entries in tensors.items():
        for key in sorted(entries)[:: max(1, len(entries) // 3)]:
            yield f"{table} zero {key}", with_zero(table, key)
    for table, entries in (("delta", A.delta.data), ("counit", A.counit)):
        for key in sorted(entries)[:: max(1, len(entries) // per_table)]:
            for kind in ("scale", "drop", "move"):
                data = _tamper(entries, kind, key, A.dim)
                if table == "delta":
                    data = SparseTensor3(A.delta.dims, n, data)
                yield f"{table} {kind} {key}", clone_with(A, **{table: data})


def _axiom1_failing_ys(A, x):
    mul = element_product(A)
    dx = A.coproduct(A.basis_elem(x))
    return [y for y in range(A.dim)
            if _naive_tensor_product(A, dx, A.coproduct(A.basis_elem(y)))
            != A.coproduct(mul(A.basis_elem(x), A.basis_elem(y)))]


def _axiom2_failing_pairs(A, y, swap):
    """The (x, z) at which one equality of Axiom 2 fails for the middle element y."""
    mul = element_product(A)

    def eps2(a, b):
        return A.apply_counit(mul(A.basis_elem(a), A.basis_elem(b)))

    out = []
    for x in range(A.dim):
        for z in range(A.dim):
            lhs = A.zero_scalar()
            for (s, t), c in A.coproduct(A.basis_elem(y)).items():
                if swap:
                    s, t = t, s
                lhs = lhs + eps2(x, s) * c * eps2(t, z)
            if lhs != A.apply_counit(mul(A.basis_elem(x), mul(A.basis_elem(y), A.basis_elem(z)))):
                out.append((x, z))
    return out


@pytest.mark.parametrize("make", ["b_z3", "a_z2", "b_z2_shifted"])
def test_axiom_kernels_match_dense_on_stored_zeros_and_single_entry_mutants(make):
    # the shifted basis is B(Z2, p=1)'s: on A(Z2, p=1)'s one passing dense
    # Axiom 1 sweep alone takes about 3 s, too long to repeat for every mutant
    if make == "b_z3":
        A, per_table = build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1)), 4
    elif make == "a_z2":
        A, per_table = a_z2(p=1)[0], 4
    else:
        A, per_table = _shifted_basis(b_z2(p=1)), 2
    rejected = dict.fromkeys(_AXIOM_CHECKS, 0)
    several_keys = {"axiom1": 0, "axiom2": 0}
    for what, bad in _axiom_mutants(A, per_table):
        D = dual(bad)
        refs = {}
        for X in (bad, D):
            for kernel, dense in ((_axiom1_range, axiom1_dense),
                                  (_counit_weak_mult_range, axiom2_dense)):
                refs[X.name, dense] = ref = dense(X)
                assert kernel(X, range(X.dim)) == ref, (what, X.name, kernel.__name__)
                assert _first_failure_by_ranges(X, 5, kernel) == ref, (what, X.name)
        expected = [refs[bad.name, axiom1_dense], refs[bad.name, axiom2_dense],
                    _on_dual(refs[D.name, axiom2_dense])]
        checks = {c.name: c for c in verify_weak_bialgebra(bad).checks}
        assert [checks[name].detail for name in _AXIOM_CHECKS] == expected, what
        for name, detail in zip(_AXIOM_CHECKS, expected):
            rejected[name] += detail is not None
        if what.startswith("harmless"):
            assert expected == [None, None, None], what
        # where the first failing x (or y) has several differing keys, the
        # detail names the least
        label = bad.label_str
        if expected[0] is not None:
            x, y = next((x, y) for x in range(bad.dim) for y in range(bad.dim)
                        if expected[0].endswith(f"= ({label(x)}, {label(y)})"))
            ys = _axiom1_failing_ys(bad, x)
            assert ys[0] == y
            several_keys["axiom1"] += len(ys) > 1
        if expected[1] is not None:
            x, y, z = next(t for t in itertools.product(range(bad.dim), repeat=3)
                           if expected[1].endswith(f"at ({', '.join(map(label, t))})"))
            pairs = _axiom2_failing_pairs(bad, y, "y_(2)) eps(y_(1)" in expected[1])
            assert pairs[0] == (x, z)
            several_keys["axiom2"] += len(pairs) > 1
    assert all(rejected.values()), rejected
    assert all(several_keys.values()), several_keys


def test_axiom_kernels_match_dense_where_long_coproducts_cancel():
    # A(Z2, p=1) in the shifted basis: the passing control, then mutants
    A = _a_z2_shifted()
    assert _axiom1_range(A, range(A.dim)) is None and axiom1_dense(A) is None
    for X in (A, dual(A)):
        assert _counit_weak_mult_range(X, range(X.dim)) is None and axiom2_dense(X) is None
    two = Cyclotomic.rational(A.conductor, 2)
    details = []
    for key in random.Random(3).sample(sorted(A.delta.data), 4):
        delta = SparseTensor3(A.delta.dims, A.conductor, dict(A.delta.data))
        delta.data[key] = delta.data[key] * two
        bad = clone_with(A, delta=delta)
        for X in (bad, dual(bad)):
            expected = axiom1_dense(X)
            assert expected is not None
            assert _axiom1_range(X, range(X.dim)) == expected
            assert _first_failure_by_ranges(X, 5, _axiom1_range) == expected
            expected = axiom2_dense(X)
            assert _counit_weak_mult_range(X, range(X.dim)) == expected
            assert _first_failure_by_ranges(X, 5, _counit_weak_mult_range) == expected
            details.append(expected)
    assert any(details)


def test_axiom_checks_match_dense_on_b_z4():
    # dim 64: Delta and counit mutants
    A = build_b_g_omega(cyclic_group(4), standard_cocycle(4, 1))
    n = A.conductor
    mutants = []
    for key in sorted(A.delta.data)[:: len(A.delta.data) // 3]:
        data = _tamper(A.delta.data, "scale", key, A.dim)
        mutants.append(clone_with(A, delta=SparseTensor3(A.delta.dims, n, data)))
    for key in sorted(A.counit)[:: len(A.counit) // 2]:
        mutants.append(clone_with(A, counit=_tamper(A.counit, "scale", key, A.dim)))
    for bad in mutants:
        expected = [axiom1_dense(bad), axiom2_dense(bad), _on_dual(axiom2_dense(dual(bad)))]
        assert any(expected)
        checks = {c.name: c for c in verify_weak_bialgebra(bad).checks}
        assert [checks[name].detail for name in _AXIOM_CHECKS] == expected


# -- Axiom 2 (and Axiom 3 on A*) through a basis of the row space of eps(x w)

def _eps_rank(X):
    """The rank of E(x, w) = eps(x w), whose row space Axiom 2's sweep reduces x to."""
    return SparseMatrix(X.dim, X.dim, X.conductor,
                        {(x, w): c for w, col in eps_by_right_factor(X).items() for x, c in col.items()}).rank()


def _axiom2_details(bad):
    """Axioms 2 and 3 of an algebra as its suite reports them and as the dense references give them."""
    checks = {c.name: c.detail for c in verify_weak_bialgebra(bad).checks}
    return ([checks["axiom2-counit-weak-multiplicative"], checks["axiom3-unit-weak-comultiplicative"]],
            [axiom2_dense(bad), _on_dual(axiom2_dense(dual(bad)))])


def test_eps_rank_is_the_dimension_of_the_base_algebra_on_passing_algebras():
    # so the reduced Axiom 2 sweep compares |G| rows per y, not dim A
    for A in (build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1)), a_z2(p=1)[0], _a_z3()):
        for X in (A, dual(A)):
            base = base_algebras(X)
            assert base.report.ok
            assert _eps_rank(X) == base.dim_l, X.name


def test_axiom2_sweep_matches_dense_where_the_eps_rank_exceeds_the_base_algebra():
    # mu and counit mutants change E itself; on A* they are Delta and unit
    # mutants of A, which fail Axiom 3
    A = build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    dim_l = base_algebras(A).dim_l
    higher = {0: 0, 1: 0}  # failures where rank E > dim A^l, by side
    for side, X in enumerate((A, dual(A))):
        for table in ("mu", "counit"):
            entries = X.mu.data if table == "mu" else X.counit
            for key in sorted(entries)[:: max(1, len(entries) // 3)]:
                for kind in ("scale", "drop", "move"):
                    data = _tamper(entries, kind, key, X.dim)
                    if table == "mu":
                        data = SparseTensor3(X.mu.dims, X.conductor, data)
                    bad_X = clone_with(X, **{table: data})
                    got, expected = _axiom2_details(bad_X if X is A else dual(bad_X))
                    assert got == expected, (side, table, kind, key)
                    higher[side] += expected[side] is not None and _eps_rank(bad_X) > dim_l
    assert all(higher.values()), higher


def _second_equality_mutant(X, y):
    """X with Delta(y) + u (x) v - u (x) v', where rows v and v' of E are
    equal and their columns are not: eps(x u) eps(v z) - eps(x u) eps(v' z)
    is 0, so the first equality of Axiom 2 is unchanged, while
    eps(x v) eps(u z) - eps(x v') eps(u z) is not."""
    rows, cols = X.eps_right_ids, eps_by_right_factor(X)  # rows in ids, equal when their values are
    v, v2 = next((v, v2) for v in range(X.dim) for v2 in range(v + 1, X.dim)
                 if rows[v] == rows[v2] and cols[v] != cols[v2])
    u = next(u for u in range(X.dim) if rows[u])
    one = X.one_scalar()
    data = dict(X.delta.data)
    for key, c in (((y, u, v), one), ((y, u, v2), -one)):
        s = data[key] + c if key in data else c
        if s:
            data[key] = s
        else:
            del data[key]
    return clone_with(X, delta=SparseTensor3(X.delta.dims, X.conductor, data))


@pytest.mark.parametrize("make", ["b_z3", "a_z2"])
def test_axiom2_sweep_names_the_least_pair_where_only_the_second_equality_fails(make):
    # the reduced sweep finds the failing y and equality; the full forms for
    # that y name the least (x, z), not the reduced forms' least key (i, z)
    A = build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1)) if make == "b_z3" else a_z2(p=1)[0]
    for side, X in enumerate((A, dual(A))):
        y = X.dim // 2
        bad_X = _second_equality_mutant(X, y)
        assert _eps_rank(bad_X) == base_algebras(X).dim_l
        got, expected = _axiom2_details(bad_X if X is A else dual(bad_X))
        assert got == expected, side
        detail = expected[side]
        assert "eps(x y_(2)) eps(y_(1) z) != eps(xyz)" in detail
        label = bad_X.label_str
        x, y2, z = next(t for t in itertools.product(range(X.dim), repeat=3)
                        if detail.endswith(f"at ({', '.join(map(label, t))})"))
        assert y2 == y
        assert _axiom2_failing_pairs(bad_X, y, False) == []
        pairs = _axiom2_failing_pairs(bad_X, y, True)
        assert pairs[0] == (x, z) and len(pairs) > 1


def test_antipode_and_qt_suites_report_the_same_alone_or_after_the_weak_bialgebra_suite():
    # run alone, they sweep the associativity and Axiom 1 results they read
    A, R = a_z2(p=1)
    cases = [("A", A)] + [c for c in _antipode_mutants(A, 2) if not c[0].startswith("harmless")][::3]
    broken = {"associativity": 0, "axiom1": 0}
    for what, X in cases:
        alone, after = clone_with(X), clone_with(X)
        weak = verify_weak_bialgebra(after)
        reports = [[verify_antipode(Y).to_json(), verify_quasitriangular(Y, R).to_json()]
                   for Y in (alone, after)]
        assert reports[0] == reports[1], what
        assert (alone.associativity_detail, alone.axiom1_detail) == (after.associativity_detail,
                                                                     after.axiom1_detail), what
        checks = {c.name: c.detail for c in weak.checks}
        assert after.associativity_detail == checks["mu-associativity"], what
        assert after.axiom1_detail == checks["axiom1-delta-multiplicative"], what
        broken["associativity"] += after.associativity_detail is not None
        broken["axiom1"] += after.associativity_detail is None and after.axiom1_detail is not None
    assert all(broken.values()), broken


def test_suites_leave_only_the_shared_indexes_on_the_algebra():
    # the dual A* and Axiom 2's row-space basis are locals of one sweep or
    # suite: the algebra keeps its store (its one scalar table with the memo
    # every kernel call shares, mu, Delta and S in ids, the unit and counit),
    # one index per structure map, in ids only, Delta(1), the generators of
    # mu and the results of the two laws that the later suites take as
    # preconditions, nothing per call.  No suite forms a value tensor.
    # eps(x s) by s is read only while eps_s is built, so it is not kept, and
    # the base algebras' echelon bases, p's leg indexes and the centre's
    # commutator rows are locals of one call
    structure = {"labels", "dim", "conductor", "name", "label_index", "meta", "ids",
                 "mu_ids", "unit", "delta_ids", "counit", "antipode_ids"}
    indexes = {"mu_ids_by_result", "mu_ids_by_right", "delta_left_ids", "eps_right_ids",
               "eps_t_ids", "eps_s_ids", "eps_s_prime_ids", "delta_of_unit", "mu_generators"}
    law_results = {"associativity_detail", "axiom1_detail"}
    for A, R in (a_z2(p=1), (build_b_g_omega(cyclic_group(4), standard_cocycle(4, 1)), None)):
        assert verify_weak_bialgebra(A).ok
        assert verify_antipode(A).ok
        assert base_algebras(A).report.ok
        assert center_dim(A) > 0
        if R is not None:
            assert verify_quasitriangular(A, R).ok
        assert set(A.__dict__) == structure | indexes | law_results, A.name
        assert (A.associativity_detail, A.axiom1_detail) == (None, None), A.name
        assert A.ids.vals == list(A.ids.ids), A.name


def test_kernel_calls_on_an_algebra_share_its_scalar_table(monkeypatch):
    # a second antipode suite meets only ids and products the first one
    # memoized on the algebra's table, and starts no table: A* takes A's
    A = build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    misses, tables = [], []
    mul = A.ids.mul
    A.ids.mul = lambda a, b: misses.append((a, b)) or mul(a, b)
    assert verify_antipode(A).ok
    assert misses
    size = len(A.ids.vals)
    misses.clear()
    init = _ScalarIds.__init__
    monkeypatch.setattr(_ScalarIds, "__init__", lambda ids, *args: tables.append(ids) or init(ids, *args))
    assert verify_antipode(A).ok
    assert (len(A.ids.vals), len(A.ids.ids), misses, len(tables)) == (size, size, [], 0)


def test_an_algebra_file_is_the_same_bytes_after_the_suites_grow_its_table():
    # the table gains the sums and products the kernels meet (in a shifted
    # basis, where products have several terms); the file encodes only the
    # structure tensors' entries
    A = _shifted_basis(a_z2(p=1)[0], range(0, 16, 2))
    R = RMatrixCandidate(_a_z2_half_shifted_with_r()[1])
    text = jsonio.dumps(jsonio.algebra_to_json(A))
    size = len(A.ids.vals)
    assert verify_weak_bialgebra(A).ok
    assert verify_antipode(A).ok
    assert base_algebras(A).report.ok
    assert verify_quasitriangular(A, R).ok
    assert len(A.ids.vals) > size
    assert jsonio.dumps(jsonio.algebra_to_json(A)) == text


def test_an_algebra_loaded_from_json_numbers_its_scalars_as_the_built_one(tmp_path):
    # the loader numbers each distinct encoding of its file once, and the
    # store numbers the distinct values in a canonical order, so the loaded
    # algebra gets the built one's table and rows whatever the order of its
    # entries; the unit and counit hold the table's own objects, and the
    # file, each table scalar encoded once, is the same bytes
    A, _ = build_a_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    text = jsonio.dumps(jsonio.algebra_to_json(A))
    path = tmp_path / "a3.json"
    path.write_text(text)
    obj = jsonio.read_json(str(path))
    d, n = A.dim, A.conductor
    loaded_mu = jsonio._table(obj, "mu", n, (d, d, d))
    assert len({id(c) for c in loaded_mu.values()}) == len(set(loaded_mu.values())) < len(loaded_mu)
    B = jsonio.algebra_from_json(obj)
    assert list(B.ids.ids.items()) == list(A.ids.ids.items())
    assert (B.mu_ids, B.delta_ids, B.antipode_ids) == (A.mu_ids, A.delta_ids, A.antipode_ids)
    assert list(B.mu_ids) != list(A.mu_ids)  # the file lists the entries sorted
    for X in (A, B):
        table = {id(c) for c in X.ids.vals}
        assert {id(c) for c in (*X.unit.values(), *X.counit.values())} <= table
    assert jsonio.dumps(jsonio.algebra_to_json(B)) == text
    assert verify_weak_bialgebra(B).to_json() == verify_weak_bialgebra(A).to_json()
    assert verify_antipode(B).to_json() == verify_antipode(A).to_json()


def _catalog_up_to_order_3():
    """Every catalog B(G, omega) and A(G, omega) with |G| <= 3, each cocycle p."""
    for n in (2, 3):
        g = cyclic_group(n)
        for p in range(n):
            w = standard_cocycle(n, p) if p else trivial_cocycle(g)
            yield build_b_g_omega(g, w)
            yield build_a_g_omega(g, w)[0]


def test_the_loaded_and_the_built_algebra_hold_the_same_store(tmp_path):
    # the builder writes its rows in provisional ids and the loader writes
    # the file's; both are numbered canonically by the one setup
    path = str(tmp_path / "x.json")
    for X in _catalog_up_to_order_3():
        jsonio.write_algebra(path, X)
        Y = jsonio.algebra_from_json(jsonio.read_json(path))
        assert Y.ids.vals == X.ids.vals, X.name
        assert (Y.mu_ids, Y.delta_ids, Y.antipode_ids) == (X.mu_ids, X.delta_ids, X.antipode_ids), X.name
        assert (Y.unit, Y.counit) == (X.unit, X.counit), X.name


def _store_order(entries):
    """The nonzero entries grouped by i, then by j, each in first-met order:
    the order in which an algebra keeps the mu entries it is given."""
    rows = {}
    for (i, j, k), c in entries:
        if c:
            rows.setdefault(i, {}).setdefault(j, []).append(((i, j, k), c))
    return [e for row in rows.values() for terms in row.values() for e in terms]


def test_mu_entries_are_the_given_entries_in_store_order(tmp_path, monkeypatch):
    # against the entries each algebra was built from: the builder's, the
    # loader's (the file lists them sorted), and a value tensor's, shuffled
    # and holding a stored zero
    given = []
    build = WeakHopfAlgebra.from_entries.__func__

    def spy(cls, labels, conductor, mu, *tables, **kw):
        given.append(list(mu))
        return build(cls, labels, conductor, given[-1], *tables, **kw)

    monkeypatch.setattr(WeakHopfAlgebra, "from_entries", classmethod(spy))
    algebras = list(_catalog_up_to_order_3())
    A = algebras[-1]
    path = str(tmp_path / "a3.json")
    jsonio.write_algebra(path, A)
    algebras.append(jsonio.algebra_from_json(jsonio.read_json(path)))
    items = list(A.mu.data.items())
    random.Random(37).shuffle(items)
    absent = next(key for key in itertools.product(range(A.dim), repeat=3) if key not in A.mu.data)
    items.insert(len(items) // 2, (absent, Cyclotomic.zero(A.conductor)))
    given.append(items)
    algebras.append(PlainAlgebra(A.labels, A.conductor, SparseTensor3(A.mu.dims, A.conductor, dict(items)), A.unit))
    assert len(given) == len(algebras)
    for X, entries in zip(algebras, given):
        assert list(X.mu_entries()) == _store_order(entries), X.name
    assert [e for e, _c in algebras[-2].mu_entries()] != [e for e, _c in A.mu_entries()]


def test_the_value_constructor_stores_what_the_builder_stores():
    # one way in: value tables, however ordered and with a stored zero, are
    # shaped, stripped of zeros, numbered and coded as the builder's entries
    A, _ = build_a_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    d, n = A.dim, A.conductor
    reverse = lambda table: dict(reversed(list(table.items())))
    mu = reverse(A.mu.data)
    absent = next(j for j in range(d) if j not in A.mu_ids[0])  # e_0 e_j = 0
    mu[(0, absent, 0)] = Cyclotomic.zero(n)
    B = WeakHopfAlgebra(A.labels, n, SparseTensor3((d, d, d), n, mu), reverse(A.unit),
                        SparseTensor3((d, d, d), n, reverse(A.delta.data)), reverse(A.counit),
                        SparseMatrix(d, d, n, reverse(A.antipode.data)))
    assert B.ids.vals == A.ids.vals
    assert B.mu_ids == A.mu_ids and absent not in B.mu_ids[0]
    terms = lambda X: {i: sorted(t) for i, t in X.delta_ids.items()}
    assert terms(B) == terms(A) and B.antipode_ids == A.antipode_ids
    assert (B.unit, B.counit) == (A.unit, A.counit)
    table = {id(c) for c in B.ids.vals}
    assert {id(c) for c in (*B.unit.values(), *B.counit.values())} <= table


def test_a_file_with_two_bad_tables_names_its_first_bad_entry(tmp_path, capsys):
    # the loader's entries are read in the file's table order, mu first
    from whalg import cli

    obj = jsonio.algebra_to_json(b_z2())
    obj["mu"][3][0] = 99
    obj["unit"][0][0] = -1
    path = tmp_path / "bad.json"
    jsonio.write_json(str(path), obj)
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: mu[99, ")


def test_the_cli_path_forms_no_value_tensor(tmp_path):
    # mu, Delta and S are held in ids only: the four suites of
    # `whalg verify --suite all` and the file writer read the ids
    A, R = build_a_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    path = tmp_path / "a3.json"
    jsonio.write_algebra(str(path), A)
    tensors = {"mu", "delta", "antipode"}
    assert not tensors & A.__dict__.keys()
    B = jsonio.algebra_from_json(jsonio.read_json(str(path)))
    assert not tensors & B.__dict__.keys()
    assert verify_weak_bialgebra(B).ok and verify_antipode(B).ok
    assert base_algebras(B).report.ok and verify_quasitriangular(B, R).ok
    assert not tensors & B.__dict__.keys()
    # read, the value tensors are formed from the ids, one object per value
    assert compare_structure(B, A, list(range(A.dim))).ok
    held = [*B.mu.data.values(), *B.delta.data.values(), *B.antipode.data.values()]
    assert tensors <= B.__dict__.keys()
    assert {id(c) for c in held} == {id(c) for c in B.ids.vals[1:len(A.ids.vals)]}


def _odd_labels_and_meta():
    """B(Z2, p=1) with non-ASCII, float and nested tuple labels, a non-ASCII
    name and a nested meta."""
    B = build_b_g_omega(cyclic_group(2), standard_cocycle(2, 1))
    labels = ["\u00fcber", 0.5, -1.25e-7, ("t", 1), ("\u03b2", (2, 3.0)), "plain", 7, None]
    meta = {"builder": "b-g-omega", "nested": {"z": [1, {"\u00e9": 2.5}], "a": None}}
    return WeakHopfAlgebra(labels, B.conductor, B.mu, B.unit, B.delta, B.counit, B.antipode,
                           name="\u00c4(Z2)", meta=meta)


def _dim_zero():
    cube = (0, 0, 0)
    return WeakHopfAlgebra([], 1, SparseTensor3(cube, 1), {}, SparseTensor3(cube, 1), {}, SparseMatrix(0, 0, 1))


@pytest.mark.parametrize("make", [
    lambda: a_z2(p=1)[0],
    _odd_labels_and_meta,
    lambda: _shifted_basis(build_frobenius_double(standard_frobenius("matrix", 2))),
    lambda: _shifted_basis(build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))),
    _dim_zero,
], ids=["object-labels", "odd-labels-and-meta", "shifted-rational", "shifted-z3", "dim-0"])
def test_write_algebra_writes_the_bytes_of_the_general_encoder(tmp_path, make):
    # tuple labels encode as objects; the shifted M_2 double carries +-1/2,
    # the shifted B(Z3) many distinct irrational scalars
    A = make()
    path = tmp_path / "a.json"
    jsonio.write_algebra(str(path), A)
    assert path.read_bytes() == jsonio.dumps(jsonio.algebra_to_json(A)).encode()


@pytest.mark.parametrize("chunk", [1, 3, 64, 65])
def test_write_algebra_writes_the_same_bytes_in_any_chunk_size(tmp_path, monkeypatch, chunk):
    # A(Z2, p=1) has 64 mu entries: chunks of one, of a remainder, exact and larger
    A = a_z2(p=1)[0]
    monkeypatch.setattr(jsonio, "_CHUNK", chunk)
    path = tmp_path / "a.json"
    jsonio.write_algebra(str(path), A)
    assert path.read_bytes() == jsonio.dumps(jsonio.algebra_to_json(A)).encode()


def _axiom4_eq2_dense(A):
    """Reference for "axiom4-eq2": S(x_(1)) x_(2) = 1_(1) eps(x 1_(2)) on every basis x."""
    mul = element_product(A)
    one = A.one_scalar()
    for x in range(A.dim):
        lhs = _collect(
            (k, v)
            for (j, k0), c in _coproduct_dense(A, x).items()
            for k, v in mul(A.apply_antipode({j: c}), {k0: one}).items()
        )
        rhs = _collect(
            (p, A.apply_counit(mul(A.basis_elem(x), {q: c})))
            for (p, q), c in A.delta_of_unit.items()
        )
        if lhs != rhs:
            return f"S(x_(1)) x_(2) != 1_(1) eps(x 1_(2)) at {A.label_str(x)}"
    return None


@pytest.mark.parametrize("n", [2, 3])
def test_axiom4_eq2_matches_dense_reference_on_tampered_entries(n):
    A, _ = build_a_g_omega(cyclic_group(n), standard_cocycle(n, 1))
    assert _axiom4_eq2_dense(A) is None
    z = Cyclotomic.from_pairs(A.conductor, [(1, 1)])
    rnd = random.Random(n)
    variants = []
    for key in rnd.sample(sorted(A.counit), 2):
        counit = dict(A.counit)
        counit[key] = counit[key] * z
        variants.append(clone_with(A, counit=counit))
    for key in rnd.sample(sorted(A.mu.data), 3):
        mu = SparseTensor3(A.mu.dims, A.conductor, dict(A.mu.data))
        mu.data[key] = mu.data[key] * z
        variants.append(clone_with(A, mu=mu))
    for key in rnd.sample(sorted(A.antipode.data), 3):
        S = A.antipode.copy()
        S.set(*key, S.get(*key) * z)
        variants.append(clone_with(A, antipode=S))
    # a scaled term of Delta(1): the right side's 1_(1) (x) 1_(2) coefficients
    for key in rnd.sample(sorted(k for k in A.delta.data if k[0] in A.unit), 2):
        delta = SparseTensor3(A.delta.dims, A.conductor, dict(A.delta.data))
        delta.data[key] = delta.data[key] * z
        variants.append(clone_with(A, delta=delta))
    failures = 0
    for B in variants:
        expected = _axiom4_eq2_dense(B)
        failures += expected is not None
        check = next(c for c in verify_antipode(B).checks if c.name == "axiom4-eq2")
        assert check.detail == expected
    assert failures >= len(variants) // 2


def _eps_lr_reference(A, u):
    # epsilon^lr(u) = eps(1_(1) u) 1_(2), one product and counit per Delta(1) term
    mul = element_product(A)
    out = {}
    for (p, q), c in A.delta_of_unit.items():
        val = A.apply_counit(mul({p: c}, u))
        if val:
            out[q] = out[q] + val if q in out else val
    return {k: v for k, v in out.items() if v}


def _eps_rr_reference(A, u):
    # epsilon^rr(u) = 1_(1) eps(1_(2) u)
    mul = element_product(A)
    out = {}
    for (p, q), c in A.delta_of_unit.items():
        val = A.apply_counit(mul({q: c}, u))
        if val:
            out[p] = out[p] + val if p in out else val
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("n", [2, 3])
def test_eps_lr_rr_match_reference_on_tampered_algebras(n):
    A, _R = build_a_g_omega(cyclic_group(n), standard_cocycle(n, 1))
    two = Cyclotomic.rational(A.conductor, 2)
    z = Cyclotomic.from_pairs(A.conductor, [(1, 1)])
    variants = [A]
    for key in sorted(A.mu.data)[:: max(1, len(A.mu.data) // 6)]:
        mu = SparseTensor3(A.mu.dims, A.conductor, dict(A.mu.data))
        mu.data[key] = mu.data[key] * two
        variants.append(clone_with(A, mu=mu))
    for key in sorted(A.counit):
        counit = dict(A.counit)
        counit[key] = counit[key] * z
        variants.append(clone_with(A, counit=counit))
    rnd = random.Random(n)
    for B in variants:
        elems = [B.basis_elem(x) for x in range(B.dim)]
        elems += [{x: Cyclotomic.rational(B.conductor, rnd.randint(-2, 2)) * z
                   for x in rnd.sample(range(B.dim), 4)} for _ in range(5)]
        for u in elems:
            u = {k: v for k, v in u.items() if v}
            assert B.eps_lr(u) == _eps_lr_reference(B, u)
            assert B.eps_rr(u) == _eps_rr_reference(B, u)


# -- Axiom 4, the homomorphism kernel and the intertwining law on scalar ids,
# against the loops they replaced

_ANTIPODE_SWEPT = ("axiom4-eq1", "axiom4-eq2", "axiom4-eq3", "antipode-algebra-antihom")


def _antipode_loops(A):
    """The details of the `_ANTIPODE_SWEPT` checks of A, from the loop references."""
    bad = hom_range_loop(antipode_columns(A), A, A, 0, A.dim, anti=True)
    antihom = bad and f"S(xy) != S(y)S(x) at ({A.label_str(bad[0])}, {A.label_str(bad[1])})"
    return [axiom4_eq1_loop(A), axiom4_eq2_loop(A), axiom4_eq3_loop(A), antihom]


def _antipode_details(A):
    checks = {c.name: c.detail for c in verify_antipode(A).checks}
    return [checks[name] for name in _ANTIPODE_SWEPT]


def _antipode_mutants(A, per_table):
    """Stored zeros in mu and S, then single-entry mutants of S, Delta and mu.

    A stored zero over an entry removes it; one at an absent key changes
    nothing.  The S, Delta and mu entries are scaled, dropped or moved at
    `per_table` spread positions each.
    """
    n = A.conductor
    zero = Cyclotomic.zero(n)
    tables = {"antipode": A.antipode.data, "delta": A.delta.data, "mu": A.mu.data}
    wrap = {"antipode": lambda data: SparseMatrix(A.dim, A.dim, n, data),
            "delta": lambda data: SparseTensor3(A.delta.dims, n, data),
            "mu": lambda data: SparseTensor3(A.mu.dims, n, data)}

    def mutant(table, data):
        return clone_with(A, **{table: wrap[table](data)})

    for table in ("mu", "antipode"):
        entries = tables[table]
        arity = len(next(iter(entries)))
        absent = next(k for k in itertools.product(range(A.dim), repeat=arity) if k not in entries)
        yield f"harmless {table} zero", mutant(table, _with_stored_zero(entries, absent, zero))
        for key in sorted(entries)[:: max(1, len(entries) // 2)]:
            yield f"{table} zero {key}", mutant(table, _with_stored_zero(entries, key, zero))
    for table, entries in tables.items():
        for key in sorted(entries)[:: max(1, len(entries) // per_table)]:
            for kind in ("scale", "drop", "move"):
                yield f"{table} {kind} {key}", mutant(table, _tamper(entries, kind, key, A.dim))


def _hom_failing_js(phi, A, B, i, anti):
    """Every j with phi(e_i e_j) != phi(e_i) phi(e_j) (phi(e_j) phi(e_i) with `anti`)."""
    a_mul, b_mul = element_product(A), element_product(B)
    out = []
    for j in range(A.dim):
        lhs = push(phi, a_mul(A.basis_elem(i), A.basis_elem(j)))
        if lhs != (b_mul(phi[j], phi[i]) if anti else b_mul(phi[i], phi[j])):
            out.append(j)
    return out


@pytest.mark.parametrize("make", ["b_z3", "a_z2"])
def test_antipode_sweeps_match_loops_on_stored_zeros_and_single_entry_mutants(make):
    # on A and on A*, whose anti-homomorphism check is A's coalgebra one
    if make == "b_z3":
        A = build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    else:
        A = a_z2(p=1)[0]
    rejected = dict.fromkeys(_ANTIPODE_SWEPT, 0)
    several_js = 0
    for what, bad in _antipode_mutants(A, 4):
        for X in (bad, dual(bad)):
            expected = _antipode_loops(X)
            assert _antipode_details(X) == expected, (what, X.name)
            for name, detail in zip(_ANTIPODE_SWEPT, expected):
                rejected[name] += detail is not None
            if what.startswith("harmless"):
                assert expected == [None] * 4, what
            # where the first failing x has several failing y, the least is named
            bad_pair = _hom_ids(X.ids, X.mu_ids, X.antipode_ids, X.mu_ids_by_right, range(X.dim))
            if bad_pair is not None:
                i, j = bad_pair
                js = _hom_failing_js(antipode_columns(X), X, X, i, True)
                assert js[0] == j, (what, X.name)
                several_js += len(js) > 1
    assert all(rejected.values()), rejected
    assert several_js


def test_antipode_sweeps_match_loops_on_b_z4():
    # dim 64: antipode and Delta mutants
    A = build_b_g_omega(cyclic_group(4), standard_cocycle(4, 1))
    n = A.conductor
    mutants = []
    for key in sorted(A.antipode.data)[:: len(A.antipode.data) // 4]:
        data = _tamper(A.antipode.data, "scale", key, A.dim)
        mutants.append(clone_with(A, antipode=SparseMatrix(A.dim, A.dim, n, data)))
    for key in sorted(A.delta.data)[:: len(A.delta.data) // 2]:
        data = _tamper(A.delta.data, "scale", key, A.dim)
        mutants.append(clone_with(A, delta=SparseTensor3(A.delta.dims, n, data)))
    for bad in mutants:
        expected = _antipode_loops(bad)
        assert any(expected)
        assert _antipode_details(bad) == expected


def _phi_mutants(phi, d, n):
    """phi (d images in a space of dim n), then copies of it with one image
    entry scaled, dropped, moved to the next index or stored as zero, at
    spread positions; the copies for every other position are lists."""
    entries = sorted((i, k) for i in range(d) for k in phi[i])
    yield phi
    for pos, (i, k) in enumerate(entries[:: max(1, len(entries) // 4)]):
        c = phi[i][k]
        for kind in ("scale", "drop", "move", "zero"):
            out = {x: dict(phi[x]) for x in range(d)}
            image = out[i]
            del image[k]
            if kind == "scale":
                image[k] = c + c
            elif kind == "move":
                k2 = (k + 1) % n
                image[k2] = image[k2] + c if k2 in image else c
            elif kind == "zero":
                image[k] = c - c
            yield [out[x] for x in range(d)] if pos % 2 else out


def _hom_kernel_cases(source):
    """(phi, A, B, anti) as the caller named by `source` hands them to `_hom_range`."""
    g = cyclic_group(3)
    if source in ("pairing-rows", "pairing-cols"):
        P = build_pairing(pointed_skeleton(g, standard_cocycle(3, 1)))
        if source == "pairing-rows":
            return P.rows, P.B, dual(P.A), False
        return P.cols, P.A, dual(P.B), True
    if source == "chi":
        g = cyclic_group(2)
        w = standard_cocycle(2, 1)
        A = build_a_g_omega(g, w)[0]
        chi_map, Tp2, _rep = chi_iso(pointed_skeleton(g, w), A)
        return {i: {j: s} for i, (j, s) in chi_map.items()}, A, Tp2, False
    C = pointed_skeleton(g, trivial_cocycle(g, conductor=3))
    fam = TubeFamily(C)
    wc = fam.wc
    T = fam.algebra(1)
    Tp = build_tube_prime(C, 1)
    phi = {i: {T.label_index[lab]: _transport_scalar(wc, lab[0], lab[1][0])}
           for i, lab in enumerate(Tp.labels)}
    return phi, Tp, T, False


@pytest.mark.parametrize("source", ["pairing-rows", "pairing-cols", "chi", "transport"])
def test_hom_kernel_matches_loop_on_the_callers_maps(source):
    # the pairing's rows and columns, chi and the Tube transport, each passing
    # and with one image entry tampered; phi may be a dict or a list
    phi0, A, B, anti = _hom_kernel_cases(source)
    failures = 0
    for phi in _phi_mutants(phi0, A.dim, B.dim):
        expected = hom_range_loop(phi, A, B, 0, A.dim, anti)
        assert _hom_range(phi, A, B, range(A.dim), anti) == expected
        split = next((bad for lo in range(0, A.dim, 5)
                      if (bad := _hom_range(phi, A, B, range(lo, min(A.dim, lo + 5)), anti))), None)
        assert split == expected
        if expected is not None:
            i, j = expected
            assert _hom_failing_js(phi, A, B, i, anti)[0] == j
        failures += expected is not None
    assert hom_range_loop(phi0, A, B, 0, A.dim, anti) is None
    assert failures


@pytest.mark.parametrize("n", [2, 3, "2-half-shifted"])
def test_intertwining_sweep_matches_loop_on_single_entry_mutants(n):
    # the half-shifted A(Z2, p=1) carries its R into a basis where the legs'
    # products have several terms each
    if n == "2-half-shifted":
        A, R = _a_z2_half_shifted_with_r()
    else:
        A, R = build_a_g_omega(cyclic_group(n), standard_cocycle(n, 1))
        R = R.terms
    zero = Cyclotomic.zero(A.conductor)
    absent = next(k for k in itertools.product(range(A.dim), repeat=2) if k not in R)
    cases = [("R", A, R), ("R zero", A, _with_stored_zero(R, absent, zero)),
             ("R zero over an entry", A, _with_stored_zero(R, min(R), zero))]
    for key in sorted(R)[:: len(R) // 3]:
        cases += [(f"R {kind} {key}", A, _tamper(R, kind, key, A.dim))
                  for kind in ("scale", "drop", "move")]
    for what, bad in _antipode_mutants(A, 2):
        if not what.startswith("antipode"):
            cases.append((what, bad, R))
    rejected = 0
    swept = {True: 0, False: 0}  # failures found on the generators, on the whole basis
    for what, X, terms in cases:
        expected = intertwining_loop(X, terms)
        assert _intertwining_failure(X, range(X.dim), terms) == expected, what
        # the suite sweeps the generators only where mu is associative and
        # Axiom 1 holds, and reports the sweep's x in the loop's words
        check = next(c for c in verify_quasitriangular(X, RMatrixCandidate(terms)).checks
                     if c.name == "r-intertwines-coproducts")
        assert check.detail == expected, what
        rejected += expected is not None
        if expected is not None:
            swept[X.associativity_detail is None and X.axiom1_detail is None] += 1
        if what in ("R", "R zero") or what.startswith("harmless"):
            assert expected is None, what
    assert rejected
    assert all(swept.values()), swept
    # a Delta mutant that breaks Axiom 1 and not associativity: the full sweep
    full = [what for what, X, terms in cases if what.startswith("delta")
            and X.associativity_detail is None and X.axiom1_detail is not None
            and intertwining_loop(X, terms) is not None]
    assert full


def test_suites_builds_and_json_round_trips_leave_no_reference_cycles(tmp_path):
    """The CLI runs each command with the cyclic garbage collector off (see
    `whalg.cli.main`), so a reference cycle added to whalg's structures would
    never be freed before the process exits.  Builds, every suite, the centre
    and JSON round trips through files (`read_json` shares scalar encodings
    through a per-call hook) must leave nothing for the collector to find."""
    path = str(tmp_path / "x.json")

    def round_trip(obj):
        jsonio.write_json(path, obj)
        return jsonio.read_json(path)

    gc.collect()
    gc.disable()
    try:
        A, R = build_a_g_omega(cyclic_group(2), standard_cocycle(2, 1))
        B = build_b_g_omega(cyclic_group(3), standard_cocycle(3, 1))
        for X in (A, B):
            assert verify_weak_bialgebra(X).ok
            assert verify_antipode(X).ok
            assert base_algebras(X).report.ok
            assert center_dim(X) > 0
            back = jsonio.algebra_from_json(round_trip(jsonio.algebra_to_json(X)))
            assert compare_structure(back, X, list(range(X.dim))).ok
        assert verify_quasitriangular(A, R).ok
        R2 = jsonio.rmatrix_from_json(round_trip(jsonio.rmatrix_to_json(A, R)))
        assert R2.terms == R.terms
        # A* is a reading of A; the dual of A* forms Delta*
        D = dual(A)
        assert compare_structure(dual(D), A, list(range(A.dim))).ok
        assert build_pairing(pointed_skeleton(cyclic_group(2), standard_cocycle(2, 1))).report.ok
        # a cycle among live objects is reachable: drop them all first
        del A, B, R, X, back, R2, D
        assert gc.collect() == 0
    finally:
        gc.enable()
