import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from whalg.exactmath import Cyclotomic, SparseMatrix, SparseTensor3
from whalg.builders import (
    build_a_g_omega,
    build_b_g_omega,
    build_frobenius_double,
    standard_frobenius,
)
from whalg.groups import cyclic_group, standard_cocycle, trivial_cocycle
from whalg.wha import (
    PlainAlgebra,
    RMatrixCandidate,
    WeakHopfAlgebra,
    _antihom_range,
    _assoc_dense,
    _assoc_range,
    _solve_weak_inverse,
    base_algebras,
    center_dim,
    compare_structure,
    coopposite,
    is_cocommutative,
    opposite,
    verify_antipode,
    verify_quasitriangular,
    verify_weak_bialgebra,
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


def test_tampered_mu_caught_with_counterexample():
    B = b_z2(p=1)
    mu = SparseTensor3(B.mu.dims, B.conductor, dict(B.mu.data))
    key = next(iter(mu.data))
    mu.data[key] = -mu.data[key]
    rep = verify_weak_bialgebra(clone_with(B, mu=mu))
    assert not rep.ok
    assert rep.first_failure.detail  # concrete counterexample carried


def test_meta_sparse_equals_dense_sweeps():
    # the streamed sparse sweeps and the literal dense loops must agree,
    # on good algebras and on tampered ones (dims <= 81)
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
        fast = verify_weak_bialgebra(A)
        slow = verify_weak_bialgebra(A, dense=True)
        assert fast.ok == slow.ok
        for cf, cs in zip(fast.checks, slow.checks):
            assert cf.name == cs.name
            assert cf.ok == cs.ok


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


def test_center_dims():
    B = b_z2()
    assert center_dim(B) == 2
    A, _ = a_z2()
    assert center_dim(A) == 4


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
    cand = RMatrixCandidate(A.delta_of_unit())
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


def test_weak_inverse_solver_fallback():
    # drop the closed-form candidates by handing the solver a fresh algebra
    # whose antipode is withheld from the candidate search
    A, R = a_z2(p=1)
    from whalg.wha import _solve_weak_inverse, _cop

    d1 = A.delta_of_unit()
    rb = _solve_weak_inverse(A, R.terms, d1, _cop(d1))
    assert rb is not None
    assert A.mul2(R.terms, rb) == _cop(d1)
    assert A.mul2(rb, R.terms) == d1


def test_parallel_matches_serial():
    A, _ = build_a_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    assert verify_weak_bialgebra(A, threads=2).ok
    assert verify_antipode(A, threads=2).ok


def _antihom_dense(A):
    """Reference for "antipode-algebra-antihom": S(xy) = S(y)S(x) on every basis pair."""
    S = A.antipode
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = S.apply(A.mul(A.basis_elem(i), A.basis_elem(j)))
            rhs = A.mul(S.apply(A.basis_elem(j)), S.apply(A.basis_elem(i)))
            if lhs != rhs:
                return f"S(xy) != S(y)S(x) at ({A.label_str(i)}, {A.label_str(j)})"
    return None


@pytest.mark.parametrize("n", [2, 3])
def test_antihom_sweep_matches_dense_reference_on_tampered_antipodes(n):
    A, _ = build_a_g_omega(cyclic_group(n), standard_cocycle(n, 1))
    assert _antihom_range(A, 0, A.dim) is None
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
        for threads in (1, 2):
            check = next(c for c in verify_antipode(bad, threads=threads).checks
                         if c.name == "antipode-algebra-antihom")
            assert not check.ok
            assert check.detail == expected


# ---------------------------------------------------------------------------
# the product on tensor powers A^(x)k
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _a_z3_with_r():
    return build_a_g_omega(cyclic_group(3), standard_cocycle(3, 1))


def _a_z3():
    return _a_z3_with_r()[0]


@functools.lru_cache(maxsize=None)
def _a_z2_shifted():
    """A(Z2, p=1) in the basis f_i = e_i + e_(i+1): products have many terms."""
    A, _ = a_z2(p=1)
    d, n = A.dim, A.conductor
    one = A.one_scalar()
    f = [{i: one, i + 1: one} if i + 1 < d else {i: one} for i in range(d)]
    to_f = SparseMatrix.from_columns(d, f, n).inverse()
    mu = SparseTensor3((d, d, d), n)
    for i in range(d):
        for j in range(d):
            for k, c in to_f.apply(A.mul(f[i], f[j])).items():
                mu.add_to(i, j, k, c)
    return PlainAlgebra(range(d), n, mu, to_f.apply(A.unit))


_TENSOR_ALGEBRAS = [_a_z3, _a_z2_shifted]


def _naive_tensor_product(A, U, V):
    """Reference: every one of the |U|.|V| term pairs, legwise element products."""
    basis_products = {}

    def leg(a, b):
        if (a, b) not in basis_products:
            basis_products[(a, b)] = list(A.mul(A.basis_elem(a), A.basis_elem(b)).items())
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
    rc = A.right_companions
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
    j = A.right_companions[i][-1]
    dead = next(x for x in range(A.dim) if x not in A.right_companions[i])
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
    inverse candidates are those of the suite, from the same exact solver,
    with their laws checked by naive products.
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
    S = A.antipode
    candidates = [
        _collect(((k, j), v) for (i, j), c in R.items() for k, v in S.apply({i: c}).items()),
        _collect(((i, k), v) for (i, j), c in R.items()
                 for k, v in S.inverse().apply({j: c}).items()),
        _solve_weak_inverse(A, R, d1, d1cop),
    ]
    ok = any(
        rb is not None and naive(R, rb) == d1cop and naive(rb, R) == d1 and naive(rb, d1cop) == rb
        for rb in candidates
    )
    detail = "no weak inverse: the three defining linear equations are unsolvable"
    checks.append(("weak-inverse-exists", ok, None if ok else detail))
    ok = naive(naive(r12, r13), r23) == naive(naive(r23, r13), r12)
    checks.append(("yang-baxter", ok, None if ok else "R12 R13 R23 != R23 R13 R12"))
    return checks


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
    verdicts = []
    for terms in variants:
        expected = _quasitriangular_dense(A, terms)
        got = verify_quasitriangular(A, RMatrixCandidate(terms)).checks
        assert [(c.name, c.ok, c.detail) for c in got] == expected
        verdicts.append(all(ok for _name, ok, _detail in expected))
    assert verdicts == [True] + [False] * (len(variants) - 1)


def _first_failure_by_ranges(A, step):
    """`_assoc_range` over consecutive ranges, as the forked sweep splits it."""
    for lo in range(0, A.dim, step):
        detail = _assoc_range(A, lo, min(A.dim, lo + step))
        if detail is not None:
            return detail
    return None


def _cancelling_pair(A):
    """mu with two new entries whose product cancels a term of (e_0 e_y) e_z.

    With e_0 e_y = c0 e_p0 and e_p0 e_z = a e_w, the entries e_0 e_y -> p2
    (coefficient -c0 a) and e_p2 e_z -> w (coefficient 1) add -c0 a at the
    left side's key (y, z, w) for x = 0, the first x swept: the sum there is 0.
    """
    mp = A.mu_pairs
    y = A.right_companions[0][0]
    (p0, c0), = mp[(0, y)]
    z = A.right_companions[p0][0]
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
    i, j = next((i, j) for i in range(A.dim) for j in range(A.dim) if (i, j) not in A.mu_pairs)
    mu.data[(i, j, 0)] = zero  # a stored zero where the product is zero: no tamper
    harmless = clone_with(A, mu=mu)
    assert _assoc_range(harmless, 0, A.dim) is None and _assoc_dense(harmless) is None
    for mu in stored_zero + [_cancelling_pair(A)]:
        bad = clone_with(A, mu=mu)
        expected = _assoc_dense(bad)
        assert expected is not None
        assert _assoc_range(bad, 0, bad.dim) == expected
        assert _first_failure_by_ranges(bad, 5) == expected
        for threads in (1, 2):
            check = verify_weak_bialgebra(bad, threads=threads).checks[1]
            assert check.name == "mu-associativity"
            assert check.detail == expected


def test_assoc_kernel_matches_dense_where_long_products_cancel():
    # in the shifted basis products have many terms and sums cancel often
    A = _a_z2_shifted()
    assert _assoc_range(A, 0, A.dim) is None and _assoc_dense(A) is None
    two = Cyclotomic.rational(A.conductor, 2)
    for key in random.Random(2).sample(sorted(A.mu.data), 4):
        mu = SparseTensor3(A.mu.dims, A.conductor, dict(A.mu.data))
        mu.data[key] = mu.data[key] * two
        bad = PlainAlgebra(A.labels, A.conductor, mu, A.unit)
        expected = _assoc_dense(bad)
        assert expected is not None
        assert _assoc_range(bad, 0, bad.dim) == expected
        assert _first_failure_by_ranges(bad, 5) == expected


def _axiom4_eq2_dense(A):
    """Reference for "axiom4-eq2": S(x_(1)) x_(2) = 1_(1) eps(x 1_(2)) on every basis x."""
    one = A.one_scalar()
    for x in range(A.dim):
        lhs = _collect(
            (k, v)
            for (j, k0), c in _coproduct_dense(A, x).items()
            for k, v in A.mul(A.apply_antipode({j: c}), {k0: one}).items()
        )
        rhs = _collect(
            (p, A.apply_counit(A.mul(A.basis_elem(x), {q: c})))
            for (p, q), c in A.delta_of_unit().items()
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
    out = {}
    for (p, q), c in A.delta_of_unit().items():
        val = A.apply_counit(A.mul({p: c}, u))
        if val:
            out[q] = out[q] + val if q in out else val
    return {k: v for k, v in out.items() if v}


def _eps_rr_reference(A, u):
    # epsilon^rr(u) = 1_(1) eps(1_(2) u)
    out = {}
    for (p, q), c in A.delta_of_unit().items():
        val = A.apply_counit(A.mul({q: c}, u))
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
