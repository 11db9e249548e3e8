import itertools
import random

import pytest

from references import product_assoc_table, s3_sign_pullback, sorted_by_json_text
from whalg import builders, jsonio, skeleton
from whalg.builders import build_a_g_omega
from whalg.exactmath import Cyclotomic, root_of_unity
from whalg.groups import catalog_group, cyclic_group, standard_cocycle, trivial_cocycle, validate_cocycle
from whalg.skeleton import (
    FusionRing,
    SkeletalCategory,
    SkeletonError,
    boxtimes_rev_skeleton,
    dual_data_pointed,
    fib_fusion_ring,
    pointed_skeleton,
    product_skeleton,
    regular_module,
    reversed_skeleton,
    right_regular_module,
    validate_module_pentagon,
    validate_pentagon,
    verify_zigzags,
)
from whalg.tube import chi_iso


def _associativity_loop(ring):
    """Reference: the first (a, b, c, d) with sum_e N(ab;e) N(ec;d) != sum_f N(bc;f) N(af;d)."""
    L = ring.labels
    for a, b, c, d in itertools.product(L, repeat=4):
        lhs = sum(ring.N(a, b, e) * ring.N(e, c, d) for e in L)
        rhs = sum(ring.N(b, c, f) * ring.N(a, f, d) for f in L)
        if lhs != rhs:
            return f"associativity fails at ({a},{b},{c};{d})"
    return None


def test_fusion_ring_associativity_names_the_dense_loops_first_failure():
    # the non-associative loop of order 5: a Latin square with unit 0 in which
    # every label is its own dual, so only associativity can fail
    rows = ("01234", "10342", "24013", "32401", "43120")
    loop = FusionRing(range(5), 0, {(a, b, int(rows[a][b])): 1 for a in range(5) for b in range(5)})
    assert _associativity_loop(loop) == "associativity fails at (1,1,2;2)"
    assert loop.validate().first_failure == _associativity_loop(loop)
    # random self-dual rings on 4 labels, with fusion products of several
    # terms: each fails associativity, first at the loop's (a, b, c; d)
    rnd = random.Random(4)
    for _ in range(40):
        mult = {(0, a, a): 1 for a in range(4)} | {(a, 0, a): 1 for a in range(4)}
        mult |= {(a, a, 0): 1 for a in range(1, 4)}
        mult |= {(a, b, c): 1 for a, b, c in itertools.product(range(1, 4), repeat=3) if rnd.random() < 0.4}
        ring = FusionRing(range(4), 0, mult)
        assert _associativity_loop(ring) is not None
        assert ring.validate().first_failure == _associativity_loop(ring)
    w = standard_cocycle(4, 1)
    for ring in (fib_fusion_ring(), pointed_skeleton(w.group, w).ring):
        assert _associativity_loop(ring) is None
        assert ring.validate().ok


def test_fib_ring():
    fib = fib_fusion_ring()
    assert fib.N("nu", "nu", "nu") == 1
    assert fib.N("nu", "nu", "1") == 1
    assert fib.N("1", "nu", "nu") == 1
    assert fib.validate().ok
    assert fib.dual["nu"] == "nu"
    assert not fib.is_grouplike()


def test_pointed_skeleton_trivial():
    g = cyclic_group(2)
    C = pointed_skeleton(g, trivial_cocycle(g))
    assert len(C.labels) == 2
    assert all(v.is_one() for v in C.F.values())
    assert validate_pentagon(C).ok


def test_pointed_skeleton_z2_nontrivial():
    w = standard_cocycle(2, 1)
    C = pointed_skeleton(w.group, w)
    assert C.F[(1, 1, 1, 1)] == root_of_unity(2)  # = -1
    assert validate_pentagon(C).ok


def test_pentagon_iff_cocycle():
    # pentagon for pointed data is the cocycle identity: run both checkers
    for p in range(3):
        w = standard_cocycle(3, p)
        C = pointed_skeleton(w.group, w)
        assert validate_pentagon(C).ok == validate_cocycle(w.group, w).ok


def test_pentagon_detects_tamper():
    w = standard_cocycle(3, 1)
    C = pointed_skeleton(w.group, w)
    key = (1, 1, 1, 0)
    C.F[key] = -C.F[key]
    rep = validate_pentagon(C)
    assert not rep.ok
    assert "pentagon fails" in rep.first_failure


def test_regular_module_pentagon():
    for p in (0, 1):
        w = standard_cocycle(3, p)
        C = pointed_skeleton(w.group, w)
        M = regular_module(C)
        assert M.L == {k[:3]: v for k, v in C.F.items()}  # L = F on the nose
        assert validate_module_pentagon(M).ok


def test_module_pentagon_detects_tamper():
    w = standard_cocycle(2, 1)
    C = pointed_skeleton(w.group, w)
    M = regular_module(C)
    M.L[(1, 1, 1)] = M.L[(1, 1, 1)] * root_of_unity(2)
    rep = validate_module_pentagon(M)
    assert not rep.ok


def test_right_regular_module_passes():
    for p in range(3):
        w = standard_cocycle(3, p)
        C, M = right_regular_module(w.group, w)
        assert validate_pentagon(C).ok
        assert validate_module_pentagon(M).ok


def test_reversed_and_product_skeleton():
    w = standard_cocycle(4, 1)
    C = pointed_skeleton(w.group, w)
    R = reversed_skeleton(C)
    assert validate_pentagon(R).ok
    assert R.fuse(1, 2) == C.fuse(2, 1)
    P = product_skeleton(C, R)
    assert validate_pentagon(P).ok
    assert P.fuse((1, 1), (2, 3)) == (C.fuse(1, 2), R.fuse(1, 3))


def _trivial(name):
    G = catalog_group(name)
    return G, trivial_cocycle(G)


@pytest.mark.parametrize("case", [
    *(pytest.param(lambda n=n, p=p: (cyclic_group(n), standard_cocycle(n, p)), id=f"z{n}-p{p}")
      for n in (2, 3, 4) for p in (0, 1)),
    pytest.param(lambda: _trivial("z2xz2"), id="z2xz2"),
    pytest.param(lambda: _trivial("s3"), id="s3"),
    pytest.param(s3_sign_pullback, id="s3-sign-pullback"),
])
def test_product_f_read_from_the_factors_is_the_table_written_out(case):
    # C x C^rev reads its associator from its factors; the table written out
    # entry by entry is the reference, for `assoc`, for `F` and for the file
    G, omega = case()
    C0 = pointed_skeleton(G, omega)
    reference = product_assoc_table(C0, reversed_skeleton(C0))
    C, _M = boxtimes_rev_skeleton(G, omega)
    assert all(C.assoc(a, b, c) == v for (a, b, c, _d), v in reference.items())
    assert "F" not in C.__dict__
    assert C.F == reference
    written_out = SkeletalCategory(C.ring, reference, C.conductor)
    assert jsonio.dumps(jsonio.skeleton_to_json(C)) == jsonio.dumps(jsonio.skeleton_to_json(written_out))


def test_sparse_entries_sort_by_their_json_text():
    # labels whose texts are prefixes of one another (1, 10, "1"), tuples and
    # repeated scalars, with and without a scalar column
    rng = random.Random(5)
    labels = [0, 1, 2, 10, 12, "1", "a", "a b", (1,), (1, 0), (10,), ("a", 2)]
    scalars = [root_of_unity(3, k) * Cyclotomic.rational(3, c) for k in range(3) for c in (1, -2)]
    for width in (1, 3, 4):
        keys = {tuple(rng.choice(labels) for _ in range(width)) for _ in range(300)}
        for items in ([(key, None) for key in keys], [(key, rng.choice(scalars)) for key in keys]):
            entries = [[jsonio.encode_label(x) for x in key] + ([] if v is None else [v.to_json()])
                       for key, v in items]
            assert jsonio._sorted_entries(items) == sorted_by_json_text(entries)


def test_the_build_path_forms_no_product_table(monkeypatch):
    # A(G, omega) and chi read three associator values per label of C x C^rev
    # (the dual data), not its |G|^6 table; the pentagon reads the factors,
    # so it sees a tampered one
    made = []

    def recording(G, omega):
        C, M = boxtimes_rev_skeleton(G, omega)
        made.append(C)
        return C, M

    monkeypatch.setattr(builders, "boxtimes_rev_skeleton", recording)
    monkeypatch.setattr(skeleton, "boxtimes_rev_skeleton", recording)
    w = standard_cocycle(3, 1)
    build_a_g_omega(w.group, w)
    assert chi_iso(pointed_skeleton(w.group, w))[2].ok
    assert len(made) == 2 and not any("F" in C.__dict__ for C in made)
    C = made[0]
    assert validate_pentagon(C).ok and "F" not in C.__dict__
    F = C.factors[0].F
    F[(1, 1, 1, 0)] = -F[(1, 1, 1, 0)]
    rep = validate_pentagon(C)
    assert not rep.ok and "pentagon fails" in rep.first_failure


@pytest.mark.parametrize("n,ps", [(2, range(2)), (3, range(3))])
def test_boxtimes_passes_validators(n, ps):
    for p in ps:
        w = standard_cocycle(n, p)
        C, M = boxtimes_rev_skeleton(w.group, w)
        assert validate_pentagon(C).ok
        assert validate_module_pentagon(M).ok


def test_boxtimes_trivial_all_one():
    g = cyclic_group(2)
    C, M = boxtimes_rev_skeleton(g, trivial_cocycle(g))
    assert all(v.is_one() for v in C.F.values())
    assert all(v.is_one() for v in M.L.values())


def test_dual_data_trivial():
    g = cyclic_group(3)
    C = pointed_skeleton(g, trivial_cocycle(g))
    dd = dual_data_pointed(C)
    assert all(v.is_one() for v in dd.ev.values())
    assert all(v.is_one() for v in dd.coev.values())
    assert verify_zigzags(dd).ok


def test_dual_data_z2_sign():
    w = standard_cocycle(2, 1)
    C = pointed_skeleton(w.group, w)
    dd = dual_data_pointed(C)
    # ev at the nontrivial element is omega(1,1,1)^(-1) = -1 in this gauge
    assert dd.ev[1] == Cyclotomic.rational(2, -1)
    assert verify_zigzags(dd).ok


def test_dual_data_zigzags_catalog():
    for name in ("z2", "z3", "z4", "z6", "s3", "z2xz2"):
        g = catalog_group(name)
        C = pointed_skeleton(g, trivial_cocycle(g))
        assert verify_zigzags(dual_data_pointed(C)).ok
    for n in (2, 3, 4, 6):
        for p in range(n):
            w = standard_cocycle(n, p)
            C = pointed_skeleton(w.group, w)
            assert verify_zigzags(dual_data_pointed(C)).ok


def test_fib_not_usable_as_grouplike():
    fib = fib_fusion_ring()
    C = SkeletalCategory(fib, {}, 1)
    with pytest.raises(SkeletonError):
        C.fuse("nu", "nu")
    rep = validate_pentagon(C)
    assert not rep.ok
