"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracer.py` names the whalg functions whose spans and counters feed
the benchmark's per-layer metrics.  A function it cannot find at install time
is listed in `Tracer.missing`, and its metric drops out of every traced run's
result, so renaming or deleting a wrapped function breaks the benchmark's
result line without failing any other test.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracer  # noqa: E402

from whalg import builders, double, groups, repcat, skeleton, wha  # noqa: E402


def test_tracer_metrics_are_the_declared_per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(tracer.LAYER_METRICS) == sorted(declared)


def test_tracer_finds_every_wrapped_function_and_times_the_sweeps(tmp_path):
    w = groups.standard_cocycle(2, 1)
    with tracer.Tracer(str(tmp_path)) as tr:
        assert tr.missing == []
        B = builders.build_b_g_omega(w.group, w)
        assert wha.verify_weak_bialgebra(B).ok
    names = {span[0] for span in tr.spans}
    assert {"builders.build_s", "wha.weak_bialgebra_s", "wha.verify_serial_s"} <= names
    # the tracer's exit put every original back
    assert not hasattr(wha.verify_weak_bialgebra, "__wrapped__")
    assert not hasattr(builders.build_b_g_omega, "__wrapped__")


def test_tracer_times_the_double_and_its_antipode(tmp_path):
    w = groups.standard_cocycle(2, 1)
    with tracer.Tracer(str(tmp_path)) as tr:
        assert tr.missing == []
        P = double.build_pairing(skeleton.pointed_skeleton(w.group, w))
        assert double.build_drinfeld_double(P).algebra.dim == 16
    names = {span[0] for span in tr.spans}
    assert {"double.build_s", "double.solve_antipode_s"} <= names
    assert not hasattr(double.solve_antipode, "__wrapped__")


def test_a_traced_double_build_runs_no_base_algebra_suite(tmp_path):
    # the double reads A^l and A^r off the pivot columns of the matrices of
    # eps^lr and eps^rr, not off a `base_algebras` report
    w = groups.standard_cocycle(2, 1)
    P = double.build_pairing(skeleton.pointed_skeleton(w.group, w))
    with tracer.Tracer(str(tmp_path)) as tr:
        assert tr.missing == []
        assert double.build_drinfeld_double(P).algebra.dim == 16
    names = {span[0] for span in tr.spans}
    assert "double.build_s" in names and "wha.base_algebras_s" not in names


def test_tracer_times_every_law_sweep_of_the_weak_bialgebra_suite(tmp_path):
    # 18 of the 27 indices of B(Z3, p=1) generate it: the generator sweeps
    # (associativity on A and on A*, Axiom 1) go through `wha._sweep` too,
    # next to Axioms 2 and 3
    w = groups.standard_cocycle(3, 1)
    B = builders.build_b_g_omega(w.group, w)
    assert (len(B.mu_generators), B.dim) == (18, 27)
    with tracer.Tracer(str(tmp_path)) as tr:
        assert tr.missing == []
        assert wha.verify_weak_bialgebra(B).ok
    assert [span[0] for span in tr.spans].count("wha.verify_serial_s") == 5


def test_tracer_counts_the_two_yang_baxter_products(tmp_path):
    # R's two-leg products are contracted from its terms, so one qt suite
    # calls mul3 only for Yang-Baxter's last products, with R23 and R12; the
    # intertwining law takes two mul2 products per generator, next to the
    # four of R Delta(1) and the weak-inverse laws
    w = groups.standard_cocycle(2, 1)
    A, R = builders.build_a_g_omega(w.group, w)
    with tracer.Tracer(str(tmp_path)) as tr:
        assert tr.missing == []
        assert wha.verify_quasitriangular(A, R).ok
    assert tr.counts["wha.mul3.calls"] == 2
    assert tr.counts["wha.mul2.calls"] == 4 + 2 * len(A.mu_generators) == 24


def test_tracer_counts_one_elimination_per_retract_and_per_tensor_unit(tmp_path):
    # a retract and its section come from one reduced echelon form, and the
    # tensor unit from one of the matrix of eps^lr, without the base-algebra suite
    w = groups.standard_cocycle(2, 1)
    B = builders.build_b_g_omega(w.group, w)
    K0, K1 = (repcat.k_module(B, w.group, w, g) for g in (0, 1))
    with tracer.Tracer(str(tmp_path)) as tr:
        assert tr.missing == []
        assert repcat.tensor_product(K0, K1).module.dim == 2
    assert tr.counts["exactmath.elim.calls"] == 1
    with tracer.Tracer(str(tmp_path)) as tr:
        assert repcat.tensor_unit(B).dim == 2
    assert tr.counts["exactmath.elim.calls"] == 1
    assert "wha.base_algebras_s" not in {span[0] for span in tr.spans}


def test_tracer_counts_one_elimination_in_the_r_roundtrip_and_no_tensor_product(tmp_path):
    # the roundtrip reads the retract of V (x) V and R's action on it, not
    # the product's module structure
    w = groups.standard_cocycle(2, 1)
    A, R = builders.build_a_g_omega(w.group, w)
    with tracer.Tracer(str(tmp_path)) as tr:
        assert tr.missing == []
        assert repcat.reduced_R_roundtrip(A, R)
    assert tr.counts["exactmath.elim.calls"] == 1
    assert "repcat.tensor_s" not in {span[0] for span in tr.spans}
