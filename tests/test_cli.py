import gc
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

from whalg import cli, jsonio
from whalg.builders import build_a_g_omega, build_a_m_c, build_b_g_omega
from whalg.cli import main, make_parser
from whalg.exactmath import Cyclotomic
from whalg.groups import cyclic_group, standard_cocycle, symmetric_group_3, trivial_cocycle
from whalg.repcat import k_module
from whalg.skeleton import (FusionRing, SkeletalCategory, SkeletalModule, boxtimes_rev_skeleton, pointed_skeleton,
                            regular_module, right_regular_module)
from whalg.wha import compare_structure

from references import s3_sign_pullback, sweedler_h4


def run(*argv):
    return main(list(argv))


def run_python(*argv, cwd=None):
    """`python argv` in a fresh interpreter that imports whalg from this
    checkout, with its exit code and output captured."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd)


def run_process(*argv, cwd=None):
    """`whalg argv` in a fresh interpreter, with its exit code and output captured."""
    return run_python("-m", "whalg.cli", *argv, cwd=cwd)


def test_build_and_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "b2.json"
    assert run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=0", "-o", str(out)) == 0
    text = capsys.readouterr().out
    assert "dim 8" in text
    assert run("verify", str(out), "--suite", "all") == 0


def test_build_a_g_omega_dim(tmp_path, capsys):
    out = tmp_path / "a3.json"
    r = tmp_path / "r3.json"
    assert run("build", "a-g-omega", "--group", "z3", "--cocycle", "p=1",
               "-o", str(out), "--rmatrix-out", str(r)) == 0
    assert "dim 81" in capsys.readouterr().out
    assert run("verify", str(out), "--suite", "qt", "--rmatrix", str(r)) == 0


def test_unknown_group_exits_2(capsys):
    assert run("build", "b-g-omega", "--group", "z5", "--cocycle", "p=0") == 2
    assert capsys.readouterr().err == (
        "error: unknown group 'z5'; catalog: ['s3', 'z2', 'z2xz2', 'z3', 'z4', 'z6']\n")


def test_a_sign_cocycle_written_at_conductor_1_builds(tmp_path, capsys):
    # -1 is a root of unity at every conductor, odd ones included
    sign = {"conductor": 1, "coeffs": [[-1, 1]]}
    one = {"conductor": 1, "coeffs": [[1, 1]]}
    values = [sign if t == (1, 1, 1) else one for t in itertools.product(range(2), repeat=3)]
    cocycle = tmp_path / "sign.json"
    cocycle.write_text(json.dumps({"conductor": 1, "order": 2, "values": values}))
    for kind, dim, center in (("b-g-omega", 8, 2), ("a-g-omega", 16, 4)):
        out = tmp_path / f"{kind}.json"
        r = tmp_path / f"{kind}-r.json"
        extra = ["--rmatrix-out", str(r)] if kind == "a-g-omega" else []
        assert run("build", kind, "--group", "z2", "--cocycle", str(cocycle), "-o", str(out), *extra) == 0
        assert f"dim {dim}" in capsys.readouterr().out
        assert run("verify", str(out), "--suite", "all", *(["--rmatrix", str(r)] if extra else [])) == 0
        assert run("report", str(out)) == 0
        assert f"center_dim {center}" in capsys.readouterr().out


def test_verify_missing_rmatrix_exits_2(tmp_path):
    out = tmp_path / "b2.json"
    run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=0", "-o", str(out))
    assert run("verify", str(out), "--suite", "qt") == 2


@pytest.mark.parametrize("suite", ["wha", "base"])
def test_verify_rmatrix_with_a_suite_that_does_not_read_it_exits_2(tmp_path, capsys, suite):
    # the R-matrix file is never opened, so it is refused rather than ignored
    out = tmp_path / "b2.json"
    assert run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=0", "-o", str(out)) == 0
    capsys.readouterr()
    assert run("verify", str(out), "--suite", suite, "--rmatrix", str(tmp_path / "absent.json")) == 2
    assert capsys.readouterr() == (
        "", f"error: --rmatrix is read only by --suite qt and all, not by --suite {suite}\n")


def test_verify_tampered_exits_1(tmp_path, capsys):
    out = tmp_path / "b2.json"
    run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=1", "-o", str(out))
    obj = jsonio.read_json(str(out))
    i, j, k, enc = obj["mu"][0]
    enc = dict(enc, coeffs=[[num * 3, den] for num, den in enc["coeffs"]])
    obj["mu"][0] = [i, j, k, enc]
    bad = tmp_path / "bad.json"
    jsonio.write_json(str(bad), obj)
    assert run("verify", str(bad), "--suite", "wha") == 1
    assert "FAIL" in capsys.readouterr().out


def test_export_is_byte_stable(tmp_path):
    g = cyclic_group(3)
    w = standard_cocycle(3, 1)
    A = build_b_g_omega(g, w)
    a1 = jsonio.dumps(jsonio.algebra_to_json(A))
    A2 = build_b_g_omega(g, standard_cocycle(3, 1))
    a2 = jsonio.dumps(jsonio.algebra_to_json(A2))
    assert a1 == a2
    back = jsonio.algebra_from_json(json.loads(a1))
    assert compare_structure(back, A, list(range(A.dim))).ok


def test_roundtrip_all_artifacts(tmp_path):
    g = symmetric_group_3()
    gob = jsonio.group_to_json(g)
    g2 = jsonio.group_from_json(gob)
    assert g2.table == g.table

    w = standard_cocycle(4, 3)
    cob = jsonio.cocycle_to_json(w)
    w2 = jsonio.cocycle_from_json(cob, w.group)
    assert all(w2(a, b, c) == w(a, b, c) for a in range(4) for b in range(4) for c in range(4))

    C = pointed_skeleton(w.group, w)
    C2 = jsonio.skeleton_from_json(jsonio.skeleton_to_json(C))
    assert C2.F == C.F

    Cb, M = boxtimes_rev_skeleton(cyclic_group(2), standard_cocycle(2, 1))
    M2 = jsonio.module_from_json(jsonio.module_to_json(M), Cb)
    assert M2.L == M.L and M2.action == M.action

    A, R = build_a_g_omega(cyclic_group(2), standard_cocycle(2, 1))
    R2 = jsonio.rmatrix_from_json(jsonio.rmatrix_to_json(A, R))
    assert R2.terms == R.terms


def test_compare_cli(tmp_path, capsys):
    g = cyclic_group(2)
    w = trivial_cocycle(g, conductor=2)
    B = build_b_g_omega(g, w)
    C, M = right_regular_module(g, w)
    gen = build_a_m_c(C, M)
    f1 = tmp_path / "closed.json"
    f2 = tmp_path / "general.json"
    jsonio.write_json(str(f1), jsonio.algebra_to_json(B))
    jsonio.write_json(str(f2), jsonio.algebra_to_json(gen))
    mapfile = tmp_path / "map.json"
    index_map = [B.label_index[("f", a, y, x)] for (a, y, x) in gen.labels]
    jsonio.write_json(str(mapfile), index_map)
    assert run("compare", str(f2), str(f1), "--map", str(mapfile)) == 0
    # transpose two labels: must fail with exit 1
    bad_map = list(index_map)
    bad_map[0], bad_map[1] = bad_map[1], bad_map[0]
    jsonio.write_json(str(mapfile), bad_map)
    assert run("compare", str(f2), str(f1), "--map", str(mapfile)) == 1
    # non-bijective map: exit 2
    jsonio.write_json(str(mapfile), [0] * B.dim)
    assert run("compare", str(f2), str(f1), "--map", str(mapfile)) == 2


def test_report_cli(tmp_path, capsys):
    out = tmp_path / "a2.json"
    run("build", "a-g-omega", "--group", "z2", "--cocycle", "trivial", "-o", str(out))
    capsys.readouterr()
    assert run("report", str(out)) == 0
    text = capsys.readouterr().out
    assert "center_dim 4" in text
    assert "dim A^l 2" in text
    assert "cocommutative false" in text


def test_report_groupoid_cocommutative(tmp_path, capsys):
    out = tmp_path / "gpd.json"
    run("build", "groupoid", "--indiscrete", "2", "-o", str(out))
    capsys.readouterr()
    assert run("report", str(out)) == 0
    assert "cocommutative true" in capsys.readouterr().out


def test_rep_cli(tmp_path, capsys):
    alg = tmp_path / "b2.json"
    run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=1", "-o", str(alg))
    assert run("rep", "tensor", "--algebra", str(alg), "--left", "k:1", "--right", "k:1") == 0
    assert "dim 2" in capsys.readouterr().out
    assert run("rep", "iso", "--algebra", str(alg), "--left", "k:1", "--right", "k:1") == 0
    assert run("rep", "coherence", "--algebra", str(alg), "--left", "k:1",
               "--right", "k:1", "--third", "k:0") == 0


def test_rep_braid_cli(tmp_path):
    alg = tmp_path / "a2.json"
    r = tmp_path / "r2.json"
    run("build", "a-g-omega", "--group", "z2", "--cocycle", "p=1",
        "-o", str(alg), "--rmatrix-out", str(r))
    assert run("rep", "braid", "--algebra", str(alg), "--left", "regular",
               "--right", "regular", "--rmatrix", str(r)) == 0


ZERO_MODULE = {"algebra": "", "dim": 0, "conductor": 2, "action": []}


@pytest.mark.parametrize("position", ["--left", "--right", "--third"])
def test_rep_coherence_and_braid_take_the_zero_module(tmp_path, capsys, position):
    # the zero module is the zero object of Rep A: coherence and the braid
    # relation hold with it as any factor
    alg, r, zero = (str(tmp_path / f) for f in ("a2.json", "r2.json", "zero.json"))
    run("build", "a-g-omega", "--group", "z2", "--cocycle", "p=1", "-o", alg, "--rmatrix-out", r)
    jsonio.write_json(zero, ZERO_MODULE)
    capsys.readouterr()
    spec = {"--left": "regular", "--right": "regular", "--third": "regular", position: zero}
    argv = ["--algebra", alg] + [a for k, v in spec.items() for a in (k, v)]
    assert run("rep", "coherence", *argv) == 0
    assert run("rep", "braid", *argv, "--rmatrix", r) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count("=> PASS") == 2


def _no_module(bad):
    """A module file over B(Z2, p=1) that is no module, in the way `bad` names."""
    if bad == "unit-acts-as-zero":
        return dict(ZERO_MODULE, dim=2)
    w = standard_cocycle(2, 1)
    obj = jsonio.wha_module_to_json(k_module(build_b_g_omega(w.group, w), w.group, w, 1))
    for entry in obj["action"]:  # drop the cocycle from the action
        entry[3] = {"conductor": 2, "coeffs": [[1, 1], [0, 1]]}
    return obj


@pytest.mark.parametrize("bad,message", [
    ("unit-acts-as-zero", "eta(1) does not act as id"),
    ("not-multiplicative", "(xy).v != x.(y.v) at (('f', 1, 0, 1), ('f', 1, 1, 0))"),
])
def test_rep_module_file_that_is_no_module_exits_2_naming_the_law(tmp_path, capsys, bad, message):
    alg, mod = str(tmp_path / "b2.json"), str(tmp_path / "mod.json")
    run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=1", "-o", alg)
    jsonio.write_json(mod, _no_module(bad))
    capsys.readouterr()
    for action, right in (("tensor", "regular"), ("iso", mod), ("coherence", "regular")):
        assert run("rep", action, "--algebra", alg, "--left", mod, "--right", right) == 2
        assert capsys.readouterr() == ("", f"error: module file: {message}\n")


def test_tube_cli(tmp_path, capsys):
    assert run("tube", "build", "--group", "z2", "--cocycle", "trivial") == 0
    assert "dim 4 center_dim 4" in capsys.readouterr().out
    assert run("tube", "build", "--group", "z2", "--cocycle", "p=1", "--level", "2") == 0
    assert "dim 16" in capsys.readouterr().out
    assert run("tube", "build", "--group", "z2", "--cocycle", "p=1", "--level", "2", "--primed") == 0
    assert run("tube", "chi", "--group", "z3", "--cocycle", "p=1") == 0
    assert run("tube", "morita", "--group", "z2", "--cocycle", "p=1", "--m", "1", "--n", "2") == 0
    assert run("tube", "pivotal", "--group", "z3", "--cocycle", "p=1") == 0


def test_tube_pivotal_takes_a_cocycle_file_on_s3(tmp_path):
    G, omega = s3_sign_pullback()
    cocycle = tmp_path / "sign.json"
    jsonio.write_json(str(cocycle), jsonio.cocycle_to_json(omega))
    assert run("tube", "pivotal", "--group", "s3", "--cocycle", str(cocycle)) == 0


def test_tube_build_from_skeleton_file(tmp_path, capsys):
    w = standard_cocycle(3, 1)
    C = pointed_skeleton(w.group, w)
    sk = tmp_path / "s.json"
    jsonio.write_json(str(sk), jsonio.skeleton_to_json(C))
    assert run("tube", "build", "--skeleton", str(sk), "--level", "1") == 0
    assert "dim 9" in capsys.readouterr().out


def test_build_a_m_c_from_files(tmp_path, capsys):
    g = cyclic_group(2)
    w = standard_cocycle(2, 1)
    Cb, M = boxtimes_rev_skeleton(g, w)
    sk = tmp_path / "c.json"
    mod = tmp_path / "m.json"
    out = tmp_path / "amc.json"
    jsonio.write_json(str(sk), jsonio.skeleton_to_json(Cb))
    jsonio.write_json(str(mod), jsonio.module_to_json(M))
    assert run("build", "a-m-c", "--skeleton", str(sk), "--module", str(mod), "-o", str(out)) == 0
    assert "dim 16" in capsys.readouterr().out
    assert run("verify", str(out), "--suite", "all") == 0


def _vec_z3_files(tmp_path, negate):
    """Skeleton and regular-module files of Vec_Z3 (cocycle p=1), with the
    F(1,1,1) entry (negate="F") or the L(0,0,0) entry (negate="L") negated."""
    w = standard_cocycle(3, 1)
    C = pointed_skeleton(w.group, w)
    M = regular_module(C)
    if negate == "F":
        C.F[(1, 1, 1, 0)] = -C.F[(1, 1, 1, 0)]
    elif negate == "L":
        M.L[(0, 0, 0)] = -M.L[(0, 0, 0)]
    sk, mod = str(tmp_path / "s.json"), str(tmp_path / "m.json")
    jsonio.write_json(sk, jsonio.skeleton_to_json(C))
    jsonio.write_json(mod, jsonio.module_to_json(M))
    return sk, mod


@pytest.mark.parametrize("negate,message", [
    (None, None),
    ("F", "skeleton file: pentagon fails at (1,1,1,2)"),
    ("L", "skeletal module file: module pentagon fails at (0,0,1;2)"),
], ids=["coherent", "F-negated", "L-negated"])
def test_incoherent_category_files_exit_2_naming_the_instance(tmp_path, negate, message):
    # the pentagon of the skeleton, and the module pentagon, are checked when
    # the files are loaded, before anything is built from them
    sk, mod = _vec_z3_files(tmp_path, negate)
    builds = [("build", "a-m-c", "--skeleton", sk, "--module", mod)]
    if negate != "L":
        builds.append(("tube", "build", "--skeleton", sk))
    for argv in builds:
        proc = run_process(*argv)
        if message is None:
            assert proc.returncode == 0, proc.stderr
            continue
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [f"error: {message}"]


def _bad_vec_z2_module(M, bad):
    """Tamper with the regular module M of Vec(Z2), trivial cocycle and every
    L = 1, so that its action is not one, in the way `bad` names."""
    if bad == "lands-outside":
        M.action[(1, 1)] = 5
        M.L.update({(a, b, 5): M.L[(a, b, 0)] for a in (0, 1) for b in (0, 1)})
    elif bad == "repeated-object":
        M.objects.append(1)
    elif bad == "not-an-action":
        M.action.update({(1, x): 0 for x in (0, 1)})


@pytest.mark.parametrize("bad,message", [
    ("lands-outside", "action at (1,1) lands on 5, not an object"),
    ("repeated-object", "object 1 is listed twice"),
    ("not-an-action", "action law a.(b.x) = (ab).x fails at (1,1;1)"),
])
def test_a_module_file_that_is_no_action_exits_2_naming_the_entry(tmp_path, bad, message):
    # the objects must be distinct, the action total on labels x objects and
    # landing in the objects, with 1.x = x and a.(b.x) = (ab).x; each file
    # passes the module pentagon
    C = pointed_skeleton(cyclic_group(2), trivial_cocycle(cyclic_group(2)))
    M = regular_module(C)
    _bad_vec_z2_module(M, bad)
    sk, mod = str(tmp_path / "s.json"), str(tmp_path / "m.json")
    jsonio.write_json(sk, jsonio.skeleton_to_json(C))
    jsonio.write_json(mod, jsonio.module_to_json(M))
    proc = run_process("build", "a-m-c", "--skeleton", sk, "--module", mod, "-o", str(tmp_path / "a.json"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [f"error: skeletal module file: {message}"]


def test_a_non_associative_fusion_rule_exits_2_at_load(tmp_path):
    # the loop of order 5 (rows 01234/10342/24013/32401/43120) with every F = 1,
    # and its regular module with every L = 1, pass both pentagons; the
    # fusion rule is checked for associativity when the skeleton is loaded
    rows = ("01234", "10342", "24013", "32401", "43120")
    labels = range(5)
    ring = FusionRing(labels, 0, {(a, b, int(rows[a][b])): 1 for a in labels for b in labels})
    one = Cyclotomic.one(1)
    C = SkeletalCategory(ring, {key: one for key in itertools.product(labels, repeat=4)}, 1)
    M = SkeletalModule(C, labels, {(a, x): C.fuse(a, x) for a in labels for x in labels},
                       {key: one for key in itertools.product(labels, repeat=3)})
    sk, mod = str(tmp_path / "s.json"), str(tmp_path / "m.json")
    jsonio.write_json(sk, jsonio.skeleton_to_json(C))
    jsonio.write_json(mod, jsonio.module_to_json(M))
    for argv in (("build", "a-m-c", "--skeleton", sk, "--module", mod), ("tube", "build", "--skeleton", sk)):
        proc = run_process(*argv)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == ["error: skeleton file: associativity fails at (1,1,2;2)"]


def test_a_directory_as_input_exits_2_naming_it(tmp_path):
    proc = run_process("verify", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [f"error: {tmp_path}: cannot read: Is a directory"]


def test_rep_iso_on_h4_is_undecided_and_exits_1(tmp_path):
    # H4 is not semisimple, so equal characters prove no isomorphism: exit 1
    # as for not-isomorphic, with no traceback; two zero modules stay isomorphic
    alg, zero = str(tmp_path / "h4.json"), str(tmp_path / "zero.json")
    jsonio.write_json(alg, jsonio.algebra_to_json(sweedler_h4()))
    jsonio.write_json(zero, dict(ZERO_MODULE, conductor=1))
    proc = run_process("rep", "iso", "--algebra", alg, "--left", "regular", "--right", "regular")
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "undecided\n", "")
    proc = run_process("rep", "iso", "--algebra", alg, "--left", zero, "--right", zero)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "isomorphic\n", "")


def test_seed_is_not_an_option(capsys):
    # rep iso is decided exactly from characters: there is no search to seed
    argv = ["rep", "iso", "--algebra", "a.json", "--left", "regular", "--right", "regular"]
    assert make_parser().parse_args(argv).action == "iso"
    with pytest.raises(SystemExit) as exc:
        run("--seed", "1", *argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: whalg")


def test_threads_is_not_an_option(tmp_path):
    # every verifier sweep runs in-process, so there is no worker count to set
    b2 = tmp_path / "b2.json"
    assert run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=0", "-o", str(b2)) == 0
    proc = run_process("--threads", "2", "verify", str(b2))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: whalg")
    assert proc.stderr.splitlines()[-1].startswith("whalg: error: ")


def test_the_cli_does_not_import_multiprocessing():
    # nothing forks, so no CLI process pays for the import at start-up
    proc = run_python("-c", "import sys, whalg.cli; print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_obstruction_cli(tmp_path, capsys):
    assert run("obstruction", "--ring", "fib") == 1
    assert "2 > 1" in capsys.readouterr().out
    ring = tmp_path / "ring.json"
    cands = tmp_path / "c.json"
    from whalg.skeleton import pointed_skeleton as ps

    C = ps(cyclic_group(3), trivial_cocycle(cyclic_group(3)))
    jsonio.write_json(str(ring), jsonio.fusion_ring_to_json(C.ring))
    jsonio.write_json(str(cands), [{"name": str(a), "object": [a], "jdim": 1} for a in C.labels])
    assert run("obstruction", "--ring", str(ring), "--candidates", str(cands)) == 0


def test_tube_obstruction_is_a_usage_error(capsys):
    # the detector is `whalg obstruction`; the tube family has no such action
    # and no --ring/--candidates flags
    for argv in (("tube", "obstruction", "--ring", "fib"),
                 ("tube", "build", "--group", "z2", "--cocycle", "trivial", "--ring", "fib")):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2


def test_double_cli(tmp_path):
    assert run("double", "sharp", "--group", "z2", "--cocycle", "p=1") == 0
    out = tmp_path / "d.json"
    assert run("double", "build", "--group", "z2", "--cocycle", "p=0", "-o", str(out)) == 0
    assert run("verify", str(out), "--suite", "wha") == 0


def test_double_sharp_json_lists_the_coalgebra_laws(capsys):
    # the sharp map is checked as a weak Hopf map, not only as an algebra map
    assert run("--json", "double", "sharp", "--group", "z2", "--cocycle", "p=1") == 0
    checks = {c["name"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
    for law in ("counital", "comultiplicative", "antipode"):
        assert checks[f"sharp-{law}"] is True, law


def _skeleton_and_module_files(tmp_path):
    C, M = boxtimes_rev_skeleton(cyclic_group(2), standard_cocycle(2, 1))
    sk, mod = str(tmp_path / "c.json"), str(tmp_path / "m.json")
    jsonio.write_json(sk, jsonio.skeleton_to_json(C))
    jsonio.write_json(mod, jsonio.module_to_json(M))
    return ["--skeleton", sk, "--module", mod]


@pytest.mark.parametrize("argv", [
    ["build", "b-g-omega", "--group", "z3", "--cocycle", "p=1"],
    ["build", "a-g-omega", "--group", "z2", "--cocycle", "p=1"],
    ["build", "a-m-c", _skeleton_and_module_files],
    ["build", "groupoid", "--indiscrete", "2"],
    ["build", "groupoid", "--group", "s3"],
    ["build", "frobenius-double", "--diagonal", "2"],
    ["build", "frobenius-double", "--matrix", "2"],
    ["double", "build", "--group", "z2", "--cocycle", "p=0"],
], ids=lambda argv: "-".join(a for a in argv if isinstance(a, str)))
def test_every_algebra_file_is_the_reference_encoding(tmp_path, monkeypatch, argv):
    # `write_algebra` writes each distinct scalar's text once; the file must be
    # the bytes of the general encoder, `dumps(algebra_to_json(A))`
    argv = [a for arg in argv for a in (arg(tmp_path) if callable(arg) else [arg])]
    written = []
    write = jsonio.write_algebra
    monkeypatch.setattr(jsonio, "write_algebra", lambda path, A: written.append(A) or write(path, A))
    out = tmp_path / "x.json"
    assert run(*argv, "-o", str(out)) == 0
    [A] = written
    assert out.read_bytes() == jsonio.dumps(jsonio.algebra_to_json(A)).encode()


def test_double_build_artifacts_are_pinned(tmp_path):
    # no perfbench digest covers the double: pin its algebra, its R-matrix
    # with the weak inverse, and the --json reports byte for byte
    proc = run_process("--json", "double", "build", "--group", "z2", "--cocycle", "p=1",
                       "-o", "d.json", "--rmatrix-out", "r.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    sha = lambda data: hashlib.sha256(data).hexdigest()
    assert sha((tmp_path / "d.json").read_bytes()) == \
        "b70c8073c6d119d26c905dc47b26210927c8875a93ea49a565483773d976f373"
    assert sha((tmp_path / "r.json").read_bytes()) == \
        "d403f6932a1a891bfea125cdf051ddd352565402b33fc072c5fcc0cd1b57e883"
    assert sha(proc.stdout.encode()) == \
        "ceaabb97b800c6635bc14ab7faeaacfe6a5959eacad70130108777a176287a90"


def test_z3_double_build_files_are_pinned(tmp_path):
    # the algebra and R-matrix files of the Z3 double, byte for byte
    proc = run_process("double", "build", "--group", "z3", "--cocycle", "p=1",
                       "-o", "d.json", "--rmatrix-out", "r.json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    sha = lambda data: hashlib.sha256(data).hexdigest()
    assert sha((tmp_path / "d.json").read_bytes()) == \
        "1e20c9aa7c99afba808620e2b1f093f3a4bc5fdf91094d2f8d592234a7f03a7d"
    assert sha((tmp_path / "r.json").read_bytes()) == \
        "748633163f44e33140525e81d58a80d3a6cc5bb6d1acc25208b376802e4bee9a"


def test_json_flag_byte_stable(tmp_path, capsys):
    out = tmp_path / "b.json"
    run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=1", "-o", str(out))
    capsys.readouterr()
    run("--json", "verify", str(out), "--suite", "base")
    first = capsys.readouterr().out
    run("--json", "verify", str(out), "--suite", "base")
    second = capsys.readouterr().out
    assert first == second
    json.loads(first.strip())  # machine-readable


def test_wrong_conductor_scalar_rejected_at_load(tmp_path, capsys):
    out = tmp_path / "b3.json"
    assert run("build", "b-g-omega", "--group", "z3", "--cocycle", "p=1", "-o", str(out)) == 0
    obj = jsonio.read_json(str(out))
    i, j, k, _enc = obj["mu"][5]
    obj["mu"][5] = [i, j, k, {"conductor": 1, "coeffs": [[1, 1]]}]
    bad = tmp_path / "bad.json"
    jsonio.write_json(str(bad), obj)
    proc = run_process("verify", str(bad), "--suite", "wha")
    assert proc.returncode == 2
    assert f"mu[{i}, {j}, {k}]" in proc.stderr and "conductor 1" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""

    # the R-matrix and module loaders check their scalars the same way
    A, R = build_a_g_omega(cyclic_group(2), standard_cocycle(2, 1))
    robj = jsonio.rmatrix_to_json(A, R)
    robj["terms"][0][2] = {"conductor": 4, "coeffs": [[1, 1], [0, 1], [0, 1], [0, 1]]}
    with pytest.raises(ValueError, match=r"terms\[%d, %d\]" % tuple(robj["terms"][0][:2])):
        jsonio.rmatrix_from_json(robj)
    mobj = {"algebra": "", "dim": 1, "conductor": 2,
            "action": [[0, 0, 0, {"conductor": 1, "coeffs": [[1, 1]]}]]}
    with pytest.raises(ValueError, match=r"action\[0, 0, 0\]"):
        jsonio.wha_module_from_json(mobj, A)


def _tamper_mu_index(obj):
    obj["mu"][0][0] = 99
    return "mu[99, "


def _tamper_labels(obj):
    obj["labels"] = obj["labels"][:3]
    return "labels: 3 entries for dim 8"


def _respell(obj, table, pos, **changes):
    """Give entry `pos` of obj[table] a fresh copy of its scalar encoding with
    `changes`; `read_json` shares one encoding among the entries that spell
    it alike, so a tamper replaces it rather than mutating it.  Returns the
    entry's name."""
    *idx, enc = obj[table][pos]
    obj[table][pos] = [*idx, dict(enc, **changes)]
    return f"{table}[{', '.join(map(str, idx))}]"


def _tamper_float_coefficient(obj):
    return _respell(obj, "mu", 0, coeffs=[[1.5, 1], *obj["mu"][0][-1]["coeffs"][1:]])


def _tamper_zero_denominator(obj):
    return _respell(obj, "mu", 0, coeffs=[[1, 0], *obj["mu"][0][-1]["coeffs"][1:]])


@pytest.mark.parametrize("tamper", [_tamper_mu_index, _tamper_labels,
                                    _tamper_float_coefficient, _tamper_zero_denominator])
def test_malformed_algebra_file_exits_2_naming_the_entry(tmp_path, tamper):
    out = tmp_path / "b2.json"
    assert run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=1", "-o", str(out)) == 0
    obj = jsonio.read_json(str(out))
    where = tamper(obj)
    bad = tmp_path / "bad.json"
    jsonio.write_json(str(bad), obj)
    proc = run_process("verify", str(bad), "--suite", "wha")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1 and where in proc.stderr


def test_read_json_shares_one_encoding_per_spelling_and_decodes_each_once(tmp_path, monkeypatch):
    A, _R = build_a_g_omega(cyclic_group(3), standard_cocycle(3, 1))
    path = tmp_path / "a3.json"
    jsonio.write_json(str(path), jsonio.algebra_to_json(A))
    obj = jsonio.read_json(str(path))
    assert obj == json.loads(path.read_text())
    # labels and meta are parsed as they are
    assert type(obj["meta"]) is dict and {type(lab) for lab in obj["labels"]} == {dict}
    encs = [entry[-1] for table in ("mu", "unit", "delta", "counit", "antipode")
            for entry in obj[table]]
    shared = {id(enc) for enc in encs}
    assert len(shared) == len({json.dumps(enc) for enc in encs}) < len(encs)
    decoded = []
    from_json = Cyclotomic.from_json
    monkeypatch.setattr(Cyclotomic, "from_json",
                        staticmethod(lambda enc: decoded.append(id(enc)) or from_json(enc)))
    B = jsonio.algebra_from_json(obj)
    assert sorted(decoded) == sorted(shared)
    assert jsonio.dumps(jsonio.algebra_to_json(B)) == path.read_text()


@pytest.mark.parametrize("group,respellings,message", [
    # spellings of 1 that Python finds equal to the valid [1, 1] of mu[0]
    ("z2", {3: {"coeffs": [[1.0, 1], [0, 1]]}},
     "bad scalar encoding: scalar coefficients must be integer [num, den] pairs"),
    ("z2", {3: {"coeffs": [[True, 1], [0, 1]]}},
     "bad scalar encoding: scalar coefficients must be integer [num, den] pairs"),
    ("z2", {3: {"conductor": 2.0}}, "scalar conductor 2.0 differs from the file's conductor 2"),
    ("z6", {3: {"conductor": 6.0}}, "scalar conductor 6.0 differs from the file's conductor 6"),
    # one bad spelling in two entries is reported at the first
    ("z2", {3: {"coeffs": [[1, 0], [0, 1]]}, 5: {"coeffs": [[1, 0], [0, 1]]}},
     "bad scalar encoding: zero denominator in a scalar encoding"),
], ids=["float-coefficient", "bool-coefficient", "float-conductor-2", "float-conductor-6",
        "repeated"])
def test_a_bad_spelling_of_a_shared_scalar_exits_2_naming_its_first_entry(
        tmp_path, capsys, group, respellings, message):
    out = tmp_path / "b.json"
    assert run("build", "b-g-omega", "--group", group, "--cocycle", "p=1", "-o", str(out)) == 0
    obj = jsonio.read_json(str(out))
    one = obj["mu"][0][-1]
    assert Cyclotomic.from_json(one) == Cyclotomic.one(obj["conductor"])
    assert all(obj["mu"][pos][-1] is one for pos in respellings)
    where = [_respell(obj, "mu", pos, **change) for pos, change in respellings.items()][0]
    bad = tmp_path / "bad.json"
    jsonio.write_json(str(bad), obj)
    capsys.readouterr()
    assert run("verify", str(bad), "--suite", "wha") == 2
    assert capsys.readouterr() == ("", f"error: {where}: {message}\n")


def _zero_first_copy(obj):
    # mu[0] and a later copy of its indices; the first copy holds zero
    i, j, k, enc = obj["mu"][0]
    _respell(obj, "mu", 0, coeffs=[[0, 1]] * len(enc["coeffs"]))
    obj["mu"].append([i, j, k, enc])
    return f"mu[{i}, {j}, {k}]: duplicate entry"


def _bad_in_two_tables(obj):
    # the file lists antipode before delta, but delta is loaded first
    bad = {"conductor": obj["conductor"], "coeffs": [[1, 0]] + [[0, 1]] * (obj["conductor"] - 1)}
    for table in ("antipode", "delta"):
        obj[table][1] = [*obj[table][1][:-1], bad]
    return f"delta[{', '.join(map(str, obj['delta'][1][:-1]))}]: bad scalar encoding: zero denominator in a scalar encoding"


def _extra_key(obj):
    pos = next(p for p, e in enumerate(obj["mu"]) if e[-1]["coeffs"] == [[1, 1], [0, 1]])
    return _respell(obj, "mu", pos, x=1) + ": bad scalar encoding: unexpected key 'x'"


def _index_outside(obj):
    obj["mu"][2][1] = 16
    return f"mu[{obj['mu'][2][0]}, 16, {obj['mu'][2][2]}]: index 16 is outside 0..15"


def _short_entry(obj):
    obj["unit"][0] = obj["unit"][0][1:]
    return f"unit: entry {obj['unit'][0]!r:.80} is not [1 indices, scalar]"


@pytest.mark.parametrize("tamper", [_zero_first_copy, _bad_in_two_tables, _extra_key, _index_outside,
                                    _short_entry])
def test_a_bad_algebra_entry_exits_2_with_its_message(tmp_path, capsys, tamper):
    # A(Z2, p=1), written and read back, so the encodings are shared as in a real file
    out = tmp_path / "a2.json"
    assert run("build", "a-g-omega", "--group", "z2", "--cocycle", "p=1", "-o", str(out)) == 0
    obj = jsonio.read_json(str(out))
    message = tamper(obj)
    bad = tmp_path / "bad.json"
    jsonio.write_json(str(bad), obj)
    capsys.readouterr()
    assert run("verify", str(bad), "--suite", "wha") == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_scalar_encoding_only_in_meta_is_not_read(tmp_path, capsys):
    # the loader decodes the structure tables' scalars; meta is carried as it is
    out = tmp_path / "a2.json"
    assert run("build", "a-g-omega", "--group", "z2", "--cocycle", "p=1", "-o", str(out)) == 0
    obj = jsonio.read_json(str(out))
    obj["meta"]["note"] = [{"conductor": 2, "coeffs": [[1, 1], [0, 1]]},
                           {"conductor": 7, "coeffs": [[1, 0]]}]
    path = tmp_path / "meta.json"
    jsonio.write_json(str(path), obj)
    capsys.readouterr()
    assert run("verify", str(path), "--suite", "wha") == 0
    A = jsonio.algebra_from_json(jsonio.read_json(str(path)))
    assert A.meta["note"][1] == {"conductor": 7, "coeffs": [[1, 0]]}


def test_rmatrix_and_module_files_refuse_an_encoding_with_an_extra_key():
    A, R = build_a_g_omega(cyclic_group(2), standard_cocycle(2, 1))
    robj = jsonio.rmatrix_to_json(A, R)
    i, j, enc = robj["terms"][0]
    robj["terms"][0] = [i, j, dict(enc, x=1)]
    with pytest.raises(jsonio.InputError, match=re.escape(f"terms[{i}, {j}]: bad scalar encoding: "
                                                          "unexpected key 'x'")):
        jsonio.rmatrix_from_json(robj)
    mobj = {"algebra": "", "dim": 1, "conductor": 2,
            "action": [[0, 0, 0, {"conductor": 2, "coeffs": [[1, 1], [0, 1]], "y": 0}]]}
    with pytest.raises(jsonio.InputError, match=re.escape("action[0, 0, 0]: bad scalar encoding: "
                                                          "unexpected key 'y'")):
        jsonio.wha_module_from_json(mobj, A)


def test_rmatrix_of_another_dim_exits_2(tmp_path, capsys):
    a2, r2 = tmp_path / "a2.json", tmp_path / "r2.json"
    assert run("build", "a-g-omega", "--group", "z2", "--cocycle", "p=1",
               "-o", str(a2), "--rmatrix-out", str(r2)) == 0
    b2 = tmp_path / "b2.json"
    assert run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=1", "-o", str(b2)) == 0
    capsys.readouterr()
    assert run("verify", str(b2), "--suite", "all", "--rmatrix", str(r2)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "R-matrix dim 16, conductor 2 differs" in captured.err


def _write_pointed_inputs(tmp_path, table, coeff):
    """Group, cocycle, skeleton and module files, with one coefficient of the first
    entry of `table` replaced by `coeff`.

    Returns the build argv that loads the table, the entry's name and the path
    of the file that holds it.
    """
    g = cyclic_group(2)
    w = standard_cocycle(2, 1)
    C, M = boxtimes_rev_skeleton(g, w)
    objs = {"cocycle": jsonio.cocycle_to_json(w), "skeleton": jsonio.skeleton_to_json(C),
            "module": jsonio.module_to_json(M)}
    owner, enc, where = {"values": ("cocycle", objs["cocycle"]["values"][0], "values[0]"),
                         "F": ("skeleton", objs["skeleton"]["F"][0][-1], "F[0]"),
                         "L": ("module", objs["module"]["L"][0][-1], "L[0]")}[table]
    enc["coeffs"][0] = coeff
    paths = {name: tmp_path / f"{name}.json" for name in ("group", *objs)}
    jsonio.write_json(str(paths["group"]), jsonio.group_to_json(g))
    for name, obj in objs.items():
        jsonio.write_json(str(paths[name]), obj)
    if table == "values":
        argv = ["b-g-omega", "--group", str(paths["group"]), "--cocycle", str(paths["cocycle"])]
    else:
        argv = ["a-m-c", "--skeleton", str(paths["skeleton"]), "--module", str(paths["module"])]
    return argv, where, str(paths[owner])


@pytest.mark.parametrize("coeff", [[1.5, 1], [1, 0]])
@pytest.mark.parametrize("table", ["values", "F", "L"])
def test_bad_scalar_in_category_data_exits_2_naming_the_entry(tmp_path, table, coeff):
    argv, where, _path = _write_pointed_inputs(tmp_path, table, coeff)
    proc = run_process("build", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and f"{where}: bad scalar encoding" in lines[0]


@pytest.mark.parametrize("table", ["values", "F", "L"])
def test_category_data_of_another_conductor_is_rejected(tmp_path, table):
    _argv, where, path = _write_pointed_inputs(tmp_path, table, [1, 1])
    obj = jsonio.read_json(path)
    one = {"conductor": 1, "coeffs": [[1, 1]]}
    if table == "values":
        obj["values"][0] = one
    else:
        _respell(obj, table, 0, **one)
    jsonio.write_json(path, obj)
    with pytest.raises(jsonio.InputError, match=rf"{re.escape(where)}: scalar conductor 1 differs"):
        if table == "values":
            jsonio.cocycle_from_json(obj, cyclic_group(2))
        elif table == "F":
            jsonio.skeleton_from_json(obj)
        else:
            C, _M = boxtimes_rev_skeleton(cyclic_group(2), standard_cocycle(2, 1))
            jsonio.module_from_json(obj, C)


# kind of input file -> (a key its loader reads, the file's object, the whalg
# argv that loads it, with FILE in its place)
def _input_files(tmp_path):
    g = cyclic_group(2)
    w = standard_cocycle(2, 1)
    C, M = boxtimes_rev_skeleton(g, w)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("skeleton", "module", "cands", "b2")}
    jsonio.write_json(paths["skeleton"], jsonio.skeleton_to_json(C))
    jsonio.write_json(paths["module"], jsonio.module_to_json(M))
    jsonio.write_json(paths["cands"], [{"name": "1", "object": [1], "jdim": 1}])
    B = build_b_g_omega(g, w)
    jsonio.write_json(paths["b2"], jsonio.algebra_to_json(B))
    return {
        "group": ("table", jsonio.group_to_json(g),
                  ["build", "b-g-omega", "--group", "FILE", "--cocycle", "trivial"]),
        "cocycle": ("conductor", jsonio.cocycle_to_json(w),
                    ["build", "b-g-omega", "--group", "z2", "--cocycle", "FILE"]),
        "skeleton": ("F", jsonio.skeleton_to_json(C),
                     ["build", "a-m-c", "--skeleton", "FILE", "--module", paths["module"]]),
        "skeletal module": ("L", jsonio.module_to_json(M),
                            ["build", "a-m-c", "--skeleton", paths["skeleton"], "--module", "FILE"]),
        "fusion ring": ("mult", jsonio.fusion_ring_to_json(C.ring),
                        ["obstruction", "--ring", "FILE", "--candidates", paths["cands"]]),
        "module": ("action", jsonio.wha_module_to_json(k_module(B, g, w, 1)),
                   ["rep", "tensor", "--algebra", paths["b2"], "--left", "FILE", "--right", "regular"]),
    }


@pytest.mark.parametrize("shape", ["list", "missing key"])
@pytest.mark.parametrize("kind", ["group", "cocycle", "skeleton", "skeletal module", "fusion ring",
                                  "module"])
def test_input_file_that_is_no_object_or_lacks_a_key_exits_2_naming_it(tmp_path, kind, shape):
    key, obj, argv = _input_files(tmp_path)[kind]
    path = str(tmp_path / "input.json")
    if shape == "list":
        jsonio.write_json(path, [obj])
        message = f"{kind} file: expected a JSON object, not a list"
    else:
        del obj[key]
        jsonio.write_json(path, obj)
        message = f"{kind} file: missing key {key!r}"
    proc = run_process(*[path if a == "FILE" else a for a in argv])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [f"error: {message}"]


def _zero_scalar(enc):
    enc["coeffs"] = [[0, 1]] * len(enc["coeffs"])


# (kind of input file, a change to its object, the start of the error line)
BAD_VALUES = [
    pytest.param("group", lambda o: o.update(table=5), "group file: table must be a list, not int",
                 id="group-table"),
    pytest.param("group", lambda o: o["table"].__setitem__(1, 5),
                 "group file: table[1] is not a list of integers", id="group-row"),
    pytest.param("cocycle", lambda o: _zero_scalar(o["values"][0]),
                 "values[0]: zero scalar", id="cocycle-zero"),
    pytest.param("skeleton", lambda o: o.update(labels=7),
                 "skeleton file: labels must be a list, not int", id="skeleton-labels"),
    pytest.param("skeleton", lambda o: o["labels"].__setitem__(0, [1, 2]),
                 "skeleton file: labels[0]: [1, 2] is not a valid label", id="skeleton-label"),
    pytest.param("skeleton", lambda o: o["mult"].__setitem__(0, o["mult"][0][:2]),
                 "skeleton file: mult[0] is not a list of 3 items", id="skeleton-mult"),
    pytest.param("skeleton", lambda o: o["F"].__setitem__(0, "x"),
                 "skeleton file: F[0] is not a list of 5 items", id="skeleton-F"),
    pytest.param("skeleton", lambda o: _zero_scalar(o["F"][0][-1]), "F[0]: zero scalar",
                 id="skeleton-zero"),
    pytest.param("skeleton", lambda o: o.update(conductor="2"),
                 "skeleton file: conductor must be a positive integer, not '2'",
                 id="skeleton-conductor"),
    pytest.param("skeleton", lambda o: o["F"].append([9, 9, 9, 9, o["F"][0][-1]]),
                 "skeleton file: F[64]: 9 is not one of the labels", id="skeleton-F-off-labels"),
    pytest.param("skeleton", lambda o: o["F"].append(o["F"][0]),
                 "skeleton file: F[64]: duplicate entry", id="skeleton-F-repeated"),
    pytest.param("skeleton", lambda o: o["F"][0].__setitem__(3, {"t": [1, 1]}),
                 "skeleton file: F[0]: (1, 1) is not a product of ((0, 0) (0, 0)) (0, 0)",
                 id="skeleton-F-unreached"),
    pytest.param("fusion ring", lambda o: o.update(mult={}),
                 "fusion ring file: mult must be a list, not dict", id="ring-mult"),
    pytest.param("fusion ring", lambda o: o.update(unit=[0]),
                 "fusion ring file: unit: [0] is not a valid label", id="ring-unit"),
    pytest.param("skeletal module", lambda o: o.update(objects=7),
                 "skeletal module file: objects must be a list, not int", id="module-objects"),
    pytest.param("skeletal module", lambda o: o["action"].__setitem__(0, o["action"][0][:2]),
                 "skeletal module file: action[0] is not a list of 3 items", id="module-action"),
    pytest.param("skeletal module", lambda o: o["L"].__setitem__(0, o["L"][0][1:]),
                 "skeletal module file: L[0] is not a list of 4 items", id="module-L"),
    pytest.param("skeletal module", lambda o: _zero_scalar(o["L"][0][-1]), "L[0]: zero scalar",
                 id="module-zero"),
    pytest.param("skeletal module", lambda o: o["action"].append(o["action"][0]),
                 "skeletal module file: action[8]: duplicate entry", id="module-action-repeated"),
    pytest.param("skeletal module", lambda o: o["L"].append([9, *o["L"][0][1:]]),
                 "skeletal module file: L[32]: 9 is not one of the labels", id="module-L-off-labels"),
    pytest.param("skeletal module", lambda o: o["L"].append([*o["L"][0][:2], 5, o["L"][0][3]]),
                 "skeletal module file: L[32]: 5 is not one of the objects", id="module-L-off-objects"),
    pytest.param("skeletal module", lambda o: o["L"].append(o["L"][0]),
                 "skeletal module file: L[32]: duplicate entry", id="module-L-repeated"),
]


@pytest.mark.parametrize("kind,change,message", BAD_VALUES)
def test_input_file_with_a_bad_value_exits_2_naming_the_entry(tmp_path, kind, change, message):
    _key, obj, argv = _input_files(tmp_path)[kind]
    change(obj)
    path = str(tmp_path / "input.json")
    jsonio.write_json(path, obj)
    proc = run_process(*[path if a == "FILE" else a for a in argv])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), proc.stderr


def _internal_error(*args, **kwargs):
    raise ValueError("singular matrix")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_runs_the_command_with_the_collector_off_and_restores_its_state(
        tmp_path, monkeypatch, capsys, enabled):
    b2 = tmp_path / "b2.json"
    assert run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=0", "-o", str(b2)) == 0
    during = []
    verify = cli.verify_weak_bialgebra
    monkeypatch.setattr(cli, "verify_weak_bialgebra",
                        lambda *a, **k: during.append(gc.isenabled()) or verify(*a, **k))
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in ((["verify", str(b2), "--suite", "wha"], 0),
                           (["obstruction", "--ring", "fib"], 1),
                           (["verify", str(tmp_path / "missing.json")], 2)):
            assert run(*argv) == code
            assert gc.isenabled() == enabled
        monkeypatch.setattr(cli, "verify_antipode", _internal_error)
        with pytest.raises(ValueError):
            run("verify", str(b2), "--suite", "wha")
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert during == [False, False]


def _malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 8,')
    return ["verify", str(path)], f"error: {path}: not a JSON file: "


def _cocycle_out_of_range(tmp_path):
    return (["build", "b-g-omega", "--group", "z2", "--cocycle", "p=2"],
            "error: standard cocycle p=2: need 0 <= p < 2")


def _duplicate_labels(tmp_path):
    obj = jsonio.algebra_to_json(build_b_g_omega(cyclic_group(2), standard_cocycle(2, 1)))
    obj["labels"][1] = obj["labels"][0]
    path = tmp_path / "dup.json"
    jsonio.write_json(str(path), obj)
    return ["verify", str(path)], "error: labels[1]: ('f', 0, 0, 0) repeats labels[0]"


def _group_that_is_no_group(tmp_path):
    path = tmp_path / "g.json"
    jsonio.write_json(str(path), {"order": 2, "table": [[0, 1], [1, 1]], "identity": 0})
    return (["build", "b-g-omega", "--group", str(path), "--cocycle", "trivial"],
            "error: group file: table is not a group: ")


def _ring_with_an_unknown_label(tmp_path):
    ring = jsonio.fusion_ring_to_json(pointed_skeleton(cyclic_group(2), standard_cocycle(2, 0)).ring)
    ring["mult"][0][2] = 9
    path, cands = tmp_path / "ring.json", tmp_path / "c.json"
    jsonio.write_json(str(path), ring)
    jsonio.write_json(str(cands), [{"name": "1", "object": [1], "jdim": 1}])
    return (["obstruction", "--ring", str(path), "--candidates", str(cands)],
            "error: fusion ring file: mult[0]: 9 is not one of the labels")


def _ring_that_is_not_associative(tmp_path):
    # a (x) a = b (x) b = 1, a (x) b = a and b (x) a = b: (a a) b = b but a (a b) = 1
    mult = ([["1", x, x] for x in "1ab"] + [[x, "1", x] for x in "ab"]
            + [["a", "a", "1"], ["b", "b", "1"], ["a", "b", "a"], ["b", "a", "b"]])
    path, cands = tmp_path / "ring.json", tmp_path / "c.json"
    jsonio.write_json(str(path), {"labels": ["1", "a", "b"], "unit": "1", "mult": mult})
    jsonio.write_json(str(cands), [{"name": "z", "object": ["a"], "jdim": 1}])
    return (["obstruction", "--ring", str(path), "--candidates", str(cands)],
            "error: fusion ring file: associativity fails at (a,a,b;1)")


def _candidate_off_the_ring(tmp_path):
    path = tmp_path / "c.json"
    jsonio.write_json(str(path), [{"name": "z", "object": ["nope"], "jdim": 1}])
    return (["obstruction", "--ring", "fib", "--candidates", str(path)],
            "error: candidates file: [0].object[0]: 'nope' is not one of the labels")


def _candidate_without_jdim(tmp_path):
    path = tmp_path / "c.json"
    jsonio.write_json(str(path), [{"name": "z", "object": ["nu"]}])
    return (["obstruction", "--ring", "fib", "--candidates", str(path)],
            "error: candidates file: [0] is not an object")


def _k_module_out_of_range(tmp_path):
    path = tmp_path / "b2.json"
    jsonio.write_json(str(path), jsonio.algebra_to_json(build_b_g_omega(cyclic_group(2),
                                                                        standard_cocycle(2, 1))))
    return (["rep", "tensor", "--algebra", str(path), "--left", "k:2", "--right", "regular"],
            "error: bad module spec 'k:2': need 0 <= g < 2")


def _k_module_of_a_cocycle_file(tmp_path):
    # the meta names the cocycle "omega": no catalog cocycle to rebuild K(g) from
    coc, path = tmp_path / "w.json", tmp_path / "b2.json"
    jsonio.write_json(str(coc), jsonio.cocycle_to_json(standard_cocycle(2, 1)))
    assert main(["build", "b-g-omega", "--group", "z2", "--cocycle", str(coc), "-o", str(path)]) == 0
    return (["rep", "tensor", "--algebra", str(path), "--left", "k:1", "--right", "regular"],
            "error: algebra file: meta cocycle 'omega' is neither 'trivial' nor")


def _module_of_another_conductor(tmp_path):
    # Q(zeta_2) = Q, but reading a module over another conductor needs an embedding
    alg, zero = tmp_path / "h4.json", tmp_path / "zero.json"
    jsonio.write_json(str(alg), jsonio.algebra_to_json(sweedler_h4()))
    jsonio.write_json(str(zero), ZERO_MODULE)
    return (["rep", "iso", "--algebra", str(alg), "--left", str(zero), "--right", "regular"],
            "error: module file: conductor 2 differs from the algebra's conductor 1")


def _missing_candidates_file(tmp_path):
    path = tmp_path / "missing.json"
    return (["obstruction", "--ring", "fib", "--candidates", str(path)],
            f"error: {path}: cannot read: ")


def _missing_ring_file(tmp_path):
    path = tmp_path / "missing.json"
    return ["obstruction", "--ring", str(path)], f"error: {path}: cannot read: "


def _nonpositive_level(tmp_path):
    return (["tube", "morita", "--group", "z2", "--cocycle", "p=1", "--m", "0"],
            "error: --m must be >= 1")


@pytest.mark.parametrize("bad_input", [
    _malformed_json, _cocycle_out_of_range, _duplicate_labels, _group_that_is_no_group,
    _ring_with_an_unknown_label, _ring_that_is_not_associative, _candidate_off_the_ring,
    _candidate_without_jdim, _k_module_out_of_range,
    _k_module_of_a_cocycle_file, _module_of_another_conductor, _missing_candidates_file,
    _missing_ring_file, _nonpositive_level])
def test_bad_input_exits_2_with_one_line(tmp_path, bad_input):
    argv, message = bad_input(tmp_path)
    proc = run_process(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), proc.stderr


def test_internal_error_propagates_instead_of_exiting_2(tmp_path, monkeypatch, capsys):
    # exit 2 means bad input; a failure inside whalg is not reported as one
    b2 = tmp_path / "b2.json"
    assert run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=0", "-o", str(b2)) == 0
    monkeypatch.setattr(cli, "verify_antipode", _internal_error)
    with pytest.raises(ValueError, match="singular matrix"):
        run("verify", str(b2), "--suite", "wha")
    assert "error:" not in capsys.readouterr().err


def test_qt_heavy_commands_reproduce_the_benchmark_digests(tmp_path, capsys):
    # the benchmark's qt-heavy build and --json verify commands, on A(Z2, p=1):
    # the algebra, R-matrix and report bytes are those perfbench/digests.json pins
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "digests.json")) as fh:
        expected = json.load(fh)["z2 p=1"]
    alg, rmat = tmp_path / "algebra.json", tmp_path / "rmatrix.json"
    assert run("build", "a-g-omega", "--group", "z2", "--cocycle", "p=1",
               "-o", str(alg), "--rmatrix-out", str(rmat)) == 0
    capsys.readouterr()
    assert run("--json", "verify", str(alg), "--suite", "all", "--rmatrix", str(rmat)) == 0
    sha = lambda data: hashlib.sha256(data).hexdigest()
    assert {"algebra": sha(alg.read_bytes()), "rmatrix": sha(rmat.read_bytes()),
            "report": sha(capsys.readouterr().out.encode())} == expected


@pytest.mark.parametrize("key", ["z2 p=1", "z6 p=1", "z6 p=2", "z6 p=4", "z6 p=5"])
def test_builds_reproduce_every_benchmark_algebra_and_rmatrix_digest(tmp_path, key):
    # every case the qt-heavy workload can draw, built in-process and written
    # by `write_algebra` and the R-matrix writer
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "digests.json")) as fh:
        expected = json.load(fh)[key]
    group, p = key.split()
    alg, rmat = tmp_path / "algebra.json", tmp_path / "rmatrix.json"
    assert run("build", "a-g-omega", "--group", group, "--cocycle", p,
               "-o", str(alg), "--rmatrix-out", str(rmat)) == 0
    sha = lambda data: hashlib.sha256(data).hexdigest()
    assert (sha(alg.read_bytes()), sha(rmat.read_bytes())) == (expected["algebra"], expected["rmatrix"])
