import json
import os
import subprocess
import sys

import pytest

from whalg import jsonio
from whalg.builders import build_a_g_omega, build_a_m_c, build_b_g_omega
from whalg.cli import main
from whalg.groups import cyclic_group, standard_cocycle, symmetric_group_3, trivial_cocycle
from whalg.skeleton import boxtimes_rev_skeleton, pointed_skeleton, right_regular_module
from whalg.wha import compare_structure


def run(*argv):
    return main(list(argv))


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


def test_verify_missing_rmatrix_exits_2(tmp_path):
    out = tmp_path / "b2.json"
    run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=0", "-o", str(out))
    assert run("verify", str(out), "--suite", "qt") == 2


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


def test_tube_cli(tmp_path, capsys):
    assert run("tube", "build", "--group", "z2", "--cocycle", "trivial") == 0
    assert "dim 4 center_dim 4" in capsys.readouterr().out
    assert run("tube", "build", "--group", "z2", "--cocycle", "p=1", "--level", "2") == 0
    assert "dim 16" in capsys.readouterr().out
    assert run("tube", "build", "--group", "z2", "--cocycle", "p=1", "--level", "2", "--primed") == 0
    assert run("tube", "chi", "--group", "z3", "--cocycle", "p=1") == 0
    assert run("tube", "morita", "--group", "z2", "--cocycle", "p=1", "--m", "1", "--n", "2") == 0
    assert run("tube", "pivotal", "--group", "z3", "--cocycle", "p=1") == 0


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


def test_double_cli(tmp_path):
    assert run("double", "sharp", "--group", "z2", "--cocycle", "p=1") == 0
    out = tmp_path / "d.json"
    assert run("double", "build", "--group", "z2", "--cocycle", "p=0", "-o", str(out)) == 0
    assert run("verify", str(out), "--suite", "wha") == 0


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
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "whalg.cli", "verify", str(bad), "--suite", "wha"],
                          capture_output=True, text=True, env=env)
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


def _tamper_float_coefficient(obj):
    i, j, k, enc = obj["mu"][0]
    enc["coeffs"][0] = [1.5, 1]
    return f"mu[{i}, {j}, {k}]"


def _tamper_zero_denominator(obj):
    i, j, k, enc = obj["mu"][0]
    enc["coeffs"][0] = [1, 0]
    return f"mu[{i}, {j}, {k}]"


@pytest.mark.parametrize("tamper", [_tamper_mu_index, _tamper_labels,
                                    _tamper_float_coefficient, _tamper_zero_denominator])
def test_malformed_algebra_file_exits_2_naming_the_entry(tmp_path, tamper):
    out = tmp_path / "b2.json"
    assert run("build", "b-g-omega", "--group", "z2", "--cocycle", "p=1", "-o", str(out)) == 0
    obj = jsonio.read_json(str(out))
    where = tamper(obj)
    bad = tmp_path / "bad.json"
    jsonio.write_json(str(bad), obj)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "whalg.cli", "verify", str(bad), "--suite", "wha"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1 and where in proc.stderr


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
