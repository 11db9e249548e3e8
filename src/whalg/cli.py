"""Command-line front end: build, verify, compare, report, plus the rep,
tube, and double subfamilies.  Exit codes: 0 pass, 1 verified failure,
2 usage or input error; any other error propagates with its traceback.
`rep iso` exits 1 when no isomorphism is proven: not-isomorphic or undecided.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import re
import sys

from . import jsonio
from .builders import (
    build_a_g_omega,
    build_a_m_c,
    build_b_g_omega,
    build_frobenius_double,
    build_groupoid_algebra,
    group_as_groupoid,
    indiscrete_groupoid,
    standard_frobenius,
)
from .groups import catalog_group, standard_cocycle, trivial_cocycle, validate_cocycle
from .skeleton import fib_fusion_ring, pointed_skeleton, validate_module_pentagon, validate_pentagon
from .wha import (
    RMatrixCandidate,
    base_algebras,
    center_dim,
    compare_structure,
    is_cocommutative,
    verify_antipode,
    verify_quasitriangular,
    verify_weak_bialgebra,
    weak_inverse,
)


class UsageError(Exception):
    pass


def _load_group(spec):
    if spec is None:
        raise UsageError("missing --group")
    if os.path.exists(spec):
        return jsonio.group_from_json(jsonio.read_json(spec))
    try:
        return catalog_group(spec)
    except KeyError as exc:
        raise UsageError(exc.args[0])


def _load_cocycle(spec, G):
    if spec in (None, "trivial"):
        return trivial_cocycle(G)
    if os.path.exists(spec):
        omega = jsonio.cocycle_from_json(jsonio.read_json(spec), G)
        rep = validate_cocycle(G, omega)
        if not rep.ok:
            raise UsageError(f"invalid cocycle file: {rep.first_failure}")
        return omega
    if spec.startswith("p="):
        try:
            p = int(spec[2:])
        except ValueError:
            raise UsageError(f"bad cocycle spec {spec!r}")
        return _standard_cocycle(G, p)
    raise UsageError(f"bad cocycle spec {spec!r} (use p=<int>, trivial, or a file)")


def _standard_cocycle(G, p):
    """omega_p on G; UsageError unless G is cyclic and 0 <= p < |G|."""
    if not 0 <= p < G.order:
        raise UsageError(f"standard cocycle p={p}: need 0 <= p < {G.order}")
    w = standard_cocycle(G.order, p)
    if w.group.table != G.table:
        raise UsageError("standard cocycles are defined on cyclic groups only")
    return w


def _coherent(rep, what):
    """Raise InputError naming a `what` file whose coherence check failed."""
    if not rep.ok:
        raise jsonio.InputError(f"{what} file: {rep.first_failure}")


def _load_skeleton(path):
    C = jsonio.skeleton_from_json(jsonio.read_json(path))
    _coherent(C.ring.validate(), "skeleton")
    _coherent(validate_pentagon(C), "skeleton")
    return C


def _positive(n, flag):
    if n < 1:
        raise UsageError(f"{flag} must be >= 1")
    return n


def _print_report(rep, as_json):
    if as_json:
        sys.stdout.write(jsonio.dumps(rep.to_json()))
    else:
        print(rep.render())


def cmd_build(args):
    kind = args.kind
    if kind in ("b-g-omega", "a-g-omega"):
        G = _load_group(args.group)
        omega = _load_cocycle(args.cocycle, G)
        if kind == "b-g-omega":
            A = build_b_g_omega(G, omega)
            R = None
        else:
            A, R = build_a_g_omega(G, omega)
    elif kind == "a-m-c":
        if not args.skeleton or not args.module:
            raise UsageError("a-m-c needs --skeleton and --module files")
        C = _load_skeleton(args.skeleton)
        M = jsonio.module_from_json(jsonio.read_json(args.module), C)
        _coherent(validate_module_pentagon(M), "skeletal module")
        A = build_a_m_c(C, M)
        R = None
    elif kind == "groupoid":
        if args.indiscrete is not None:
            gpd = indiscrete_groupoid(_positive(args.indiscrete, "--indiscrete"))
        elif args.group is not None:
            gpd = group_as_groupoid(_load_group(args.group))
        else:
            raise UsageError("groupoid needs --indiscrete N or --group")
        A = build_groupoid_algebra(gpd)
        R = None
    elif kind == "frobenius-double":
        if args.diagonal is not None:
            B = standard_frobenius("diagonal", _positive(args.diagonal, "--diagonal"))
        elif args.matrix is not None:
            B = standard_frobenius("matrix", _positive(args.matrix, "--matrix"))
        else:
            raise UsageError("frobenius-double needs --diagonal N or --matrix N")
        A = build_frobenius_double(B)
        R = None
    else:
        raise UsageError(f"unknown build kind {kind!r}")
    if args.out:
        jsonio.write_algebra(args.out, A)
    if R is not None and args.rmatrix_out:
        jsonio.write_json(args.rmatrix_out, jsonio.rmatrix_to_json(A, R))
    print(f"dim {A.dim} conductor {A.conductor}")
    return 0


def _load_rmatrix(path, A):
    obj = jsonio.read_json(path)
    R = jsonio.rmatrix_from_json(obj)
    if (obj["dim"], obj["conductor"]) != (A.dim, A.conductor):
        raise UsageError(
            f"R-matrix dim {obj['dim']}, conductor {obj['conductor']} differs from the "
            f"algebra's dim {A.dim}, conductor {A.conductor}"
        )
    return R


def cmd_verify(args):
    A = jsonio.algebra_from_json(jsonio.read_json(args.file))
    if args.suite == "qt" and not args.rmatrix:
        raise UsageError("suite qt needs --rmatrix FILE")
    if args.suite in ("wha", "base") and args.rmatrix:
        raise UsageError(f"--rmatrix is read only by --suite qt and all, not by --suite {args.suite}")
    R = None
    if args.suite in ("qt", "all") and args.rmatrix:
        R = _load_rmatrix(args.rmatrix, A)
    suites = []
    if args.suite in ("wha", "all"):
        suites.append(verify_weak_bialgebra(A))
        suites.append(verify_antipode(A))
    if args.suite in ("base", "all"):
        suites.append(base_algebras(A).report)
    if R is not None:
        suites.append(verify_quasitriangular(A, R))
    ok = True
    for rep in suites:
        _print_report(rep, args.json)
        ok = ok and rep.ok
    return 0 if ok else 1


def cmd_compare(args):
    A = jsonio.algebra_from_json(jsonio.read_json(args.a))
    B = jsonio.algebra_from_json(jsonio.read_json(args.b))
    if A.dim != B.dim:
        raise UsageError(f"dimension mismatch: {A.dim} vs {B.dim}")
    if args.map:
        index_map = jsonio.read_json(args.map)
        if not (isinstance(index_map, list) and all(type(i) is int for i in index_map)
                and sorted(index_map) == list(range(A.dim))):
            raise UsageError("--map must be a bijective index list")
    else:
        try:
            index_map = [B.label_index[lab] for lab in A.labels]
        except KeyError:
            raise UsageError("labels do not match; provide --map")
    rep = compare_structure(A, B, index_map)
    _print_report(rep, args.json)
    return 0 if rep.ok else 1


def cmd_report(args):
    A = jsonio.algebra_from_json(jsonio.read_json(args.file))
    ba = base_algebras(A)
    print(f"dim {A.dim}")
    print(f"conductor {A.conductor}")
    print(f"dim A^l {ba.dim_l}")
    print(f"dim A^r {ba.dim_r}")
    print(f"center_dim {center_dim(A)}")
    print(f"cocommutative {str(is_cocommutative(A)).lower()}")
    return 0


def _meta_group_cocycle(A):
    """The catalog group and the trivial or standard cocycle that the meta
    of a b-g-omega algebra names; the algebra's labels must be those of the
    build of that group."""
    meta = A.meta if isinstance(A.meta, dict) else {}
    if meta.get("builder") != "b-g-omega":
        raise UsageError("k:<g> modules exist for b-g-omega algebras only")
    group, name = meta.get("group"), str(meta.get("cocycle", "trivial"))
    try:
        G = catalog_group(str(group))
    except KeyError:
        raise jsonio.InputError(f"algebra file: meta group {group!r} is not a catalog group")
    standard = re.fullmatch(r"standard\(p=(\d+)\)", name)
    if name == "trivial":
        omega = trivial_cocycle(G)
    elif standard:
        omega = _standard_cocycle(G, int(standard.group(1)))
    else:
        raise jsonio.InputError(f"algebra file: meta cocycle {name!r} is neither 'trivial' nor "
                                f"a standard cocycle of {G.name}")
    if any(("f", a, y, x) not in A.label_index
           for a, y, x in itertools.product(range(G.order), repeat=3)):
        raise jsonio.InputError(f"algebra file: labels are not those of B({G.name}, omega)")
    return G, omega


def _load_module(spec, A):
    from .repcat import k_module, regular_module, tensor_unit, validate_module

    if spec == "regular":
        return regular_module(A)
    if spec == "unit":
        return tensor_unit(A)
    if spec.startswith("k:"):
        try:
            g = int(spec[2:])
        except ValueError:
            raise UsageError(f"bad module spec {spec!r}: k:<g> needs an integer g")
        G, omega = _meta_group_cocycle(A)
        if not 0 <= g < G.order:
            raise UsageError(f"bad module spec {spec!r}: need 0 <= g < {G.order}")
        return k_module(A, G, omega, g)
    if os.path.exists(spec):
        V = jsonio.wha_module_from_json(jsonio.read_json(spec), A)
        rep = validate_module(A, V)
        if not rep.ok:
            raise jsonio.InputError(f"module file: {rep.first_failure.detail}")
        return V
    raise UsageError(f"bad module spec {spec!r} (regular, unit, k:<g>, or a file)")


def cmd_rep(args):
    from .repcat import (
        braid_relation_check,
        braiding_check,
        coherence_check,
        modules_isomorphic,
        tensor_product,
        validate_module,
    )

    A = jsonio.algebra_from_json(jsonio.read_json(args.algebra))
    V = _load_module(args.left, A)
    W = _load_module(args.right, A)
    if args.action == "tensor":
        prod = tensor_product(V, W)
        rep = validate_module(A, prod.module)
        print(f"dim {prod.module.dim}")
        _print_report(rep, args.json)
        return 0 if rep.ok else 1
    if args.action == "iso":
        ok = modules_isomorphic(V, W)
        print({True: "isomorphic", False: "not-isomorphic", None: "undecided"}[ok])
        return 0 if ok else 1
    if args.action == "coherence":
        U = _load_module(args.third, A) if args.third else W
        rep = coherence_check(V, W, U)
        _print_report(rep, args.json)
        return 0 if rep.ok else 1
    if args.action == "braid":
        if not args.rmatrix:
            raise UsageError("rep braid needs --rmatrix FILE")
        R = _load_rmatrix(args.rmatrix, A)
        qt = verify_quasitriangular(A, R)
        rep, _c, _vw, _wv = braiding_check(A, R, V, W)
        U = _load_module(args.third, A) if args.third else W
        ok = braid_relation_check(A, R, V, W, U)
        rep.add("braid-relation", ok, None if ok else "braid relation fails")
        rep.checks = qt.checks + rep.checks
        _print_report(rep, args.json)
        return 0 if rep.ok else 1
    raise UsageError(f"unknown rep action {args.action!r}")


def _pointed_from_args(args):
    G = _load_group(args.group)
    omega = _load_cocycle(args.cocycle, G)
    return pointed_skeleton(G, omega)


def cmd_tube(args):
    from .tube import (
        build_tube,
        build_tube_prime,
        chi_iso,
        solve_pivotal,
        tube_vs_tube_prime,
        verify_morita_section,
    )

    if args.action == "build":
        from .tube import TubeFamily

        if args.skeleton:
            C = _load_skeleton(args.skeleton)
        else:
            C = _pointed_from_args(args)
        level = _positive(args.level, "--level")
        if args.primed:
            T = build_tube_prime(C, level)
        elif level == 1:
            T = build_tube(C)
        else:
            T = TubeFamily(C).algebra(level)
        rep = T.validate()
        print(f"dim {T.dim} center_dim {center_dim(T)}")
        _print_report(rep, args.json)
        return 0 if rep.ok else 1
    if args.action == "chi":
        C = _pointed_from_args(args)
        _map, _t2, rep = chi_iso(C)
        _print_report(rep, args.json)
        return 0 if rep.ok else 1
    if args.action == "morita":
        C = _pointed_from_args(args)
        rep = verify_morita_section(C, _positive(args.m, "--m"), _positive(args.n, "--n"))
        _print_report(rep, args.json)
        return 0 if rep.ok else 1
    if args.action == "pivotal":
        C = _pointed_from_args(args)
        rep = tube_vs_tube_prime(C, solve_pivotal(C))
        _print_report(rep, args.json)
        return 0 if rep.ok else 1
    raise UsageError(f"unknown tube action {args.action!r}")


def _run_obstruction(args):
    from .tube import weak_bialgebra_obstruction

    if args.ring == "fib":
        ring = fib_fusion_ring()
    else:
        ring = jsonio.fusion_ring_from_json(jsonio.read_json(args.ring))
    if args.candidates is not None:
        cands = jsonio.candidates_from_json(jsonio.read_json(args.candidates))
    elif args.ring == "fib":
        cands = [{"name": "z", "object": ["nu"], "jdim": 1}]
    else:
        raise UsageError("obstruction needs --candidates FILE")
    rep, pairs = weak_bialgebra_obstruction(ring, cands)
    _print_report(rep, args.json)
    for z, zp, total, bound in pairs:
        print(f"obstructed: {z.get('name')} (x) {zp.get('name')}: {total} > {bound}")
    return 0 if rep.ok else 1


def cmd_double(args):
    from .double import build_drinfeld_double, build_pairing, sharp_iso

    C = _pointed_from_args(args)
    if args.action == "build":
        P = build_pairing(C)
        _print_report(P.report, args.json)
        if not P.report.ok:
            return 1
        dbl = build_drinfeld_double(P)
        D = dbl.algebra
        rep = verify_weak_bialgebra(D)
        rep2 = verify_antipode(D)
        rep3 = verify_quasitriangular(D, dbl.r)
        if args.out:
            jsonio.write_algebra(args.out, D)
        if args.rmatrix_out:
            # the file carries R's checked weak inverse when it has one
            R = RMatrixCandidate(dbl.r.terms, weak_inverse(D, dbl.r))
            jsonio.write_json(args.rmatrix_out, jsonio.rmatrix_to_json(D, R))
        print(f"dim {D.dim} conductor {D.conductor}")
        for rep_i in (rep, rep2, rep3):
            _print_report(rep_i, args.json)
        return 0 if (rep.ok and rep2.ok and rep3.ok) else 1
    if args.action == "sharp":
        rep, _dbl, _abox = sharp_iso(C)
        _print_report(rep, args.json)
        return 0 if rep.ok else 1
    raise UsageError(f"unknown double action {args.action!r}")


def make_parser():
    p = argparse.ArgumentParser(
        prog="whalg",
        description="exact constructors and verifiers for weak Hopf algebras",
    )
    p.add_argument("--json", action="store_true", help="machine-readable reports")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an algebra and write it to JSON")
    b.add_argument("kind", choices=["b-g-omega", "a-g-omega", "a-m-c", "groupoid", "frobenius-double"])
    b.add_argument("--group")
    b.add_argument("--cocycle")
    b.add_argument("--skeleton")
    b.add_argument("--module")
    b.add_argument("--indiscrete", type=int)
    b.add_argument("--diagonal", type=int)
    b.add_argument("--matrix", type=int)
    b.add_argument("-o", "--out")
    b.add_argument("--rmatrix-out")
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="run a verifier suite on an algebra file")
    v.add_argument("file")
    v.add_argument("--suite", choices=["wha", "qt", "base", "all"], default="all")
    v.add_argument("--rmatrix", help="R-matrix file, read by --suite qt and all")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("compare", help="entrywise structure comparison")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("--map")
    c.set_defaults(fn=cmd_compare)

    r = sub.add_parser("report", help="derived quantities of an algebra file")
    r.add_argument("file")
    r.set_defaults(fn=cmd_report)

    rep = sub.add_parser("rep", help="representation-category operations")
    rep.add_argument("action", choices=["tensor", "iso", "coherence", "braid"])
    rep.add_argument("--algebra", required=True)
    rep.add_argument("--left", required=True)
    rep.add_argument("--right", required=True)
    rep.add_argument("--third")
    rep.add_argument("--rmatrix")
    rep.set_defaults(fn=cmd_rep)

    t = sub.add_parser("tube", help="tube algebras and the Morita tower")
    t.add_argument("action", choices=["build", "chi", "morita", "pivotal"])
    t.add_argument("--skeleton")
    t.add_argument("--group")
    t.add_argument("--cocycle")
    t.add_argument("--level", type=int, default=1)
    t.add_argument("--primed", action="store_true")
    t.add_argument("--m", type=int, default=1)
    t.add_argument("--n", type=int, default=2)
    t.set_defaults(fn=cmd_tube)

    o = sub.add_parser("obstruction", help="fusion-ring obstruction detector")
    o.add_argument("--ring", required=True)
    o.add_argument("--candidates")
    o.set_defaults(fn=_run_obstruction)

    d = sub.add_parser("double", help="pairing, double, and the sharp map")
    d.add_argument("action", choices=["build", "sharp"])
    d.add_argument("--group")
    d.add_argument("--cocycle")
    d.add_argument("-o", "--out")
    d.add_argument("--rmatrix-out")
    d.set_defaults(fn=cmd_double)

    return p


def main(argv=None):
    """Run one whalg command; returns its exit code.

    0 means every check passed and 1 that a verified law failed.  2 means a
    usage or input error (`UsageError`, `jsonio.InputError`, a missing
    file), reported as one `error:` line on stderr.  Any other exception is
    an internal error and propagates with its traceback.

    The command runs with Python's cyclic garbage collector off, and the
    collector's prior state is restored on return.  whalg's structures hold
    no reference cycles (`tests/test_wha.py` pins this), so every collection
    would scan the hundreds of thousands of small containers of a large
    algebra and free nothing.
    """
    parser = make_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except (UsageError, jsonio.InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
