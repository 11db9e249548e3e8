"""The four workloads: seeded inputs, timed rounds and the correctness gate.

A workload's constructor is its input generation (it runs before the first
timed call and counts as set-up).  `run(rnd, r)` makes round `r`: one pass
over every case, closed loop, one case after another.  Every call into whalg
goes through `Round.build` or `Round.verify`, which time it, and every
verdict, dimension, base/centre fact and digest goes through `Round.expect`.

Calls reach whalg through module attributes (`wha.verify_antipode`, not a
name imported here), so a tracer installed for a round sees them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

# every whalg module is imported here, before any tracer is installed, so no
# module can bind a traced wrapper by name and keep it after the round
import whalg.cli  # noqa: F401
from whalg import builders, double, exactmath, groups, jsonio, repcat, skeleton, tube, wha

import pace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")
GOLDEN = 0.6180339887498949  # spreads mutant positions evenly across rounds


class Round:
    """Timings and verdict checks of one round.

    With a `pace.Pace` sampler, each call's time excludes the probes taken
    during it, and the host-speed samples taken during build and during
    verify calls are pooled per kind, so `at_ref` can read those times at the
    reference speed."""

    def __init__(self, tracer=None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler
        self.build_s = 0.0
        self.verify_s = 0.0
        self.speed = {"build": [0, 0.0], "verify": [0, 0.0]}  # samples, speed sum
        self.checks = 0
        self.wrong = []
        self.kept = []  # artifacts whose scalars feed the kernel-rate probe

    def _timed(self, kind, fn, args, kwargs):
        mark = self.sampler.mark() if self.sampler is not None else None
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t
        if mark is not None:
            n, speed_sum, probe_ns = self.sampler.since(mark)
            dt -= probe_ns / 1e9
            self.speed[kind][0] += n
            self.speed[kind][1] += speed_sum
        return out, dt

    def build(self, fn, *args, **kwargs):
        out, dt = self._timed("build", fn, args, kwargs)
        self.build_s += dt
        return out

    def verify(self, fn, *args, **kwargs):
        out, dt = self._timed("verify", fn, args, kwargs)
        self.verify_s += dt
        return out

    def at_ref(self, kind, round_speed):
        """Seconds of `kind` calls at the reference speed: at the mean speed
        sampled during them, or at the round's if they took no sample.  (The
        round's mean is a poor stand-in: the host's speed changes within a
        round.)"""
        n, speed_sum = self.speed[kind]
        speed = speed_sum / n if n else round_speed
        return (self.build_s if kind == "build" else self.verify_s) * speed

    def expect(self, what, got, want):
        self.checks += 1
        if got != want:
            self.wrong.append(f"{what}: got {got!r}, expected {want!r}")

    def keep(self, item):
        if self.tracer is not None:
            self.kept.append(item)


class Settings:
    """Where a workload writes, and the self-check switches."""

    def __init__(self, work_dir, small=False, plant=False, forked=True):
        self.work_dir = work_dir
        self.small = small    # smallest instance of the workload
        self.plant = plant    # plant one fault the gate must count
        self.forked = forked  # catalog sweeps fork over two workers


def cocycle(n, p):
    """(G, omega) for Z_n: trivial at conductor n when p == 0."""
    if p == 0:
        G = groups.catalog_group(f"z{n}")
        return G, groups.trivial_cocycle(G, conductor=n)
    w = groups.standard_cocycle(n, p)
    return w.group, w


def sha256_file(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# qt-heavy: the CLI path on A(Z6, p), build then verify, one process each
# ---------------------------------------------------------------------------

SUITES_ALL = ["weak-bialgebra", "antipode", "base-algebras", "quasi-triangular"]


def cli_command(group, p, algebra, rmatrix):
    """The two whalg command lines of one qt-heavy case."""
    return (
        ["build", "a-g-omega", "--group", group, "--cocycle", f"p={p}",
         "-o", algebra, "--rmatrix-out", rmatrix],
        ["--json", "verify", algebra, "--suite", "all", "--rmatrix", rmatrix],
    )


class QtHeavy:
    def __init__(self, seed, settings):
        rng = random.Random(seed)
        # p in {1, 2, 4, 5} keeps every scalar irrational
        self.order, self.p = (2, 1) if settings.small else (6, rng.choice([1, 2, 4, 5]))
        self.group = f"z{self.order}"
        self.expected = dict(load_digests()[f"{self.group} p={self.p}"])
        if settings.plant:
            good = self.expected["algebra"]
            self.expected["algebra"] = ("0" if good[0] != "0" else "1") + good[1:]
        self.algebra = os.path.join(settings.work_dir, "algebra.json")
        self.rmatrix = os.path.join(settings.work_dir, "rmatrix.json")
        self.trace_out = os.path.join(settings.work_dir, "cli-trace.json")
        self.pace_out = os.path.join(settings.work_dir, "cli-pace.json")

    def _cli(self, rnd, timer, args):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "cli_entry.py")]
        if rnd.tracer is not None:
            cmd += ["--trace-out", self.trace_out]
        if rnd.sampler is not None:
            cmd += ["--pace-out", self.pace_out]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), WHALG_THREADS="1")
        span = rnd.tracer.open("bench.process") if rnd.tracer is not None else None
        proc = timer(self._child, rnd.sampler, cmd + args, env)
        if span is not None:
            rnd.tracer.close(span)
            with open(self.trace_out) as fh:
                rnd.tracer.absorb(json.load(fh), span)
        return proc

    def _child(self, sampler, cmd, env):
        if sampler is None:
            return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True)
        # the child samples the host itself; the parent only waits
        with sampler.paused():
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True)
        sampler.absorb(pace.read(self.pace_out))
        return proc

    def run(self, rnd, r):
        build_args, verify_args = cli_command(self.group, self.p, self.algebra, self.rmatrix)
        for path in (self.algebra, self.rmatrix):
            if os.path.exists(path):
                os.remove(path)
        proc = self._cli(rnd, rnd.build, build_args)
        rnd.expect("build exit code", proc.returncode, 0)
        rnd.expect("build output", proc.stdout.decode(),
                   f"dim {self.order ** 4} conductor {self.order}\n")
        rnd.expect("algebra digest", sha256_file(self.algebra), self.expected["algebra"])
        rnd.expect("R-matrix digest", sha256_file(self.rmatrix), self.expected["rmatrix"])
        proc = self._cli(rnd, rnd.verify, verify_args)
        rnd.expect("verify exit code", proc.returncode, 0)
        rnd.expect("report digest", hashlib.sha256(proc.stdout).hexdigest(), self.expected["report"])
        try:
            verdicts = [(x["suite"], x["ok"]) for x in map(json.loads, proc.stdout.splitlines())]
        except (ValueError, KeyError, TypeError):
            verdicts = None
        rnd.expect("suite verdicts", verdicts, [(s, True) for s in SUITES_ALL])
        rnd.keep(self.algebra)
        rnd.keep(self.rmatrix)


# ---------------------------------------------------------------------------
# catalog: every B(G, w) and every A(G, w) with |G| <= 4, all suites
# ---------------------------------------------------------------------------

CATALOG = ["z2", "z3", "z4", "z2xz2", "s3", "z6"]
# sweeps fork over two workers at dim >= 64, as the acceptance suite does; a
# run that samples the host's speed sweeps serially instead, because forked
# workers would run unsampled on CPUs of their own
THREADS = 2


class Catalog:
    def __init__(self, seed, settings):
        self.threads = THREADS if settings.forked else 1
        self.cases = []
        for name in (["z2"] if settings.small else CATALOG):
            G = groups.catalog_group(name)
            if name.startswith("z") and "x" not in name:
                pairs = [cocycle(G.order, p) for p in range(G.order)]
            else:
                pairs = [(G, groups.trivial_cocycle(G))]
            for G, w in pairs:
                self.cases.append(("B", name, G, w))
                if G.order <= 4:
                    self.cases.append(("A", name, G, w))
        random.Random(seed).shuffle(self.cases)

    def run(self, rnd, r):
        for kind, name, G, w in self.cases:
            label = f"{kind}({name}, {w.name})"
            n = G.order
            if kind == "B":
                X, R = rnd.build(builders.build_b_g_omega, G, w), None
            else:
                X, R = rnd.build(builders.build_a_g_omega, G, w)
            rnd.expect(f"{label} dim", X.dim, n ** 3 if R is None else n ** 4)
            rnd.expect(f"{label} weak-bialgebra", rnd.verify(wha.verify_weak_bialgebra, X, threads=self.threads).ok, True)
            rnd.expect(f"{label} antipode", rnd.verify(wha.verify_antipode, X, threads=self.threads).ok, True)
            base = rnd.verify(wha.base_algebras, X)
            rnd.expect(f"{label} base-algebras", base.report.ok, True)
            rnd.expect(f"{label} dim A^l", base.dim_l, n)
            # centre: |G| for B; |G|^2 simple objects of the Drinfeld centre
            # for A (every A case here has an abelian group)
            rnd.expect(f"{label} center_dim", rnd.verify(wha.center_dim, X), n if R is None else n * n)
            if R is not None:
                rnd.expect(f"{label} quasi-triangular",
                           rnd.verify(wha.verify_quasitriangular, X, R, threads=self.threads).ok, True)
            rnd.keep((X, R))


# ---------------------------------------------------------------------------
# tower: tube', the Drinfeld double and repcat -- the code outside the sweeps
# ---------------------------------------------------------------------------


class Tower:
    def __init__(self, seed, settings):
        rng = random.Random(seed)
        if settings.small:
            self.n_tube, self.n_double, self.n_rep, self.n_rt = 2, 2, 2, 2
            p_tube = p_double = p_rep = p_rt = 1
        else:
            self.n_tube, self.n_double, self.n_rep, self.n_rt = 3, 4, 6, 3
            p_tube, p_double, p_rt = rng.choice([1, 2]), rng.choice([1, 3]), rng.choice([1, 2])
            p_rep = rng.choice([1, 2, 4, 5])
        self.C_tube = skeleton.pointed_skeleton(*cocycle(self.n_tube, p_tube))
        self.C_double = skeleton.pointed_skeleton(*cocycle(self.n_double, p_double))
        self.G_rep, self.w_rep = cocycle(self.n_rep, p_rep)
        self.G_rt, self.w_rt = cocycle(self.n_rt, p_rt)
        g = self.G_rep
        self.a, self.b, self.c = (rng.choice(g.elements()) for _ in range(3))
        shift = rng.choice([x for x in g.elements() if x != g.identity])
        self.not_ab = g.mul(g.mul(self.a, self.b), shift)

    def run(self, rnd, r):
        # tube' level 2 and the Morita tower
        n = self.n_tube
        T = rnd.build(tube.build_tube_prime, self.C_tube, 2)
        rnd.expect("tube' dim", T.dim, n ** 4)
        rnd.expect("tube' associative and unital", rnd.verify(T.validate).ok, True)
        rnd.expect("tube' center_dim", rnd.verify(wha.center_dim, T), n * n)
        _chi, tp2, chi_rep = rnd.verify(tube.chi_iso, self.C_tube)
        rnd.expect("chi is an algebra isomorphism", chi_rep.ok, True)
        rnd.expect("chi target dim", tp2.dim, n ** 4)
        rnd.expect("Morita section", rnd.verify(tube.verify_morita_section, self.C_tube, 1, 2).ok, True)
        rnd.expect("tower associativity",
                   rnd.verify(tube.tube_generalized_associativity, self.C_tube).ok, True)

        # the Drinfeld double and the sharp map
        n = self.n_double
        P = rnd.build(double.build_pairing, self.C_double)
        rnd.expect("pairing report", P.report.ok, True)
        rnd.expect("pairing rank", rnd.verify(P.matrix.rank), n ** 3)
        dbl = rnd.build(double.build_drinfeld_double, P)
        D = dbl.algebra
        rnd.expect("double dim", D.dim, n ** 4)
        rnd.expect("double weak-bialgebra", rnd.verify(wha.verify_weak_bialgebra, D, threads=1).ok, True)
        rnd.expect("double antipode", rnd.verify(wha.verify_antipode, D, threads=1).ok, True)
        rnd.expect("double quasi-triangular",
                   rnd.verify(wha.verify_quasitriangular, D, dbl.r, threads=1).ok, True)
        rnd.expect("sharp map", rnd.verify(double.sharp_iso, self.C_double, double=dbl, pairing=P)[0].ok, True)
        rnd.keep((D, dbl.r))

        # repcat on B(Z6, p): tensor, iso, unit, coherence
        G, w = self.G_rep, self.w_rep
        B = rnd.build(builders.build_b_g_omega, G, w)
        mods = {g: rnd.build(repcat.k_module, B, G, w, g)
                for g in {self.a, self.b, self.c, G.mul(self.a, self.b), self.not_ab}}
        prod = rnd.verify(repcat.tensor_product, mods[self.a], mods[self.b]).module
        rnd.expect("K(a).K(b) = K(ab)",
                   rnd.verify(repcat.modules_isomorphic, prod, mods[G.mul(self.a, self.b)]), True)
        rnd.expect("K(a).K(b) != K(abg)", rnd.verify(repcat.modules_isomorphic, prod, mods[self.not_ab]), False)
        unit = rnd.verify(repcat.tensor_unit, B)
        rnd.expect("tensor unit dim", unit.dim, G.order)
        rnd.expect("coherence",
                   rnd.verify(repcat.coherence_check, mods[self.a], mods[self.b], mods[self.c], unit).ok, True)
        rnd.keep((B, None))

        # R recovered from the braiding on the regular module of A(Z3, p)
        A, R = rnd.build(builders.build_a_g_omega, self.G_rt, self.w_rt)
        rnd.expect("A(Z3) quasi-triangular", rnd.verify(wha.verify_quasitriangular, A, R, threads=1).ok, True)
        rnd.expect("R roundtrip", rnd.verify(repcat.reduced_R_roundtrip, A, R), True)
        rnd.keep((A, R))


# ---------------------------------------------------------------------------
# mutants: single-entry perturbations through their owning suite
# ---------------------------------------------------------------------------

TARGETS = ("mu", "delta", "unit", "counit", "antipode")
KINDS = ("scale", "drop", "move")
SCALES = (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3))


def _shift(key, by, d):
    if isinstance(key, tuple):
        return key[:-1] + ((key[-1] + by) % d,)
    return (key + by) % d


def perturb(entries, kind, frac, by, factor, d):
    """Copy of a sparse {key: scalar} table with one entry scaled, dropped or
    moved (its last index shifted by `by` mod d)."""
    out = dict(entries)
    keys = sorted(out)
    key = keys[min(int(frac * len(keys)), len(keys) - 1)]
    v = out.pop(key)
    if kind == "scale":
        out[key] = v * factor
    elif kind == "move":
        moved = _shift(key, by, d)
        s = out[moved] + v if moved in out else v
        if s:
            out[moved] = s
        else:
            del out[moved]
    return out


def assemble(X, parts):
    """A WeakHopfAlgebra with X's labels and the given structure tables."""
    d, n = X.dim, X.conductor
    return wha.WeakHopfAlgebra(
        X.labels, n,
        exactmath.SparseTensor3((d, d, d), n, parts["mu"]), parts["unit"],
        exactmath.SparseTensor3((d, d, d), n, parts["delta"]), parts["counit"],
        exactmath.SparseMatrix(d, d, n, parts["antipode"]), name=X.name,
    )


def tables(X):
    return {"mu": X.mu.data, "delta": X.delta.data, "unit": X.unit,
            "counit": X.counit, "antipode": X.antipode.data}


class Mutants:
    def __init__(self, seed, settings):
        rng = random.Random(seed)
        if settings.small:
            self.b_case, self.a_case = cocycle(2, 1), cocycle(2, 1)
        else:
            self.b_case = cocycle(6, rng.choice([1, 2, 4, 5]))
            self.a_case = cocycle(4, rng.choice([1, 3]))
        # per (algebra, target): position offset, kind offset, shift, scale
        self.draws = [[(rng.random(), rng.randrange(3), rng.randrange(1, 1 << 30), rng.choice(SCALES))
                       for _ in TARGETS + ("R",)] for _ in range(2)]
        self.plant = settings.plant

    def _mutate(self, X, table, r, which, t):
        u, k0, shift, scale = self.draws[which][t]
        kind = KINDS[(r + t + k0) % 3]
        frac = (u + r * GOLDEN) % 1.0
        by = 1 + shift % (X.dim - 1)
        return kind, perturb(table, kind, frac, by, exactmath.Cyclotomic.rational(X.conductor, scale), X.dim)

    def run(self, rnd, r):
        B = rnd.build(builders.build_b_g_omega, *self.b_case)
        A, R = rnd.build(builders.build_a_g_omega, *self.a_case)
        for X in (B, A):
            rnd.expect(f"{X.name} control weak-bialgebra", rnd.verify(wha.verify_weak_bialgebra, X, threads=1).ok, True)
            rnd.expect(f"{X.name} control antipode", rnd.verify(wha.verify_antipode, X, threads=1).ok, True)
        rnd.expect(f"{A.name} control quasi-triangular",
                   rnd.verify(wha.verify_quasitriangular, A, R, threads=1).ok, True)
        for which, X in enumerate((B, A)):
            for t, target in enumerate(TARGETS):
                parts = {k: dict(v) for k, v in tables(X).items()}
                kind, parts[target] = self._mutate(X, parts[target], r, which, t)
                M = rnd.build(assemble, X, parts)
                suite = wha.verify_antipode if target == "antipode" else wha.verify_weak_bialgebra
                rnd.expect(f"{X.name} {target} {kind} rejected", rnd.verify(suite, M, threads=1).ok, False)
        kind, terms = self._mutate(A, R.terms, r, 1, len(TARGETS))
        cand = wha.RMatrixCandidate(terms)
        rnd.expect(f"{A.name} R {kind} rejected",
                   rnd.verify(wha.verify_quasitriangular, A, cand, threads=1).ok, False)
        if self.plant:
            # a no-op "mutant": the suite rightly accepts it, so the gate
            # must count a wrong verdict
            parts = {k: dict(v) for k, v in tables(B).items()}
            M = rnd.build(assemble, B, parts)
            rnd.expect(f"{B.name} planted no-op mutant rejected",
                       rnd.verify(wha.verify_weak_bialgebra, M, threads=1).ok, False)
        rnd.keep((B, None))
        rnd.keep((A, R))


WORKLOADS = {"qt-heavy": QtHeavy, "catalog": Catalog, "tower": Tower, "mutants": Mutants}


# ---------------------------------------------------------------------------
# kernel rate: the scalar kernel timed on a workload's own values
# ---------------------------------------------------------------------------


def _scalar_encodings(obj, out):
    if isinstance(obj, dict):
        if "conductor" in obj and "coeffs" in obj:
            out.setdefault(json.dumps(obj, sort_keys=True), obj)
            return
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            _scalar_encodings(x, out)


def distinct_values(kept):
    """{conductor: distinct scalars} of kept artifacts (file paths or
    (algebra, R) pairs), read through the byte-stable wire format."""
    enc = {}
    for item in kept:
        if isinstance(item, str):
            with open(item) as fh:
                _scalar_encodings(json.load(fh), enc)
            continue
        X, R = item
        _scalar_encodings(jsonio.algebra_to_json(X), enc)
        if R is not None:
            _scalar_encodings(jsonio.rmatrix_to_json(X, R), enc)
    by_n = {}
    for key in sorted(enc):
        by_n.setdefault(enc[key]["conductor"], []).append(exactmath.Cyclotomic.from_json(enc[key]))
    return by_n


def kernel_rates(by_n, per_conductor=40, repeats=5):
    """Median ns per multiply (all ordered pairs of up to `per_conductor`
    values at one conductor) and per inverse (every nonzero value)."""
    pairs = []
    for vs in by_n.values():
        vs = vs[:per_conductor]
        pairs += [(a, b) for a in vs for b in vs]
    nonzero = [v for vs in by_n.values() for v in vs if v]

    def rate(fn, count):
        times = []
        for _ in range(repeats):
            t = time.perf_counter_ns()
            fn()
            times.append(time.perf_counter_ns() - t)
        times.sort()
        return times[len(times) // 2] / count

    return {
        "exactmath.mul_ns": rate(lambda: [a * b for a, b in pairs], len(pairs)),
        "exactmath.inverse_ns": rate(lambda: [v.inverse() for v in nonzero], len(nonzero)),
    }
