"""Spans and counters recorded from outside the whalg package.

A `Tracer` replaces public functions and methods of the whalg modules with
wrappers while it is installed, and restores the originals on exit.  Nothing
inside `src/whalg` is changed, and a run that never installs a tracer runs the
package exactly as shipped.

A span records (name, start, end, parent index) on the system-wide monotonic
clock, so spans written by a CLI subprocess can be merged into the parent's
tree.  Each layer span is named after the per-layer metric it feeds; a
metric's value is the self time of its spans (duration minus the part its
child spans cover).  Spans named `bench.*` are the benchmark's own (a round, a
CLI process); their self time is the unattributed remainder.

A function named here that does not exist at the commit under test is listed
in `missing` and skipped; it never aborts the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import os
import sys
import time
import uuid
from collections import Counter

# (module, attribute path, span metric or None, count metric or None)
WRAPPED = [
    ("whalg.groups", "validate_cocycle", "groups.validate_cocycle_s", None),
    ("whalg.builders", "build_b_g_omega", "builders.build_s", None),
    ("whalg.builders", "build_a_g_omega", "builders.build_s", None),
    ("whalg.builders", "build_a_m_c", "builders.build_s", None),
    ("whalg.wha", "verify_weak_bialgebra", "wha.weak_bialgebra_s", None),
    ("whalg.wha", "verify_antipode", "wha.antipode_s", None),
    ("whalg.wha", "base_algebras", "wha.base_algebras_s", None),
    ("whalg.wha", "verify_quasitriangular", "wha.quasitriangular_s", None),
    ("whalg.wha", "center_dim", "wha.center_dim_s", None),
    ("whalg.wha", "WeakHopfAlgebra.mul2", None, "wha.mul2.calls"),
    ("whalg.wha", "WeakHopfAlgebra.mul3", "wha.mul3_s", "wha.mul3.calls"),
    ("whalg.exactmath", "Cyclotomic.__add__", None, "exactmath.add.calls"),
    ("whalg.exactmath", "Cyclotomic.inverse", None, "exactmath.inverse.calls"),
    ("whalg.exactmath", "_rref", "exactmath.elim_s", "exactmath.elim.calls"),
    ("whalg.jsonio", "write_json", "jsonio.dump_s", None),
    ("whalg.jsonio", "algebra_to_json", "jsonio.dump_s", None),
    ("whalg.jsonio", "rmatrix_to_json", "jsonio.dump_s", None),
    ("whalg.jsonio", "algebra_from_json", "jsonio.load_s", None),
    ("whalg.jsonio", "rmatrix_from_json", "jsonio.load_s", None),
    ("whalg.cli", "main", "cli.self_s", None),
    ("whalg.tube", "build_tube", "tube.build_s", None),
    ("whalg.tube", "build_tube_prime", "tube.build_s", None),
    ("whalg.tube", "PlainAlgebra.validate", "tube.validate_s", None),
    ("whalg.tube", "chi_iso", "tube.chi_s", None),
    ("whalg.double", "build_pairing", "double.pairing_s", None),
    ("whalg.double", "build_drinfeld_double", "double.build_s", None),
    ("whalg.double", "solve_antipode", "double.solve_antipode_s", None),
    ("whalg.double", "sharp_iso", "double.sharp_s", None),
    ("whalg.repcat", "tensor_product", "repcat.tensor_s", None),
    ("whalg.repcat", "modules_isomorphic", "repcat.iso_s", None),
    ("whalg.repcat", "tensor_unit", "repcat.unit_s", None),
    ("whalg.repcat", "coherence_check", "repcat.coherence_s", None),
    ("whalg.repcat", "reduced_R_roundtrip", "repcat.roundtrip_s", None),
]

# wrapped by hand below, because the wrapper needs the call's arguments
SPECIAL = {
    ("whalg.exactmath", "Cyclotomic.__mul__"): ("exactmath.mul.calls", "exactmath.mul_irrational.calls"),
    ("whalg.wha", "_sweep"): ("wha.verify_serial_s", "wha.verify_forked_s"),
    ("whalg.wha", "_worker"): (),
    ("whalg.jsonio", "dumps"): ("jsonio.dump_s", "jsonio.bytes"),
    ("whalg.jsonio", "read_json"): ("jsonio.load_s", "jsonio.bytes"),
}

# measured by the kernel-rate probe, not by wrappers
KERNEL_METRICS = ("exactmath.mul_ns", "exactmath.inverse_ns")
# the serial/forked sweep split overlays the suite spans: its value is the
# sweeps' whole duration, which stays in the enclosing suite's self time too
OVERLAY_METRICS = ("wha.verify_serial_s", "wha.verify_forked_s")
OVERHEAD_METRICS = ("trace.overhead_s", "trace.unattributed_s")


def _metric_names():
    names = []
    for _mod, _path, span, count in WRAPPED:
        names += [m for m in (span, count) if m]
    for metrics in SPECIAL.values():
        names += metrics
    names += KERNEL_METRICS + OVERHEAD_METRICS
    return list(dict.fromkeys(names))


LAYER_METRICS = _metric_names()


def _resolve(modname, path):
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory spans and counters; use as a context manager to install."""

    def __init__(self, work_dir):
        self.spans = []          # [name, start_ns, end_ns, parent index or None]
        self.counts = Counter()
        self.missing = []
        # counts from forked sweep workers come back through files here
        self.spool_dir = os.path.join(work_dir, f"spool-{os.getpid()}")
        self._stack = []
        self._patches = []

    # -- spans --------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic_ns(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.monotonic_ns()
        self._stack.pop()

    def absorb(self, trace, parent):
        """Graft a trace written by another process under span `parent`."""
        base = len(self.spans)
        for name, start, end, par in trace["spans"]:
            self.spans.append([name, start, end, parent if par is None else base + par])
        self.counts.update(trace["counts"])
        self.missing += [m for m in trace["missing"] if m not in self.missing]

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts), "missing": self.missing}

    def self_times(self):
        """Seconds per span name: self time, or whole duration for overlays."""
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent in spans:
            while parent is not None and spans[parent][0] in OVERLAY_METRICS:
                parent = spans[parent][3]
            if parent is not None and name not in OVERLAY_METRICS:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _parent), inner in zip(spans, child):
            out[name] += (end - start - inner) / 1e9
        return out

    # -- installing wrappers ------------------------------------------------

    def __enter__(self):
        os.makedirs(self.spool_dir, exist_ok=True)
        for modname, path, span, count in WRAPPED:
            self._patch(modname, path, [m for m in (span, count) if m],
                        lambda fn, span=span, count=count: self._wrap(fn, span, count))
        for (modname, path), metrics in SPECIAL.items():
            make = getattr(self, "_wrap_" + path.rsplit(".", 1)[-1].strip("_"))
            self._patch(modname, path, list(metrics), make)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.collect_spool()
        return False

    def _patch(self, modname, path, metrics, make):
        try:
            owner, attr, orig = _resolve(modname, path)
        except (ImportError, AttributeError):
            self.missing += [m for m in metrics if m not in self.missing]
            return
        wrapper = make(orig)
        if isinstance(owner, type):
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            return
        # a module function: rebind it wherever a whalg module imported it
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "whalg" or name.startswith("whalg.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def _wrap(self, fn, span, count):
        counts = self.counts
        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[count] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if count:
                counts[count] += 1
            idx = self.open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return spanned

    def _wrap_mul(self, fn):
        counts = self.counts
        cls = _resolve("whalg.exactmath", "Cyclotomic")[2]
        if not hasattr(cls, "is_rational"):
            self.missing.append("exactmath.mul_irrational.calls")
            return self._wrap(fn, None, "exactmath.mul.calls")

        @functools.wraps(fn)
        def mul(a, b):
            counts["exactmath.mul.calls"] += 1
            if isinstance(b, cls) and not a.is_rational() and not b.is_rational():
                counts["exactmath.mul_irrational.calls"] += 1
            return fn(a, b)
        return mul

    def _wrap_sweep(self, fn):
        # mirrors the fork condition of the sweep it wraps
        @functools.wraps(fn)
        def sweep(A, check, threads, *args, **kwargs):
            forked = (threads > 1 and A.dim >= 64
                      and multiprocessing.get_start_method() == "fork")
            idx = self.open("wha.verify_forked_s" if forked else "wha.verify_serial_s")
            try:
                return fn(A, check, threads, *args, **kwargs)
            finally:
                self.close(idx)
        return sweep

    def _wrap_worker(self, fn):
        # runs inside forked sweep workers: hand their counts back via files
        @functools.wraps(fn)
        def worker(*args, **kwargs):
            before = Counter(self.counts)
            try:
                return fn(*args, **kwargs)
            finally:
                delta = dict(self.counts - before)
                path = os.path.join(self.spool_dir, f"{os.getpid()}-{uuid.uuid4().hex}.json")
                with open(path, "w") as fh:
                    json.dump(delta, fh)
        return worker

    def _wrap_dumps(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def dumps(*args, **kwargs):
            idx = self.open("jsonio.dump_s")
            try:
                text = fn(*args, **kwargs)
            finally:
                self.close(idx)
            counts["jsonio.bytes"] += len(text.encode())
            return text
        return dumps

    def _wrap_read_json(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def read_json(path, *args, **kwargs):
            counts["jsonio.bytes"] += os.path.getsize(path)
            idx = self.open("jsonio.load_s")
            try:
                return fn(path, *args, **kwargs)
            finally:
                self.close(idx)
        return read_json

    def collect_spool(self):
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path) as fh:
                self.counts.update(json.load(fh))
            os.remove(path)
        os.rmdir(self.spool_dir)

    # -- per-layer values ---------------------------------------------------

    def layer_values(self):
        """Self time per span metric and count per counter, for this trace."""
        st = self.self_times()
        out = {}
        for metric in LAYER_METRICS:
            if metric in self.missing or metric in KERNEL_METRICS + OVERHEAD_METRICS:
                continue
            out[metric] = self.counts.get(metric, 0) if not metric.endswith("_s") else st.get(metric, 0.0)
        out["trace.unattributed_s"] = sum(v for k, v in st.items() if k.startswith("bench."))
        return out
