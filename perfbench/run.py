"""whalg benchmark: time to a verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a whalg checkout; whalg is imported from `src/`, nothing
is installed.  Workloads (see BENCHMARK.json for why each was chosen):
qt-heavy, catalog, tower, mutants.  Each run starts `worker.py` in a fresh
interpreter, single client, closed loop.

With --trace 0 the metrics are end to end: median per-round wall, build and
verify time, the median set-up time of ten fresh interpreters, and the peak
RSS of the workload process tree.  Every time is read at the reference host
speed: the host's speed is sampled throughout (see pace.py) and each time is
scaled by the speed sampled while it ran, because the shared hosts this runs
on change speed by a factor of two or more for seconds at a time.  The raw
wall clock times stay in the run record.  Such a run sweeps catalog
serially, because forked sweep workers would run unsampled.  With --trace 1
the metrics are per layer, from a tracer that wraps whalg's public functions
from outside (see tracer.py).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a full run record goes to perfbench/results/.

--self-check runs the smallest instance of every workload once as is and
once with a planted fault (a tampered digest, a mutant that is not really
mutated), and exits 0 only if the clean runs count no failure and each
planted fault is counted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from statistics import median

from pace import at_ref
from tracer import LAYER_METRICS, OVERLAY_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RESULTS = os.path.join(HERE, "results")
NAMES = ("qt-heavy", "catalog", "tower", "mutants")
SETUP_PROBES = 9      # plus the measured run's own set-up: median of ten
WORKER_TIMEOUT = 170  # seconds; a run must end within 180


def unit(metric):
    if metric.endswith("_ns"):
        return "ns"
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric == "jsonio.bytes" else "count"


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "whalg")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    if shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def machine_probe_ms():
    """Time of a fixed pure-Python loop, in ms, for the run record: it shows
    how fast the host was when a run started and ended."""
    t = time.perf_counter()
    acc = {}
    for i in range(20000):
        k = i * 7919 % 257
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 5 + 1, 21)
    return (time.perf_counter() - t) * 1000


def worker_env():
    # a fixed hash seed keeps dict layouts, and so timings, alike across runs
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                WHALG_THREADS="1", PYTHONHASHSEED="0")


def run_worker(args, work, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    # its own process group, so a timeout also stops the CLI and sweep workers
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT} s") from None
    finally:
        # on a timeout, or a signal that ends this process, stop the group
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    res = json.loads(out.decode().strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t0
    if "setup_samples" in res:
        res["setup_s"] -= res["setup_samples"][2] / 1e9
        res["setup_ref_s"] = at_ref(res["setup_s"], res["setup_samples"])
    return res


def end_to_end(res, setups):
    rounds = res["rounds"]
    return {
        "wall_s": (median(r["wall_ref_s"] for r in rounds), "s"),
        "build_s": (median(r["build_ref_s"] for r in rounds), "s"),
        "verify_s": (median(r["verify_ref_s"] for r in rounds), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(res):
    traced = [r for r in res["rounds"] if r["traced"]]
    untraced = [r for r in res["rounds"] if not r["traced"]]
    out = {}
    for metric in LAYER_METRICS:
        vals = [r["layers"][metric] for r in traced if metric in r["layers"]]
        if not vals:
            continue
        # counts repeat exactly for a seed: report the first traced round's
        out[metric] = (median(vals) if metric.endswith("_s") else vals[0], unit(metric))
    out["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                               - median(r["wall_s"] for r in untraced), "s")
    for metric, value in res["kernel"].items():
        out[metric] = (value, "ns")
    return out


def largest_layers(metrics, k=5):
    times = [(v, m) for m, (v, u) in metrics.items()
             if u == "s" and not m.startswith("trace.") and m not in OVERLAY_METRICS]
    return [m for _v, m in sorted(times, reverse=True)[:k]]


def measure(args):
    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0], "loadavg_start": os.getloadavg(),
        "probe_ms_start": machine_probe_ms(),
    }
    setup_key = "setup_s" if args.trace else "setup_ref_s"
    try:
        setups = [run_worker(args, work, setup_only=True) for _ in range(SETUP_PROBES)]
        res = run_worker(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res)
    setup_raw = [s["setup_s"] for s in setups]
    setups = [s[setup_key] for s in setups]
    metrics = per_layer(res) if args.trace else end_to_end(res, setups)
    attempted = sum(r["checks"] for r in res["rounds"])
    wrong = [w for r in res["rounds"] for w in r["wrong"]]
    missing = sorted({m for r in res["rounds"] for m in r.get("missing", ())}
                     | set(res.get("kernel_missing", ())))
    record.update({
        "loadavg_end": os.getloadavg(), "probe_ms_end": machine_probe_ms(), "setup_s": setup_raw,
        "setup_ref_s": None if args.trace else setups,
        "rounds": res["rounds"], "wrong": wrong, "missing_layers": missing,
        "wrong_verdict_frac": len(wrong) / max(attempted, 1),
        "metrics": {m: v for m, (v, _u) in metrics.items()},
    })
    if args.trace:
        record["largest_layers"] = largest_layers(metrics)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(res['rounds'])} rounds, "
          f"{len(wrong)} of {attempted} checks wrong, record {os.path.relpath(path, ROOT)}",
          file=sys.stderr)
    for line in wrong[:10]:
        print(f"  wrong: {line}", file=sys.stderr)
    for m in missing:
        print(f"  missing layer metric: {m}", file=sys.stderr)
    if args.trace:
        print(f"  largest self times: {', '.join(record['largest_layers'])}", file=sys.stderr)
    return {
        "correct": not wrong, "attempted": attempted, "failed": len(wrong),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def self_check():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, Round, Settings

    planted = {"qt-heavy": 1, "mutants": 1}
    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(RESULTS, f"selfcheck-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    ok = True
    try:
        for name, cls in WORKLOADS.items():
            for plant in (False, True):
                rnd = Round()
                cls(0, Settings(work, small=True, plant=plant)).run(rnd, 0)
                want = planted.get(name, 0) if plant else 0
                good = len(rnd.wrong) == want and rnd.checks > 0
                ok = ok and good
                print(f"{name} {'planted' if plant else 'clean'}: {len(rnd.wrong)} of {rnd.checks} "
                      f"checks wrong, expected {want}: {'ok' if good else 'FAIL'}")
                for line in rnd.wrong:
                    print(f"  {line}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "whalg", "__init__.py")):
        print(f"error: no whalg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = measure(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
