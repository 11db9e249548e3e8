"""One workload process: set-up, then timed rounds until the time is up.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR [--setup-only]

Started by run.py, which counts set-up from the moment it starts this
process.  Prints one JSON line.  Rounds repeat until `--seconds` have passed,
so a run makes at least one round; a traced run alternates untraced and
traced rounds and makes at least one of each.  An untraced run samples the
host's speed from its start (see pace.py), so its set-up and round times can
be read at the reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from contextlib import nullcontext

SETUP_INTERVAL = 0.01  # seconds between host-speed samples during set-up


def run_rounds(wl, seconds, trace, work_dir, sampler):
    from workloads import Round

    if trace:
        from tracer import Tracer
    rounds = []
    kept = []
    start = time.monotonic()
    r = 0
    while True:
        tracer = Tracer(work_dir) if trace and r % 2 == 1 else None
        rnd = Round(tracer, sampler)
        mark = sampler.mark() if sampler else None
        with tracer or nullcontext():
            t0 = time.monotonic()
            span = tracer.open("bench.round") if tracer else None
            # a traced run repeats each round's inputs untraced, then traced
            wl.run(rnd, r // 2 if trace else r)
            if tracer:
                tracer.close(span)
            wall = time.monotonic() - t0
        rec = {"wall_s": wall, "build_s": rnd.build_s, "verify_s": rnd.verify_s,
               "checks": rnd.checks, "wrong": rnd.wrong, "traced": tracer is not None}
        if sampler:
            n, speed_sum, probe_ns = sampler.since(mark)
            rec["wall_s"] -= probe_ns / 1e9
            rec["speed"] = speed_sum / n if n else None
            speed = rec["speed"] or 1.0
            rec["samples"] = {"round": [n, speed_sum], **rnd.speed}
            rec["build_ref_s"] = rnd.at_ref("build", speed)
            rec["verify_ref_s"] = rnd.at_ref("verify", speed)
            # the round's own code between calls, at the round's speed
            rest = rec["wall_s"] - rnd.build_s - rnd.verify_s
            rec["wall_ref_s"] = rec["build_ref_s"] + rec["verify_ref_s"] + rest * speed
        if tracer:
            rec["layers"] = tracer.layer_values()
            rec["missing"] = tracer.missing
            kept = rnd.kept
        rounds.append(rec)
        r += 1
        if time.monotonic() - start >= seconds and (r >= 2 or not trace):
            return rounds, kept


def kernel_probe(kept):
    from tracer import KERNEL_METRICS
    from workloads import distinct_values, kernel_rates

    try:
        return kernel_rates(distinct_values(kept)), []
    except (AttributeError, KeyError, TypeError) as exc:
        return {}, [f"{m} ({exc.__class__.__name__}: {exc})" for m in KERNEL_METRICS]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sampler = None
    if not args.trace:
        from pace import Pace

        sampler = Pace()
        # set-up takes a fraction of a second: sample it more densely
        sampler.start(SETUP_INTERVAL)

    from workloads import WORKLOADS, Settings

    wl = WORKLOADS[args.workload](args.seed, Settings(args.work, forked=bool(args.trace)))
    out = {"ready": time.monotonic()}
    if sampler:
        out["setup_samples"] = sampler.mark()
        sampler.start()
    if not args.setup_only:
        out["rounds"], kept = run_rounds(wl, args.seconds, args.trace, args.work, sampler)
        if args.trace:
            out["kernel"], out["kernel_missing"] = kernel_probe(kept)
        out["peak_rss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if sampler:
        sampler.stop()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
