"""Record the SHA-256 digests that gate the qt-heavy workload.

    python3 perfbench/record_digests.py

Runs the qt-heavy command pair (build, then `--json verify`) for every cocycle
the workload can draw, and for the self-check instance, and writes the
digests of the algebra file, the R-matrix file and the report body to
perfbench/digests.json.  Run it only to re-baseline a deliberate change of
the wire format; the benchmark fails on any digest that differs.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import DIGESTS, cli_command, sha256_file  # noqa: E402

CASES = [("z2", 1)] + [("z6", p) for p in (1, 2, 4, 5)]


def main():
    work = os.path.join(HERE, "results", "digests-work")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), WHALG_THREADS="1")
    entry = [sys.executable, os.path.join(HERE, "cli_entry.py")]
    out = {}
    try:
        for group, p in CASES:
            algebra, rmatrix = os.path.join(work, "algebra.json"), os.path.join(work, "rmatrix.json")
            build, verify = cli_command(group, p, algebra, rmatrix)
            subprocess.run(entry + build, env=env, cwd=ROOT, check=True, capture_output=True)
            rep = subprocess.run(entry + verify, env=env, cwd=ROOT, check=True, capture_output=True)
            out[f"{group} p={p}"] = {
                "algebra": sha256_file(algebra),
                "rmatrix": sha256_file(rmatrix),
                "report": hashlib.sha256(rep.stdout).hexdigest(),
            }
            print(group, p, out[f"{group} p={p}"], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
