"""Run the whalg command line the way the `whalg` console script does.

    python3 perfbench/cli_entry.py [--trace-out FILE] [--pace-out FILE] <whalg arguments>

With --trace-out, a tracer is installed around the command and its spans and
counters are written to FILE as JSON when the command ends.  With --pace-out,
the host's speed is sampled from the start of the process (see pace.py) and
the samples are written to FILE.  Without either, nothing but
`whalg.cli.main` runs.
"""

import json
import os
import sys


def main(argv):
    trace_out = pace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--pace-out"]:
        pace_out, argv = argv[1], argv[2:]
    if pace_out is not None:
        from pace import Pace

        sampler = Pace()
        sampler.start()
        try:
            return run(argv, trace_out)
        finally:
            sampler.stop()
            sampler.write(pace_out)
    return run(argv, trace_out)


def run(argv, trace_out):
    from whalg import cli

    if trace_out is None:
        return cli.main(argv)
    from tracer import Tracer

    with Tracer(os.path.dirname(os.path.abspath(trace_out))) as tr:
        code = cli.main(argv)
    with open(trace_out, "w") as fh:
        json.dump(tr.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
