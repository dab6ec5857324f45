"""Traced stand-in for `dov run-example <key> --no-timing`.

Imports numpy, then scipy's linalg and optimize, then dovsolver.cli, timing
each step, and runs ``cli.main`` with the span tracer installed.  The CSV
goes to stdout as `dov` would write it; the import times and the tracer's
totals go to stderr as one ``PERFBENCH_TRACE {json}`` line.

Usage: PYTHONPATH=src python3 perfbench/cli_child.py <key>
"""

import sys
from time import perf_counter

t0 = perf_counter()
import numpy  # noqa: E402,F401

t1 = perf_counter()
import scipy.linalg  # noqa: E402,F401
import scipy.optimize  # noqa: E402,F401

t2 = perf_counter()
from dovsolver import cli  # noqa: E402

t3 = perf_counter()

import json  # noqa: E402

from tracer import Tracer  # noqa: E402  (this file's directory is sys.path[0])


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op() as op:
            code = cli.main(["run-example", sys.argv[1], "--no-timing"])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    record = {"cli": {"numpy_s": t1 - t0, "scipy_s": t2 - t1,
                      "dovsolver_s": t3 - t2, "main_s": op.seconds},
              "totals": tracer.totals()}
    print("PERFBENCH_TRACE " + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
