"""The fixed references that the benchmark's times are divided by.

The benchmark host is shared: its speed changes by up to 2x within seconds,
and a slow spell of a minute moves every raw time of a run.  So each op time
is divided by the time of a fixed kernel, measured in the same process, on
the same CPU, around the op; and each worker set-up time is divided by the
time of a fixed reference process run around it.  Neither runs code of
dovsolver, so no change to the program can move them.
"""

import subprocess
import sys
from time import perf_counter, process_time

import numpy as np

# a fresh interpreter that imports a fixed set of standard-library modules
# and numpy: process start, module imports and extension loading, the kind
# of work a worker's set-up does
REFERENCE_PROCESS = [
    sys.executable, "-c",
    "import argparse, ast, asyncio, csv, dataclasses, decimal, email.parser, "
    "fractions, http.client, inspect, json, logging, pydoc, random, statistics, "
    "tarfile, typing, unittest, xml.dom.minidom, zipfile, numpy"]


def reference_process(env: dict, timeout: float) -> float:
    """Wall seconds of one run of REFERENCE_PROCESS (about 0.22 s)."""
    t0 = perf_counter()
    subprocess.run(REFERENCE_PROCESS, env=env, check=True, timeout=timeout,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


_X = np.linspace(-1.0, 1.0, 15)
_A = np.random.default_rng(0).standard_normal((64, 64)) / 8.0
_C = np.random.default_rng(1).standard_normal((192, 192)) / 14.0
_I = np.arange(8)[:, None]
_K = np.arange(8)[None, :]
_V = np.random.default_rng(2).standard_normal(16)


def reference_kernel() -> tuple[float, float]:
    """Wall and CPU seconds of five kinds of work that solves spend their
    time on, in roughly equal shares (about 13 ms in all): a pure-Python
    loop, a loop of small numpy calls, small index-built matrices placed
    into a larger one, a chain of 64 x 64 matrix products and a few
    192 x 192 ones, the size of the largest linear map."""
    w0, c0 = perf_counter(), process_time()
    acc = 0
    for i in range(10000):
        d = {"a": i, "b": i + 1}
        acc += d["a"] * d["b"] % 7
    total = 0.0
    for i in range(750):
        total += float(np.cos((i % 7) * np.arccos(_X)) @ _X)
    for _ in range(200):
        w = np.where(_K >= _I, _V[np.abs(_K - _I)], 0.0)
        w = w + np.where(_I + _K < 8, _V[_I + _K], 0.0)
        a = np.zeros((16, 16))
        a[:8, :8] = w
        a[8:, 8:] = w.T
    b = _A
    for _ in range(120):
        b = np.tanh(_A @ b)
    c = _C
    for _ in range(8):
        c = _C @ c
    return perf_counter() - w0, process_time() - c0
