"""Machine-speed calibration for timings on a shared machine.

The speed of a shared host drifts by tens of percent over minutes, far more
than the changes the benchmark must resolve. The measuring process therefore
runs a fixed calibration kernel, part of the benchmark and not of pikappa,
before each pass and after about every CAL_EVERY_S seconds of work, and
scales the pass's times by CAL_REF_S / (mean kernel time in the pass):
times at reference speed, the speed at which the kernel takes CAL_REF_S.
Set-up time, measured in other processes just before, is scaled by the mean
over the whole run. A change to pikappa cannot change the kernel, so it
moves the scaled times exactly as it moves the raw ones; a slower machine
slows the kernel and the work alike, and cancels. The raw times are kept
beside the scaled ones in the result file.

The kernel mixes what the workloads do: a pure-Python float series of the
shape of a Gauss hypergeometric sum, small numpy and 2 x 2 linear-algebra
calls as a solver makes them, small-object and dict churn, and a
broadcast numpy expression with its argmax over a 401 x 2001 grid (6 MB,
beyond the cache) as in a grid search. The grid buffer is allocated once,
so the kernel adds a fixed 6 MB to the resident memory of the process.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAL_REF_S = 0.013          # kernel time at reference speed
CAL_EVERY_S = 0.25         # work between two calibrations

_X = np.linspace(-3.0, 3.0, 401)[:, None]
_K = np.linspace(0.0, 1.0, 2001)[None, :]
_GRID = np.empty((401, 2001))   # updated in place: no temporaries in RSS
_A = np.array([[0.0625, 0.02], [0.02, 0.1024]])
_B = np.array([0.05, 0.07])


def calibrate() -> float:
    """Wall time of one run of the fixed kernel, in seconds."""
    t0 = time.perf_counter()
    total, term = 1.0, 1.0
    for n in range(8000):
        term *= (3.0 + n) * (3.0 + n) / ((11.0 + n) * (1.0 + n)) * 0.9995
        total += term
    for i in range(200):
        x = np.linalg.solve(_A, _B - 0.001 * i) / 3.0
        total += float(x.sum()) + float(np.sqrt(x @ x))
    objs = {}
    for i in range(2000):
        objs[(i, "k")] = [float(i), i * 0.5, {"a": i}]
    v = _GRID
    np.multiply(_X, _K, out=v)
    v *= -0.2
    v += _X * _X
    v += _K * _K
    v *= -1.5
    v += 0.05 * _X
    v += 0.1 * _K
    total += float(v.flat[int(np.argmax(v))])
    return time.perf_counter() - t0


def factor(samples) -> float:
    """How much slower than reference speed the machine ran while the
    calibration samples were taken; divide a raw time by it."""
    return statistics.fmean(samples) / CAL_REF_S
