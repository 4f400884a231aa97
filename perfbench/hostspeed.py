"""Host-speed probe: a fixed piece of work, timed right after every op.

The benchmark shares a few cores of a host with other load, and the
host's speed drifts by up to 2x for minutes at a time: the same predict
request takes 12 ms in one run and 18 ms a few minutes later.  The probe
is fixed numpy/scipy code that does not call bfsmooth.  Each workload's
probe is a mix of the kinds of work its op does (float parsing in the
interpreter, kernel profiles, long-double matrix-vector products), so
the host's drift slows the probe as it slows the op.  The runner scales
the run's times by the workload's REFERENCE_S over the run's median
probe time.  A drift of the host's speed then cancels, while a change of
bfsmooth's speed does not, because the probe never runs bfsmooth code.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial.distance import cdist

# Median probe time of each workload on the reference host (a 2-vCPU
# Xeon VM), so that scaled times read as seconds on that host.  Any fixed
# values would do: they only set the scale of the reported times.
REFERENCE_S = {
    "approx_stream": 0.040,
    "exact_dense": 0.014,
    "predict": 0.0021,
}
# Probe for about this share of the time just measured (at least once).
SHARE = 0.1

_rng = np.random.default_rng(20240601)


def _parse(rows):  # io.read_csv: split, convert and check each line
    lines = [",".join(f"{v:.17g}" for v in row) for row in _rng.uniform(-1.5, 1.5, (rows, 3))]

    def part():
        table = []
        for line in lines:
            row = [float(t) for t in line.split(",")]
            if np.all(np.isfinite(row)):
                table.append(row)
        return np.array(table)
    return part


def _kernel_log(rows, cols):  # thinplate s=1: r^2 log r
    Y, Z = _rng.uniform(-1.5, 1.5, (rows, 2)), _rng.uniform(-1.5, 1.5, (cols, 2))

    def part():
        r2 = cdist(Y, Z, "sqeuclidean") + 1.0
        return r2 * np.log(r2)
    return part


def _kernel_pow(rows, cols):  # thinplate s=1.5: r^3
    Y, Z = _rng.uniform(-1.5, 1.5, (rows, 2)), _rng.uniform(-1.5, 1.5, (cols, 2))
    return lambda: cdist(Y, Z, "sqeuclidean") ** 1.5


def _refine(n):  # solve_block's long-double residuals
    E = _rng.standard_normal((n, n)).astype(np.longdouble)
    x = _rng.standard_normal(n).astype(np.longdouble)
    return lambda: E @ x


# The parts have the working-set sizes of the op's own steps where the
# probe stays short enough: code that streams from L3 slows less than
# code that runs in L2 when the host is busy, so a probe of the wrong
# size corrects too much or too little.  approx_stream streams 4096-row
# chunks against 400 centers; exact_dense works on order-2000 matrices,
# of which the probe takes order 1000; predict's requests are short, so
# its probe is too.  The probe leaves out the BLAS calls (GEMM, LU): run
# on two threads for a few milliseconds, their time jitters by 40-60%
# from call to call, far more than the host's speed changes.
#
# rho_tune has no probe and reports wall time.  No probe tried followed
# its op: with the op's own steps at the op's own sizes (order-906 LU
# and long-double products, r^2 log r on 3600 x 900), the ratio of op to
# probe time still varied two to four times as much as the op's time.
MIXES = {
    "approx_stream": lambda: (_parse(2000), _kernel_log(4096, 400)),
    "exact_dense": lambda: (_refine(1000), _kernel_pow(1000, 1000)),
    "predict": lambda: (_kernel_log(400, 400), _kernel_pow(400, 400)),
}
_parts: dict = {}


def probe_once(workload: str) -> float:
    if workload not in _parts:
        _parts[workload] = MIXES[workload]()
    t0 = time.perf_counter()
    for part in _parts[workload]:
        part()
    return time.perf_counter() - t0


def probe(workload: str, measured_s: float) -> float | None:
    """Median probe time over probes that take about SHARE * measured_s.

    None for a workload without a probe.
    """
    if workload not in MIXES:
        return None
    times = [probe_once(workload)]
    while sum(times) < SHARE * measured_s:
        times.append(probe_once(workload))
    return statistics.median(times)
