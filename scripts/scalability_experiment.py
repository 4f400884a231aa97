"""Time the Approximate smoother as the data size N grows.

The system solved by the Approximate smoother has fixed size N' + 2M
(set by the grid of centers), so the fit cost should scale linearly in N
once assembly dominates.  Prints median wall-clock fit times and the
ratio between consecutive doublings of N.

Usage:
    python3 scripts/scalability_experiment.py --sizes 10000,20000,40000
"""

import argparse
import time

import numpy as np

from bfsmooth.approx_smoother import GridSpec, fit_approx, make_grid
from bfsmooth.kernels import parse_kernel
from bfsmooth.polyspace import PolyFrame
from bfsmooth.study import Region, gen_uniform


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kernel", default="thinplate:s=1.5")
    ap.add_argument("--theta", type=int, default=2)
    ap.add_argument("--d", type=int, default=1)
    ap.add_argument("--sizes", default="10000,20000,40000")
    ap.add_argument("--grid", type=int, default=200, help="centers per axis")
    ap.add_argument("--rho", type=float, default=0.01)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = parse_kernel(args.kernel, args.theta, args.d)
    frame = PolyFrame(args.d, args.theta)
    region = Region(a=[-1.5] * args.d, b=[1.5] * args.d)
    Xp = make_grid(
        GridSpec(a=region.a, b=region.b, counts=(args.grid,) * args.d),
        frame.theta,
    )
    print(f"kernel {spec.label()}  centers N' = {len(Xp)}  rho = {args.rho}")

    sizes = [int(s) for s in args.sizes.split(",")]
    medians = []
    for N in sizes:
        X = gen_uniform(region, N, seed=(args.seed, N))
        y = np.sin(X.sum(axis=1))
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            fit_approx(spec, frame, X, y, Xp, args.rho)
            times.append(time.perf_counter() - t0)
        med = float(np.median(times))
        medians.append(med)
        print(f"N = {N:>8}: median fit {med * 1e3:9.1f} ms "
              f"(best {min(times) * 1e3:.1f} ms over {args.repeats} runs)")

    for (n0, t0), (n1, t1) in zip(zip(sizes, medians), zip(sizes[1:], medians[1:])):
        print(f"time ratio {n1}/{n0}: {t1 / t0:.2f} (size ratio {n1 / n0:.2f})")


if __name__ == "__main__":
    main()
