"""One SHA-256 over `assembly.solve_block`'s outcomes on a fixed set of systems.

A system's outcome is its solution's bytes, or the message of the
SolveError it raises, so two checkouts print the same digest only when
their solver returns the same solutions, bit for bit, and raises the same
errors. Run it once per checkout, each with its own source tree:

    PYTHONPATH=PARENT_ROOT/src python3 scripts/solve_digest.py
    PYTHONPATH=CHANGE_ROOT/src python3 scripts/solve_digest.py

The systems, all seeded, d = 2 and theta = 2:
  - the ill-conditioned gate of tests/test_assembly.py: `_gate_systems()`
    and, for each of its kernels, the interpolant systems of
    `_gate_exact_systems(spec, rhos=(0.0,))`;
  - an exact_dense-shaped system: N = 2000, r^3, rho = 1e-4;
  - rho_tune-shaped systems: N = 50 000, 30 x 30 centers, r^2 log r,
    rho = 0.1 ... 1e-9 on one ApproxParts, so that the first system takes
    LU and the later ones the spectral candidate.

The systems are built one at a time, the gate ones by the helpers of
tests/test_assembly.py in this script's own checkout. The path of the
library that ran goes to stderr.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import bfsmooth  # noqa: E402
from bfsmooth.assembly import approx_parts, exact_system, solve_block  # noqa: E402
from bfsmooth.errors import SolveError  # noqa: E402
from bfsmooth.kernels import KernelSpec  # noqa: E402
from bfsmooth.polyspace import PolyFrame  # noqa: E402


def digest(systems) -> str:
    """Hex SHA-256 over each system's solution bytes or SolveError message."""
    h = hashlib.sha256()
    for system in systems:
        try:
            h.update(solve_block(system).tobytes())
        except SolveError as exc:
            h.update(str(exc).encode())
    return h.hexdigest()


def _data(N: int, seed: int):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.5, 1.5, (N, 2))
    return X, np.sin(X.sum(axis=1)) + 0.05 * rng.standard_normal(N)


def systems():
    """The fixed set of the module docstring, built lazily."""
    from test_assembly import ILL_SPECS, _center_grid, _gate_exact_systems, _gate_systems

    frame = PolyFrame(2, 2)
    yield from (system for _, system in _gate_systems())
    for spec in ILL_SPECS:
        yield from (system for _, system in _gate_exact_systems(spec, rhos=(0.0,)))
    X, y = _data(2000, 1)
    yield exact_system(KernelSpec("thinplate", theta=2, d=2, s=1.5), frame, X, y, 1e-4)
    X, y = _data(50_000, 2)
    parts = approx_parts(KernelSpec("thinplate", theta=2, d=2, s=1.0), frame, X, y,
                         _center_grid(30))
    for k in range(1, 10):
        yield parts.system(10.0 ** -k)


if __name__ == "__main__":
    print(f"# bfsmooth from {Path(bfsmooth.__file__).parent}", file=sys.stderr)
    print(digest(systems()))
