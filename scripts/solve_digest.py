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
    rho = 0.1 ... 1e-9 on one ApproxParts, so that the first system
    carries no builder candidate and the later ones the spectral one.

The systems are built one at a time, the gate ones by the helpers of
tests/test_assembly.py in this script's own checkout. Three lines go to
stderr: the path of the library that ran; the census, how many systems
solve_block returned by each path (PATHS) or raised on; and one SHA-256
over the returned solutions only, which stays equal when a change moves
no solution's bits but only the digits of a SolveError message.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import bfsmooth  # noqa: E402
from bfsmooth import assembly  # noqa: E402
from bfsmooth.assembly import approx_parts, exact_system, solve_block  # noqa: E402
from bfsmooth.errors import SolveError  # noqa: E402
from bfsmooth.kernels import KernelSpec  # noqa: E402
from bfsmooth.polyspace import PolyFrame  # noqa: E402


# how solve_block ended: the builder's candidate (ApproxParts' spectral
# solution), solve_block's own Cholesky trial, the LU solution, the
# long-double refinement's best iterate, or a SolveError
PATHS = ("spectral", "cholesky", "lu", "long double", "raised")


def outcomes(systems) -> list[tuple[str, bytes]]:
    """(path, outcome) per system: the PATHS entry solve_block took, and
    the solution's bytes or the SolveError message's."""
    refine, refined = assembly._refine_extended, []

    def spy(*args):
        refined.append(True)
        return refine(*args)

    assembly._refine_extended = spy
    results = []
    try:
        for system in systems:
            refined.clear()
            built = system.candidate  # the builder's; solve_block keeps its trial there
            try:
                solution = solve_block(system)
            except SolveError as exc:
                results.append(("raised", str(exc).encode()))
                continue
            path = (("spectral" if built is not None else "cholesky")
                    if solution is system.candidate
                    else "long double" if refined else "lu")
            results.append((path, solution.tobytes()))
    finally:
        assembly._refine_extended = refine
    return results


def census(results) -> dict[str, int]:
    """How many of `outcomes`' results took each of PATHS."""
    return {p: sum(path == p for path, _ in results) for p in PATHS}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def digest(systems) -> str:
    """Hex SHA-256 over each system's solution bytes or SolveError message."""
    return _sha(outcome for _, outcome in outcomes(systems))


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
    results = outcomes(systems())
    print("# paths: " + ", ".join(f"{p} {n}" for p, n in census(results).items()),
          file=sys.stderr)
    print("# solutions sha256: "
          + _sha(outcome for path, outcome in results if path != "raised"),
          file=sys.stderr)
    print(_sha(outcome for _, outcome in results))
