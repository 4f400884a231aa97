"""scripts/solve_digest.py's digest on three small gate systems."""

import importlib.util
import re
from pathlib import Path

import numpy as np

from bfsmooth.assembly import approx_parts, exact_system
from bfsmooth.kernels import KernelSpec
from bfsmooth.polyspace import PolyFrame
from test_assembly import _center_grid, _gate_data

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "solve_digest.py"
_SPEC = importlib.util.spec_from_file_location("solve_digest", _PATH)
solve_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(solve_digest)


def _systems(moved=False):
    # an interpolant, an exact_smoother and a first approx_smoother system,
    # whose Cholesky trials pass the gate, a second system of the same parts
    # (its spectral candidate), and r^3 against constants alone, whose
    # reduced matrix does not factor (LU); moved: y[0] one ulp up
    _, X, y = _gate_data()
    X, y = X[:60], y[:60].copy()
    if moved:
        y[0] = np.nextafter(y[0], np.inf)
    spec, frame = KernelSpec("thinplate", theta=2, d=2, s=1.5), PolyFrame(2, 2)
    parts = approx_parts(spec, frame, X, y, _center_grid(5))
    return [exact_system(spec, frame, X, y, 0.0), exact_system(spec, frame, X, y, 1e-3),
            parts.system(1e-6), parts.system(1e-4),
            exact_system(spec, PolyFrame(2, 1), X, y, 0.0)]


def test_digest_is_deterministic_and_sees_one_ulp():
    first = solve_digest.digest(_systems())
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert solve_digest.digest(_systems()) == first
    assert solve_digest.digest(_systems(moved=True)) != first


def test_census_adds_up():
    results = solve_digest.outcomes(_systems())
    counts = solve_digest.census(results)
    assert list(counts) == list(solve_digest.PATHS)
    assert sum(counts.values()) == len(results) == 5
    assert [path for path, _ in results] == ["cholesky", "cholesky", "cholesky",
                                             "spectral", "lu"]
    assert solve_digest.digest(_systems()) == solve_digest._sha(o for _, o in results)
