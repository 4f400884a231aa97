from functools import cached_property

import numpy as np
import pytest
from scipy.spatial import cKDTree

from bfsmooth import study
from bfsmooth.assembly import BlockSystem


def scattered_points(rng, N, d=1, lo=-1.5, hi=1.5):
    """Uniform random points with a minimum-separation guarantee.

    Near-coincident points make the kernel systems singular to working
    precision, which the solver reports as an error by contract; the
    well-posed-instance tests therefore draw generic configurations with
    pairwise gaps bounded away from zero.
    """
    width = hi - lo
    min_gap = 0.05 * width / N ** (1.0 / d)
    X = rng.uniform(lo, hi, (N, d))
    for _ in range(200):
        pairs = cKDTree(X).query_pairs(min_gap, output_type="ndarray")
        if not len(pairs):
            break
        X[pairs[:, 1]] = rng.uniform(lo, hi, (len(pairs), d))
    return X


def _recording(calls, name, fit):
    def record(*args):
        calls.append(name)
        return fit(*args)
    return record


@pytest.fixture
def sweep_fits(monkeypatch):
    """The names of the fitters `study.convergence_sweep` calls, in order."""
    calls = []
    for name in ("fit_interpolant", "fit_exact", "fit_approx"):
        monkeypatch.setattr(study, name, _recording(calls, name, getattr(study, name)))
    return calls


@pytest.fixture
def k_builds(monkeypatch):
    """The systems whose K is written out as one array (`BlockSystem.K`
    read on a system built from its parts), in order; a dense builder's
    array is handed over and never counted."""
    built = []
    write = BlockSystem.K.func

    def spy(sys):
        built.append(sys)
        return write(sys)

    prop = cached_property(spy)
    prop.__set_name__(BlockSystem, "K")
    monkeypatch.setattr(BlockSystem, "K", prop)
    return built
