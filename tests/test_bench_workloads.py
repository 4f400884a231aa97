"""The benchmark's workloads must still run against the library.

`perfbench/workloads.py` calls bfsmooth with fixed signatures; a change to
one of them otherwise shows only in `pytest perfbench`, which runs each
workload in a subprocess.  Here every workload is set up at TINY scale
and runs one cycle of ops, each checked the way the benchmark checks it.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize(
    "name", ["approx_stream", "exact_dense", "predict", "rho_tune"]
)
def test_workload_cycle_passes_its_checks(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name](workloads.TINY, seed=1, workdir=tmp_path)
    wl.shards = [wl.build_shard(r) for r in range(workloads.SETUP_REPEATS)]
    for i in range(wl.cycle):
        out = wl.run(i)
        assert 0 <= wl.check(i, out) <= workloads.TINY.err_tol
        assert wl.items_done(i, out) >= 1


def _kernel_entries(monkeypatch):
    """The entries of each kernel_matrix built, counted at every site that
    holds kernel_matrix."""
    from bfsmooth import kernels

    entries, original = [], kernels.kernel_matrix

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        entries.append(out.size)
        return out

    for name, module in list(sys.modules.items()):
        if (name.startswith("bfsmooth.")
                and getattr(module, "kernel_matrix", None) is original):
            monkeypatch.setattr(module, "kernel_matrix", spy)
    return entries


def test_exact_dense_op_builds_one_kernel_matrix(workloads, tmp_path, monkeypatch):
    # fit_exact + diagnostics on the fit's own data: the fit's G_XX is the
    # op's only kernel work, N^2 entries
    entries = _kernel_entries(monkeypatch)
    wl = workloads.WORKLOADS["exact_dense"](workloads.TINY, seed=1, workdir=tmp_path)
    wl.shards = [wl.build_shard(r) for r in range(workloads.SETUP_REPEATS)]
    for i in range(wl.cycle):
        entries.clear()
        wl.run(i)
        assert sum(entries) == wl.entries_needed(i, None) == workloads.TINY.n_exact**2


def test_warm_rho_tune_op_writes_no_k(workloads, tmp_path, k_builds):
    # after one cycle each shard's parts has its spectral factor, so every
    # system an op builds carries a candidate and reads K from the parts
    wl = workloads.WORKLOADS["rho_tune"](workloads.TINY, seed=1, workdir=tmp_path)
    wl.shards = [wl.build_shard(r) for r in range(workloads.SETUP_REPEATS)]
    for i in range(wl.cycle):
        wl.run(i)
    assert len(k_builds) == workloads.SETUP_REPEATS  # each parts' first system
    k_builds.clear()
    for i in range(wl.cycle, 2 * wl.cycle):
        wl.run(i)
        assert k_builds == [], i


def test_warm_rho_tune_op_builds_the_error_grid_kernel_once(workloads, tmp_path,
                                                            monkeypatch):
    # a 10 x 10 error grid against 6 x 6 centers is one tile, kept for the
    # whole search, and a warm op's fits build no kernel matrix
    wl = workloads.WORKLOADS["rho_tune"](workloads.TINY, seed=1, workdir=tmp_path)
    wl.shards = [wl.build_shard(r) for r in range(workloads.SETUP_REPEATS)]
    for i in range(wl.cycle):
        wl.run(i)
    entries = _kernel_entries(monkeypatch)
    for i in range(wl.cycle, 2 * wl.cycle):
        entries.clear()
        _, trace = wl.run(i)
        assert len(set(r for r, _ in trace)) > 1
        assert entries == [len(wl.error_grid) * len(wl.centers)] == [100 * 36], i


def test_warm_rho_tune_op_builds_each_error_grid_tile_once(workloads, tmp_path,
                                                           monkeypatch):
    # with 16-row tiles the 10 x 10 error grid spans seven tiles; the
    # search keeps them all, so each is built once per op
    from bfsmooth import interpolant

    wl = workloads.WORKLOADS["rho_tune"](workloads.TINY, seed=1, workdir=tmp_path)
    n_c = len(wl.centers)
    monkeypatch.setattr(interpolant, "_EVAL_TILE_ENTRIES", 16 * n_c)
    wl.shards = [wl.build_shard(r) for r in range(workloads.SETUP_REPEATS)]
    for i in range(wl.cycle):
        wl.run(i)
    entries = _kernel_entries(monkeypatch)
    for i in range(wl.cycle, 2 * wl.cycle):
        entries.clear()
        _, trace = wl.run(i)
        assert len(set(r for r, _ in trace)) > 3
        assert entries == [16 * n_c] * 6 + [4 * n_c], i
        assert sum(entries) == len(wl.error_grid) * n_c
