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


def test_exact_dense_op_builds_one_kernel_matrix(workloads, tmp_path, monkeypatch):
    # fit_exact + diagnostics on the fit's own data: the fit's G_XX is the
    # op's only kernel work, N^2 entries, counted at every site that holds
    # kernel_matrix
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
