"""scripts/bench_pairs.py aggregation on canned result lines (no runs)."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "latency_p50_s", "better": "lower", "bound": 0.25},
           {"name": "items_per_s", "better": "higher", "bound": 0.25},
           {"name": "err_max", "better": "lower", "bound": 0.25}]


def _run_output(latency, items, err_max=0.01):
    metrics = {"setup_s": {"value": 1.0, "unit": "s"},
               "latency_p50_s": {"value": latency, "unit": "s"},
               "items_per_s": {"value": items, "unit": "1/s"},
               "err_max": {"value": err_max, "unit": "1"},
               "peak_rss_mb": {"value": 169.0, "unit": "MB"}}
    last = json.dumps({"correct": True, "attempted": 20, "failed": 0, "metrics": metrics})
    return f"# workload rho_tune  seed 1\nmetric latency_p50_s {latency} s\n{last}\n"


def test_parse_result_reads_last_line():
    result = bench_pairs.parse_result(_run_output(0.9, 30.0))
    assert result["attempted"] == 20
    assert result["metrics"]["latency_p50_s"]["value"] == 0.9


def test_parse_seeds():
    assert bench_pairs.parse_seeds("61-64") == [61, 62, 63, 64]
    assert bench_pairs.parse_seeds("1,5") == [1, 5]


def test_summary_medians_quartiles_and_wins():
    parent = [(1.0, 30.0), (1.2, 25.0), (0.9, 33.0), (1.1, 28.0), (1.0, 31.0)]
    change = [(0.7, 45.0), (0.6, 50.0), (0.95, 33.0), (0.7, 47.0), (0.65, 31.0)]
    pairs = [(bench_pairs.parse_result(_run_output(*p)),
              bench_pairs.parse_result(_run_output(*c)))
             for p, c in zip(parent, change)]
    rows = {row["name"]: row for row in bench_pairs.summarize(pairs, METRICS)}
    latency = rows["latency_p50_s"]
    assert latency["parent"] == pytest.approx((1.0, 1.0, 1.1))
    assert latency["change"] == pytest.approx((0.65, 0.7, 0.7))
    assert latency["wins"] == 4 and latency["pairs"] == 5  # 0.95 > 0.9 loses
    # higher is better; the two ties (33, 31) count for neither side
    assert rows["items_per_s"]["wins"] == 3
    assert rows["err_max"]["wins"] == 0
    text = bench_pairs.format_rows(bench_pairs.summarize(pairs, METRICS))
    assert "4 of 5" in text and "latency_p50_s" in text


def _rows(parent, change):
    """summarize() rows, by name, of paired (latency, items) canned runs."""
    pairs = [(bench_pairs.parse_result(_run_output(*p)),
              bench_pairs.parse_result(_run_output(*c)))
             for p, c in zip(parent, change)]
    return {row["name"]: row for row in bench_pairs.summarize(pairs, METRICS)}


_WIDE = [0.6, 0.7, 1.0, 1.3, 1.4]  # (q3 - q1) / median = 0.6 > 0.25


_TIGHT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]  # q3 - q1 = 0.015


@pytest.mark.parametrize("parent, change, expected", [
    ([1.0] * 5, [1.3] * 5, "worse"),
    ([1.0, 1.02, 0.98, 1.01, 0.99], [1.2] * 5, "ok"),
    (_WIDE, [1.1] * 5, "unresolved"),
    # every change run beats every parent run, but by less than q3 - q1
    (_WIDE, [0.55] * 5, "ok"),
    (_WIDE, [1.3] * 5, "worse"),
    # a gain: at least 9 of 10 pairs won, medians apart by more than q3 - q1
    (_TIGHT, [0.9] * 9 + [1.1], "gain"),
    (_TIGHT, [0.9] * 8 + [1.1] * 2, "ok"),  # 8 of 10 won
    (_WIDE, [0.39] * 5, "gain"),  # gap 0.61 > q3 - q1 = 0.6
])
def test_verdict_lower_is_better(parent, change, expected):
    rows = _rows([(p, 30.0) for p in parent], [(c, 30.0) for c in change])
    assert rows["latency_p50_s"]["verdict"] == expected
    assert f" {expected} " in bench_pairs.format_rows(list(rows.values()))


@pytest.mark.parametrize("change, expected",
                         [(20.0, "worse"), (24.0, "ok"), (36.0, "gain")])
def test_verdict_higher_is_better(change, expected):
    rows = _rows([(1.0, 30.0)] * 5, [(1.0, change)] * 5)
    assert rows["items_per_s"]["verdict"] == expected


def test_summary_skips_missing_values():
    pairs = [(bench_pairs.parse_result(_run_output(1.0, 30.0, None)),
              bench_pairs.parse_result(_run_output(0.8, 35.0, None)))]
    rows = bench_pairs.summarize(pairs, METRICS)
    assert [row["name"] for row in rows] == ["latency_p50_s", "items_per_s"]
    assert rows[0]["parent"] == (1.0, 1.0, 1.0)


def _ops(err_max, items=30):
    return [{"op": i, "error": None, "err_max": e, "items": items}
            for i, e in enumerate(err_max)]


def test_op_differences_on_common_ops():
    parent = _ops([0.01, 0.02, 0.03])
    assert bench_pairs.op_differences(parent, _ops([0.01, 0.02])) == []
    change = _ops([0.01, 0.025, 0.03, 0.04])
    change[2]["items"] = 31
    assert bench_pairs.op_differences(parent, change) == [
        "op 1 err_max: parent 0.02, change 0.025",
        "op 2 items: parent 30, change 31",
    ]
    failed = {"op": 0, "error": "SolveError: x"}  # a failed op has neither field
    assert bench_pairs.op_differences([failed], [dict(failed)]) == []
    assert len(bench_pairs.op_differences(parent[:1], [failed])) == 2


def _fake_runs(monkeypatch, change_err_max, probe=True):
    # run_side replaced by canned results: no benchmark process is started
    calls = []

    def fake_run_side(root, workload, seed, seconds):
        calls.append((root.name, seed))
        assert seconds == json.loads(
            bench_pairs.BENCHMARK.read_text())["run_seconds"]
        latency = 1.0 if root.name == "parent" else 0.6
        result = bench_pairs.parse_result(_run_output(latency, 1.0 / latency))
        err_max = [0.01, 0.02] if root.name == "parent" else change_err_max
        result["ops"] = _ops(err_max)
        result["extra"] = {bench_pairs.WALL: 2 * latency + 0.1 * seed,
                           bench_pairs.PROBE: (latency + 0.01 * seed) if probe else None}
        return result

    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    return calls


def test_main_alternates_order(monkeypatch, capsys, tmp_path):
    calls = _fake_runs(monkeypatch, [0.01, 0.02, 0.03])
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "rho_tune", "--seeds", "1-3"])
    assert code == 0
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3)]
    out = capsys.readouterr().out
    assert "seed 2 change (first)" in out
    assert "seed 2 per-op err_max/items on 2 common ops: identical" in out
    assert "3 of 3 (lower is better)" in out
    # the unscaled wall time: parent 2.1, 2.2, 2.3 and change 1.3, 1.4, 1.5
    wall = next(line for line in out.splitlines() if line.startswith(bench_pairs.WALL))
    assert "2.2 (2.15-2.25)" in wall and "1.4 (1.35-1.45)" in wall
    # the host-speed probe: parent 1.01, 1.02, 1.03 and change 0.61, 0.62, 0.63
    probe = next(line for line in out.splitlines() if line.startswith(bench_pairs.PROBE))
    assert "1.02 (1.015-1.025)" in probe and "0.62 (0.615-0.625)" in probe
    assert probe.endswith("host-speed probe, report only")
    assert "differ" not in out


def test_main_probe_not_reported_without_a_probe(monkeypatch, capsys, tmp_path):
    # rho_tune has no probe: its probe_s is None on both sides
    _fake_runs(monkeypatch, [0.01, 0.02], probe=False)
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "rho_tune", "--seeds", "1-2"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert f"{bench_pairs.PROBE}: not reported" in out
    assert any(line.startswith(bench_pairs.WALL + " ") for line in out)


def test_main_fails_on_per_op_differences(monkeypatch, capsys, tmp_path):
    _fake_runs(monkeypatch, [0.01, 0.021])
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "rho_tune", "--seeds", "1-2"])
    assert code == 1
    out = capsys.readouterr().out
    assert "seed 1 per-op err_max/items on 2 common ops: DIFFER" in out
    assert "op 1 err_max: parent 0.02, change 0.021" in out
    assert "per-op outputs differ in 2 of 2 pairs; largest relative err_max " \
           "difference 0.05" in out


def test_err_max_change_is_relative_and_skips_failed_ops():
    parent, change = _ops([0.01, 0.02, 0.04]), _ops([0.01, 0.021, 0.04 * (1 + 1e-15)])
    assert bench_pairs.err_max_change(parent, change) == pytest.approx(0.05)
    assert bench_pairs.err_max_change(parent, parent) == 0.0
    failed = {"op": 1, "error": "SolveError: x"}
    assert bench_pairs.err_max_change(parent, [change[0], failed]) == 0.0
    assert bench_pairs.err_max_change(_ops([0.0]), _ops([1e-300])) == math.inf


PER_LAYER = [{"name": "kernels.kernel_matrix.self_s", "unit": "s/op"},
             {"name": "kernels.kernel_matrix.entries", "unit": "count/op"},
             {"name": "kernels.entries_per_op", "unit": "ratio"},
             {"name": "assembly.approx_parts.gflops", "unit": "GFLOP/s"},
             {"name": "assembly.solve_block.order", "unit": "rows"},
             {"name": "assembly.solve_block.lu_flops", "unit": "flop/op"},
             {"name": "study.rho_search.evals", "unit": "count/op"},
             {"name": "study.gen_uniform.self_s", "unit": "s/setup"}]


def _traced_output(entries, calls, evals, self_s):
    # the last line of a traced run: per-layer metrics, timed and counted
    metrics = {"kernels.kernel_matrix.self_s": {"value": self_s, "unit": "s/op"},
               "kernels.kernel_matrix.entries": {"value": entries, "unit": "count/op"},
               "assembly.solve_block.calls": {"value": calls, "unit": "count/op"},
               "study.rho_search.evals": {"value": evals, "unit": "count/op"}}
    last = json.dumps({"correct": True, "attempted": 9, "failed": 0, "metrics": metrics})
    return f"# workload rho_tune  seed 1  trace 1\nlayer x 1 s/op\n{last}\n"


def test_count_names_are_the_computed_units():
    assert bench_pairs.count_names(PER_LAYER) == [
        "kernels.kernel_matrix.entries", "kernels.entries_per_op",
        "assembly.solve_block.order", "assembly.solve_block.lu_flops",
        "study.rho_search.evals"]
    names = bench_pairs.count_names(
        json.loads(bench_pairs.BENCHMARK.read_text())["per_layer"])
    assert "assembly.solve_block.calls" in names
    assert not any(name.endswith("self_s") for name in names)


def test_count_rows_flag_differences_only():
    parent = bench_pairs.parse_result(_traced_output(8e6, 23.67, 32.3, 0.3))["metrics"]
    change = bench_pairs.parse_result(_traced_output(8e6, 21.0, 32.3, 0.1))["metrics"]
    names = ["kernels.kernel_matrix.entries", "assembly.solve_block.calls",
             "study.rho_search.evals", "assembly.solve_block.order"]
    rows = bench_pairs.count_rows(parent, change, names)
    assert rows == [("kernels.kernel_matrix.entries", 8e6, 8e6, False),
                    ("assembly.solve_block.calls", 23.67, 21.0, True),
                    ("study.rho_search.evals", 32.3, 32.3, False)]
    text = bench_pairs.format_counts(4, rows).splitlines()
    assert text[0].startswith("seed 4 computed counts per op")
    assert [line.endswith("DIFFER") for line in text[1:]] == [False, True, False]
    assert "23.67" in text[2] and "21.0" in text[2]


@pytest.mark.parametrize("change_calls, code", [(23.67, 0), (21.0, 1)])
def test_main_trace_runs_traced_sides(monkeypatch, capsys, tmp_path, change_calls, code):
    calls = []

    def fake_run_side(root, workload, seed, seconds, trace=0):
        calls.append((root.name, seed, trace))
        value = 23.67 if root.name == "parent" else change_calls
        result = bench_pairs.parse_result(_traced_output(8e6, value, 32.3, 0.3))
        result["ops"], result["extra"] = _ops([0.01]), {}
        return result

    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    got = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                            "--workload", "rho_tune", "--seeds", "1-2", "--trace"])
    assert got == code
    assert calls == [("parent", 1, 1), ("change", 1, 1), ("change", 2, 1),
                     ("parent", 2, 1)]
    out = capsys.readouterr().out
    assert out.count("DIFFER") == 2 * code
    assert f"computed counts that differ: {2 * code}" in out
    assert "latency_p50_s" not in out  # no end-to-end table on traced runs
