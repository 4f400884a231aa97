"""scripts/scalability_experiment.py runs end to end at tiny sizes."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "scalability_experiment.py"
_SPEC = importlib.util.spec_from_file_location("scalability_experiment", _PATH)
scalability_experiment = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scalability_experiment)


@pytest.mark.parametrize("d", [1, 2])
def test_main_runs_in_each_dimension(d, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [
        "scalability_experiment.py", "--d", str(d), "--sizes", "500,1000",
        "--grid", "4", "--repeats", "1",
    ])
    scalability_experiment.main()
    out = capsys.readouterr().out
    assert f"centers N' = {4 ** d}" in out
    assert "time ratio 1000/500:" in out
