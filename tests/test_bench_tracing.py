"""The benchmark's tracer must still find every name it rebinds.

`perfbench/tracing.py` wraps a fixed list of bfsmooth functions by name.
Deleting or renaming one of them breaks the benchmark's traced run; this
test makes that show up in the library's own test suite.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _holders():
    """Every namespace the tracer may rebind: bfsmooth modules and classes."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "bfsmooth" or n.startswith("bfsmooth.")]
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    return modules + classes


def test_tracer_install_and_uninstall_restore_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module_name, _, _ in tracing.TRACED:
        importlib.import_module(f"bfsmooth.{module_name}")
    before = {id(h): (h, dict(vars(h))) for h in _holders()}

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module_name, path, _ in tracing.TRACED:
            owner = sys.modules[f"bfsmooth.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = before[id(owner)][1][attr]
            assert vars(owner)[attr] is not original, f"{module_name}.{path}"
    finally:
        tracer.uninstall()

    for holder, saved in before.values():
        now = vars(holder)
        changed = [k for k, v in saved.items() if now.get(k) is not v]
        assert not changed, f"{holder.__name__}: {changed} not restored"
