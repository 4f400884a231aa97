"""Usage checks of the command line: README examples and study options."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from bfsmooth import study
from bfsmooth.cli import _build_parser, main
from bfsmooth.errors import ParameterError, SolveError
from bfsmooth.interpolant import fit_interpolant
from bfsmooth.study import exponential_sizes

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """Every `bfsmooth ...` command in README's fenced blocks, with
    backslash continuations joined."""
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                            flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("bfsmooth "):
                commands.append(line)
    return commands


def test_readme_has_cli_examples():
    assert len(_readme_commands()) >= 8


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    # argparse exits (SystemExit) on a usage error
    _build_parser().parse_args(shlex.split(command)[1:])


@pytest.mark.parametrize("multiplier", ["0", "-2", "1"])
def test_density_multiplier_must_exceed_one(multiplier, capsys):
    code = main(["study", "density", "--max-size", "50", "--n-sizes", "3",
                 f"--multiplier={multiplier}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "multiplier" in err


def test_density_max_size_below_two_exit_2(capsys):
    # it used to print a row at N = 2 and exit 0
    assert main(["study", "density", "--max-size", "1", "--n-sizes", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "maximum" in captured.err


def test_density_one_size_names_its_settings(capsys):
    assert main(["study", "density", "--n-sizes", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --n-sizes 1 leaves one sample size (5000)")


@pytest.mark.parametrize("n_sizes", ["0", "-3"])
def test_density_no_sizes_exit_2(n_sizes, capsys):
    # it used to report one sample size (the maximum) for none requested
    assert main(["study", "density", "--n-sizes", n_sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: --n-sizes {n_sizes}, --max-size 5000, --multiplier 1.2: "
        f"number of sizes must be >= 1, got {n_sizes}")


@pytest.mark.parametrize("argv, message", [
    # rounding collapses the sizes: 12 of 20, or one
    (("--n-sizes", "20", "--max-size", "20"),
     "--n-sizes 20, --max-size 20, --multiplier 1.2: rounding leaves 12 distinct "
     "sizes of the 20 requested: [2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 17, 20]"),
    (("--max-size", "2"),
     "--n-sizes 20, --max-size 2, --multiplier 1.2: rounding leaves 1 distinct "
     "sizes of the 20 requested: [2]"),
    (("--max-size", "3", "--multiplier", "1.0001"),
     "--n-sizes 20, --max-size 3, --multiplier 1.0001: rounding leaves 1 distinct"),
])
def test_density_collapsed_sizes_exit_2(argv, message, capsys):
    # it used to fit the distinct sizes and say nothing
    assert main(["study", "density", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("multiplier", [0.0, -2.0, 1.0, float("nan")])
def test_exponential_sizes_rejects_multiplier(multiplier):
    with pytest.raises(ParameterError):
        exponential_sizes(3, 50, multiplier)


@pytest.mark.parametrize("argv", [
    ("smooth-exact", "--data", "DATA", "--rho", "nan"),
    ("smooth-exact", "--data", "DATA", "--rho", "inf"),
    ("smooth-exact", "--data", "DATA", "--rho", "1e307"),  # lam overflows
    ("smooth-approx", "--data", "DATA", "--grid=-1.5:1.5:8", "--rho", "nan"),
    ("study", "rho-search", "--data", "DATA", "--grid=-1.5:1.5:8", "--rho0", "nan"),
    ("study", "rho-search", "--data", "DATA", "--grid=-1.5:1.5:8", "--factor", "nan"),
    ("study", "rho-search", "--data", "DATA", "--grid=-1.5:1.5:8", "--factor", "inf"),
    ("study", "convergence", "--sizes", "20,40", "--rho", "-1"),
    ("study", "convergence", "--sizes", "20,40", "--rho", "nan"),
    ("study", "scaling", "--grid=-1.5:1.5:4", "--sizes", "50", "--rho", "nan"),
])
def test_bad_rho_exit_2(argv, tmp_path, capsys):
    data = tmp_path / "data.csv"
    x = np.linspace(-1.5, 1.5, 30)
    data.write_text("".join(f"{xi:.17g},{np.sin(xi):.17g}\n" for xi in x))
    argv = [str(data) if arg == "DATA" else arg for arg in argv]
    assert main([*argv, "--kernel", "thinplate:s=1.5", "--theta", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("must be finite" in err or "overflow" in err)


_CONVERGENCE = ("study", "convergence", "--kernel", "thinplate:s=1.5", "--theta", "2",
                "--sizes", "20,40")


def _exit_code(argv):
    """main's exit code, or argparse's on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("flags, fitter", [
    ((), "fit_interpolant"),
    (("--rho", "1e-3"), "fit_exact"),
    (("--couple",), "fit_exact"),
    (("--couple", "100", "--couple-a", "0.9"), "fit_exact"),
    (("--region=-1,-1:1,1", "--rho", "1e-4"), "fit_exact"),
    (("--grid=-1.5:1.5:10", "--rho", "1e-3"), "fit_approx"),
    (("--grid=-1.5:1.5:10", "--couple"), "fit_approx"),
    (("--region=0:3", "--grid=0:3:10", "--rho", "1e-3"), "fit_approx"),
])
def test_convergence_flags_pick_the_fit(flags, fitter, sweep_fits, capsys):
    assert main([*_CONVERGENCE, *flags]) == 0
    assert sweep_fits == [fitter, fitter]
    rho = [line.split(",")[3] for line in capsys.readouterr().out.splitlines()[1:3]]
    assert (rho == ["0", "0"]) == (fitter == "fit_interpolant")


@pytest.mark.parametrize("flags, message", [
    (("--rho", "1e-3", "--couple"), "argument --couple: not allowed with argument --rho"),
    (("--grid=-1.5:1.5:10",), "error: --grid requires --rho or --couple"),
    (("--couple-a", "0.9"), "error: --couple-a requires --couple"),
    (("--mode", "exact", "--rho", "1e-3"), "unrecognized arguments: --mode exact"),
    # settings of the coupling that give no valid rho, named by flag or kernel
    (("--couple", "0"), "error: --couple must be finite and > 0, got 0.0"),
    (("--couple", "nan"), "error: --couple must be finite and > 0, got nan"),
    (("--couple", "-1"), "error: --couple must be finite and > 0, got -1.0"),
    (("--couple", "1", "--couple-a", "0"), "error: --couple-a must be finite and > 0, got 0.0"),
    (("--couple", "--couple-a", "inf"), "error: --couple-a must be finite and > 0, got inf"),
    (("--kernel", "thinplate:s=0.5", "--theta", "1", "--couple"),
     "error: --couple needs eta_G > 0, but thinplate:s=0.5 with --theta 1 has eta_G = 0"),
])
def test_convergence_bad_flags_exit_2(flags, message, capsys):
    assert _exit_code([*_CONVERGENCE, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_convergence_one_size_prints_no_slope(capsys):
    # one row is too few for a slope, and the flag takes the slope's line
    assert main([*_CONVERGENCE[:-1], "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[1].startswith("50,")
    assert lines[2] == "# too few successful rows for a slope"


def test_convergence_prints_failed_rows(monkeypatch, capsys):
    # a fit that fails the residual gate is a row of NaNs and its reason
    def fail_at_40(spec, frame, X, y):
        if len(X) == 40:
            raise SolveError("interpolant system residual 2e-7 exceeds\n1e-08 * |rhs|")
        return fit_interpolant(spec, frame, X, y)

    monkeypatch.setattr(study, "fit_interpolant", fail_at_40)
    assert main([*_CONVERGENCE[:-1], "20,40,80"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("40,") and ",nan," in lines[2]
    assert "# N=40: interpolant system residual 2e-7 exceeds 1e-08 * |rhs|" in lines
    assert not any(line.startswith(("# N=20", "# N=80")) for line in lines)
