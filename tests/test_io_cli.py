import numpy as np
import pytest

from bfsmooth import io
from bfsmooth.approx_smoother import fit_approx
from bfsmooth.cli import main
from bfsmooth.errors import ParseError
from bfsmooth.exact_smoother import fit_exact
from bfsmooth.interpolant import eval_model, fit_interpolant
from bfsmooth.kernels import KernelSpec, predicted_orders
from bfsmooth.polyspace import PolyFrame
from bfsmooth.study import RhoCoupling


class TestReadCsv:
    def test_comma(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("0,1\n1,2\n")
        table = io.read_csv(p)
        assert table.d == 1
        np.testing.assert_array_equal(table.X.ravel(), [0, 1])
        np.testing.assert_array_equal(table.y, [1, 2])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x,y\n0,1\n1,2\n")
        table = io.read_csv(p)
        assert len(table.y) == 2

    def test_whitespace_and_tab(self, tmp_path):
        for sep in (" ", "\t"):
            p = tmp_path / "data.txt"
            p.write_text(f"0{sep}0{sep}1\n1{sep}1{sep}2\n")
            table = io.read_csv(p)
            assert table.d == 2

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("0,1\n1,2,3\n")
        with pytest.raises(ParseError) as exc:
            io.read_csv(p)
        assert exc.value.line == 2

    def test_non_numeric_mid_file(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("0,1\nfoo,2\n")
        with pytest.raises(ParseError) as exc:
            io.read_csv(p)
        assert exc.value.line == 2

    def test_blank_file_rejected(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("\n  \n\t\n")
        with pytest.raises(ParseError, match="no data rows"):
            io.read_csv(p)

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("1\n2\n")
        with pytest.raises(ParseError):
            io.read_csv(p)


class TestUndecodableText:
    # 0xff never occurs in UTF-8
    @pytest.mark.parametrize("read", [io.read_csv, lambda p: io.read_points(p, 1),
                                      io.load_model],
                             ids=["read_csv", "read_points", "load_model"])
    def test_parse_error(self, tmp_path, read):
        p = tmp_path / "data.csv"
        p.write_bytes(b"0,1\n\xff,2\n")
        with pytest.raises(ParseError, match="not a text file"):
            read(p)


class TestReadPoints:
    def test_header_skipped_and_lines_counted(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("\nx1,x2\n0,1\n2,3\n")
        np.testing.assert_array_equal(io.read_points(p, 2), [[0, 1], [2, 3]])
        p.write_text("\nx1,x2\n0,1\n2,oops\n")
        with pytest.raises(ParseError) as exc:
            io.read_points(p, 2)
        assert exc.value.line == 4

    @pytest.mark.parametrize("text, line", [
        ("0,1\n1,nan\n", 2),  # non-finite value
        ("0,1\n1,2\n1,2,3\n", 3),  # ragged row
        ("x1 x2 x3\n0 1 2\n3 4 5\n", 2),  # d + 1 columns on every row
    ])
    def test_bad_row_reports_line(self, tmp_path, text, line):
        p = tmp_path / "pts.txt"
        p.write_text(text)
        with pytest.raises(ParseError) as exc:
            io.read_points(p, 2)
        assert exc.value.line == line


def _ragged_at(lineno, rows=1200):
    lines = [f"{i},{0.25 * i}" for i in range(1, rows + 1)]
    lines[lineno - 1] = "1,2,3"
    return "\n".join(lines) + "\n"


# name: file text, read by both read_csv and read_points(d=2)
READ_CASES = {
    "blank_lines": "0,1\n\n   \n2,3\n\t\n4,5\n",
    "crlf": "x,y\r\n0,1\r\n2,3\r\n",
    "comma_spaces": "0 , 1\n 2,  3 \n",
    "tab": "0\t1\n2\t 3\n",
    "whitespace": "0 1\n  2   3\n",
    "header": "x1,y\n0,1\n2,3\n",
    "underscore": "1_000,2\n3,4\n",
    "nan": "0,1\n2,nan\n4,5\n",
    "inf": "0,1\n2,inf\n4,5\n",
    "infinity": "0,1\ninfinity,3\n4,5\n",
    "comment_line": "0,1\n# note\n4,5\n",
    "ragged_at_1000": _ragged_at(1000),
    "header_only": "x,y\n",
}


def _outcome(read, path, **kwargs):
    try:
        data = read(path, **kwargs)
    except ParseError as exc:
        return str(exc), exc.line
    if isinstance(data, io.DataTable):
        data = np.column_stack([data.X, data.y])
    return data


class TestVectorizedRead:
    """One np.loadtxt pass must give what the row loop gives: the same
    array, or the same ParseError message and line."""

    @pytest.mark.parametrize("case", list(READ_CASES))
    def test_matches_row_loop(self, tmp_path, monkeypatch, case):
        p = tmp_path / "data.txt"
        p.write_text(READ_CASES[case])
        calls = [(io.read_csv, {}), (io.read_points, {"d": 2})]
        fast = [_outcome(read, p, **kw) for read, kw in calls]
        monkeypatch.setattr(io, "_vectorized_rows", lambda *args: None)
        for got, (read, kw) in zip(fast, calls):
            want = _outcome(read, p, **kw)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert isinstance(got, np.ndarray) and got.shape == want.shape
                assert np.array_equal(got, want)

    def test_ragged_row_line_number(self, tmp_path):
        p = tmp_path / "long.csv"
        p.write_text(_ragged_at(1000))
        with pytest.raises(ParseError) as exc:
            io.read_csv(p)
        assert exc.value.line == 1000

    def test_clean_file_skips_row_loop(self, tmp_path, monkeypatch):
        p = tmp_path / "clean.csv"
        p.write_text("x1,x2,y\n" + "".join(f"{i},{-i},{0.1 * i:.17g}\n" for i in range(50)))

        def row_loop(*args):
            raise AssertionError("row loop ran on a clean file")

        monkeypatch.setattr(io, "_check_rows", row_loop)
        table = io.read_csv(p)
        assert table.d == 2 and len(table.y) == 50


# fits whose saved rho line is edited to one that does not fit the kind
RHO_MISFITS = [("exact_smoother", "nan"), ("exact_smoother", "-1"),
               ("exact_smoother", "inf"), ("exact_smoother", "0"), ("interpolant", "0.5")]


def _save_with_rho(path, kind, rho):
    """Save a fit of `kind` (an exact_smoother at rho = 1e-3) to path, its
    rho line, line 8, then rewritten as `rho <rho>`."""
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.5, 1.5, (15, 1))
    y = np.sin(X[:, 0])
    spec, frame = KernelSpec("thinplate", theta=2, d=1, s=1.5), PolyFrame(1, 2)
    model = (fit_interpolant(spec, frame, X, y) if kind == "interpolant"
             else fit_exact(spec, frame, X, y, 1e-3))
    io.save_model(model, path)
    lines = path.read_text().splitlines()
    assert lines[1] == f"kind {kind}" and lines[7].startswith("rho ")
    lines[7] = f"rho {rho}"
    path.write_text("\n".join(lines) + "\n")


class TestModelPersistence:
    def _model(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.5, 1.5, (15, 1))
        y = np.sin(X[:, 0])
        spec = KernelSpec("thinplate", theta=2, d=1, s=1.5)
        return fit_interpolant(spec, PolyFrame(1, 2), X, y)

    def test_round_trip_bitwise(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.model"
        io.save_model(model, path)
        loaded = io.load_model(path)
        np.testing.assert_array_equal(loaded.centers, model.centers)
        np.testing.assert_array_equal(loaded.v, model.v)
        np.testing.assert_array_equal(loaded.beta, model.beta)
        assert loaded.spec == model.spec
        assert loaded.kind == model.kind
        assert loaded.rho == model.rho
        probes = np.linspace(-1.4, 1.4, 25)
        np.testing.assert_array_equal(
            eval_model(loaded, probes), eval_model(model, probes)
        )

    @pytest.mark.parametrize("kind", ["interpolant", "exact_smoother",
                                      "approx_smoother"])
    def test_round_trip_equal(self, tmp_path, kind):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1.5, 1.5, (15, 1))
        y = np.sin(X[:, 0])
        spec, frame = KernelSpec("thinplate", theta=2, d=1, s=1.5), PolyFrame(1, 2)
        model = {
            "interpolant": lambda: fit_interpolant(spec, frame, X, y),
            "exact_smoother": lambda: fit_exact(spec, frame, X, y, 0.1),
            "approx_smoother": lambda: fit_approx(spec, frame, X, y, X[::2], 0.1),
        }[kind]()
        path = tmp_path / "m.model"
        io.save_model(model, path)
        loaded = io.load_model(path)
        assert loaded.kind == kind
        assert loaded == model and hash(loaded) == hash(model)

    def test_optional_params_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (10, 2))
        spec = KernelSpec("mq", theta=1, d=2, a=0.5)
        model = fit_interpolant(spec, PolyFrame(2, 1), X, rng.standard_normal(10))
        path = tmp_path / "m.model"
        io.save_model(model, path)
        loaded = io.load_model(path)
        assert loaded.spec.a == 0.5 and loaded.spec.s is None

    def test_truncated_file(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.model"
        io.save_model(model, path)
        clipped = path.read_text().splitlines()[:5]
        path.write_text("\n".join(clipped))
        with pytest.raises(ParseError):
            io.load_model(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("version 99\n")
        with pytest.raises(ParseError) as exc:
            io.load_model(path)
        assert exc.value.line == 1

    # lines of _model()'s file: 6 theta, 8 rho, 9 "centers 15", 10-24 the
    # center rows (d = 1), 25 "v 15", 26-40 the v entries
    @pytest.mark.parametrize("lineno, text", [
        (6, "theta x"),
        (9, "centers 1.5"),  # non-numeric count
        (9, "centers -3"),  # negative count
        (25, "v -3"),
        (8, "rho abc"),  # non-numeric coefficient
        (26, "1e"),
        (10, "0.5 0.25"),  # center row of the wrong width
        (10, "zero"),
        (2, "kind interp"),  # not one of MODEL_KINDS
        (3, "family wendland"),
        (7, "dim 1"),  # a wrong field name
    ])
    def test_malformed_field_reports_line(self, tmp_path, lineno, text):
        path = tmp_path / "m.model"
        io.save_model(self._model(), path)
        lines = path.read_text().splitlines()
        assert (lines[8], lines[24]) == ("centers 15", "v 15")
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            io.load_model(path)
        assert exc.value.line == lineno

    @pytest.mark.parametrize("kind, rho", RHO_MISFITS)
    def test_rho_must_fit_kind(self, tmp_path, kind, rho):
        path = tmp_path / "m.model"
        _save_with_rho(path, kind, rho)
        with pytest.raises(ParseError, match="rho") as exc:
            io.load_model(path)
        assert exc.value.line == 8

    def test_fields_that_make_no_model(self, tmp_path):
        # each field reads, but together they make no model: no line to name
        path = tmp_path / "m.model"
        io.save_model(self._model(), path)
        lines = path.read_text().splitlines()
        for edited, message in [
            (lines[:2] + ["family gauss"] + lines[3:], "gauss takes no s"),
            (lines[:24] + ["v 14"] + lines[26:], "one coefficient per center"),
            (lines[:25] + ["nan"] + lines[26:], "must be finite"),  # a v entry
            (lines[:42] + ["inf"], "must be finite"),  # the last beta entry
        ]:
            path.write_text("\n".join(edited) + "\n")
            with pytest.raises(ParseError, match=message) as exc:
                io.load_model(path)
            assert exc.value.line is None


@pytest.fixture
def sine_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.5, 1.5, 30)
    lines = [f"{xi:.17g},{np.sin(xi):.17g}" for xi in x]
    p = tmp_path / "sine.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


@pytest.fixture
def linear_csv(tmp_path):
    x = np.linspace(-1, 1, 12)
    p = tmp_path / "linear.csv"
    p.write_text("\n".join(f"{xi},{2 * xi + 1}" for xi in x) + "\n")
    return p


class TestCli:
    def test_interpolate_polynomial_data(self, linear_csv, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        code = main([
            "--out", str(out), "interpolate",
            "--data", str(linear_csv),
            "--kernel", "thinplate:s=1.5", "--theta", "2",
            "--eval=-1:1:5",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,prediction"
        for line in lines[1:]:
            x, pred = map(float, line.split(","))
            assert pred == pytest.approx(2 * x + 1, abs=1e-8)

    def test_save_then_eval_round_trip(self, sine_csv, tmp_path):
        model_path = tmp_path / "m.model"
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main([
            "--out", str(out1), "--quiet", "interpolate",
            "--data", str(sine_csv), "--kernel", "thinplate:s=1.5",
            "--theta", "2", "--eval=-1.4:1.4:21", "--save", str(model_path),
        ]) == 0
        assert main([
            "--out", str(out2), "eval",
            "--model", str(model_path), "--eval=-1.4:1.4:21",
        ]) == 0
        assert out1.read_text() == out2.read_text()

    def test_smooth_exact_diagnostics(self, sine_csv, tmp_path, capsys):
        code = main([
            "--quiet", "smooth-exact", "--data", str(sine_csv),
            "--kernel", "thinplate:s=1.5", "--theta", "2",
            "--rho", "0.01", "--diagnostics",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "ok=True" in err

    def test_smooth_approx_grid_and_compare(self, sine_csv, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        code = main([
            "--quiet", "smooth-approx", "--data", str(sine_csv),
            "--kernel", "thinplate:s=1.5", "--theta", "2",
            "--rho", "0.01", "--grid", "0:1:5", "--save", str(model_path),
            "--compare-exact",
        ])
        assert code == 0
        model = io.load_model(model_path)
        np.testing.assert_allclose(
            model.centers.ravel(), [0.0, 0.2, 0.4, 0.6, 0.8]
        )
        assert "Je_exact" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main([
            "interpolate", "--data", str(tmp_path / "absent.csv"),
            "--kernel", "gauss", "--theta", "1",
        ]) == 2

    # every file an invocation reads or writes, given a directory
    @pytest.mark.parametrize("argv", [
        ["interpolate", "--data", "{dir}", "--kernel", "gauss", "--theta", "1"],
        ["interpolate", "--data", "{csv}", "--kernel", "gauss", "--theta", "1",
         "--eval", "{dir}"],
        ["eval", "--model", "{dir}", "--eval=-1:1:5"],
        ["--out", "{dir}", "interpolate", "--data", "{csv}", "--kernel", "gauss",
         "--theta", "1", "--eval=-1:1:5"],
        ["interpolate", "--data", "{csv}", "--kernel", "gauss", "--theta", "1",
         "--save", "{dir}"],
    ], ids=["data", "eval", "model", "out", "save"])
    def test_directory_path_exit_2(self, sine_csv, tmp_path, capsys, argv):
        argv = [a.format(dir=tmp_path, csv=sine_csv) for a in argv]
        assert main(argv) == 2
        # a fit reports itself on stderr before its output is written
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")

    def test_undecodable_data_exit_2(self, tmp_path, capsys):
        p = tmp_path / "data.csv"
        p.write_bytes(b"0,1\n\xff,2\n1,3\n")
        assert main([
            "interpolate", "--data", str(p), "--kernel", "gauss", "--theta", "1",
        ]) == 2
        assert "not a text file" in capsys.readouterr().err

    def test_bad_kernel_exit_2(self, sine_csv):
        assert main([
            "interpolate", "--data", str(sine_csv),
            "--kernel", "nope", "--theta", "1",
        ]) == 2

    def test_non_unisolvent_exit_2(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("0,0,1\n1,0,2\n2,0,3\n")  # collinear in d=2
        assert main([
            "interpolate", "--data", str(p),
            "--kernel", "gauss", "--theta", "2",
        ]) == 2

    def test_numerical_failure_exit_3(self, tmp_path):
        # two nearly coincident points make the interpolation system
        # singular to working precision
        p = tmp_path / "bad.csv"
        p.write_text("0,1\n1e-300,2\n1,3\n")
        code = main([
            "interpolate", "--data", str(p),
            "--kernel", "gauss", "--theta", "1",
        ])
        assert code == 3

    def test_study_density(self, tmp_path):
        out = tmp_path / "density.csv"
        code = main([
            "--out", str(out), "study", "density",
            "--max-size", "500", "--n-sizes", "8", "--multiplier", "1.5",
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("N,h")
        assert "h1=" in text

    def test_study_convergence(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = main([
            "--out", str(out), "study", "convergence",
            "--kernel", "thinplate:s=1.5", "--theta", "2",
            "--sizes", "40,80,160", "--data-fn", "sin",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,h,err_max,rho,Je,slope_partial"
        assert any(line.startswith("# slope=") for line in lines)

    def test_study_rho_search(self, sine_csv, tmp_path):
        out = tmp_path / "rho.csv"
        code = main([
            "--out", str(out), "study", "rho-search",
            "--data", str(sine_csv), "--kernel", "thinplate:s=1.5",
            "--theta", "2", "--grid=-1.5:1.5:8", "--rho0", "0.01",
        ])
        assert code == 0
        assert "best_rho=" in out.read_text()

    def test_study_rho_search_overflowing_rho0_is_input_error(self, sine_csv, capsys):
        code = main([
            "study", "rho-search", "--data", str(sine_csv),
            "--kernel", "thinplate:s=1.5", "--theta", "2", "--grid=-1.5:1.5:8",
            "--rho0", "1e305",
        ])
        assert code == 2
        assert "overflow" in capsys.readouterr().err

    def test_study_rho_search_error_grid(self, sine_csv, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        argv = [
            "--out", str(out), "study", "rho-search",
            "--data", str(sine_csv), "--kernel", "thinplate:s=1.5",
            "--theta", "2", "--grid=-1.5:1.5:8", "--rho0", "0.01",
            "--error-grid=-1.4:1.4:50",
        ]
        assert main(argv + ["--data-fn", "sin"]) == 0
        assert "best_rho=" in out.read_text()
        out.unlink()
        assert main(argv) == 2
        assert "--data-fn" in capsys.readouterr().err
        assert not out.exists()

    def test_study_rho_search_data_fn_needs_error_grid(self, sine_csv, capsys):
        assert main([
            "study", "rho-search", "--data", str(sine_csv), "--kernel",
            "thinplate:s=1.5", "--theta", "2", "--grid=-1.5:1.5:8", "--data-fn", "sin",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --data-fn requires --error-grid\n"

    @staticmethod
    def _study(tmp_path, *argv):
        out = tmp_path / "study.csv"
        assert main(["--out", str(out), *argv]) == 0
        return out.read_text()

    def test_study_density_seeds(self, tmp_path):
        def density(seed, *argv):
            return self._study(
                tmp_path, "--seed", str(seed), "study", "density",
                "--max-size", "500", "--n-sizes", "8", "--multiplier", "1.5", *argv,
            ).splitlines()

        one = density(0)
        assert density(0, "--seeds", "1") == one
        three = density(0, "--seeds", "3")
        per_seed = [density(seed)[-1] for seed in range(3)]
        fit_lines = [line for line in three if line.startswith("# h1=")]
        assert fit_lines == per_seed
        assert [line for line in three if not line.startswith("#")] == one[:-1]
        median = three[-1]
        assert median.startswith("# median of seeds 0..2: ")
        h1 = [float(line.split()[1].removeprefix("h1=")) for line in per_seed]
        assert f"h1={np.median(h1):.6g} " in median

    def test_study_density_seeds_validated(self, capsys):
        assert main(["study", "density", "--seeds", "0"]) == 2
        assert "--seeds" in capsys.readouterr().err

    _CONVERGENCE = (
        "study", "convergence", "--kernel", "thinplate:s=1.5", "--theta", "2",
        "--sizes", "40,80,160",
    )

    @staticmethod
    def _rows(text):
        return [line.split(",") for line in text.splitlines()[1:]
                if not line.startswith("#")]

    def test_study_convergence_couple_amplitude(self, tmp_path):
        bare = self._study(tmp_path, *self._CONVERGENCE, "--couple")
        assert self._study(tmp_path, *self._CONVERGENCE, "--couple", "1") == bare
        scaled = self._study(tmp_path, *self._CONVERGENCE, "--couple", "100")
        coupling = RhoCoupling(
            eta_G=predicted_orders(KernelSpec("thinplate", 2, 1, s=1.5)).eta_G,
            a_exp=0.81,
        )
        for row, row100 in zip(self._rows(bare), self._rows(scaled), strict=True):
            h, rho = float(row[1]), float(row[3])
            assert row100[1] == row[1]  # same samples, same fill distance
            assert rho == pytest.approx(coupling.rho(h), rel=1e-8)
            # rho is quadratic in the amplitude
            assert float(row100[3]) == pytest.approx(1e4 * rho, rel=1e-9)

    def test_study_convergence_approx_grid(self, tmp_path):
        text = self._study(tmp_path, *self._CONVERGENCE, "--grid=-1.5:1.5:20",
                           "--rho", "1e-6")
        rows = self._rows(text)
        assert [row[0] for row in rows] == ["40", "80", "160"]
        assert all(float(row[3]) == 1e-6 for row in rows)
        assert all(0.0 < float(row[2]) < 0.01 for row in rows)
        assert "# slope=" in text

    @pytest.mark.parametrize("grid", ["0:1:20", "5:9:20", "-1.5,-1.5:1.5,1.5:5,5"])
    def test_study_convergence_grid_box_must_be_region(self, grid, capsys):
        assert main([*self._CONVERGENCE, f"--grid={grid}", "--rho", "1e-6"]) == 2
        assert "must equal --region -1.5:1.5" in capsys.readouterr().err

    def test_study_convergence_grid_on_its_region(self, tmp_path):
        text = self._study(tmp_path, *self._CONVERGENCE, "--region=0:3",
                           "--grid=0:3:20", "--rho", "1e-6")
        assert [row[0] for row in self._rows(text)] == ["40", "80", "160"]

    @pytest.mark.parametrize("region", ["0:1:2", "0:x", "1:0", "0,0:1"])
    @pytest.mark.parametrize("command", [
        ("study", "density", "--max-size", "50", "--n-sizes", "3"),
        _CONVERGENCE,
    ])
    def test_study_bad_region_exit_2(self, command, region, capsys):
        assert main([*command, f"--region={region}"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("region", ["0:1e308", "-inf:inf"])
    def test_study_density_infinite_box_exit_2(self, region, capsys):
        # named as the box's fault, not as h = inf or non-finite points
        assert main(["study", "density", f"--region={region}", "--max-size", "50",
                     "--n-sizes", "3", "--multiplier", "2"]) == 2
        assert "error: box requires finite corners" in capsys.readouterr().err

    def test_eval_malformed_model_exit_2(self, sine_csv, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        assert main(["--quiet", "interpolate", "--data", str(sine_csv),
                     "--kernel", "thinplate:s=1.5", "--theta", "2",
                     "--save", str(model_path)]) == 0
        saved = model_path.read_text()
        lines = saved.splitlines()
        lines[next(i for i, line in enumerate(lines) if line.startswith("v ")) + 1] = "nan"
        for text in (saved.replace("theta 2", "theta x"), "\n".join(lines) + "\n"):
            model_path.write_text(text)
            assert main(["eval", "--model", str(model_path), "--eval=-1:1:5"]) == 2
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, rho", RHO_MISFITS)
    def test_eval_rho_misfit_exit_2(self, tmp_path, capsys, kind, rho):
        path = tmp_path / "m.model"
        _save_with_rho(path, kind, rho)
        assert main(["eval", "--model", str(path), "--eval=-1:1:5"]) == 2
        assert "error: line 8: " in capsys.readouterr().err

    def test_study_convergence_bad_sizes_exit_2(self, capsys):
        assert main([*self._CONVERGENCE[:-1], "50,abc"]) == 2
        assert "error:" in capsys.readouterr().err

    _SCALING = ("study", "scaling", "--kernel", "thinplate:s=1.5", "--theta", "2",
                "--sizes", "500,1000", "--rho", "1e-4")

    @pytest.mark.parametrize("grid, centers", [
        ("-1.5:1.5:4", 4),
        ("-1.5,-1.5:1.5,1.5:4,4", 16),
    ])
    def test_study_scaling(self, tmp_path, grid, centers):
        text = self._study(tmp_path, *self._SCALING, f"--grid={grid}")
        assert text.startswith("N,median_s,min_s\n")
        rows = self._rows(text)
        assert [row[0] for row in rows] == ["500", "1000"]
        assert all(0.0 < float(row[2]) <= float(row[1]) for row in rows)
        assert f" N'={centers} " in text
        assert "# 1000/500: time ratio " in text and ", size ratio 2\n" in text

    def test_study_scaling_bad_sizes_exit_2(self, capsys):
        assert main([*self._SCALING, "--sizes", "50,abc", "--grid=-1.5:1.5:4"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_determinism(self, sine_csv, tmp_path):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert main([
                "--out", str(out), "--seed", "3", "study", "convergence",
                "--kernel", "thinplate:s=1.5", "--theta", "2",
                "--sizes", "40,80", "--data-fn", "sin",
            ]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_eval_points_from_file(self, sine_csv, tmp_path):
        model_path = tmp_path / "m.model"
        assert main([
            "--quiet", "interpolate", "--data", str(sine_csv),
            "--kernel", "thinplate:s=1.5", "--theta", "2",
            "--save", str(model_path),
        ]) == 0
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0\n0.5\n-0.5\n")
        out = tmp_path / "pred.csv"
        assert main([
            "--out", str(out), "eval", "--model", str(model_path),
            "--eval", str(pts),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
