import math

import numpy as np
import pytest

from bfsmooth import assembly
from bfsmooth.approx_smoother import (
    GridSpec,
    Region,
    compare,
    fit_approx,
    fit_parts,
    grid_density,
    make_grid,
    parse_box,
    parse_grid,
)
from bfsmooth.assembly import RESIDUAL_RTOL, approx_parts, solve_block
from bfsmooth.errors import ParameterError, ParseError
from bfsmooth.exact_smoother import fit_exact, functional_value
from bfsmooth.interpolant import eval_model
from bfsmooth.kernels import KernelSpec
from bfsmooth.polyspace import PolyFrame, is_unisolvent, unisolvency_matrix
from bfsmooth.study import cavity_density
from conftest import scattered_points

TPS = KernelSpec("thinplate", theta=2, d=1, s=1.5)


def _instance(seed, N=40, d=1, theta=2):
    rng = np.random.default_rng(seed)
    X = scattered_points(rng, N, d)
    y = rng.standard_normal(N)
    frame = PolyFrame(d, theta)
    spec = KernelSpec("thinplate", theta=theta, d=d, s=theta - 0.5)
    return spec, frame, X, y


class TestGridSpec:
    def test_d1_two_points(self):
        gs = GridSpec(a=0.0, b=1.0, counts=(2,))
        np.testing.assert_allclose(gs.h, [0.5])
        np.testing.assert_allclose(make_grid(gs).ravel(), [0.0, 0.5])

    def test_b_is_not_a_node(self):
        gs = GridSpec(a=0.0, b=1.0, counts=(5,))
        nodes = make_grid(gs).ravel()
        np.testing.assert_allclose(nodes, [0.0, 0.2, 0.4, 0.6, 0.8])
        assert 1.0 not in nodes

    def test_d2_four_points(self):
        gs = GridSpec(a=(0, 0), b=(1, 1), counts=(2, 2))
        np.testing.assert_allclose(gs.h, [0.5, 0.5])
        nodes = make_grid(gs)
        assert nodes.shape == (4, 2)
        # row-major: last axis fastest
        np.testing.assert_allclose(
            nodes, [(0, 0), (0, 0.5), (0.5, 0), (0.5, 0.5)]
        )

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("theta", [1, 2, 3])
    def test_unisolvent_when_counts_at_least_theta(self, d, theta):
        gs = GridSpec(a=np.zeros(d), b=np.ones(d), counts=(theta,) * d)
        assert is_unisolvent(PolyFrame(d, theta), make_grid(gs, theta))

    def test_warning_when_counts_below_theta(self):
        gs = GridSpec(a=0.0, b=1.0, counts=(2,))
        with pytest.warns(UserWarning):
            make_grid(gs, theta=3)

    def test_axis_count_below_theta_is_never_unisolvent(self):
        # one axis with 2 < theta = 3 nodes, however many on the other
        gs = GridSpec(a=(0, 0), b=(1, 1), counts=(2, 9))
        with pytest.warns(UserWarning, match="grid is not 3-unisolvent"):
            nodes = make_grid(gs, theta=3)
        assert not is_unisolvent(PolyFrame(2, 3), nodes)

    def test_invalid_corners(self):
        with pytest.raises(ParameterError):
            GridSpec(a=1.0, b=0.0, counts=(2,))
        with pytest.raises(ParameterError):
            GridSpec(a=0.0, b=1.0, counts=(0,))

    def test_is_a_region_with_its_corner_checks(self):
        gs = GridSpec(a=(0, -1), b=(2, 1), counts=(4, 2))
        assert isinstance(gs, Region) and gs.d == 2
        for a, b in [(1.0, 0.0), ((0, 0), (1, 0)), ((0, 0), 1.0)]:
            with pytest.raises(ParameterError) as region_fault:
                Region(a=a, b=b)
            with pytest.raises(ParameterError) as grid_fault:
                GridSpec(a=a, b=b, counts=(2,) * np.size(a))
            assert str(grid_fault.value) == str(region_fault.value)


class TestBoxEquality:
    @pytest.mark.parametrize("a, b, other_b", [
        (0.0, 1.0, 2.0), ((0, 0), (1, 1), (1, 2)),
    ])
    def test_value_equality_and_hash(self, a, b, other_b):
        box = Region(a=a, b=b)
        same = Region(a=np.array(a, dtype=float), b=b)
        assert box == same and not box != same
        assert hash(box) == hash(same) and len({box, same}) == 1
        assert box != Region(a=a, b=other_b)
        grid = GridSpec(a=a, b=b, counts=(4,) * np.size(a))
        assert grid == GridSpec(a=a, b=b, counts=(4,) * np.size(a))
        assert hash(grid) == hash(GridSpec(a=a, b=b, counts=(4,) * np.size(a)))
        assert grid != GridSpec(a=a, b=b, counts=(5,) * np.size(a))
        assert grid != GridSpec(a=a, b=other_b, counts=(4,) * np.size(a))
        # a grid is not a plain box, even on the same corners
        assert grid != box and box != grid
        assert Region(a=grid.a, b=grid.b) == box

    def test_different_d_unequal(self):
        assert Region(a=0.0, b=1.0) != Region(a=(0, 0), b=(1, 1))


class TestParseGrid:
    def test_d1(self):
        gs = parse_grid("0:1:5")
        assert gs.counts == (5,)
        np.testing.assert_allclose([gs.a[0], gs.b[0]], [0.0, 1.0])

    def test_d2(self):
        gs = parse_grid("-1,-1:1,1:4,6")
        assert gs.counts == (4, 6)

    @pytest.mark.parametrize("text", ["0:1", "0:1:a", "1:0:5", "0,0:1:5"])
    def test_bad_specs(self, text):
        with pytest.raises(ParseError):
            parse_grid(text)


class TestParseBox:
    def test_box_is_a_region_not_a_grid(self):
        box = parse_box("-1,0:1,2")
        assert type(box) is Region
        np.testing.assert_array_equal(box.a, [-1.0, 0.0])
        np.testing.assert_array_equal(box.b, [1.0, 2.0])

    @pytest.mark.parametrize("text, message", [
        ("0:1:3", "box spec '0:1:3' must have form a:b"),
        ("0:x", "bad box spec '0:x': could not convert string to float: 'x'"),
        ("1:0", "box requires b > a componentwise"),
        ("0,0:1", "box requires b > a componentwise"),
    ])
    def test_bad_specs(self, text, message):
        with pytest.raises(ParseError) as fault:
            parse_box(text)
        assert str(fault.value) == message


class TestGridDensity:
    def test_d1_example(self):
        gs = GridSpec(a=0.0, b=3.0, counts=(4,))
        assert grid_density(gs) == pytest.approx(0.75)

    def test_d2_example(self):
        gs = GridSpec(a=(0, 0), b=(1, 1), counts=(2, 2))
        assert grid_density(gs) == pytest.approx(np.sqrt(0.5))

    @pytest.mark.parametrize("a, b, counts", [
        ((0, 0), (1, 1), (2, 4)),  # |h| = 0.559
        ((0, 0), (3, 1), (3, 4)),  # |h| = 1.031
        ((0, -1, 0), (1, 1, 2), (3, 2, 5)),
    ])
    def test_anisotropic_is_step_norm_and_measured(self, a, b, counts):
        gs = GridSpec(a=a, b=b, counts=counts)
        # the corner b is a probe, |h| from its nearest node b - h
        measured = cavity_density(gs, make_grid(gs), 61)
        assert grid_density(gs) == pytest.approx(measured, rel=1e-12)

    def test_quadrupling_halves_density_d2(self):
        coarse = GridSpec(a=(0, 0), b=(1, 1), counts=(3, 3))
        fine = GridSpec(a=(0, 0), b=(1, 1), counts=(6, 6))
        assert grid_density(fine) == pytest.approx(grid_density(coarse) / 2.0)


class TestFitApprox:
    @pytest.mark.parametrize("rho", [0.0, math.nan, math.inf, 1e307])
    def test_invalid_rho_rejected(self, rho):
        spec, frame, X, y = _instance(0)
        with pytest.raises(ParameterError):
            fit_approx(spec, frame, X, y, np.linspace(-1, 1, 5), rho=rho)

    def test_chunk_one_matches_default(self, monkeypatch):
        spec, frame, X, y = _instance(8)
        Xp = np.linspace(-1, 1, 5)
        default = fit_approx(spec, frame, X, y, Xp, rho=0.1)
        monkeypatch.setattr(assembly, "DEFAULT_CHUNK", 1)
        one = fit_approx(spec, frame, X, y, Xp, rho=0.1)
        np.testing.assert_allclose(one.v, default.v, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(one.beta, default.beta, rtol=1e-8, atol=1e-10)

    def test_centers_equal_data_matches_exact(self):
        spec, frame, X, y = _instance(1, N=30)
        rho = 0.1
        exact = fit_exact(spec, frame, X, y, rho)
        approx = fit_approx(spec, frame, X, y, X, rho)
        probes = np.linspace(-1.4, 1.4, 50)
        np.testing.assert_allclose(
            eval_model(approx, probes), eval_model(exact, probes), atol=1e-7
        )

    def test_polynomial_data_reproduced(self):
        spec, frame, X, _ = _instance(2)
        y = 0.5 + 2.0 * X[:, 0]
        Xp = make_grid(GridSpec(a=-1.5, b=1.5, counts=(9,)), frame.theta)
        model = fit_approx(spec, frame, X, y, Xp, rho=0.3)
        probes = np.linspace(-1.4, 1.4, 50)
        np.testing.assert_allclose(
            eval_model(model, probes), 0.5 + 2.0 * probes, atol=1e-8
        )

    def test_residual_orthogonal_to_polynomials(self):
        spec, frame, X, y = _instance(3, N=60)
        Xp = make_grid(GridSpec(a=-1.5, b=1.5, counts=(8,)), frame.theta)
        model = fit_approx(spec, frame, X, y, Xp, rho=0.05)
        P = unisolvency_matrix(frame, X)
        gap = P.T @ (eval_model(model, X) - y)
        assert np.linalg.norm(gap) <= 1e-7 * np.linalg.norm(y)

    def test_centers_are_grid(self):
        spec, frame, X, y = _instance(4)
        Xp = make_grid(GridSpec(a=-1.5, b=1.5, counts=(7,)), frame.theta)
        model = fit_approx(spec, frame, X, y, Xp, rho=0.1)
        np.testing.assert_array_equal(model.centers, Xp)
        assert model.kind == "approx_smoother"

    def test_nested_grids_functional_non_increasing(self):
        spec, frame, X, y = _instance(5, N=80)
        rho = 0.1
        values = []
        for counts in (5, 10, 20):
            Xp = make_grid(GridSpec(a=-1.5, b=1.5, counts=(counts,)), frame.theta)
            model = fit_approx(spec, frame, X, y, Xp, rho)
            values.append(functional_value(model, X, y, rho))
        exact = fit_exact(spec, frame, X, y, rho)
        J_exact = functional_value(exact, X, y, rho)
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo + 1e-10 * (1.0 + abs(lo))
        for J in values:
            assert J >= J_exact - 1e-10 * (1.0 + abs(J_exact))

    def test_functional_converges_as_centers_approach_data(self):
        spec, frame, X, y = _instance(6, N=25)
        rho = 0.2
        exact = fit_exact(spec, frame, X, y, rho)
        J_exact = functional_value(exact, X, y, rho)
        rng = np.random.default_rng(6)
        bump = rng.standard_normal(X.shape)
        gaps = []
        for k in range(1, 7):
            Xp = X + bump * 10.0 ** (-k)
            model = fit_approx(spec, frame, X, y, Xp, rho)
            gaps.append(functional_value(model, X, y, rho) - J_exact)
        assert gaps[-1] <= 1e-6
        for lo, hi in zip(gaps, gaps[1:]):
            assert hi <= lo + 1e-9


class TestFitParts:
    def test_matches_fit_approx(self):
        # The first rho of a parts is LU's solution, bit for bit.  Later rho
        # may take the spectral candidate: the full solution passes the
        # solver's residual gate and the model is LU's to rounding.
        spec, frame, X, y = _instance(7, N=60)
        Xp = make_grid(GridSpec(a=-1.5, b=1.5, counts=(8,)), frame.theta)
        parts = approx_parts(spec, frame, X, y, Xp)
        for k, rho in enumerate((1e-3, 0.1, 1e-6)):
            got = fit_parts(parts, rho)
            want = fit_approx(spec, frame, X, y, Xp, rho)
            if k == 0:
                np.testing.assert_array_equal(got.v, want.v)
                np.testing.assert_array_equal(got.beta, want.beta)
            else:
                sys = parts.system(rho)
                sol = solve_block(sys)
                np.testing.assert_array_equal(np.concatenate([got.v, got.beta]),
                                              sol[: len(Xp) + frame.M])
                residual = np.linalg.norm(sys.matrix @ sol - sys.rhs)
                assert residual <= 0.05 * RESIDUAL_RTOL * np.linalg.norm(sys.rhs)
                for a, b in ((got.v, want.v), (got.beta, want.beta)):
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-8 * np.abs(b).max())
            np.testing.assert_array_equal(got.centers, want.centers)
            assert (got.spec, got.frame, got.kind, got.rho) == (
                want.spec, want.frame, want.kind, want.rho
            )


class TestCompare:
    def test_identical_center_sets(self):
        spec, frame, X, y = _instance(7, N=30)
        rho = 0.1
        exact = fit_exact(spec, frame, X, y, rho)
        approx = fit_approx(spec, frame, X, y, X, rho)
        record = compare(exact, approx, X, y, rho)
        assert abs(record.lhs) <= 1e-9
        assert abs(record.rhs) <= 1e-9

    def test_wrong_length_y_rejected(self):
        spec, frame, X, y = _instance(9, N=30)
        exact = fit_exact(spec, frame, X, y, 0.1)
        approx = fit_approx(spec, frame, X, y, X[::2], 0.1)
        with pytest.raises(ParameterError, match="y must have length 30"):
            compare(exact, approx, X, y[:-1], 0.1)

    def test_gap_identity_random_instance(self):
        spec, frame, X, y = _instance(8, N=40)
        rho = 0.1
        Xp = make_grid(GridSpec(a=-1.5, b=1.5, counts=(9,)), frame.theta)
        exact = fit_exact(spec, frame, X, y, rho)
        approx = fit_approx(spec, frame, X, y, Xp, rho)
        record = compare(exact, approx, X, y, rho)
        assert abs(record.gap) <= 1e-7 * (1.0 + abs(record.J_e_approx))
        assert record.J_e_approx >= record.J_e_exact - 1e-10
