import math

import numpy as np
import pytest

from bfsmooth import study
from bfsmooth.approx_smoother import GridSpec, make_grid
from bfsmooth.errors import InputError, ParameterError, SearchError, SolveError
from bfsmooth.interpolant import (
    FittedModel,
    eval_model,
    fit_interpolant,
    seminorm_sq,
)
from bfsmooth.kernels import KernelSpec, kernel_matrix, predicted_orders
from bfsmooth.polyspace import PolyFrame, minimal_unisolvent_subset
from bfsmooth.study import (
    SCALING_ROUNDS,
    Region,
    RepresenterData,
    RhoCoupling,
    cavity_density,
    convergence_sweep,
    density_law,
    exponential_sizes,
    gen_uniform,
    grid_error_fn,
    residual_error_fn,
    rho_search,
    scaling_study,
)

BOX1 = Region(a=-1.5, b=1.5)
TPS = KernelSpec("thinplate", theta=2, d=1, s=1.5)
GRID10 = make_grid(GridSpec(a=-1.5, b=1.5, counts=(10,)))


class TestGenUniform:
    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            gen_uniform(BOX1, 0, seed=0)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            gen_uniform(BOX1, 100, seed=42), gen_uniform(BOX1, 100, seed=42)
        )

    def test_inside_box(self):
        X = gen_uniform(Region(a=(0, -2), b=(1, 2)), 1000, seed=1)
        assert np.all(X[:, 0] >= 0) and np.all(X[:, 0] < 1)
        assert np.all(X[:, 1] >= -2) and np.all(X[:, 1] < 2)

    def test_mean_near_midpoint(self):
        N = 100_000
        X = gen_uniform(BOX1, N, seed=2)
        sigma = 3.0 / np.sqrt(12.0) / np.sqrt(N)  # box width 3
        assert abs(np.mean(X)) <= 5 * sigma


class TestCavityDensity:
    def test_endpoints_give_midpoint_distance(self):
        assert cavity_density(BOX1, [-1.5, 1.5], 10_001) == pytest.approx(
            1.5, abs=1e-3
        )

    def test_asymmetric_pair(self):
        assert cavity_density(BOX1, [-1.0, 0.5], 10_001) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_probe_refinement_lipschitz_bound(self):
        X = gen_uniform(BOX1, 50, seed=3)
        coarse = cavity_density(BOX1, X, 1000)
        fine = cavity_density(BOX1, X, 10_000)
        assert abs(coarse - fine) <= 3.0 / 1000

    @pytest.mark.parametrize("X, per_axis, error", [
        ([0.0], 1, ParameterError),  # one probe per axis measures no box
        (np.zeros((0, 1)), 10, InputError),
    ])
    def test_rejected(self, X, per_axis, error):
        with pytest.raises(error):
            cavity_density(BOX1, X, per_axis)

    def test_monotone_under_point_addition(self):
        rng = np.random.default_rng(4)
        X = gen_uniform(BOX1, 20, seed=4)
        h = cavity_density(BOX1, X, 2000)
        for _ in range(5):
            X = np.vstack([X, rng.uniform(-1.5, 1.5, (10, 1))])
            h_new = cavity_density(BOX1, X, 2000)
            assert h_new <= h + 1e-12
            h = h_new


class TestDensityLaw:
    def test_exact_power_law_through_two_points(self):
        # synthetic check piggybacking on real samples is noisy; instead
        # verify the OLS machinery via the scale-free property below and
        # recovery on actual nested sizes
        fit = density_law(BOX1, [100, 5000], seed=0)
        assert len(fit.rows) == 2
        # two points: fit is exact, r^2 = 1
        assert fit.r2 == pytest.approx(1.0)

    def test_reference_run_brackets_published_constants(self):
        # single-seed fits are noisy; the published constants are bracketed
        # by the median over a few seeds
        sizes = exponential_sizes(20, 5000, 1.3)
        fits = [density_law(BOX1, sizes, seed=seed) for seed in range(5)]
        assert 0.70 <= np.median([f.a_exp for f in fits]) <= 0.92
        assert 2.0 <= np.median([f.h1 for f in fits]) <= 4.5

    def test_scale_free_exponent(self):
        sizes = exponential_sizes(10, 2000, 1.5)
        fit1 = density_law(BOX1, sizes, seed=5)
        fit2 = density_law(Region(a=-3.0, b=3.0), sizes, seed=5)
        # doubling the box roughly doubles h1; slope comes from the same
        # uniform geometry either way
        assert fit2.a_exp == pytest.approx(fit1.a_exp, abs=0.1)

    def test_sizes_validated(self):
        with pytest.raises(ParameterError):
            density_law(BOX1, [100], seed=0)
        with pytest.raises(ParameterError):
            density_law(BOX1, [100, 100], seed=0)


class TestExponentialSizes:
    def test_ends_at_maximum(self):
        sizes = exponential_sizes(20, 5000, 1.2)
        assert sizes[-1] == 5000
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_count(self):
        assert len(exponential_sizes(20, 5000, 1.3)) == 20

    @pytest.mark.parametrize("maximum", [1, 0, -5])
    def test_maximum_below_two_rejected(self, maximum):
        # a floor of 2 would put sizes above such a maximum
        with pytest.raises(ParameterError, match="maximum"):
            exponential_sizes(3, maximum, 1.2)

    @pytest.mark.parametrize("n_sizes", [0, -3])
    def test_no_sizes_rejected(self, n_sizes):
        # it used to return [maximum], one size for none requested
        with pytest.raises(ParameterError, match=f"number of sizes must be >= 1, "
                           f"got {n_sizes}"):
            exponential_sizes(n_sizes, 50, 1.2)

    def test_never_exceeds_maximum(self):
        assert exponential_sizes(1, 2, 1.2) == [2]
        assert exponential_sizes(3, 7, 1.1) == [5, 6, 7]

    @pytest.mark.parametrize("n_sizes, maximum, multiplier, distinct", [
        (20, 20, 1.2, 12), (3, 2, 1.2, 1), (30, 7, 1.1, 3), (20, 50, 1.01, 1),
    ])
    def test_collapsed_sizes_rejected(self, n_sizes, maximum, multiplier, distinct):
        # rounding repeats a size once n / multiplier rounds back to n
        with pytest.raises(ParameterError, match=f"rounding leaves {distinct} "
                           f"distinct sizes of the {n_sizes} requested"):
            exponential_sizes(n_sizes, maximum, multiplier)


class TestProbeBudgets:
    @pytest.mark.parametrize("d, density, error", [
        (1, 10_000, 100), (2, 256, 100), (3, 40, 21), (4, 16, 10),
    ])
    def test_per_axis_within_budget(self, d, density, error, monkeypatch):
        asked = []
        build = Region.probe_grid

        def spy(region, per_axis, shrink=0.0):
            asked.append(per_axis)
            return build(region, 2, shrink)  # a corner grid stands in

        monkeypatch.setattr(Region, "probe_grid", spy)
        region = Region(a=np.zeros(d), b=np.ones(d))
        density_law(region, (6, 12), seed=0)
        assert asked == [density, density]
        asked.clear()
        spec = KernelSpec("thinplate", theta=2, d=d, s=1.5)
        convergence_sweep(spec, PolyFrame(d, 2), region, lambda x: 0.0, (12,))
        assert asked == [error, density]
        assert error**d <= 10_000 < (error + 1) ** d or error == 100
        assert density**d <= 65_536 < (density + 1) ** d or density == 10_000


class TestRhoCoupling:
    def test_exponent(self):
        c = RhoCoupling(eta_G=1.0, a_exp=0.81)
        # rho proportional to h^(2 eta_G + 1/a)
        expo = 2 * 1.0 + 1.0 / 0.81
        assert c.rho(0.1) / c.rho(0.05) == pytest.approx(2.0**expo)

    def test_amplitude_scales_quadratically(self):
        base = RhoCoupling(eta_G=1.0)
        amped = RhoCoupling(eta_G=1.0, amplitude=10.0)
        assert amped.rho(0.2) == pytest.approx(100.0 * base.rho(0.2))

    @pytest.mark.parametrize("setting", [
        {"amplitude": 0.0}, {"amplitude": -1.0}, {"amplitude": math.nan},
        {"amplitude": math.inf}, {"a_exp": 0.0}, {"a_exp": -0.8},
        {"a_exp": math.nan}, {"eta_G": 0.0}, {"eta_G": -1.0},
    ])
    def test_settings_that_give_no_valid_rho_rejected(self, setting):
        # none gives a valid rho: rho is quadratic in the amplitude, divides
        # by a_exp, and is 0 for every h at eta_G = 0
        with pytest.raises(ParameterError, match="rho coupling"):
            RhoCoupling(**{"eta_G": 1.0, **setting})


class TestConvergenceSweep:
    def test_polynomial_data_flagged(self):
        report = convergence_sweep(
            TPS, PolyFrame(1, 2), BOX1, lambda x: 1.0 + float(np.sum(x)), (30, 60, 120)
        )
        assert all(row.err_max <= 1e-8 for row in report.rows)
        assert report.slope is None
        assert report.slope_flag

    def test_interpolant_sine_order(self):
        report = convergence_sweep(
            TPS, PolyFrame(1, 2), BOX1, lambda x: float(np.sin(np.sum(x))),
            (50, 100, 200, 400),
        )
        predicted = predicted_orders(TPS).eta_G
        assert report.slope is not None
        assert report.slope >= predicted - 0.25

    def test_deterministic(self):
        runs = [
            convergence_sweep(
                TPS, PolyFrame(1, 2), BOX1, lambda x: float(np.sin(np.sum(x))),
                (40, 80), seed=7,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_rows_sample_gen_uniform_streams(self):
        # row i fits gen_uniform(region, N, (seed, i)): the same sample
        # gives the same fill distance on the d = 2 grid of 256 per axis
        region = Region(a=(-1.0, 0.0), b=(1.0, 0.5))
        report = convergence_sweep(
            KernelSpec("thinplate", theta=2, d=2, s=1.5), PolyFrame(2, 2), region,
            lambda x: float(np.sin(np.sum(x))), (20, 40, 80), seed=3,
        )
        for i, row in enumerate(report.rows):
            X = gen_uniform(region, row.N, (3, i))
            assert row.h == cavity_density(region, X, 256)

    @pytest.mark.parametrize("rho", [-1.0, 0.0, math.nan])
    def test_exact_mode_needs_valid_rho(self, rho):
        with pytest.raises(ParameterError):
            convergence_sweep(TPS, PolyFrame(1, 2), BOX1, lambda x: 0.0, (30, 60),
                              rho=rho)

    def test_centers_need_rho(self):
        with pytest.raises(ParameterError, match="centers require rho"):
            convergence_sweep(TPS, PolyFrame(1, 2), BOX1, lambda x: 0.0, (30, 60),
                              centers=GRID10)

    def test_centers_of_another_d_rejected(self):
        # a fault of the call, not of one row: no row is fitted
        with pytest.raises(InputError, match="shape"):
            convergence_sweep(TPS, PolyFrame(1, 2), BOX1, lambda x: 0.0, (30, 60),
                              rho=0.01, centers=np.zeros((10, 2)))

    # `case` only names the case in its test id and failure message
    @pytest.mark.parametrize("rho, centers, case, fitter", [
        (None, None, "interpolant", "fit_interpolant"),
        (0.01, None, "exact", "fit_exact"),
        (RhoCoupling(eta_G=1.0), None, "exact", "fit_exact"),
        (0.01, GRID10, "approx", "fit_approx"),
        (RhoCoupling(eta_G=1.0), GRID10, "approx", "fit_approx"),
    ])
    def test_inputs_pick_the_fit(self, rho, centers, case, fitter, sweep_fits):
        report = convergence_sweep(
            TPS, PolyFrame(1, 2), BOX1, lambda x: float(np.sin(np.sum(x))),
            (30, 60), rho=rho, centers=centers,
        )
        assert sweep_fits == [fitter, fitter], case
        for row in report.rows:
            want = rho if isinstance(rho, float) else rho.rho(row.h) if rho else 0.0
            assert row.ok and row.rho == want

    def test_approx_mode_saturates_at_grid_resolution(self):
        def sweep(per_axis):
            return convergence_sweep(
                TPS, PolyFrame(1, 2), BOX1, lambda x: float(np.sin(np.sum(x))),
                (50, 100, 200, 400), rho=1e-6,
                centers=make_grid(GridSpec(a=-1.5, b=1.5, counts=(per_axis,)), 2),
            )

        coarse, fine = sweep(10), sweep(30)
        assert all(row.ok and row.rho == 1e-6 for row in coarse.rows + fine.rows)
        # the centers stay fixed as N grows, so the error stops falling
        assert abs(coarse.slope) < 0.5
        assert all(f.err_max < c.err_max for f, c in zip(fine.rows, coarse.rows))

    def test_failed_row_recorded_and_left_out_of_slope(self):
        # two points are not unisolvent for theta = 3, so the first fit fails
        spec = KernelSpec("thinplate", theta=3, d=1, s=1.5)
        report = convergence_sweep(
            spec, PolyFrame(1, 3), BOX1, lambda x: float(np.sin(np.sum(x))),
            (2, 50, 100, 200),
        )
        failed, *good = report.rows
        assert not failed.ok and "unisolvent" in failed.message
        assert math.isnan(failed.err_max) and math.isnan(failed.J_e)
        assert all(row.ok for row in good)
        logh = np.log10([row.h for row in good])
        loge = np.log10([row.err_max for row in good])
        assert report.slope == pytest.approx(np.polyfit(logh, loge, 1)[0], rel=1e-12)
        N, _, err_max, *_ = report.to_csv().splitlines()[1].split(",")
        assert (N, err_max) == ("2", "nan")

    def test_failed_row_reason_in_csv(self, monkeypatch):
        def fail_at_60(spec, frame, X, y):
            if len(X) == 60:
                raise SolveError("residual 1e-7 exceeds 1e-8 * |rhs|")
            return fit_interpolant(spec, frame, X, y)

        monkeypatch.setattr(study, "fit_interpolant", fail_at_60)
        report = convergence_sweep(
            TPS, PolyFrame(1, 2), BOX1, lambda x: float(np.sin(np.sum(x))), (30, 60, 120)
        )
        assert [row.ok for row in report.rows] == [True, False, True]
        lines = report.to_csv().splitlines()
        assert lines[-1] == "# N=60: residual 1e-7 exceeds 1e-8 * |rhs|"
        assert len(lines) == 5

    def test_other_exceptions_propagate(self, monkeypatch):
        # only library errors are a failed row; a fault in the caller's
        # data function or in the library is not recorded as one
        def bad_data(x):
            return [float(x[0])] * 2  # float() of a list: TypeError

        with pytest.raises(TypeError):
            convergence_sweep(TPS, PolyFrame(1, 2), BOX1, bad_data, (30, 60))

        def buggy_fit(*args):
            raise TypeError("a bug in the fitter")

        monkeypatch.setattr(study, "fit_interpolant", buggy_fit)
        with pytest.raises(TypeError, match="a bug in the fitter"):
            convergence_sweep(TPS, PolyFrame(1, 2), BOX1, lambda x: 0.0, (30, 60))

    def test_csv_shape(self):
        report = convergence_sweep(
            TPS, PolyFrame(1, 2), BOX1, lambda x: float(np.sin(np.sum(x))), (30, 60),
            rho=0.01,
        )
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "N,h,err_max,rho,Je,slope_partial"
        assert len(lines) == 3


class TestRepresenterData:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        frame = PolyFrame(1, 2)
        uf = minimal_unisolvent_subset(frame, rng.uniform(-1.5, 1.5, (8, 1)))
        centers = rng.uniform(-1.2, 1.2, (5, 1))
        beta = rng.standard_normal(5)
        return uf, centers, beta

    def test_beta_length_mismatch(self):
        uf, centers, beta = self._setup()
        with pytest.raises(ParameterError, match="one entry per center"):
            RepresenterData(TPS, uf, centers, beta[:-1])

    def test_zero_coefficients(self):
        uf, centers, _ = self._setup()
        f = RepresenterData(TPS, uf, centers, np.zeros(5))
        assert f(0.3) == 0.0
        assert f.seminorm_sq == 0.0

    def test_single_center_on_frame_points(self):
        uf, _, _ = self._setup(1)
        x_pp = np.array([[0.7]])
        f = RepresenterData(TPS, uf, x_pp, [2.0])
        lx = uf.cardinal_values(x_pp)[0]
        for i, a in enumerate(uf.points):
            assert f(a) == pytest.approx(2.0 * lx[i], abs=1e-10)

    def test_seminorm_matches_kernel_expansion(self):
        # expand each representer into kernel translates plus a polynomial
        # and compare the closed-form seminorm of the equivalent model
        uf, centers, beta = self._setup(2)
        scale = (2 * np.pi) ** 0.5
        f = RepresenterData(TPS, uf, centers, beta)
        L = uf.cardinal_values(centers)  # (5, M)
        Z = np.vstack([centers, uf.points])
        v = np.concatenate([beta, -L.T @ beta]) / scale
        model = FittedModel(
            spec=TPS, frame=uf.frame, centers=Z, v=v, beta=np.zeros(uf.frame.M)
        )
        assert f.seminorm_sq == pytest.approx(seminorm_sq(model), rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_center_loop(self, seed):
        # reference: the per-center, per-point representer formula, looped
        # over the centers
        def riesz(uf, x, Y):
            lx, ly = uf.cardinal_values(x)[0], uf.cardinal_values(Y)
            G = lambda P, Q: kernel_matrix(TPS, P, Q)
            A, xp = uf.points, x[None, :]
            core = (G(Y, xp)[:, 0] - G(Y, A) @ lx - ly @ G(A, xp)[:, 0]
                    + ly @ (G(A, A) @ lx))
            return (2.0 * np.pi) ** -0.5 * core + ly @ lx

        uf, centers, beta = self._setup(seed)
        if seed == 1:
            centers, beta = centers[:1], beta[:1]
        pts = np.linspace(-1.5, 1.5, 37)[:, None]
        values = np.zeros(len(pts))
        r_matrix = np.zeros((len(centers), len(centers)))
        for k, (c, b) in enumerate(zip(centers, beta)):
            values += b * riesz(uf, c, pts)
            r_matrix[:, k] = riesz(uf, c, centers) - uf.cardinal_values(
                centers
            ) @ uf.cardinal_values(c)[0]
        f = RepresenterData(TPS, uf, centers, beta)
        np.testing.assert_allclose(f(pts), values, rtol=1e-10, atol=0)
        assert f.seminorm_sq == pytest.approx(beta @ r_matrix @ beta, rel=1e-10)


def _unmemoized_rho_search(error_fn, rho0, factor=10.0, err_tol=0.01,
                           rho_tol=0.01, max_iter=60):
    # rho_search without its cache: error_fn is called for every candidate
    # on the lattice rho0 * factor**t
    trace = []

    def evaluate(rho):
        value = float(error_fn(rho))
        if not math.isfinite(value):
            raise SearchError(f"non-finite error at rho={rho:g}", trace=trace)
        trace.append((rho, value))
        return value

    rho, err = rho0, evaluate(rho0)
    t, step = 0.0, 1.0
    for _ in range(max_iter):
        up, down = rho0 * factor ** (t + step), rho0 * factor ** (t - step)
        candidates = [(evaluate(up), up, t + step), (evaluate(down), down, t - step)]
        best_err, best_rho, best_t = min(candidates)
        if best_err <= err:
            change = abs(err - best_err) / max(abs(err), 1e-300)
            rho, err, t = best_rho, best_err, best_t
            if change <= err_tol:
                break
        else:
            step /= 2
            if factor**step - 1.0 < rho_tol:
                break
    return rho, trace


def _log_quadratic(target):
    # unimodal in log10(rho); the search steps back onto rho it has scored
    return lambda rho: (np.log10(rho) - np.log10(target)) ** 2 + 1.0


class TestRhoSearch:
    def test_unimodal_quadratic_in_log_rho(self):
        target = 1e-3

        def err(rho):
            return (np.log10(rho) - np.log10(target)) ** 2 + 1.0

        best, trace = rho_search(err, rho0=1.0, factor=10.0)
        # brute-force comparison over the trace
        assert min(e for _, e in trace) == min(err(r) for r, _ in trace)
        assert abs(np.log10(best) - np.log10(target)) <= 1.0

    def test_exact_tie_stops_at_zero_tolerance(self):
        # 1e-2 and 1e-3 score the same; the search moves onto the smaller
        # and stops, where it used to walk between them for MAX_ITER steps
        calls = []
        err = _log_quadratic(10**-2.5)

        def recording(rhos):
            calls.append(rhos.tolist())
            return err(rhos)

        best, trace = rho_search(recording, 1.0, err_tol=0.0)
        assert best == 1e-3
        assert [r for r, _ in trace] == [1.0, 10.0, 0.1, 1.0, 0.01, 0.1, 1e-3]
        assert trace[-1][1] == trace[-3][1]  # the tie
        assert len(calls) == 4

    def test_flat_curve_stops_immediately(self):
        calls = []

        def err(rhos):
            calls.extend(rhos)
            return np.ones(len(rhos))

        best, trace = rho_search(err, rho0=1.0, factor=10.0)
        assert best == pytest.approx(0.1)  # tie resolved toward the minimum tried
        assert len(trace) == 3  # rho0 and one factor step each way

    @pytest.mark.parametrize("rho0, factor", [
        (0.0, 10.0), (math.nan, 10.0), (math.inf, 10.0),
        (1.0, 1.0), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_invalid_arguments(self, rho0, factor):
        with pytest.raises(ParameterError):
            rho_search(lambda r: r, rho0=rho0, factor=factor)

    def test_each_distinct_rho_evaluated_once(self):
        calls = []
        err = _log_quadratic(10**-2.5)

        def counting(rhos):
            calls.extend(rhos)
            return err(rhos)

        _, trace = rho_search(counting, rho0=1.0, err_tol=0.0)
        rhos = [r for r, _ in trace]
        assert sorted(calls) == sorted(set(rhos))
        assert len(trace) > len(calls)  # repeats are listed, not re-scored

    @pytest.mark.parametrize("target", [1e-3, 10**-2.5, 3e-7])
    def test_trace_matches_unmemoized_search(self, target):
        err = _log_quadratic(target)
        want = _unmemoized_rho_search(err, 1.0, err_tol=0.0)
        rhos = [r for r, _ in want[1]]
        assert len(set(rhos)) < len(rhos)
        assert rho_search(err, 1.0, err_tol=0.0) == want

    def test_lattice_overflow_is_inf(self):
        # rho0 * factor**t past the float range is inf, as rho * factor was
        # before the lattice, and the error function sees it
        def err(rhos):
            return -np.log10(np.clip(rhos, 1e-308, 1e308))

        best, trace = rho_search(err, 1e-300, factor=1e200, err_tol=0.0)
        assert math.inf in [r for r, _ in trace]
        assert best == math.inf

    def test_non_finite_raises_with_trace(self):
        with pytest.raises(SearchError):
            rho_search(lambda r: float("nan"), rho0=1.0)
        # finite down to 0.05: the search scores 1, 10 and 0.1, steps back
        # onto 1.0 and then meets 0.01; the trace so far includes the repeat
        err = _log_quadratic(0.1)

        def cliff(rho):
            return np.where(rho >= 0.05, err(rho), np.nan)

        with pytest.raises(SearchError) as want:
            _unmemoized_rho_search(cliff, 1.0)
        with pytest.raises(SearchError) as got:
            rho_search(cliff, 1.0)
        assert got.value.trace == want.value.trace
        rhos = [r for r, _ in got.value.trace]
        assert len(set(rhos)) < len(rhos)

    @pytest.mark.parametrize("target", [1e-3, 10**-2.5, 3e-7])
    def test_one_call_per_step_with_its_unscored_rho(self, target):
        calls = []
        err = _log_quadratic(target)

        def recording(rhos):
            assert isinstance(rhos, np.ndarray) and rhos.dtype == float
            calls.append(rhos.tolist())
            return err(rhos)

        _, trace = rho_search(recording, 1.0, err_tol=0.0)
        rhos = [r for r, _ in trace]
        # the trace is rho0, then (up, down) per step
        steps = [rhos[:1]] + [rhos[i : i + 2] for i in range(1, len(rhos), 2)]
        seen, want = set(), []
        for step in steps:
            new = [r for r in dict.fromkeys(step) if r not in seen]
            seen.update(new)
            if new:
                want.append(new)
        assert calls == want
        # steps that step back onto a scored rho pass one rho, or make no call
        assert any(len(c) == 1 for c in calls[1:])

    @pytest.mark.parametrize("error_fn", [
        lambda rhos: np.ones(len(rhos) + 1),
        lambda rhos: 1.0,  # one value: right for rho0 alone, not for a step
    ])
    def test_wrong_length_return_raises(self, error_fn):
        with pytest.raises(ParameterError, match="errors for"):
            rho_search(error_fn, 1.0)

    def test_residual_error_fn_scalar_and_array_agree(self):
        rng = np.random.default_rng(9)
        frame = PolyFrame(1, 2)
        X = rng.uniform(-1.5, 1.5, (30, 1))
        y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(30)
        from bfsmooth.exact_smoother import fit_exact

        fitted_rho = []

        def fitter(rho):
            fitted_rho.append(rho)
            return fit_exact(TPS, frame, X, y, rho)

        delta2 = residual_error_fn(fitter, X, y)
        rhos = np.array([1e-6, 1e-2, 1.0])
        got = delta2(rhos)
        assert fitted_rho == [1e-6, 1e-2, 1.0]
        assert all(type(r) is float for r in fitted_rho)
        assert got.shape == (3,)
        assert got.tolist() == [delta2(r) for r in rhos]
        assert isinstance(delta2(1e-2), float)
        assert delta2(np.array([1e-2])).shape == (1,)

    def test_residual_error_fn_wrong_length_y_rejected(self):
        # checked when built: y[:1] would broadcast against every fit
        X = np.linspace(-1.5, 1.5, 10)

        def fitter(rho):
            raise AssertionError("no fit is made")

        with pytest.raises(ParameterError, match="y must have length 10"):
            residual_error_fn(fitter, X, np.sin(X)[:1])

    def test_residual_criterion_degenerates_to_small_rho(self):
        # the pure-residual criterion always rewards less smoothing, so the
        # search driven by it walks toward rho -> 0
        rng = np.random.default_rng(9)
        frame = PolyFrame(1, 2)
        X = rng.uniform(-1.5, 1.5, (30, 1))
        y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(30)
        from bfsmooth.exact_smoother import fit_exact

        def fitter(rho):
            return fit_exact(TPS, frame, X, y, rho)

        delta2 = residual_error_fn(fitter, X, y)
        assert delta2(1e-6) < delta2(1e-2) < delta2(1.0)
        best, _ = rho_search(delta2, rho0=1e-2, factor=10.0)
        assert best < 1e-2

    def test_grid_criterion_prefers_interior_rho(self):
        # with noisy data and a known truth, the error-grid criterion is
        # minimized away from rho -> 0
        rng = np.random.default_rng(10)
        frame = PolyFrame(1, 2)
        X = rng.uniform(-1.5, 1.5, (60, 1))
        truth = lambda x: float(np.sin(np.sum(x)))
        y = np.array([truth(x) for x in X]) + 0.3 * rng.standard_normal(60)
        from bfsmooth.exact_smoother import fit_exact

        def fitter(rho):
            return fit_exact(TPS, frame, X, y, rho)

        grid = np.linspace(-1.4, 1.4, 40)[:, None]
        delta1 = grid_error_fn(fitter, truth, grid)
        assert delta1(1e-2) < delta1(1e-8)


class TestScalingStudy:
    def test_round_robin_over_drawn_sizes(self, monkeypatch):
        fits = []
        monkeypatch.setattr(study, "fit_approx",
                            lambda spec, frame, X, y, Xp, rho: fits.append((X, y)))
        Xp = np.linspace(-1.5, 1.5, 4)
        times = scaling_study(TPS, PolyFrame(1, 2), BOX1, Xp, (50, 100), 1e-4, 7)
        assert [len(X) for X, _ in fits] == [50, 100] * SCALING_ROUNDS
        for i, N in enumerate((50, 100)):
            X = gen_uniform(BOX1, N, (7, i))
            np.testing.assert_array_equal(fits[i][0], X)
            np.testing.assert_array_equal(fits[i][1], np.sin(X[:, 0]))
        assert list(times) == [50, 100]
        assert all(len(t) == SCALING_ROUNDS for t in times.values())

    @pytest.mark.parametrize("sizes", [(), (100, 50), (50, 50)])
    def test_sizes_must_increase(self, sizes):
        with pytest.raises(ParameterError):
            scaling_study(TPS, PolyFrame(1, 2), BOX1, np.linspace(-1.5, 1.5, 4),
                          sizes, 1e-4, 0)


class TestGridErrorFn:
    def test_1d_grid_is_points_on_a_line(self):
        rng = np.random.default_rng(13)
        frame = PolyFrame(1, 2)
        X = rng.uniform(-1.5, 1.5, (30, 1))
        model = fit_interpolant(TPS, frame, X, np.sin(X[:, 0]))
        grid = np.linspace(-1, 1, 50)
        err_1d = grid_error_fn(lambda rho: model, lambda p: float(np.sin(p[0])), grid)
        err_2d = grid_error_fn(
            lambda rho: model, lambda p: float(np.sin(p[0])), grid[:, None]
        )
        assert err_1d(1.0) == err_2d(1.0)
        assert err_1d(1.0) < 1e-6


class TestDoubledOrder:
    def test_representer_data_beats_generic_data(self):
        rng = np.random.default_rng(11)
        frame = PolyFrame(1, 2)
        uf = minimal_unisolvent_subset(frame, rng.uniform(-1.5, 1.5, (8, 1)))
        centers = rng.uniform(-1.2, 1.2, (5, 1))
        f_d = RepresenterData(TPS, uf, centers, rng.standard_normal(5))
        coupling = RhoCoupling(eta_G=predicted_orders(TPS).eta_G, amplitude=100.0)
        sizes = (50, 100, 200, 400, 800)
        generic = convergence_sweep(
            TPS, frame, BOX1, lambda x: float(np.sin(np.sum(x))), sizes, rho=coupling
        )
        special = convergence_sweep(TPS, frame, BOX1, f_d, sizes, rho=coupling)
        assert generic.slope is not None and special.slope is not None
        assert special.slope >= generic.slope + 0.5
