import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bfsmooth import assembly, interpolant
from bfsmooth.assembly import RESIDUAL_RTOL
from bfsmooth.errors import ContractError, ParameterError
from bfsmooth.interpolant import (
    FittedModel,
    _merged_centers,
    eval_model,
    fit_interpolant,
    seminorm_sq,
    seminorm_sq_diff,
)
from bfsmooth.kernels import KernelSpec, kernel_matrix, semi_riesz
from bfsmooth.polyspace import PolyFrame, minimal_unisolvent_subset
from conftest import scattered_points

TPS = KernelSpec("thinplate", theta=2, d=1, s=1.5)
GAUSS1 = KernelSpec("gauss", theta=1, d=1)


def _random_fit(seed, N=20, d=1, theta=2, fn=np.sin):
    rng = np.random.default_rng(seed)
    X = scattered_points(rng, N, d)
    y = np.asarray([float(fn(np.sum(x))) for x in X])
    frame = PolyFrame(d, theta)
    spec = KernelSpec("thinplate", theta=theta, d=d, s=theta - 0.5)
    return fit_interpolant(spec, frame, X, y), X, y, spec, frame


class TestFitInterpolant:
    def test_linear_data_gives_polynomial(self):
        frame = PolyFrame(1, 2)
        model = fit_interpolant(TPS, frame, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        assert np.max(np.abs(model.v)) <= 1e-8
        probes = np.linspace(-1, 3, 17)
        np.testing.assert_allclose(eval_model(model, probes), probes, atol=1e-8)

    def test_single_point_constant(self):
        model = fit_interpolant(GAUSS1, PolyFrame(1, 1), [0.0], [7.0])
        assert eval_model(model, 0.0) == pytest.approx(7.0)

    def test_sine_residuals(self):
        model, X, y, _, _ = _random_fit(0)
        fitted = eval_model(model, X)
        assert np.max(np.abs(fitted - y)) <= 1e-8

    def test_polynomial_reproduction(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            frame = PolyFrame(2, 2)
            spec = KernelSpec("gauss", theta=2, d=2)
            coeffs = rng.standard_normal(frame.M)

            def p(x):
                return frame.monomials(x) @ coeffs

            X = rng.uniform(-1, 1, (25, 2))
            model = fit_interpolant(spec, frame, X, p(X))
            assert np.linalg.norm(model.v) <= 1e-8
            probes = rng.uniform(-1, 1, (50, 2))
            np.testing.assert_allclose(eval_model(model, probes), p(probes), atol=1e-8)

    def test_reorder_invariance(self):
        model, X, y, spec, frame = _random_fit(1)
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(X))
        model2 = fit_interpolant(spec, frame, X[perm], y[perm])
        probes = np.linspace(-1.4, 1.4, 30)
        np.testing.assert_allclose(
            eval_model(model2, probes), eval_model(model, probes), atol=1e-10
        )

    def test_one_kernel_build_per_fit(self, monkeypatch):
        # the fit builds G_XX once, for its system
        builds = []

        def spy(*args, _kernel=kernel_matrix, **kwargs):
            out = _kernel(*args, **kwargs)
            builds.append(out.shape)
            return out

        monkeypatch.setattr(assembly, "kernel_matrix", spy)
        monkeypatch.setattr(interpolant, "kernel_matrix", spy)
        _, X, _, _, _ = _random_fit(7, N=25)
        assert builds == [(25, 25)]

    # d = 2 interpolants whose solve ends in long-double refinement, the
    # one exit whose certificate is not the double-precision bound
    @pytest.mark.parametrize("spec, N", [
        (KernelSpec("gauss", theta=2, d=2), 100),
        (KernelSpec("mq", theta=2, d=2, a=1.0), 200),
        (KernelSpec("imq", theta=2, d=2, a=1.0), 300),
        (KernelSpec("shifted-tps", theta=2, d=2, s=1.5, a=1.0), 150),
    ])
    def test_long_double_exit_certified(self, monkeypatch, spec, N):
        refined = []

        def spy(*args, _orig=assembly._refine_extended):
            refined.append(True)
            return _orig(*args)

        monkeypatch.setattr(assembly, "_refine_extended", spy)
        rng = np.random.default_rng(0)
        X = rng.uniform(-1.5, 1.5, (N, 2))
        y = np.sin(X.sum(axis=1))
        frame = PolyFrame(2, 2)
        model = fit_interpolant(spec, frame, X, y)
        assert refined
        sys = assembly.exact_system(spec, frame, X, y, 0.0)
        x = np.concatenate([model.v, model.beta]).astype(np.longdouble)
        r = sys.matrix.astype(np.longdouble) @ x - sys.rhs.astype(np.longdouble)
        assert np.linalg.norm(r.astype(float)) <= RESIDUAL_RTOL * np.linalg.norm(y)

    def test_refit_is_idempotent(self):
        model, X, _, spec, frame = _random_fit(2)
        probes = np.linspace(-1.4, 1.4, 20)
        refit = fit_interpolant(spec, frame, X, eval_model(model, X))
        np.testing.assert_allclose(
            eval_model(refit, probes), eval_model(model, probes), atol=1e-8
        )


class TestEvalModel:
    def test_pure_polynomial_model(self):
        frame = PolyFrame(1, 2)
        model = FittedModel(
            spec=TPS, frame=frame, centers=np.zeros((0, 1)), v=np.zeros(0),
            beta=np.array([0.0, 1.0]),
        )
        probes = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(eval_model(model, probes), probes)

    def test_matches_naive_summation(self):
        model, _, _, spec, frame = _random_fit(3)
        rng = np.random.default_rng(3)
        probes = rng.uniform(-1.5, 1.5, (20, 1))
        for x in probes:
            naive = sum(
                vi * kernel_matrix(spec, x[None, :], zi[None, :]).item()
                for vi, zi in zip(model.v, model.centers)
            )
            naive += (frame.monomials(x[None, :]) @ model.beta).item()
            assert eval_model(model, x) == pytest.approx(naive, abs=1e-12)

    @pytest.mark.parametrize("n_query", [1, 2000])
    def test_tiles_match_whole_matrix(self, n_query):
        # 2000 queries x 300 centers is three tiles of the default size
        rng = np.random.default_rng(5)
        spec = KernelSpec("thinplate", theta=2, d=2, s=1.0)
        centers = rng.uniform(-1.5, 1.5, (300, 2))
        model = FittedModel(spec=spec, frame=PolyFrame(2, 2), centers=centers,
                            v=rng.standard_normal(300), beta=rng.standard_normal(3))
        Q = rng.uniform(-1.5, 1.5, (n_query, 2))
        assert n_query == 1 or n_query * 300 > 2 * interpolant._EVAL_TILE_ENTRIES
        want = kernel_matrix(spec, Q, centers) @ model.v
        want += model.frame.monomials(Q) @ model.beta
        got = eval_model(model, Q)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_tile_rows_cover_every_query(self, monkeypatch):
        # tiles of a few rows each, the last one short
        monkeypatch.setattr(interpolant, "_EVAL_TILE_ENTRIES", 45)  # 8-row tiles
        model, _, _, spec, frame = _random_fit(6)
        Q = np.linspace(-1.4, 1.4, 23)
        want = kernel_matrix(spec, Q, model.centers) @ model.v
        want += frame.monomials(Q) @ model.beta
        np.testing.assert_allclose(eval_model(model, Q), want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2])
    def test_peak_allocation_is_one_tile(self, k):
        # 3600 queries x 900 centers would be a 26 MB kernel matrix; k > 1
        # models also return a (k, 3600) array
        rng = np.random.default_rng(7)
        spec = KernelSpec("thinplate", theta=2, d=2, s=1.0)
        centers = rng.uniform(-1.5, 1.5, (900, 2))
        models = [FittedModel(spec=spec, frame=PolyFrame(2, 2), centers=centers,
                              v=rng.standard_normal(900), beta=rng.standard_normal(3))
                  for _ in range(k)]
        Q = rng.uniform(-1.5, 1.5, (3600, 2))
        outputs = 0 if k == 1 else 8 * k * len(Q)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            eval_model(models[0] if k == 1 else models, Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.25 * 8 * interpolant._EVAL_TILE_ENTRIES + outputs

    def test_shape_contracts(self):
        model, _, _, _, _ = _random_fit(4)
        assert isinstance(eval_model(model, 0.3), float)
        assert eval_model(model, np.array([[0.3], [0.4]])).shape == (2,)
        assert eval_model([model], 0.3).shape == (1, 1)
        assert eval_model((model, model), np.array([0.3, 0.4])).shape == (2, 2)


class TestEvalModels:
    """Several models over one center set, evaluated in one pass."""

    @staticmethod
    def _models(seed, k=3, n_c=300, **changes):
        rng = np.random.default_rng(seed)
        spec = KernelSpec("thinplate", theta=2, d=2, s=1.0)
        centers = rng.uniform(-1.5, 1.5, (n_c, 2))
        return [FittedModel(**{"spec": spec, "frame": PolyFrame(2, 2),
                               "centers": centers, "v": rng.standard_normal(n_c),
                               "beta": rng.standard_normal(3), **changes})
                for _ in range(k)]

    # 300 centers: 872-row tiles, so 1744 queries are two whole tiles and
    # 2000 are three with a short last one
    @pytest.mark.parametrize("n_query", [1, 50, 1744, 2000])
    def test_rows_equal_single_calls(self, n_query):
        models = self._models(8)
        Q = np.random.default_rng(9).uniform(-1.5, 1.5, (n_query, 2))
        got = eval_model(models, Q)
        assert got.shape == (3, n_query)
        for row, model in zip(got, models):
            assert np.array_equal(row, np.atleast_1d(eval_model(model, Q)))

    def test_models_must_share_basis(self):
        base = self._models(10, k=1)[0]
        spec = KernelSpec("thinplate", theta=2, d=2, s=1.5)
        others = [
            self._models(10, k=1, spec=spec)[0],
            self._models(10, k=1, frame=PolyFrame(2, 1), beta=[0.5])[0],
            self._models(11, k=1)[0],  # other centers
            "not a model",
        ]
        for other in others:
            with pytest.raises(ParameterError):
                eval_model([base, other], [0.1, 0.2])
        with pytest.raises(ParameterError):
            eval_model([], [0.1, 0.2])


class TestSeminorm:
    def test_polynomial_model_zero(self):
        frame = PolyFrame(1, 2)
        model = FittedModel(
            spec=TPS, frame=frame, centers=np.zeros((0, 1)), v=np.zeros(0),
            beta=np.array([1.0, 2.0]),
        )
        assert seminorm_sq(model) == 0.0

    def test_hand_expanded_pair(self):
        # v = (1, -1) on Z = {0, 1}: v^T G v = 2 G(0) - 2 G(1) = 2 - 2/e
        frame = PolyFrame(1, 1)
        model = FittedModel(
            spec=GAUSS1, frame=frame, centers=[[0.0], [1.0]],
            v=np.array([1.0, -1.0]), beta=np.zeros(1),
        )
        expected = math.sqrt(2 * math.pi) * (2.0 - 2.0 * math.exp(-1.0))
        assert seminorm_sq(model) == pytest.approx(expected)

    def test_diff_with_self_is_zero(self):
        model, _, _, _, _ = _random_fit(5)
        assert seminorm_sq_diff(model, model) <= 1e-10

    def test_diff_matches_direct_for_disjoint(self):
        m1, _, _, spec, frame = _random_fit(6, N=15)
        m2, _, _, _, _ = _random_fit(7, N=12)
        got = seminorm_sq_diff(m1, m2)
        Z = np.vstack([m1.centers, m2.centers])
        w = np.concatenate([m1.v, -m2.v])
        expected = (2 * np.pi) ** 0.5 * float(w @ kernel_matrix(spec, Z, Z) @ w)
        assert got == pytest.approx(max(expected, 0.0), abs=1e-10)

    def test_merged_centers_match_loop_reference(self):
        m1, X, _, spec, frame = _random_fit(8, N=15)
        rng = np.random.default_rng(9)
        X2 = np.vstack([X[5:], scattered_points(rng, 6, 1)])
        m2 = fit_interpolant(spec, frame, X2, rng.standard_normal(len(X2)))
        merged = {}
        for pts, coeffs, sign in ((m1.centers, m1.v, 1.0), (m2.centers, m2.v, -1.0)):
            for p, c in zip(pts, coeffs):
                merged[tuple(p)] = merged.get(tuple(p), 0.0) + sign * c
        keys = sorted(merged)
        Z, w = _merged_centers(m1, m2)
        assert len(Z) == 21  # the 10 shared centers appear once
        np.testing.assert_array_equal(Z, np.array(keys))
        np.testing.assert_array_equal(w, [merged[k] for k in keys])

    def test_diff_needs_one_spec(self):
        model, _, _, _, frame = _random_fit(5)
        other = FittedModel(spec=KernelSpec("thinplate", theta=2, d=1, s=0.5),
                            frame=frame, centers=model.centers, v=model.v,
                            beta=model.beta)
        with pytest.raises(ParameterError, match="same kernel spec"):
            seminorm_sq_diff(model, other)

    def test_diff_of_polynomials_is_zero(self):
        # no centers on either side: the difference is a polynomial
        p, q = (FittedModel(spec=TPS, frame=PolyFrame(1, 2), centers=np.zeros((0, 1)),
                            v=np.zeros(0), beta=np.array(beta)) for beta in ([1, 2], [3, 0]))
        assert seminorm_sq_diff(p, q) == 0.0

    def test_constraint_violation_raises(self):
        frame = PolyFrame(1, 1)
        model = FittedModel(
            spec=GAUSS1, frame=frame, centers=[[0.0], [1.0]],
            v=np.array([1.0, 1.0]), beta=np.zeros(1),  # sums to 2, not 0
        )
        with pytest.raises(ContractError):
            seminorm_sq(model)

    def test_nonnegative_on_null_vectors(self):
        model, _, _, _, _ = _random_fit(8)
        assert seminorm_sq(model) >= 0.0


class TestVariationalProperties:
    def test_riesz_reproduction(self):
        # Qf(x) = <f, r_x>: the seminorm inner product of a fitted model
        # with the semi-Riesz representer recovers f(x) - P f(x).
        model, X, _, spec, frame = _random_fit(9)
        uf = minimal_unisolvent_subset(frame, X)
        rng = np.random.default_rng(1009)
        scale = (2 * np.pi) ** (spec.d / 2)
        for _ in range(10):
            x = rng.uniform(-1.4, 1.4, 1)
            # r_x expands over centers {x} u A with kernel coefficients
            # (1, -l_1(x), ..., -l_M(x)) / (2 pi)^(d/2)
            lx = uf.cardinal_values(x)[0]
            W = np.vstack([x[None, :], uf.points])
            w = np.concatenate([[1.0], -lx]) / scale
            inner = scale * float(model.v @ kernel_matrix(spec, model.centers, W) @ w)
            f_x = eval_model(model, x)
            f_A = eval_model(model, uf.points)
            Qf_x = f_x - float(lx @ f_A)
            assert inner == pytest.approx(Qf_x, abs=1e-7)

    def test_minimality_among_interpolants(self):
        # Perturb the interpolant by models vanishing on X: the interpolant
        # seminorm never exceeds that of any competing interpolant.
        model, X, y, spec, frame = _random_fit(10, N=15)
        base = seminorm_sq(model)
        rng = np.random.default_rng(1010)
        for trial in range(20):
            extra = rng.uniform(-1.5, 1.5, (4, 1))
            Z = np.vstack([X, extra])
            z_vals = np.concatenate([np.zeros(len(X)), rng.standard_normal(4)])
            bump = fit_interpolant(spec, frame, Z, z_vals)
            # competitor g = interpolant + bump still interpolates (X, y)
            centers = np.vstack([model.centers, bump.centers])
            v = np.concatenate([model.v, bump.v])
            g = FittedModel(
                spec=spec, frame=frame, centers=centers, v=v,
                beta=model.beta + bump.beta,
            )
            np.testing.assert_allclose(eval_model(g, X), y, atol=1e-7)
            assert base <= seminorm_sq(g) + 1e-8

    def test_orthogonal_decomposition(self):
        # |g|^2 = |u_I|^2 + |g - u_I|^2 for any interpolant competitor g
        model, X, y, spec, frame = _random_fit(11, N=12)
        rng = np.random.default_rng(1011)
        extra = rng.uniform(-1.5, 1.5, (3, 1))
        Z = np.vstack([X, extra])
        g = fit_interpolant(spec, frame, Z, np.concatenate([y, [1.0, -2.0, 0.5]]))
        total = seminorm_sq(g)
        parts = seminorm_sq(model) + seminorm_sq_diff(g, model)
        assert total == pytest.approx(parts, rel=1e-6, abs=1e-8)

    def test_semi_riesz_combination_vanishes_on_frame_points(self):
        # sanity for the perturbation construction: semi-Riesz functions
        # vanish on A, so interpolants of zero data vanish on X
        _, X, _, spec, frame = _random_fit(12, N=10)
        uf = minimal_unisolvent_subset(frame, X)
        rng = np.random.default_rng(12)
        x = rng.uniform(-1.4, 1.4, 1)
        for a in uf.points:
            assert abs(semi_riesz(spec, uf, x, a)) <= 1e-10


class TestModelValidation:
    def test_bad_kind(self):
        with pytest.raises(ParameterError):
            FittedModel(
                spec=GAUSS1, frame=PolyFrame(1, 1), centers=[[0.0]],
                v=np.zeros(1), beta=np.zeros(1), kind="mystery",
            )

    @pytest.mark.parametrize("kind, rho", [
        ("interpolant", 0.5), ("interpolant", math.nan),
        *((kind, rho) for kind in ("exact_smoother", "approx_smoother")
          for rho in (0.0, -1.0, math.nan, math.inf)),
    ])
    def test_rho_must_fit_kind(self, kind, rho):
        with pytest.raises(ParameterError, match="rho"):
            FittedModel(
                spec=GAUSS1, frame=PolyFrame(1, 1), centers=[[0.0]],
                v=np.zeros(1), beta=np.zeros(1), kind=kind, rho=rho,
            )

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            FittedModel(
                spec=GAUSS1, frame=PolyFrame(1, 1), centers=[[0.0]],
                v=np.zeros(2), beta=np.zeros(1),
            )
        with pytest.raises(ParameterError, match="beta must have length M = 1"):
            FittedModel(
                spec=GAUSS1, frame=PolyFrame(1, 1), centers=[[0.0]],
                v=np.zeros(1), beta=np.zeros(2),
            )


class TestModelEquality:
    """Models compare and hash by value; the G v a fit keeps is no part
    of that value."""

    def test_two_fits_of_the_same_data_are_equal(self):
        model, X, y, spec, frame = _random_fit(30)
        again = fit_interpolant(spec, frame, X, y)
        assert model == again and hash(model) == hash(again)
        assert len({model, again}) == 1

    def test_perturbed_coefficient_unequal(self):
        model, *_ = _random_fit(31)
        v = model.v.copy()
        v[0] = np.nextafter(v[0], np.inf)
        assert dataclasses.replace(model, v=v) != model

    def test_every_field_counts(self):
        model, *_ = _random_fit(32)
        # kind and rho change together from an interpolant (rho = 0), and
        # each alone between smoothers
        smoother = dataclasses.replace(model, kind="exact_smoother", rho=0.5)
        changed = [
            (model, dataclasses.replace(model, spec=KernelSpec("thinplate", theta=2, d=1,
                                                               s=1.0))),
            (model, dataclasses.replace(model, frame=PolyFrame(1, 3), beta=np.zeros(3))),
            (model, smoother),
            (smoother, dataclasses.replace(smoother, kind="approx_smoother")),
            (smoother, dataclasses.replace(smoother, rho=0.25)),
            (model, dataclasses.replace(model, centers=model.centers + 1.0)),
            (model, dataclasses.replace(model, beta=model.beta + 1.0)),
        ]
        assert all(other != base for base, other in changed)
        assert model != (model.spec, model.frame, model.centers, model.v, model.beta)

    def test_signed_zero_agrees_with_hash(self):
        zero = FittedModel(spec=GAUSS1, frame=PolyFrame(1, 1), centers=[[0.0]],
                           v=np.zeros(1), beta=np.zeros(1))
        negative = dataclasses.replace(zero, centers=[[-0.0]], v=-np.zeros(1))
        assert zero == negative and hash(zero) == hash(negative)

    def test_carried_product_not_compared(self):
        model, *_ = _random_fit(33)
        rebuilt = dataclasses.replace(model)
        assert model._Gv is not None and rebuilt._Gv is None
        assert rebuilt == model and hash(rebuilt) == hash(model)
