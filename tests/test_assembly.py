import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from bfsmooth import assembly, interpolant
from bfsmooth.assembly import (
    RESIDUAL_RTOL,
    ApproxParts,
    BlockSystem,
    approx_parts,
    cpd_check,
    exact_system,
    solve_block,
)
from bfsmooth.approx_smoother import GridSpec, fit_approx, fit_parts, make_grid
from bfsmooth.errors import ParameterError, SolveError, UnisolvencyError
from bfsmooth.exact_smoother import fit_exact
from bfsmooth.interpolant import CONSTRAINT_RTOL, eval_model
from bfsmooth.kernels import KernelSpec, kernel_matrix, riesz_representer
from bfsmooth.polyspace import PolyFrame, minimal_unisolvent_subset
from bfsmooth.study import grid_error_fn, rho_search
from conftest import scattered_points

GAUSS1 = KernelSpec("gauss", theta=1, d=1)
TPS = KernelSpec("thinplate", theta=2, d=1, s=1.5)


def _random_instance(seed, N, d=1, theta=2, spec=None):
    rng = np.random.default_rng(seed)
    X = scattered_points(rng, N, d)
    y = rng.standard_normal(N)
    frame = PolyFrame(d, theta)
    if spec is None:
        spec = KernelSpec("thinplate", theta=theta, d=d, s=theta - 0.5)
    return spec, frame, X, y


def _symmetric(A):
    scale = max(np.max(np.abs(A)), 1.0)
    return np.max(np.abs(A - A.T)) <= 1e-12 * scale


class TestBasisMatrix:
    def test_gauss_singleton(self):
        np.testing.assert_allclose(kernel_matrix(GAUSS1, [0.0], [0.0]), [[1.0]])

    def test_gauss_pair(self):
        e1 = math.exp(-1.0)
        np.testing.assert_allclose(
            kernel_matrix(GAUSS1, [0.0, 1.0], [0.0, 1.0]), [[1, e1], [e1, 1]]
        )

    def test_thinplate_rectangular(self):
        np.testing.assert_allclose(
            kernel_matrix(TPS, [0.0], [0.0, 1.0, 2.0]), [[0.0, 1.0, 8.0]]
        )


class TestInterpSystem:
    def test_singleton_constant(self):
        frame = PolyFrame(1, 1)
        sys = exact_system(GAUSS1, frame, [0.0], [7.0], 0.0)
        np.testing.assert_allclose(sys.matrix, [[1, 1], [1, 0]])
        np.testing.assert_allclose(sys.rhs, [7.0, 0.0])
        assert sys.layout == (1, 1)

    def test_symmetric(self):
        spec, frame, X, y = _random_instance(0, 25)
        assert _symmetric(exact_system(spec, frame, X, y, 0.0).matrix)

    def test_rejects_non_unisolvent(self):
        frame = PolyFrame(2, 2)
        spec = KernelSpec("gauss", theta=2, d=2)
        with pytest.raises(UnisolvencyError):
            exact_system(spec, frame, [(0, 0), (1, 0), (2, 0)], [0.0, 1.0, 2.0], 0.0)

    def test_rejects_length_mismatch(self):
        spec, frame, X, _ = _random_instance(1, 10)
        with pytest.raises(ParameterError):
            exact_system(spec, frame, X, [1.0], 0.0)

    def test_regular_on_random_instances(self):
        rng = np.random.default_rng(123)
        for trial in range(50):
            N = int(rng.integers(3, 61))
            spec, frame, X, y = _random_instance((123, trial), N)
            sys = exact_system(spec, frame, X, y, 0.0)
            sol = solve_block(sys)
            residual = np.linalg.norm(sys.matrix @ sol - sys.rhs)
            assert residual <= 1e-8 * np.linalg.norm(sys.rhs)


class TestExactSystem:
    def test_rho_zero_equals_interp(self):
        # rho = 0 is the interpolation system that fit_interpolant solves
        spec, frame, X, y = _random_instance(2, 20)
        sys = exact_system(spec, frame, X, y, rho=0.0)
        assert sys.provenance == "interp"
        np.testing.assert_array_equal(sys.matrix, _eager_matrix(spec, frame, X, 0.0))
        model = interpolant.fit_interpolant(spec, frame, X, y)
        v, beta = sys.split(solve_block(sys))
        np.testing.assert_array_equal(v, model.v)
        np.testing.assert_array_equal(beta, model.beta)

    def test_singleton_top_left(self):
        frame = PolyFrame(1, 1)
        sys = exact_system(GAUSS1, frame, [0.0], [1.0], rho=1.0)
        assert sys.matrix[0, 0] == pytest.approx(1.0 + math.sqrt(2.0 * math.pi))

    def test_diagonal_shift_exact(self):
        spec, frame, X, y = _random_instance(3, 15, d=2, theta=2,
                                             spec=KernelSpec("gauss", theta=2, d=2))
        rho = 0.37
        N = len(X)
        diff = (
            exact_system(spec, frame, X, y, rho).matrix
            - exact_system(spec, frame, X, y, 0.0).matrix
        )
        expected = np.zeros_like(diff)
        expected[:N, :N] = (2 * np.pi) ** (spec.d / 2) * N * rho * np.eye(N)
        np.testing.assert_array_equal(diff, expected)

    @pytest.mark.parametrize("rho", [-1.0, math.nan, math.inf])
    def test_invalid_rho_rejected(self, rho):
        spec, frame, X, y = _random_instance(4, 10)
        with pytest.raises(ParameterError):
            exact_system(spec, frame, X, y, rho=rho)

    def test_regular_on_random_instances(self):
        rng = np.random.default_rng(321)
        for trial in range(50):
            N = int(rng.integers(3, 61))
            spec, frame, X, y = _random_instance((321, trial), N)
            sys = exact_system(spec, frame, X, y, rho=float(rng.uniform(1e-4, 1.0)))
            sol = solve_block(sys)
            assert np.linalg.norm(sys.matrix @ sol - sys.rhs) <= 1e-8 * np.linalg.norm(
                sys.rhs
            )

    def test_alternative_smoother_system_agrees(self):
        # Cross-check against an equivalent formulation of the same smoother:
        # with A = first M points of X, L the cardinal values at X padded to
        # N columns, and R the matrix of Riesz representer values, the fitted
        # values s_X satisfy (N rho (I - L0) + R) s_X = R y.
        spec, frame, X, y = _random_instance(5, 30)
        rho = 0.1
        N, M = len(X), frame.M
        uf = minimal_unisolvent_subset(frame, X)
        np.testing.assert_array_equal(uf.points, X[:M])  # A is the leading block
        model = fit_exact(spec, frame, X, y, rho)
        s_X = eval_model(model, X)
        L0 = np.zeros((N, N))
        L0[:, :M] = uf.cardinal_values(X)
        R = riesz_representer(spec, uf, X, X)
        lhs = (N * rho * (np.eye(N) - L0) + R) @ s_X
        rhs = R @ y
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * np.linalg.norm(rhs))


class TestApproxSystem:
    def test_row_count_independent_of_n(self):
        frame = PolyFrame(1, 2)
        spec = TPS
        Xp = np.linspace(-1.4, 1.4, 9)
        sizes = {}
        for N in (100, 1000):
            rng = np.random.default_rng(N)
            X = rng.uniform(-1.5, 1.5, N)
            y = rng.standard_normal(N)
            sys = approx_parts(spec, frame, X, y, Xp).system(0.1)
            sizes[N] = sys.matrix.shape
        Np, M = 9, 2
        assert sizes[100] == sizes[1000] == (Np + 2 * M, Np + 2 * M)

    def test_symmetric(self):
        spec, frame, X, y = _random_instance(6, 200)
        Xp = np.linspace(-1.4, 1.4, 11)
        assert _symmetric(approx_parts(spec, frame, X, y, Xp).system(0.01).matrix)

    def test_chunked_matches_unchunked(self, monkeypatch):
        spec, frame, X, y = _random_instance(7, 500)
        Xp = np.linspace(-1.4, 1.4, 7)
        monkeypatch.setattr(assembly, "DEFAULT_CHUNK", 64)
        a = approx_parts(spec, frame, X, y, Xp).system(0.1)
        monkeypatch.setattr(assembly, "DEFAULT_CHUNK", 10_000)
        b = approx_parts(spec, frame, X, y, Xp).system(0.1)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-10)
        np.testing.assert_allclose(a.rhs, b.rhs, atol=1e-10)

    def test_parts_match_dense_products(self, monkeypatch):
        # BBt and PtP are rank-c updates of one triangle per chunk, mirrored
        # once at the end: exactly symmetric, and the dense products up to
        # rounding; BP, By and Pty likewise
        frame = PolyFrame(2, 2)
        rng, X, y = _gate_data()
        X, y = X[:300], y[:300]
        spec = KernelSpec("thinplate", theta=2, d=2, s=1.5)
        monkeypatch.setattr(assembly, "DEFAULT_CHUNK", 64)  # 5 chunks, the last short
        parts = approx_parts(spec, frame, X, y, _center_grid(6))
        B = kernel_matrix(spec, parts.centers, X)
        P = frame.monomials(X)
        for got, want in ((parts.BBt, B @ B.T), (parts.PtP, P.T @ P)):
            np.testing.assert_array_equal(got, got.T)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())
        for got, want in ((parts.BP, B @ P), (parts.By, B @ y), (parts.Pty, P.T @ y)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())

    def test_parts_reused_across_rho(self):
        spec, frame, X, y = _random_instance(8, 100)
        Xp = np.linspace(-1.4, 1.4, 6)
        parts = approx_parts(spec, frame, X, y, Xp)
        assert isinstance(parts, ApproxParts)
        s1 = parts.system(0.1)
        s2 = parts.system(1.0)
        # only the top-left block changes with rho
        Np = 6
        assert not np.array_equal(s1.matrix[:Np, :Np], s2.matrix[:Np, :Np])
        np.testing.assert_array_equal(s1.matrix[Np:], s2.matrix[Np:])
        np.testing.assert_array_equal(s1.rhs, s2.rhs)

    def test_rho_zero_rejected(self):
        spec, frame, X, y = _random_instance(9, 20)
        with pytest.raises(ParameterError):
            approx_parts(spec, frame, X, y, np.linspace(-1, 1, 5)).system(0.0)

    def test_overflowing_corner_is_a_parameter_error(self):
        # lam is finite, lam G_X'X' + B B^T is not: an input error, not inf
        spec, frame, X, y = _random_instance(11, 30)
        parts = approx_parts(spec, frame, X, y, np.linspace(-1.4, 1.4, 8))
        rho = 0.5 * np.finfo(float).max / ((2.0 * np.pi) ** 0.5 * parts.N)
        assert assembly._lam(spec, parts.N, rho) < np.inf
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(assembly._lam(spec, parts.N, rho) * parts.G_pp))
        with pytest.raises(ParameterError, match="overflow"):
            parts.system(rho)

    def test_corner_block_bits(self):
        spec, frame, X, y = _random_instance(10, 300)
        parts = approx_parts(spec, frame, X, y, np.linspace(-1.4, 1.4, 13))
        Np = len(parts.centers)
        for rho in (1e-9, 0.37, 10.0):
            scale = (2.0 * np.pi) ** (spec.d / 2.0) * parts.N * rho
            want = scale * parts.G_pp + parts.BBt
            assert np.array_equal(parts.system(rho).matrix[:Np, :Np], want)


APPROX_SPECS = [
    KernelSpec(family, theta=2, d=d, **params)
    for d in (1, 2, 3)
    for family, params in [("gauss", {}), ("mq", {"a": 1.0}), ("imq", {"a": 1.0}),
                           ("thinplate", {"s": 1.0}), ("thinplate", {"s": 1.5}),
                           ("shifted-tps", {"s": 1.5, "a": 1.0})]
    if family != "mq" or d > 1  # mq needs d > 1
]


def _approx_instance(spec):
    # 300 scattered points and a grid of about 25 centers in [-1.4, 1.4]^d
    rng = np.random.default_rng(spec.d)
    X = rng.uniform(-1.5, 1.5, (300, spec.d))
    y = np.sin(X.sum(axis=1)) + 0.05 * rng.standard_normal(len(X))
    t = np.linspace(-1.4, 1.4, {1: 25, 2: 5, 3: 3}[spec.d])
    Xp = np.column_stack([a.ravel() for a in np.meshgrid(*[t] * spec.d)])
    return approx_parts(spec, PolyFrame(spec.d, 2), X, y, Xp)


def _eager_approx_matrix(parts, rho):
    # the approximate saddle matrix as it was assembled block by block into
    # one (N' + 2M)^2 array
    Np, M = parts.P_p.shape
    A = np.zeros((Np + 2 * M, Np + 2 * M))
    A[:Np, :Np] = assembly._lam(parts.spec, parts.N, rho) * parts.G_pp + parts.BBt
    A[:Np, Np : Np + M] = parts.BP
    A[Np : Np + M, :Np] = parts.BP.T
    A[Np : Np + M, Np : Np + M] = parts.PtP
    A[:Np, Np + M :] = parts.P_p
    A[Np + M :, :Np] = parts.P_p.T
    return A


class TestApproxSaddleSystem:
    """The approximate system in the one system type: K = [[lam G_X'X' +
    BBt, BP], [BP^T, PtP]] beside P = [P_X'; 0]."""

    RHOS = (1e-1, 1e-4, 1e-8)

    @pytest.mark.parametrize("spec", APPROX_SPECS, ids=lambda s: f"{s.label()} d={s.d}")
    def test_matrix_bit_for_bit(self, spec, monkeypatch):
        lu_inputs = []

        def spy(a, *args, _lu=scipy.linalg.lu_factor, **kwargs):
            lu_inputs.append(np.array(a))
            return _lu(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", spy)
        for rho in self.RHOS:
            parts = _approx_instance(spec)  # fresh: the one-rho path, LU only
            sys = parts.system(rho)
            eager = _eager_approx_matrix(parts, rho)
            assert np.array_equal(sys.K, sys.K.T), rho
            assert sys.candidate is None and sys.layout == (len(parts.centers),
                                                             parts.frame.M, parts.frame.M)
            lu_inputs.clear()
            _outcome(solve_block, sys)
            assert len(lu_inputs) == 1 and np.array_equal(lu_inputs[0], eager), rho
            assert np.array_equal(sys.matrix, eager), rho


class TestSolveBlock:
    def test_identity_system(self):
        rhs = np.array([1.0, 2.0, 3.0])
        sys = BlockSystem(np.eye(3), np.zeros((3, 0)), rhs, (3,), "test")
        np.testing.assert_allclose(solve_block(sys), rhs)

    def test_singular_raises(self):
        sys = BlockSystem(np.zeros((2, 2)), np.zeros((2, 0)), np.array([1.0, 0.0]),
                          (2,), "test")
        with pytest.raises(SolveError):
            solve_block(sys)

    def test_random_symmetric_high_accuracy(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(5, 61))
            A = rng.standard_normal((n, n))
            A = A + A.T + 2 * n * np.eye(n)
            rhs = rng.standard_normal(n)
            sys = BlockSystem(A, np.zeros((n, 0)), rhs, (n,), "test")
            sol = solve_block(sys)
            assert np.linalg.norm(A @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)
            np.testing.assert_allclose(sol, np.linalg.solve(A, rhs), atol=1e-9)

    def test_split(self):
        sys = BlockSystem(np.eye(5), np.zeros((5, 0)), np.arange(5.0), (3, 2), "test")
        a, b = sys.split(np.arange(5.0))
        np.testing.assert_array_equal(a, [0, 1, 2])
        np.testing.assert_array_equal(b, [3, 4])


def _always_extended_solve(sys):
    # The solver before the double-precision gate: long-double residuals on
    # every solve, the same sweeps, best-iterate rule and error message.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(sys.matrix)
            sol = scipy.linalg.lu_solve(lu, sys.rhs)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SolveError(f"{sys.provenance} system solve failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SolveError(f"{sys.provenance} system is singular to working precision")
    rhs_norm = np.linalg.norm(sys.rhs)
    A_ext = sys.matrix.astype(np.longdouble)
    rhs_ext = sys.rhs.astype(np.longdouble)

    def _residual(x):
        return float(np.linalg.norm((A_ext @ x - rhs_ext).astype(float)))

    residual = _residual(sol)
    best_sol, best_residual = sol, residual
    for _ in range(8):
        if best_residual <= 0.05 * RESIDUAL_RTOL * rhs_norm:
            break
        correction = scipy.linalg.lu_solve(lu, (rhs_ext - A_ext @ sol).astype(float))
        if not np.all(np.isfinite(correction)):
            break
        sol = sol + correction
        residual = _residual(sol)
        if residual < best_residual:
            best_sol, best_residual = sol, residual
    sol, residual = best_sol, best_residual
    if residual > RESIDUAL_RTOL * max(rhs_norm, 1e-300):
        raise SolveError(
            f"{sys.provenance} system residual {residual:.3e} exceeds "
            f"{RESIDUAL_RTOL:.0e} * |rhs| = {RESIDUAL_RTOL * rhs_norm:.3e}",
            residual=residual,
        )
    return sol


ILL_SPECS = [
    KernelSpec("gauss", theta=2, d=2),
    KernelSpec("mq", theta=2, d=2, a=1.0),
    KernelSpec("thinplate", theta=2, d=2, s=1.0),
    KernelSpec("thinplate", theta=2, d=2, s=1.5),  # r^3 by q sqrt(q)
]


def _gate_data():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.5, 1.5, (1000, 2))
    y = np.sin(X.sum(axis=1)) + 0.05 * rng.standard_normal(len(X))
    return rng, X, y


def _center_grid(k):
    t = np.linspace(-1.4, 1.4, k)
    return np.column_stack([a.ravel() for a in np.meshgrid(t, t)])


def _gate_exact_systems(spec, rhos=(1e-3, 1e-8)):
    # (label, system) of the exact systems on the first 400 gate points;
    # rho = 0 gives the interpolation system
    _, X, y = _gate_data()
    for rho in rhos:
        kind = f"exact rho={rho:g}" if rho else "interp"
        yield f"{spec.label()} {kind}", exact_system(spec, PolyFrame(2, 2), X[:400],
                                                    y[:400], rho)


def _gate_systems():
    # Approximate systems on fine center grids at small rho, and exact
    # systems down to rho = 1e-8: condition numbers up to about 1e21.
    frame = PolyFrame(2, 2)
    _, X, y = _gate_data()
    for spec in ILL_SPECS:
        for k in (20, 40):
            parts = approx_parts(spec, frame, X, y, _center_grid(k))
            for rho in (1e-2, 1e-6, 1e-9):
                yield f"{spec.label()} {k}x{k} rho={rho:g}", parts.system(rho)
        yield from _gate_exact_systems(spec)


def _outcome(solve, sys):
    try:
        return solve(sys)
    except SolveError as exc:
        return str(exc)


def _extended_residual(sys, sol):
    A_ext = sys.matrix.astype(np.longdouble)
    return float(np.linalg.norm((A_ext @ sol - sys.rhs.astype(np.longdouble)).astype(float)))


class TestSolveBlockGate:
    def test_ill_conditioned_end_unchanged(self, monkeypatch):
        # A solution passes the long-double residual gate; an error is the
        # one the always-refining solver raises.  Repeated-rho approximate
        # systems may take the spectral candidate, so bits can differ.
        fallbacks, raised = [], []

        def spy(*args, _orig=assembly._refine_extended):
            fallbacks[-1] = True
            return _orig(*args)

        monkeypatch.setattr(assembly, "_refine_extended", spy)
        for label, sys in _gate_systems():
            fallbacks.append(False)
            got = _outcome(solve_block, sys)
            if isinstance(got, str):
                raised.append(label)
                assert got == _outcome(_always_extended_solve, sys), label
            else:
                rhs_norm = np.linalg.norm(sys.rhs)
                assert _extended_residual(sys, got) <= RESIDUAL_RTOL * rhs_norm, label
        # both the double-precision exit and the long-double fallback ran,
        # and the set reaches a system that fails the residual gate
        assert any(fallbacks) and not all(fallbacks), fallbacks
        assert raised

    def test_bound_covers_true_residual(self):
        # fl(A x - b) can be 0 while the exact residual is not: 1e16 + 1
        # rounds to 1e16.  The exact residual is computed in rationals.
        def saddle(K, P):
            m = P.shape[1]
            return np.block([[K, P], [P.T, np.zeros((m, m))]])

        rng = np.random.default_rng(5)
        cases = [(np.array([[1.0, 1.0], [1.0, 0.0]]), np.zeros((2, 0)),
                  np.array([1e16, 1.0]), np.array([1e16, 1e16]))]
        for i in range(20):
            n, m = int(rng.integers(2, 8)), i % 3  # every third without a P
            K = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 9, (n, n))
            K = np.tril(K) + np.tril(K, -1).T
            P = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-8, 9, (n, m))
            x = rng.standard_normal(n + m) * 10.0 ** rng.integers(-8, 9, n + m)
            cases.append((K, P, x, saddle(K, P) @ x))
        for K, P, x, b in cases:
            A = saddle(K, P)
            exact = [
                sum(Fraction(a) * Fraction(v) for a, v in zip(row, x)) - Fraction(c)
                for row, c in zip(A, b)
            ]
            true_sq = sum(r * r for r in exact)
            sys = BlockSystem(K, P, b, P.shape, "test")
            bound = Fraction(assembly._residual_bound(sys, x))
            assert bound * bound >= true_sq


class TestSpectralCandidate:
    """The repeated-rho path: ApproxParts' spectral factor behind the gate."""

    @staticmethod
    def _spy_builds(monkeypatch, fail=False):
        builds = []
        build = assembly._SpectralFactor.build

        def spy(cls, parts):
            builds.append(parts)
            if fail:
                raise np.linalg.LinAlgError("factor disabled")
            return build(parts)

        monkeypatch.setattr(assembly._SpectralFactor, "build", classmethod(spy))
        return builds

    def test_candidates_within_gate(self):
        spec = KernelSpec("thinplate", theta=2, d=2, s=1.0)
        frame = PolyFrame(2, 2)
        rng = np.random.default_rng(21)
        X = rng.uniform(-1.5, 1.5, (400, 2))
        y = np.sin(X.sum(axis=1)) + 0.05 * rng.standard_normal(len(X))
        parts = approx_parts(spec, frame, X, y, _center_grid(8))
        assert parts.system(1.0).candidate is None  # the first system: LU only
        Np = len(parts.centers)
        accepted = 0
        for rho in 10.0 ** -np.arange(1, 10):
            sys = parts.system(rho)
            cand = sys.candidate
            target = 0.05 * RESIDUAL_RTOL * np.linalg.norm(sys.rhs)
            if assembly._residual_bound(sys, cand) > target:
                continue
            accepted += 1
            assert np.array_equal(solve_block(sys), cand)
            assert _extended_residual(sys, cand) <= target
            alpha = cand[:Np]
            violation = np.linalg.norm(parts.P_p.T @ alpha)
            assert violation <= CONSTRAINT_RTOL * max(np.linalg.norm(alpha), 1.0)
        assert accepted >= 6, accepted

    @pytest.mark.parametrize("spec", ILL_SPECS[:2], ids=KernelSpec.label)
    def test_indefinite_pencil_falls_back_to_lu(self, spec, monkeypatch):
        # Z^T G_pp Z is not positive definite to working precision on the
        # 40 x 40 grid: eigh fails once, and every rho then takes LU.
        eigh_calls = []

        def spy(*args, _eigh=scipy.linalg.eigh, **kwargs):
            eigh_calls.append(spec.label())
            return _eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        _, X, y = _gate_data()
        parts = approx_parts(spec, PolyFrame(2, 2), X, y, _center_grid(40))
        parts.system(1e-2)  # the first system carries no candidate
        for rho in (1e-6, 1e-9):
            sys = parts.system(rho)
            got = _outcome(solve_block, sys)
            want = _outcome(_always_extended_solve, sys)
            assert isinstance(got, str) == isinstance(want, str), rho
            assert got == want if isinstance(got, str) else np.array_equal(got, want)
        assert len(eigh_calls) == 1
        assert parts._factor is None

    def test_one_rho_fit_builds_no_factor(self, monkeypatch):
        builds = self._spy_builds(monkeypatch)
        spec, frame, X, y = _random_instance(22, 200)
        Xp = np.linspace(-1.4, 1.4, 9)
        fit_approx(spec, frame, X, y, Xp, 1e-3)
        parts = approx_parts(spec, frame, X, y, Xp)
        fit_parts(parts, 0.1)
        assert builds == []
        fit_parts(parts, 0.01)
        fit_parts(parts, 0.001)
        assert builds == [parts]  # built on the second rho, then reused

    def test_minimal_center_set_has_no_candidate(self, monkeypatch):
        # N' = M: the constraint alone gives alpha = 0, every rho takes LU
        builds = self._spy_builds(monkeypatch)
        spec, frame, X, y = _random_instance(24, 50)
        parts = approx_parts(spec, frame, X, y, [-1.0, 1.0])
        for rho in (0.1, 0.01):
            sys = parts.system(rho)
            assert sys.candidate is None
            np.testing.assert_allclose(sys.split(solve_block(sys))[0], 0.0, atol=1e-10)
        assert builds == []

    @staticmethod
    def _small_search():
        """A small copy of the benchmark's rho search (grid criterion): the
        parts, fresh per call, and the data function and error grid."""
        spec = KernelSpec("thinplate", theta=2, d=2, s=1.0)
        frame = PolyFrame(2, 2)
        rng = np.random.default_rng(23)
        X = rng.uniform(-1.5, 1.5, (3000, 2))
        y = np.sin(X.sum(axis=1)) + 0.05 * rng.standard_normal(len(X))
        box = {"a": (-1.5, -1.5), "b": (1.5, 1.5)}
        Xp = make_grid(GridSpec(counts=(10, 10), **box), frame.theta)
        error_grid = make_grid(GridSpec(counts=(20, 20), **box))
        return (lambda: approx_parts(spec, frame, X, y, Xp),
                lambda p: float(np.sin(np.sum(p))), error_grid)

    def test_rho_search_unchanged_without_factor(self, monkeypatch):
        make_parts, truth, error_grid = self._small_search()
        lu_calls = []

        def lu_spy(*args, _lu=scipy.linalg.lu_factor, **kwargs):
            lu_calls.append(1)
            return _lu(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", lu_spy)

        def search():
            lu_calls.clear()
            error_fn = grid_error_fn(partial(fit_parts, make_parts()), truth, error_grid)
            best, trace = rho_search(error_fn, 0.1, err_tol=0.0)
            return best, trace, len(lu_calls)

        best, trace, lu_with = search()
        self._spy_builds(monkeypatch, fail=True)
        best_lu, trace_lu, lu_without = search()
        assert best == best_lu
        assert [r for r, _ in trace] == [r for r, _ in trace_lu]
        np.testing.assert_allclose([e for _, e in trace], [e for _, e in trace_lu],
                                   rtol=1e-8)
        # one solve per distinct rho: the search reuses a repeated rho's error
        assert lu_without == len(set(r for r, _ in trace_lu))
        assert lu_with < len(trace) // 2

    def test_rho_search_one_kernel_pass_per_step(self, monkeypatch):
        make_parts, truth, error_grid = self._small_search()
        # the scalar loop first, on its own parts, with the real kernel
        scalar_fn = grid_error_fn(partial(fit_parts, make_parts()), truth, error_grid)
        want = rho_search(lambda rhos: [scalar_fn(float(r)) for r in rhos], 0.1,
                          err_tol=0.0)
        passes, steps = [], []

        def spy(spec, P, Q, *args, _kernel=interpolant.kernel_matrix, **kwargs):
            out = _kernel(spec, P, Q, *args, **kwargs)
            passes.append(out.shape)
            return out

        monkeypatch.setattr(interpolant, "kernel_matrix", spy)
        error_fn = grid_error_fn(partial(fit_parts, make_parts()), truth, error_grid)

        def recording(rhos):
            steps.append(len(rhos))
            return error_fn(rhos)

        got = rho_search(recording, 0.1, err_tol=0.0)
        # 400 x 100 entries is one tile: one pass per step with a new rho
        assert passes == [(400, 100)] * len(steps)
        assert sum(steps) == len(set(r for r, _ in got[1])) > len(steps)
        assert got == want


class TestCardinalCandidate:
    """Interpolation and exact systems: Cholesky on the cardinal-basis
    reduction, behind the residual gate, with LU as the fallback."""

    @staticmethod
    def _spy_lu(monkeypatch):
        calls = []

        def spy(*args, _lu=scipy.linalg.lu_factor, **kwargs):
            calls.append(1)
            return _lu(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", spy)
        return calls

    @pytest.mark.parametrize("d, N", [(1, 30), (2, 100)])
    @pytest.mark.parametrize("rho", [0.0, 1e-3], ids=["interp", "exact"])
    def test_solved_without_lu(self, monkeypatch, d, N, rho):
        # r^2 log r on these sets: condition numbers of at most about 5e5
        spec = KernelSpec("thinplate", theta=2, d=d, s=1.0)
        _, frame, X, _ = _random_instance(30 + d, N, d=d, spec=spec)
        # smooth data keeps v small, so the gate's n eps |A||x| term is too
        y = np.sin(X.sum(axis=1))
        sys = exact_system(spec, frame, X, y, rho)
        want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(sys.matrix), sys.rhs)
        lu_calls = self._spy_lu(monkeypatch)
        got = solve_block(sys)
        assert lu_calls == []
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        v, _ = sys.split(got)
        violation = np.linalg.norm(frame.monomials(X).T @ v)
        assert violation <= CONSTRAINT_RTOL * max(np.linalg.norm(v), 1.0)

    def test_benchmark_dense_shape_takes_candidate(self, monkeypatch):
        # The dense benchmark's fit: N = 2000, r^3, rho = 1e-4, noisy sine
        # data.  Its bound sits near 3e-10 |rhs| against the 5e-10 |rhs|
        # early exit; a miss would cost an LU solve and one more N x N array.
        spec = KernelSpec("thinplate", theta=2, d=2, s=1.5)
        frame = PolyFrame(2, 2)
        rng = np.random.default_rng(2000)
        X = rng.uniform(-1.5, 1.5, (2000, 2))
        y = np.sin(X.sum(axis=1)) + 0.05 * rng.standard_normal(len(X))
        sys = exact_system(spec, frame, X, y, 1e-4)
        assert sys.candidate is not None
        lu_calls = self._spy_lu(monkeypatch)
        assert solve_block(sys) is sys.candidate
        assert lu_calls == []

    @pytest.mark.parametrize("spec, frame, seed", [
        # r^3 is not conditionally positive definite against constants alone
        (TPS, PolyFrame(1, 1), 41),
        # gauss interpolation: G_XX is positive definite only in exact arithmetic
        (KernelSpec("gauss", theta=2, d=1), PolyFrame(1, 2), 40),
    ], ids=["r3-constants", "gauss-interp"])
    def test_not_positive_definite_falls_back_to_lu(self, spec, frame, seed):
        _, _, X, y = _random_instance(seed, 30, spec=spec)
        sys = exact_system(spec, frame, X, y, 0.0)
        assert sys.candidate is None
        got = _outcome(solve_block, sys)
        want = _outcome(_always_extended_solve, sys)
        assert isinstance(got, str) == isinstance(want, str)
        assert got == want if isinstance(got, str) else np.array_equal(got, want)

    def test_minimal_set_has_empty_reduction(self, monkeypatch):
        # N = M: the constraint alone gives v = 0, and beta interpolates
        frame = PolyFrame(1, 2)
        X, y = np.array([-1.0, 2.0]), np.array([3.0, 0.0])
        lu_calls = self._spy_lu(monkeypatch)
        for sys in (exact_system(TPS, frame, X, y, 0.0),
                    exact_system(TPS, frame, X, y, 0.5)):
            v, beta = sys.split(solve_block(sys))
            np.testing.assert_array_equal(v, 0.0)
            np.testing.assert_allclose(beta, [2.0, -1.0], rtol=1e-14)
        assert lu_calls == []

    def test_constants_only(self, monkeypatch):
        # M = 1 (theta = 1): Z = [-1...1; I] up to the pivot's position
        spec = KernelSpec("gauss", theta=1, d=1)
        _, frame, X, y = _random_instance(42, 25, theta=1, spec=spec)
        sys = exact_system(spec, frame, X, y, 0.1)
        want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(sys.matrix), sys.rhs)
        lu_calls = self._spy_lu(monkeypatch)
        got = solve_block(sys)
        assert lu_calls == []
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))
        assert abs(np.sum(got[:-1])) <= CONSTRAINT_RTOL * np.linalg.norm(got[:-1])


def _eager_matrix(spec, frame, X, rho):
    # the saddle matrix as it was assembled before the Cholesky candidate
    # factored in the kernel's own buffer
    N, M = len(X), frame.M
    A = np.zeros((N + M, N + M))
    A[:N, :N] = kernel_matrix(spec, X, X)
    diag = np.arange(N)
    A[diag, diag] += assembly._lam(spec, N, rho) if rho else 0.0
    A[:N, N:] = frame.monomials(X)
    A[N:, :N] = frame.monomials(X).T
    return A


def _copy_candidate(matrix, rhs, N):
    # the Cholesky candidate on a copy of G + lam I, as it was computed
    # before it factored in place
    K, P, y = matrix[:N, :N], matrix[:N, N:], rhs[:N]
    A, R, C = assembly._cardinal_basis(P)
    M = len(A)
    buf = K.copy()
    W = np.zeros((N, M))
    W[R] = assembly._half_cross(buf, A, R, C)
    Ct = np.zeros((N, M))
    Ct[R] = C.T
    buf[A] = 0.0
    buf[:, A] = 0.0
    buf[A, A] = 1.0
    low = scipy.linalg.blas.dsyr2k(-1.0, W, Ct, beta=1.0, c=buf.T, lower=1,
                                   overwrite_c=1)
    low, info = scipy.linalg.lapack.dpotrf(low, lower=1, overwrite_a=1, clean=0)
    if info != 0:
        return None
    b = np.zeros(N)
    b[R] = y[R] - assembly.dot(C.T, y[A])
    w, _ = scipy.linalg.lapack.dpotrs(low, b, lower=1)
    v = assembly._expand(w[R], A, R, C)
    beta = scipy.linalg.solve(P[A], y[A] - assembly.dot(K[A], v))
    return np.concatenate([v, beta])


class TestInPlaceCandidate:
    """Interpolation and exact systems hold G_XX + lam I once; the
    Cholesky candidate factors in its upper triangle, and everything else
    reads the strict lower triangle and the saved diagonal."""

    SPECS = ILL_SPECS[:3]  # gauss, mq, r^2 log r
    RHOS = (0.0, 1e-3, 1e-8)  # 0: the interpolation system

    def test_paths_bit_for_bit(self, monkeypatch):
        frame = PolyFrame(2, 2)
        _, X, _ = _gate_data()
        lu_inputs = []

        def spy(a, *args, _lu=scipy.linalg.lu_factor, **kwargs):
            lu_inputs.append(np.array(a))
            return _lu(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", spy)
        paths = set()
        for spec in self.SPECS:
            for rho in self.RHOS:
                (label, sys), = _gate_exact_systems(spec, (rho,))
                eager = _eager_matrix(spec, frame, X[:400], rho)
                N = sys.layout[0]
                want = _copy_candidate(eager, sys.rhs, N)
                lu_inputs.clear()
                got = _outcome(solve_block, sys)
                cand = sys.candidate
                assert (cand is None) == (want is None), label
                if cand is not None:
                    assert np.array_equal(cand, want), label
                if not lu_inputs:  # (1) the accepted candidate is the copy-based one
                    assert np.array_equal(got, want), label
                    paths.add("candidate")
                else:  # (2) LU factors the eagerly assembled matrix
                    assert np.array_equal(lu_inputs[0], eager), label
                    other = BlockSystem(eager[:N, :N].copy(), eager[:N, N:].copy(),
                                        sys.rhs, sys.layout, sys.provenance)
                    want_lu = _outcome(solve_block, other)
                    assert type(got) is type(want_lu), label
                    assert (got == want_lu if isinstance(got, str)
                            else np.array_equal(got, want_lu)), label
                    paths.add("lu, no factor" if cand is None else "lu, missed gate")
                # (3) the dense matrix, read after the candidate factored in K
                assert np.array_equal(sys.matrix, eager), label
        assert paths == {"candidate", "lu, no factor", "lu, missed gate"}, paths

    def test_bound_covers_extended_residual(self):
        # (4) the triangle pass bounds the long-double residual of every
        # solution tried, and its products agree with the dense matrix's
        # A x and |A| |x| within their rounding bound
        for spec in self.SPECS:
            for label, sys in _gate_exact_systems(spec, self.RHOS):
                A = sys.matrix
                cand = sys.candidate
                lu = scipy.linalg.lu_solve(scipy.linalg.lu_factor(sys.matrix), sys.rhs)
                for x in (cand, lu):
                    if x is None:
                        continue
                    bound = assembly._residual_bound(sys, x)
                    assert bound >= _extended_residual(sys, x), label
                    Ax, abs_Ax = sys.products(x)
                    want_Ax, want_abs = A @ x, np.abs(A) @ np.abs(x)
                    slack = 2 * len(x) * np.finfo(float).eps * want_abs
                    assert np.all(np.abs(Ax - want_Ax) <= slack), label
                    assert np.all(np.abs(abs_Ax - want_abs) <= slack), label


class TestDenseFitMemory:
    @pytest.mark.parametrize("fit", ["interpolant", "exact"])
    def test_one_matrix(self, fit):
        # a dense fit holds one N x N matrix: two would be 2 * 8 N^2 bytes
        spec = KernelSpec("thinplate", theta=2, d=2, s=1.5)
        frame = PolyFrame(2, 2)
        rng = np.random.default_rng(17)
        N = 800
        X = rng.uniform(-1.5, 1.5, (N, 2))
        y = np.sin(X.sum(axis=1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            if fit == "exact":
                fit_exact(spec, frame, X, y, 1e-4)
            else:
                interpolant.fit_interpolant(spec, frame, X, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 1.3 * 8 * N**2


class TestSolveBlockMemory:
    def test_peak_allocation_is_the_factorization(self):
        # Allocations, not time: beside the LU copy of A, the gate adds only
        # row blocks and vectors.
        n = 1000
        rng = np.random.default_rng(3)
        A = rng.standard_normal((n, n))
        A = A + A.T + 2 * n * np.eye(n)
        sys = BlockSystem(A, np.zeros((n, 0)), rng.standard_normal(n), (n,), "test")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            solve_block(sys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.25 * A.nbytes


class TestExactSystemMemory:
    def test_kernel_written_in_place(self):
        # G_XX goes straight into the saddle matrix: no second N x N array
        spec, frame, X, y = _random_instance(11, 1000, d=2, theta=2)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            sys = exact_system(spec, frame, X, y, 1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.1 * sys.K.nbytes

    def test_blocks_bit_for_bit(self):
        spec, frame, X, y = _random_instance(12, 300, d=2, theta=2)
        N, M = len(X), frame.M
        A = exact_system(spec, frame, X, y, 0.0).matrix
        assert np.array_equal(A[:N, :N], kernel_matrix(spec, X, X))
        assert np.array_equal(A[:N, N:], frame.monomials(X))
        assert np.array_equal(A[N:, :N], frame.monomials(X).T)
        assert not np.any(A[N:, N:])


class TestCpdCheck:
    def test_gaussian_positive_definite(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, (20, 1))
        assert cpd_check(GAUSS1, PolyFrame(1, 1), X, trials=100)

    def test_thinplate(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(-1.5, 1.5, (10, 1))
        assert cpd_check(TPS, PolyFrame(1, 2), X, trials=100)

    def test_r3_not_cpd_against_constants(self):
        # r^3 is CPD of order 2; with constants only, v ~ (1, -1) on two
        # points gives v^T G v = -2|x1 - x2|^3 < 0
        assert not cpd_check(TPS, PolyFrame(1, 1), [0.0, 1.0], trials=10)

    def test_trials_validated(self):
        with pytest.raises(ParameterError):
            cpd_check(GAUSS1, PolyFrame(1, 1), [0.0, 1.0], trials=0)
