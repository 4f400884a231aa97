import math

import numpy as np
import pytest

from bfsmooth.assembly import (
    ApproxParts,
    BlockSystem,
    approx_parts,
    cpd_check,
    exact_system,
    interp_system,
    solve_block,
)
from bfsmooth.errors import ParameterError, SolveError, UnisolvencyError
from bfsmooth.exact_smoother import fit_exact
from bfsmooth.interpolant import eval_model
from bfsmooth.kernels import KernelSpec, kernel_matrix, riesz_representer
from bfsmooth.polyspace import PolyFrame, minimal_unisolvent_subset
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
        sys = interp_system(GAUSS1, frame, [0.0], [7.0])
        np.testing.assert_allclose(sys.matrix, [[1, 1], [1, 0]])
        np.testing.assert_allclose(sys.rhs, [7.0, 0.0])
        assert sys.layout == (1, 1)

    def test_symmetric(self):
        spec, frame, X, y = _random_instance(0, 25)
        assert _symmetric(interp_system(spec, frame, X, y).matrix)

    def test_rejects_non_unisolvent(self):
        frame = PolyFrame(2, 2)
        spec = KernelSpec("gauss", theta=2, d=2)
        with pytest.raises(UnisolvencyError):
            interp_system(spec, frame, [(0, 0), (1, 0), (2, 0)], [0.0, 1.0, 2.0])

    def test_rejects_length_mismatch(self):
        spec, frame, X, _ = _random_instance(1, 10)
        with pytest.raises(ParameterError):
            interp_system(spec, frame, X, [1.0])

    def test_regular_on_random_instances(self):
        rng = np.random.default_rng(123)
        for trial in range(50):
            N = int(rng.integers(3, 61))
            spec, frame, X, y = _random_instance((123, trial), N)
            sys = interp_system(spec, frame, X, y)
            sol = solve_block(sys)
            residual = np.linalg.norm(sys.matrix @ sol - sys.rhs)
            assert residual <= 1e-8 * np.linalg.norm(sys.rhs)


class TestExactSystem:
    def test_rho_zero_equals_interp(self):
        spec, frame, X, y = _random_instance(2, 20)
        a = interp_system(spec, frame, X, y)
        b = exact_system(spec, frame, X, y, rho=0.0)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.rhs, b.rhs)

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
            - interp_system(spec, frame, X, y).matrix
        )
        expected = np.zeros_like(diff)
        expected[:N, :N] = (2 * np.pi) ** (spec.d / 2) * N * rho * np.eye(N)
        np.testing.assert_array_equal(diff, expected)

    def test_negative_rho_rejected(self):
        spec, frame, X, y = _random_instance(4, 10)
        with pytest.raises(ParameterError):
            exact_system(spec, frame, X, y, rho=-1.0)

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

    def test_chunked_matches_unchunked(self):
        spec, frame, X, y = _random_instance(7, 500)
        Xp = np.linspace(-1.4, 1.4, 7)
        a = approx_parts(spec, frame, X, y, Xp, chunk=64).system(0.1)
        b = approx_parts(spec, frame, X, y, Xp, chunk=10_000).system(0.1)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-10)
        np.testing.assert_allclose(a.rhs, b.rhs, atol=1e-10)

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


class TestSolveBlock:
    def test_identity_system(self):
        rhs = np.array([1.0, 2.0, 3.0])
        sys = BlockSystem(matrix=np.eye(3), rhs=rhs, layout=(3,), provenance="test")
        np.testing.assert_allclose(solve_block(sys), rhs)

    def test_singular_raises(self):
        sys = BlockSystem(
            matrix=np.zeros((2, 2)), rhs=np.array([1.0, 0.0]), layout=(2,),
            provenance="test",
        )
        with pytest.raises(SolveError):
            solve_block(sys)

    def test_random_symmetric_high_accuracy(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(5, 61))
            A = rng.standard_normal((n, n))
            A = A + A.T + 2 * n * np.eye(n)
            rhs = rng.standard_normal(n)
            sys = BlockSystem(matrix=A, rhs=rhs, layout=(n,), provenance="test")
            sol = solve_block(sys)
            assert np.linalg.norm(A @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)
            np.testing.assert_allclose(sol, np.linalg.solve(A, rhs), atol=1e-9)

    def test_split(self):
        sys = BlockSystem(
            matrix=np.eye(5), rhs=np.arange(5.0), layout=(3, 2), provenance="test"
        )
        a, b = sys.split(np.arange(5.0))
        np.testing.assert_array_equal(a, [0, 1, 2])
        np.testing.assert_array_equal(b, [3, 4])


class TestCpdCheck:
    def test_gaussian_positive_definite(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, (20, 1))
        assert cpd_check(GAUSS1, PolyFrame(1, 1), X, trials=100)

    def test_thinplate(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(-1.5, 1.5, (10, 1))
        assert cpd_check(TPS, PolyFrame(1, 2), X, trials=100)

    def test_trials_validated(self):
        with pytest.raises(ParameterError):
            cpd_check(GAUSS1, PolyFrame(1, 1), [0.0, 1.0], trials=0)
