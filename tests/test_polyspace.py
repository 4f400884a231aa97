import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfsmooth.errors import InputError, ParameterError, UnisolvencyError
from bfsmooth.kernels import parse_kernel, riesz_representer, semi_riesz
from bfsmooth.polyspace import (
    PolyFrame,
    _has_duplicates,
    as_points,
    enumerate_multi_indices,
    is_unisolvent,
    minimal_unisolvent_subset,
    unisolvency_matrix,
)


class TestEnumeration:
    def test_d1_theta2(self):
        assert enumerate_multi_indices(1, 2) == [(0,), (1,)]

    def test_d2_theta2(self):
        assert enumerate_multi_indices(2, 2) == [(0, 0), (1, 0), (0, 1)]

    def test_d2_theta3_brute_force(self):
        expected = {
            alpha
            for alpha in ((i, j) for i in range(3) for j in range(3))
            if sum(alpha) < 3
        }
        got = enumerate_multi_indices(2, 3)
        assert len(got) == 6
        assert set(got) == expected

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            enumerate_multi_indices(0, 2)
        with pytest.raises(ParameterError):
            enumerate_multi_indices(1, 0)

    @given(d=st.integers(1, 4), theta=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_count_is_binomial(self, d, theta):
        indices = enumerate_multi_indices(d, theta)
        assert len(indices) == math.comb(theta - 1 + d, d)
        assert len(set(indices)) == len(indices)
        assert all(sum(a) < theta and min(a) >= 0 for a in indices)


class TestUnisolvencyMatrix:
    def test_vandermonde_rows(self):
        frame = PolyFrame(1, 2)
        np.testing.assert_array_equal(
            unisolvency_matrix(frame, [0.0, 1.0]), [[1, 0], [1, 1]]
        )
        np.testing.assert_array_equal(unisolvency_matrix(frame, [2.0]), [[1, 2]])

    def test_d2_identity_like(self):
        frame = PolyFrame(2, 2)
        P = unisolvency_matrix(frame, [(0, 0), (1, 0), (0, 1)])
        np.testing.assert_array_equal(P, [[1, 0, 0], [1, 1, 0], [1, 0, 1]])


def _monomials_reference(frame, pts):
    # The earlier formula: np.power with integer exponent arrays, then a
    # product along the coordinate axis.
    cols = [np.prod(pts ** np.array(alpha), axis=1) for alpha in frame.indices]
    return np.column_stack(cols)


class TestMonomialValues:
    @pytest.mark.parametrize("d,theta", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
    def test_theta_at_most_2_bit_identical(self, d, theta):
        frame = PolyFrame(d, theta)
        pts = np.random.default_rng(d + theta).uniform(-1.5, 1.5, (500, d))
        pts[0] = -0.0
        got = frame.monomials(pts)
        want = _monomials_reference(frame, pts)
        assert got.flags["C_CONTIGUOUS"]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_theta_4_d_3_close(self):
        frame = PolyFrame(3, 4)
        pts = np.random.default_rng(7).uniform(-1.5, 1.5, (500, 3))
        np.testing.assert_allclose(
            frame.monomials(pts), _monomials_reference(frame, pts), rtol=1e-15, atol=0
        )


class TestAsPoints:
    @pytest.mark.parametrize("points, message", [
        ([0.0, 1.0, 2.0], "cannot interpret shape"),  # neither one point nor d = 1
        ([[0.0, math.nan]], "non-finite"),
        ([[math.inf, 0.0]], "non-finite"),
    ])
    def test_rejected(self, points, message):
        with pytest.raises(InputError, match=message):
            as_points(points, 2)


class TestDuplicates:
    def test_signed_zero_is_the_same_point(self):
        assert _has_duplicates(np.array([[0.0, 1.0], [-0.0, 1.0]]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equal_rows_far_apart(self, d):
        pts = np.random.default_rng(d).uniform(-1.5, 1.5, (1000, d))
        assert not _has_duplicates(pts)
        pts[-1] = pts[0]
        assert _has_duplicates(pts)

    @pytest.mark.parametrize("d", [1, 3])
    def test_rows_differing_in_one_coordinate(self, d):
        pts = np.zeros((3, d))
        pts[1, -1] = 1.0
        pts[2, 0] = -1.0
        assert not _has_duplicates(pts)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1])
    def test_zero_or_one_point(self, d, n):
        assert not _has_duplicates(np.zeros((n, d)))

    @staticmethod
    def _lexsort_reference(pts):
        same = np.ones(max(len(pts) - 1, 0), dtype=bool)
        for x in pts[np.lexsort(pts.T)].T:
            same &= x[1:] == x[:-1]
        return bool(same.any())

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_agrees_with_full_lexsort(self, d):
        rng = np.random.default_rng(40 + d)
        distinct = rng.uniform(-1.5, 1.5, (200, d))
        planted = distinct.copy()
        planted[150] = planted[7]
        # ties in x1 only: the later coordinates tell the points apart
        tied = distinct.copy()
        tied[::2, 0] = 0.5
        tied_dup = tied.copy()
        tied_dup[10] = tied[20]
        # +-0.0 in every coordinate are the same point
        signed = distinct.copy()
        signed[3], signed[90] = 0.0, -0.0
        signed_first = distinct.copy()
        signed_first[[5, 60], 0] = [0.0, -0.0]
        grid = np.stack(np.meshgrid(*[np.arange(3.0)] * d), -1).reshape(-1, d)
        cases = [(distinct, False), (planted, True), (signed, True),
                 (signed_first, d == 1), (grid, False),
                 (np.concatenate([grid, grid[-1:]]), True)]
        if d > 1:
            cases += [(tied, False), (tied_dup, True)]
        for pts, want in cases:
            assert self._lexsort_reference(pts) == want
            assert _has_duplicates(pts) == want

    @pytest.mark.parametrize("check", [is_unisolvent, minimal_unisolvent_subset])
    def test_checks_reject_duplicates(self, check):
        X = [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (-0.0, 1.0)]
        with pytest.raises(InputError):
            check(PolyFrame(2, 2), X)


class TestIsUnisolvent:
    def test_two_points_line(self):
        assert is_unisolvent(PolyFrame(1, 2), [0.0, 1.0])

    def test_collinear_points_fail(self):
        assert not is_unisolvent(PolyFrame(2, 2), [(0, 0), (1, 0), (2, 0)])

    def test_too_few_points(self):
        assert not is_unisolvent(PolyFrame(1, 3), [0.0, 1.0])

    def test_duplicates_rejected(self):
        with pytest.raises(InputError):
            is_unisolvent(PolyFrame(1, 2), [0.0, 0.0])


class TestMinimalSubset:
    def test_pivoted_pair_spans_the_line(self):
        # the pivoted QR of P_X^T takes x = 2 first, then x = 0 (the larger
        # remainder after projecting out x = 2), returned in input order
        uf = minimal_unisolvent_subset(PolyFrame(1, 2), [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(uf.points.ravel(), [0.0, 2.0])
        # cardinal polynomials 1 - x/2 and x/2 over monomials (1, x)
        np.testing.assert_allclose(uf.cardinal, [[1, -0.5], [0, 0.5]], atol=1e-14)

    def test_constants(self):
        uf = minimal_unisolvent_subset(PolyFrame(1, 1), [5.0])
        assert uf.cardinal_values(123.0)[0] == pytest.approx(1.0)

    def test_skips_collinear(self):
        uf = minimal_unisolvent_subset(
            PolyFrame(2, 2), [(0, 0), (1, 0), (2, 0), (0, 1)]
        )
        np.testing.assert_array_equal(uf.points, [(0, 0), (2, 0), (0, 1)])

    def test_nearly_collinear_prefix_stays_well_conditioned(self):
        # The first three points are collinear to within 1e-8.  A scan in
        # input order keeps them (cond(P_A) about 7e8, the line reproduced
        # to about 1e-7); the pivoted QR picks a well-conditioned A.
        frame = PolyFrame(2, 2)
        X = np.concatenate([[(0.0, 0.0), (1.0, 0.0), (2.0, 1e-8)],
                            np.random.default_rng(0).uniform(-1, 1, (20, 2))])
        uf = minimal_unisolvent_subset(frame, X)
        assert np.linalg.cond(frame.monomials(uf.points)) <= 1e3

        def p(x):
            return 1 + 2 * x[:, 0] - 3 * x[:, 1]

        rng = np.random.default_rng(1)
        probes = rng.uniform(-1, 1, (200, 2))
        np.testing.assert_allclose(uf.cardinal_values(probes) @ p(uf.points),
                                   p(probes), rtol=0, atol=1e-12)
        # the representer laws of acceptance criterion 11
        spec = parse_kernel("thinplate:s=1.5", theta=2, d=2)
        worst = 0.0
        for x, y in rng.uniform(-1, 1, (20, 2, 2)):
            lx = uf.cardinal_values(x)[0]
            worst = max(worst,
                        np.max(np.abs(riesz_representer(spec, uf, x, uf.points) - lx)),
                        np.max(np.abs(semi_riesz(spec, uf, x, uf.points))),
                        -semi_riesz(spec, uf, x, x),
                        abs(semi_riesz(spec, uf, x, y) - semi_riesz(spec, uf, y, x)))
        assert worst <= 1e-10

    def test_not_unisolvent_raises(self):
        with pytest.raises(UnisolvencyError):
            minimal_unisolvent_subset(PolyFrame(2, 2), [(0, 0), (1, 0), (2, 0)])

    @pytest.mark.parametrize("d,theta", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)])
    def test_output_is_minimal_unisolvent(self, d, theta):
        rng = np.random.default_rng(d * 10 + theta)
        frame = PolyFrame(d, theta)
        X = rng.uniform(-1, 1, (frame.M + 10, d))
        uf = minimal_unisolvent_subset(frame, X)
        assert len(uf.points) == frame.M
        assert is_unisolvent(frame, uf.points)

    @pytest.mark.parametrize("d,theta", [(1, 2), (2, 2), (2, 3), (1, 4)])
    def test_cardinal_delta_property(self, d, theta):
        rng = np.random.default_rng(42 + d + theta)
        frame = PolyFrame(d, theta)
        X = rng.uniform(-2, 2, (frame.M + 5, d))
        uf = minimal_unisolvent_subset(frame, X)
        L = uf.cardinal_values(uf.points)
        assert np.max(np.abs(L - np.eye(frame.M))) <= 1e-10


class TestLagrangeOperators:
    # the Lagrange projection Pf = sum f(a_i) l_i from samples f(a_i) on A
    def _setup(self, d=2, theta=3, seed=0):
        rng = np.random.default_rng(seed)
        frame = PolyFrame(d, theta)
        X = rng.uniform(-1, 1, (frame.M + 8, d))
        return frame, minimal_unisolvent_subset(frame, X), rng

    def test_reproduces_polynomials(self):
        frame, uf, rng = self._setup()
        coeffs = rng.standard_normal(frame.M)

        def p(x):
            return frame.monomials(x) @ coeffs

        samples = p(uf.points)
        probes = rng.uniform(-1, 1, (20, frame.d))
        np.testing.assert_allclose(
            uf.cardinal_values(probes) @ samples, p(probes), atol=1e-10
        )

    def test_zero_samples_zero_projection(self):
        frame, uf, rng = self._setup(seed=1)
        probes = rng.uniform(-1, 1, (10, frame.d))
        assert np.max(np.abs(uf.cardinal_values(probes) @ np.zeros(frame.M))) == 0.0

    def test_linear_interpolation_oracle(self):
        uf = minimal_unisolvent_subset(PolyFrame(1, 2), [0.0, 1.0])
        assert uf.cardinal_values(0.5) @ [3.0, 5.0] == pytest.approx([4.0])

    def test_projection_idempotent(self):
        frame, uf, rng = self._setup(seed=2)
        samples = rng.standard_normal(frame.M)
        probes = rng.uniform(-1, 1, (20, frame.d))
        once = uf.cardinal_values(probes) @ samples
        # project the projection: P(Pf) sampled on A equals Pf samples
        resampled = uf.cardinal_values(uf.points) @ samples
        twice = uf.cardinal_values(probes) @ resampled
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_reorder_invariance(self):
        frame, uf, rng = self._setup(seed=4)
        samples = rng.standard_normal(frame.M)
        probes = rng.uniform(-1, 1, (10, frame.d))
        base = uf.cardinal_values(probes) @ samples
        perm = rng.permutation(frame.M)
        uf2 = minimal_unisolvent_subset(frame, uf.points[perm])
        np.testing.assert_allclose(
            uf2.cardinal_values(probes) @ samples[perm], base, atol=1e-12
        )
