import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from bfsmooth import kernels
from bfsmooth.errors import InputError, ParameterError, ParseError
from bfsmooth.kernels import (
    KernelSpec,
    _profile,
    kernel_matrix,
    parse_kernel,
    predicted_orders,
    riesz_representer,
    semi_riesz,
)
from bfsmooth.polyspace import PolyFrame, minimal_unisolvent_subset

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _frame(d, theta, seed=0, extra=6):
    rng = np.random.default_rng(seed)
    frame = PolyFrame(d, theta)
    X = rng.uniform(-1.5, 1.5, (frame.M + extra, d))
    return minimal_unisolvent_subset(frame, X)


ALL_SPECS = [
    KernelSpec("thinplate", theta=2, d=1, s=1.5),
    KernelSpec("thinplate", theta=2, d=2, s=1.0),
    KernelSpec("shifted-tps", theta=2, d=2, s=1.0, a=1.0),
    KernelSpec("shifted-tps", theta=2, d=1, s=0.5, a=0.7),
    KernelSpec("mq", theta=1, d=2, a=1.0),
    KernelSpec("imq", theta=1, d=1, a=1.0),
    KernelSpec("gauss", theta=2, d=2),
]


def _g(spec, x):
    """G at one point, or at each row of an (n, d) array: kernel_matrix
    against the origin."""
    values = kernel_matrix(spec, x, np.zeros((1, spec.d)))[:, 0]
    return values if np.ndim(x) == 2 else values[0]


class TestKernelEval:
    def test_thinplate_log_form_zero_at_unit_radius(self):
        spec = KernelSpec("thinplate", theta=2, d=2, s=1.0)
        assert _g(spec, (1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_thinplate_power_form(self):
        spec = KernelSpec("thinplate", theta=2, d=1, s=1.5)
        # (-1)^ceil(1.5) r^3 = r^3
        assert _g(spec, 2.0) == pytest.approx(8.0)

    def test_multiquadric_at_origin(self):
        spec = KernelSpec("mq", theta=1, d=2, a=1.0)
        assert _g(spec, (0.0, 0.0)) == pytest.approx(-1.0)

    def test_gaussian_unit_radius(self):
        spec = KernelSpec("gauss", theta=1, d=2)
        assert _g(spec, (1.0, 0.0)) == pytest.approx(math.exp(-1.0))

    def test_shifted_tps_integer_s_at_origin(self):
        spec = KernelSpec("shifted-tps", theta=2, d=1, s=1.0, a=1.0)
        assert _g(spec, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_imq_closed_form(self):
        spec = KernelSpec("imq", theta=1, d=1, a=2.0)
        assert _g(spec, 1.0) == pytest.approx(1.0 / math.sqrt(5.0))

    def test_thinplate_origin_limit(self):
        for s in (0.5, 1.0, 1.5, 2.0):
            spec = KernelSpec("thinplate", theta=3, d=1, s=s)
            assert _g(spec, 0.0) == 0.0

    def test_thinplate_continuity_near_origin(self):
        for s in (1.0, 1.5, 2.5):
            spec = KernelSpec("thinplate", theta=3, d=2, s=s)
            assert abs(_g(spec, (1e-8, 0.0))) <= 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
    def test_evenness(self, spec):
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, spec.d)
        assert _g(spec, x) == _g(spec, -x)

    @pytest.mark.parametrize(
        "spec", [s for s in ALL_SPECS if s.d == 2], ids=lambda s: s.label()
    )
    def test_radiality(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(5):
            r = rng.uniform(0.1, 2.0)
            phi1, phi2 = rng.uniform(0, 2 * np.pi, 2)
            v1 = _g(spec, (r * np.cos(phi1), r * np.sin(phi1)))
            v2 = _g(spec, (r * np.cos(phi2), r * np.sin(phi2)))
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_finite_everywhere(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5, 5, (50, 2))
        for spec in ALL_SPECS:
            if spec.d == 2:
                assert np.all(np.isfinite(_g(spec, pts)))


class TestKernelMatrix:
    def test_gauss_single(self):
        spec = KernelSpec("gauss", theta=1, d=1)
        np.testing.assert_allclose(kernel_matrix(spec, [0.0], [0.0]), [[1.0]])

    def test_gauss_pair(self):
        spec = KernelSpec("gauss", theta=1, d=1)
        e1 = math.exp(-1.0)
        np.testing.assert_allclose(
            kernel_matrix(spec, [0.0, 1.0], [0.0, 1.0]), [[1, e1], [e1, 1]]
        )

    def test_thinplate_row(self):
        spec = KernelSpec("thinplate", theta=2, d=1, s=1.5)
        np.testing.assert_allclose(
            kernel_matrix(spec, [0.0], [0.0, 1.0, 2.0]), [[0.0, 1.0, 8.0]]
        )

    def test_symmetric_for_equal_sets(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (15, 2))
        for spec in ALL_SPECS:
            if spec.d == 2:
                G = kernel_matrix(spec, X, X)
                assert np.max(np.abs(G - G.T)) <= 1e-12 * max(np.max(np.abs(G)), 1.0)


LOG_SPECS = [
    KernelSpec("thinplate", theta=2, d=2, s=1.0),
    KernelSpec("thinplate", theta=3, d=2, s=2.0),
    KernelSpec("thinplate", theta=4, d=2, s=3.0),
    KernelSpec("shifted-tps", theta=2, d=2, s=1.0, a=0.7),
    KernelSpec("shifted-tps", theta=3, d=2, s=2.0, a=0.7),
]


def _log_branch_reference(spec, r2):
    # The integer-s log branch out of place, with r = 0 masked by np.where.
    c = (-1.0) ** (int(spec.s) + 1) / 2.0
    if spec.family == "shifted-tps":
        q = spec.a**2 + r2
        return c * q**spec.s * np.log(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        return c * r2**spec.s * np.where(r2 > 0, np.log(np.where(r2 > 0, r2, 1.0)), 0.0)


def _log_branch_in_place(spec, r2):
    # The integer-s log branch written the direct way: q**s, *= c, then a
    # log masked to q > 0.
    q = r2 + spec.a**2 if spec.family == "shifted-tps" else r2.copy()
    t = q**spec.s
    t *= (-1.0) ** (int(spec.s) + 1) / 2.0
    np.log(q, out=q, where=q > 0)
    q *= t
    return q


def _grid_centers(d, n=400):
    # n nodes of a regular grid on [-1.5, 1.5]^d (d = 1 or 2)
    per_axis = round(n ** (1.0 / d))
    axes = np.meshgrid(*[np.linspace(-1.5, 1.5, per_axis)] * d, indexing="ij")
    return np.column_stack([a.ravel() for a in axes])


class TestBitExact:
    @pytest.mark.parametrize("reference", [_log_branch_reference, _log_branch_in_place])
    @pytest.mark.parametrize("spec", LOG_SPECS, ids=KernelSpec.label)
    def test_log_branch_matches_reference(self, spec, reference):
        rng = np.random.default_rng(0)
        r2 = np.concatenate([
            [0.0, 5e-324, 1e-300, 1.0, 1e10],
            rng.uniform(0.0, 10.0, 1000),
            10.0 ** rng.uniform(-300.0, 10.0, 1000),
        ])
        want = reference(spec, r2)
        got = _profile(spec, r2.copy())
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("spec", LOG_SPECS, ids=KernelSpec.label)
    def test_log_branch_matrix_matches_in_place_formula(self, spec):
        rng = np.random.default_rng(2)
        Z = rng.uniform(-1.5, 1.5, (900, 2))
        Y = np.vstack([Z[:100], rng.uniform(-1.5, 1.5, (900, 2))])  # r = 0 rows
        want = _log_branch_in_place(spec, cdist(Y, Z, "sqeuclidean"))
        got = kernel_matrix(spec, Y, Z)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "spec", ALL_SPECS + [s for s in LOG_SPECS if s not in ALL_SPECS],
        ids=KernelSpec.label,
    )
    def test_matrix_equals_profile_of_cdist(self, spec):
        rng = np.random.default_rng(1)
        m = 1000
        rows = kernels._BLOCK_ENTRIES // m
        for n_y, n_z in [(0, 7), (7, 0), (1, m), (2 * rows + 3, m)]:
            Y = rng.uniform(-1.5, 1.5, (n_y, spec.d))
            Z = rng.uniform(-1.5, 1.5, (n_z, spec.d))
            if n_y and n_z:
                Y[0] = Z[0]  # r = 0
            want = _profile(spec, cdist(Y, Z, "sqeuclidean"))
            got = kernel_matrix(spec, Y, Z)
            assert got.shape == (n_y, n_z)
            assert np.array_equal(got, want)


POWER_SPECS = [
    KernelSpec("thinplate", theta=3, d=2, s=0.5),
    KernelSpec("thinplate", theta=3, d=2, s=1.5),
    KernelSpec("thinplate", theta=3, d=2, s=2.5),
    KernelSpec("shifted-tps", theta=3, d=2, s=1.5, a=1.0),
]


def _pow_form(spec, r2):
    """The power branch as (-1)^ceil(s) (a^2 + r^2)**s, one pow per entry."""
    q = r2 + (spec.a**2 if spec.family == "shifted-tps" else 0.0)
    return (-1.0) ** math.ceil(spec.s) * q**spec.s


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs a long double wider than double")
class TestPowerBranch:
    @pytest.mark.parametrize("spec", POWER_SPECS, ids=KernelSpec.label)
    def test_accuracy_against_long_double(self, spec):
        # Against the exact power of each pair's distance, the error comes
        # from the rounding of r^2 (amplified by s) plus one rounding per
        # operation: q^k sqrt(q) may exceed pow's worst case by k half-ulps.
        rng = np.random.default_rng(5)
        Y = rng.uniform(-1.5, 1.5, (300, 2))
        Z = rng.uniform(-1.5, 1.5, (400, 2))
        Z[:50] = Y[:50]  # coincident points
        got = kernel_matrix(spec, Y, Z)
        want = _pow_form(spec, cdist(Y, Z, "sqeuclidean"))
        diff = Y[:, None, :].astype(np.longdouble) - Z[None, :, :]
        q = (diff**2).sum(axis=-1) + np.longdouble(spec.a or 0.0) ** 2
        exact = (-1) ** math.ceil(spec.s) * q ** np.longdouble(spec.s)
        nonzero = exact != 0

        def worst(values):
            return float(np.max(np.abs((values - exact)[nonzero] / exact[nonzero])))

        k = int(spec.s - 0.5)  # q^k sqrt(q) rounds k + 1 times, pow once
        eps = np.finfo(float).eps
        assert worst(got) <= worst(want) + k * eps / 2
        # r^2 is within 2 eps (d = 2), which the power multiplies by s
        assert worst(got) <= (2 * spec.s + (k + 1) / 2) * eps
        assert np.all(np.abs(got - want) <= k * np.spacing(np.abs(want)))
        zeros = ~nonzero  # the coincident pairs of a thin plate
        assert zeros.sum() == (50 if spec.family == "thinplate" else 0)
        assert np.all(got[zeros] == 0)

    @pytest.mark.parametrize("spec", POWER_SPECS, ids=KernelSpec.label)
    def test_edge_inputs_match_pow_pattern(self, spec):
        # r^2 = 0, subnormal, and results just under or over the double
        # range: the same zero / finite / inf pattern and signs as pow
        with np.errstate(over="ignore"):
            powers = 10.0 ** (np.array([-330.0, -300.0, 300.0, 307.0, 309.0]) / spec.s)
            r2 = np.concatenate([[0.0, 5e-324, 1e-310, 2.2e-308, 1e-200, 1e250,
                                  1.7e308, np.inf], powers])
            got, want = _profile(spec, r2.copy()), _pow_form(spec, r2)
        for pattern in (lambda v: v == 0, np.isfinite, np.isinf, np.signbit):
            assert np.array_equal(pattern(got), pattern(want))


class TestKernelMatrixOut:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=KernelSpec.label)
    def test_out_matches_fresh_matrix(self, spec):
        # a contiguous buffer is filled and returned, bit for bit
        rng = np.random.default_rng(4)
        m = 300
        n = 2 * (kernels._BLOCK_ENTRIES // m) + 5
        Y = rng.uniform(-1.5, 1.5, (n, spec.d))
        Z = rng.uniform(-1.5, 1.5, (m, spec.d))
        want = kernel_matrix(spec, Y, Z)
        buffer = np.empty((n, m))
        assert kernel_matrix(spec, Y, Z, out=buffer) is buffer
        assert np.array_equal(buffer, want)

    def test_out_shape_and_dtype_checked(self):
        spec = KernelSpec("gauss", theta=1, d=1)
        with pytest.raises(ParameterError):
            kernel_matrix(spec, [0.0, 1.0], [0.0], out=np.empty((1, 2)))
        with pytest.raises(ParameterError):
            kernel_matrix(spec, [0.0], [0.0], out=np.empty((1, 1), dtype=np.float32))
        # a strided block of a larger matrix: cdist writes only C-contiguous
        big = np.full((5, 5), 7.0)
        with pytest.raises(ParameterError, match="C-contiguous"):
            kernel_matrix(spec, [0.0, 1.0], [0.0, 2.0], out=big[:2, :2])
        assert np.all(big == 7.0)


class TestKernelMatrixMemory:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=KernelSpec.label)
    def test_peak_allocation_is_the_output(self, spec):
        # Allocations, not time: the (|Y|, |Z|) result is the only
        # full-size array kernel_matrix creates.
        centers = _grid_centers(spec.d)
        X = np.random.default_rng(2).uniform(-1.5, 1.5, (4096, spec.d))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            G = kernel_matrix(spec, centers, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.shape == (400, 4096)
        assert peak - before <= 1.25 * G.nbytes


class TestValidation:
    def test_thinplate_s_range(self):
        with pytest.raises(ParameterError):
            KernelSpec("thinplate", theta=2, d=1, s=2.5)
        with pytest.raises(ParameterError):
            KernelSpec("thinplate", theta=2, d=1, s=0.0)

    def test_shifted_tps_s_range(self):
        with pytest.raises(ParameterError):
            KernelSpec("shifted-tps", theta=1, d=1, s=-0.6, a=1.0)
        with pytest.raises(ParameterError):
            KernelSpec("shifted-tps", theta=2, d=1, s=1.0, a=0.0)

    def test_mq_needs_d_above_1(self):
        with pytest.raises(ParameterError):
            KernelSpec("mq", theta=1, d=1, a=1.0)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            KernelSpec("wendland", theta=1, d=1)

    @pytest.mark.parametrize("family, params, message", [
        ("gauss", {"theta": 0, "d": 1}, "theta must be a positive integer"),
        ("gauss", {"theta": 1.5, "d": 1}, "theta must be a positive integer"),
        ("gauss", {"theta": 2, "d": 0}, "dimension must be >= 1"),
        ("mq", {"theta": 2, "d": 2, "a": 0.0}, "mq requires a > 0"),
        ("imq", {"theta": 2, "d": 2, "a": -1.0}, "imq requires a > 0"),
    ])
    def test_out_of_range_rejected(self, family, params, message):
        with pytest.raises(ParameterError, match=message):
            KernelSpec(family, **params)

    @pytest.mark.parametrize("family, params", [
        ("thinplate", {"s": 1.5, "a": 7.0}),
        ("mq", {"s": 0.5, "a": 1.0}),
        ("imq", {"s": -0.5, "a": 1.0}),
        ("gauss", {"s": 5.0}),
        ("gauss", {"a": 3.0}),
    ])
    def test_unused_parameter_rejected(self, family, params):
        # kept, it would make equal kernels compare unequal
        with pytest.raises(ParameterError):
            KernelSpec(family, theta=2, d=2, **params)


class TestParseKernel:
    def test_thinplate(self):
        spec = parse_kernel("thinplate:s=1.5", theta=2, d=1)
        assert (spec.family, spec.s) == ("thinplate", 1.5)

    def test_shifted_tps_two_params(self):
        spec = parse_kernel("shifted-tps:s=1,a=0.5", theta=2, d=1)
        assert (spec.s, spec.a) == (1.0, 0.5)

    def test_gauss_bare(self):
        assert parse_kernel("gauss", theta=2, d=2).family == "gauss"

    def test_label_round_trip(self):
        assert {spec.family for spec in ALL_SPECS} == set(kernels.FAMILIES)
        for spec in ALL_SPECS:
            again = parse_kernel(spec.label(), theta=spec.theta, d=spec.d)
            assert again == spec

    @pytest.mark.parametrize(
        "text", ["nope:s=1", "thinplate:q=1", "thinplate:s=", "thinplate:s=abc",
                 "gauss:s=5,a=3", "thinplate:s=1.5,a=7"]  # the last two: unused s, a
    )
    def test_bad_syntax(self, text):
        with pytest.raises(ParseError):
            parse_kernel(text, theta=2, d=1)

    def test_out_of_range_becomes_parse_error(self):
        with pytest.raises(ParseError):
            parse_kernel("thinplate:s=9", theta=2, d=1)


class TestPredictedOrders:
    def test_thinplate_half_integer_s(self):
        # 2s = 3 integer: eta = s - 1/2; non-integer s: delta_G = s - floor(2s)/2
        p = predicted_orders(KernelSpec("thinplate", theta=2, d=1, s=1.5))
        assert p.eta == pytest.approx(1.0)
        assert p.delta_G == pytest.approx(0.0)
        assert p.eta_G == pytest.approx(1.0)

    def test_thinplate_generic_s(self):
        p = predicted_orders(KernelSpec("thinplate", theta=2, d=1, s=1.3))
        assert p.eta == pytest.approx(1.0)  # floor(2.6)/2
        assert p.delta_G == pytest.approx(0.3)

    def test_thinplate_integer_s(self):
        p = predicted_orders(KernelSpec("thinplate", theta=3, d=2, s=2.0))
        assert p.eta == pytest.approx(1.5)
        assert 0.0 < p.delta_G < 0.5

    def test_shifted_family(self):
        p = predicted_orders(KernelSpec("shifted-tps", theta=2, d=1, s=1.0, a=1.0))
        assert (p.eta, p.delta_G, p.eta_G) == (2.0, 0.5, 2.5)
        for spec in (
            KernelSpec("mq", theta=3, d=2, a=1.0),
            KernelSpec("imq", theta=3, d=2, a=1.0),
        ):
            p = predicted_orders(spec)
            assert (p.eta, p.delta_G) == (3.0, 0.5)

    def test_gauss_convention(self):
        p = predicted_orders(KernelSpec("gauss", theta=2, d=1))
        assert (p.eta, p.delta_G) == (2.0, 0.0)

    @given(theta=st.integers(1, 4), s10=st.integers(1, 39))
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, theta, s10):
        s = s10 / 10.0
        if not 0 < s < theta:
            return
        p = predicted_orders(KernelSpec("thinplate", theta=theta, d=2, s=s))
        assert 0 <= p.eta <= theta
        assert 0 <= p.delta_G <= 0.5


class TestRieszRepresenter:
    def test_value_on_a_is_cardinal(self):
        uf = _frame(2, 2, seed=5)
        spec = KernelSpec("gauss", theta=2, d=2)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            lx = uf.cardinal_values(x)[0]
            for j, a in enumerate(uf.points):
                assert riesz_representer(spec, uf, x, a) == pytest.approx(
                    lx[j], abs=1e-10
                )

    def test_cardinal_at_own_node(self):
        uf = _frame(1, 2, seed=6)
        spec = KernelSpec("thinplate", theta=2, d=1, s=1.5)
        a1 = uf.points[0]
        assert riesz_representer(spec, uf, a1, a1) == pytest.approx(1.0, abs=1e-10)

    def test_symmetry(self):
        uf = _frame(2, 2, seed=7)
        rng = np.random.default_rng(7)
        for spec in ALL_SPECS:
            if spec.d != 2 or spec.theta != 2:
                continue
            for _ in range(20):
                x, y = rng.uniform(-1, 1, (2, 2))
                assert riesz_representer(spec, uf, x, y) == pytest.approx(
                    riesz_representer(spec, uf, y, x), abs=1e-10
                )

    def test_hand_expanded_single_constant(self):
        # d=1, theta=1, A={0}: R_1(1) = (2pi)^(-1/2) (G(0) - 2G(1) + G(0)) + 1
        uf = minimal_unisolvent_subset(PolyFrame(1, 1), [0.0])
        spec = KernelSpec("gauss", theta=1, d=1)
        expected = 2.0 * (1.0 - math.exp(-1.0)) / SQRT_2PI + 1.0
        assert riesz_representer(spec, uf, 1.0, 1.0) == pytest.approx(expected)


class TestSemiRiesz:
    def test_hand_expanded_single_constant(self):
        uf = minimal_unisolvent_subset(PolyFrame(1, 1), [0.0])
        spec = KernelSpec("gauss", theta=1, d=1)
        expected = 2.0 * (1.0 - math.exp(-1.0)) / SQRT_2PI
        value = semi_riesz(spec, uf, 1.0, 1.0)
        assert value == pytest.approx(expected)
        assert value == pytest.approx(0.504352, abs=1e-5)

    def test_vanishes_on_a(self):
        uf = _frame(2, 2, seed=8)
        spec = KernelSpec("gauss", theta=2, d=2)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.uniform(-1, 1, 2)
            for a in uf.points:
                assert abs(semi_riesz(spec, uf, x, a)) <= 1e-10
                assert abs(semi_riesz(spec, uf, a, x)) <= 1e-10

    def test_diagonal_nonnegative(self):
        rng = np.random.default_rng(9)
        for spec in ALL_SPECS:
            uf = _frame(spec.d, spec.theta, seed=spec.d + spec.theta)
            for _ in range(10):
                x = rng.uniform(-1.5, 1.5, spec.d)
                assert semi_riesz(spec, uf, x, x) >= -1e-10

    def test_symmetry(self):
        uf = _frame(1, 2, seed=10)
        spec = KernelSpec("thinplate", theta=2, d=1, s=1.5)
        rng = np.random.default_rng(10)
        for _ in range(20):
            x, y = rng.uniform(-1.5, 1.5, 2)
            assert semi_riesz(spec, uf, x, y) == pytest.approx(
                semi_riesz(spec, uf, y, x), abs=1e-10
            )


class TestSeveralX:
    def test_matrix_equals_stacked_single_x(self):
        rng = np.random.default_rng(12)
        for spec in ALL_SPECS:
            uf = _frame(spec.d, spec.theta, seed=spec.d + spec.theta)
            X = rng.uniform(-1.5, 1.5, (4, spec.d))
            Y = rng.uniform(-1.5, 1.5, (7, spec.d))
            for fn in (riesz_representer, semi_riesz):
                matrix = fn(spec, uf, X, Y)
                stacked = np.column_stack([fn(spec, uf, x, Y) for x in X])
                assert matrix.shape == (7, 4)
                np.testing.assert_allclose(
                    matrix, stacked, rtol=1e-12, atol=1e-12 * np.abs(stacked).max()
                )

    def test_d1_list_of_points_is_several_x(self):
        uf = _frame(1, 2, seed=13)
        spec = KernelSpec("thinplate", theta=2, d=1, s=1.5)
        ys = np.linspace(-1.4, 1.4, 9)
        R = riesz_representer(spec, uf, [0.1, 0.7], ys)
        assert R.shape == (9, 2)
        np.testing.assert_allclose(
            R[:, 1], riesz_representer(spec, uf, 0.7, ys), rtol=1e-12, atol=1e-12
        )

    def test_frame_mismatch_rejected(self):
        uf = _frame(1, 2, seed=15)
        spec = KernelSpec("gauss", theta=1, d=1)
        for fn in (riesz_representer, semi_riesz):
            with pytest.raises(InputError):
                fn(spec, uf, [0.1, 0.2], [0.3])

    def test_single_x_shapes(self):
        uf = _frame(2, 2, seed=14)
        spec = KernelSpec("gauss", theta=2, d=2)
        x, y = np.array([0.1, 0.2]), np.array([[0.3, -0.4], [0.5, 0.6]])
        for fn in (riesz_representer, semi_riesz):
            assert isinstance(fn(spec, uf, x, y[0]), float)
            assert fn(spec, uf, x, y).shape == (2,)
            assert fn(spec, uf, x[None, :], y).shape == (2, 1)
            assert fn(spec, uf, y, y[0]).shape == (1, 2)
