"""Radial basis functions, their predicted convergence orders, and the
Riesz / semi-Riesz representers.

Five closed-form families are provided (all real, even and radial):

    thinplate    (-1)^ceil(s) r^(2s)            0 < s < theta, s not integer
                 (-1)^(s+1) r^(2s) log r        s = 1, 2, 3, ...
    shifted-tps  (-1)^ceil(s) (a^2+r^2)^s       -d/2 < s < theta, s not integer
                 (-1)^(s+1)/2 (a^2+r^2)^s log(a^2+r^2)   s = 1, 2, 3, ...
    mq           -(a^2+r^2)^(1/2)               a > 0, d > 1
    imq          (a^2+r^2)^(-1/2)               a > 0
    gauss        exp(-r^2)

mq and imq are the s = +1/2 and s = -1/2 shifted-tps cases and inherit
its convergence-order rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from ._blas import dot
from .errors import InputError, ParameterError, ParseError
from .polyspace import UnisolventFrame, _maybe_scalar, as_points

FAMILIES = ("thinplate", "shifted-tps", "mq", "imq", "gauss")

# delta_G for integer-s thin plates may be anything under 1/2; a concrete
# number is needed for threshold arithmetic.
_HALF_MINUS_EPS = 0.5 - 1e-6

# Entries per row block of kernel_matrix: a block, its r^2s temporary and
# its mask fit in a core's L2 cache.
_BLOCK_ENTRIES = 32768


def _is_pos_integer(s: float) -> bool:
    return s > 0 and float(s).is_integer()


@dataclass(frozen=True)
class KernelSpec:
    """A radial basis function family with its parameters and order."""

    family: str
    theta: int
    d: int
    s: float | None = None
    a: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown kernel family {self.family!r}")
        if self.theta < 1 or not float(self.theta).is_integer():
            raise ParameterError(f"theta must be a positive integer, got {self.theta}")
        if self.d < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.d}")
        unused = {"thinplate": "a", "shifted-tps": "", "mq": "s", "imq": "s",
                  "gauss": "sa"}[self.family]
        for name in unused:
            if (value := getattr(self, name)) is not None:
                raise ParameterError(f"{self.family} takes no {name}, got {name}={value}")
        if self.family == "thinplate":
            if self.s is None or not 0 < self.s < self.theta:
                raise ParameterError(
                    f"thinplate requires 0 < s < theta={self.theta}, got s={self.s}"
                )
        elif self.family == "shifted-tps":
            if self.s is None or not -self.d / 2 < self.s < self.theta:
                raise ParameterError(
                    f"shifted-tps requires -d/2 < s < theta, got s={self.s}"
                )
            if self.a is None or self.a <= 0:
                raise ParameterError(f"shifted-tps requires a > 0, got a={self.a}")
        elif self.family in ("mq", "imq"):
            if self.a is None or self.a <= 0:
                raise ParameterError(f"{self.family} requires a > 0, got a={self.a}")
            if self.family == "mq" and self.d < 2:
                raise ParameterError("mq requires dimension d > 1")

    def label(self) -> str:
        """CLI text form, e.g. 'thinplate:s=1.5'."""
        parts = []
        if self.s is not None:
            parts.append(f"s={self.s:g}")
        if self.a is not None:
            parts.append(f"a={self.a:g}")
        return self.family + (":" + ",".join(parts) if parts else "")


def parse_kernel(text: str, theta: int, d: int) -> KernelSpec:
    """Parse the CLI kernel syntax, e.g. 'shifted-tps:s=1,a=0.5'."""
    name, _, paramtext = text.partition(":")
    name = name.strip()
    if name not in FAMILIES:
        raise ParseError(f"unknown kernel family {name!r}; expected one of {FAMILIES}")
    params: dict[str, float] = {}
    if paramtext:
        for item in paramtext.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in ("s", "a") or not value:
                raise ParseError(f"bad kernel parameter {item!r}")
            try:
                params[key] = float(value)
            except ValueError:
                raise ParseError(f"bad kernel parameter value {value!r}") from None
    try:
        return KernelSpec(family=name, theta=theta, d=d, **params)
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc


def _log_power(c: float, q: np.ndarray, s: float) -> np.ndarray:
    """c q^s log q in place of q, with value 0 where q = 0 (q >= 0).

    c q^s is formed first and then multiplied by the log: the other order
    changes the result where c q^s underflows, e.g. at q = 5e-324.  For
    s = 1 it is c q, since q**1.0 is exact.  q = 1 is set where q = 0 and
    then one unmasked log is taken: log 1 = 0 gives the limit 0, with the
    same bits as skipping those entries.
    """
    if s == 1:
        t = c * q
    else:
        t = q**s
        t *= c
    np.copyto(q, 1.0, where=q == 0)
    np.log(q, out=q)
    q *= t
    return q


def _profile(spec: KernelSpec, r2) -> np.ndarray:
    """Kernel value as a function of the squared radius r2 >= 0.

    A float array r2 is overwritten with the result, so that a caller's
    buffer (a block of `kernel_matrix`) is the only full-size array.
    """
    r2 = np.asarray(r2, dtype=float)
    if spec.family == "gauss":
        return np.exp(np.negative(r2, out=r2), out=r2)
    if spec.family in ("mq", "imq"):
        r2 += spec.a**2
        np.sqrt(r2, out=r2)
        if spec.family == "mq":
            return np.negative(r2, out=r2)
        return np.divide(1.0, r2, out=r2)
    if spec.family == "shifted-tps":
        r2 += spec.a**2
    s = spec.s
    # thinplate: r^2s log r = r^2s * log(r^2) / 2, with limit 0 at r = 0
    if _is_pos_integer(s):
        return _log_power((-1.0) ** (int(s) + 1) / 2.0, r2, s)
    if s > 0.5 and float(2 * s).is_integer():
        # q^s = q^k sqrt(q) with k = s - 1/2: one sqrt and k multiplies
        # cost less than pow, and round k times more (README, "Kernels")
        root = np.sqrt(r2)
        for _ in range(int(s) - 1):
            root *= r2
        r2 *= root
    else:  # s = 1/2 takes numpy's sqrt path inside **
        r2 **= s
    if math.ceil(s) % 2:
        np.negative(r2, out=r2)
    return r2


def kernel_matrix(spec: KernelSpec, Y, Z, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of G(y_i - z_j) values, shape (|Y|, |Z|).

    Built in place in row blocks of about _BLOCK_ENTRIES entries: each
    block's squared distances and kernel values stay in cache, and the
    result is the only full-size array.  With `out` (a C-contiguous float
    array of that shape) the values are written there and `out` is
    returned.
    """
    Y = as_points(Y, spec.d)
    Z = as_points(Z, spec.d)
    shape = (len(Y), len(Z))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != float or not out.flags.c_contiguous:
        # cdist writes only into C-contiguous arrays
        raise ParameterError(f"out must be a C-contiguous float array of shape {shape}")
    rows = max(1, _BLOCK_ENTRIES // max(len(Z), 1))
    for lo in range(0, len(Y), rows):
        block = out[lo : lo + rows]
        _profile(spec, cdist(Y[lo : lo + rows], Z, "sqeuclidean", out=block))
    return out


@dataclass(frozen=True)
class OrderPrediction:
    """Predicted convergence orders: base eta, increment delta_G."""

    eta: float
    delta_G: float

    @property
    def eta_G(self) -> float:
        return self.eta + self.delta_G


def predicted_orders(spec: KernelSpec) -> OrderPrediction:
    """Predicted interpolant/smoother convergence orders for the kernel.

    thinplate uses the two-branch eta rule (2s integer vs not) together
    with delta_G = s - floor(2s)/2 for non-integer s, and delta_G just
    under 1/2 for integer s.  The shifted families all get eta = theta,
    delta_G = 1/2.  The Gaussian gets eta = theta, delta_G = 0 by
    convention.
    """
    if spec.family == "thinplate":
        s = float(spec.s)
        two_s = 2.0 * s
        if two_s.is_integer():
            eta = s - 0.5
        else:
            eta = math.floor(two_s) / 2.0
        if s.is_integer():
            delta = _HALF_MINUS_EPS
        else:
            delta = s - math.floor(two_s) / 2.0
        return OrderPrediction(eta=eta, delta_G=delta)
    if spec.family in ("shifted-tps", "mq", "imq"):
        return OrderPrediction(eta=float(spec.theta), delta_G=0.5)
    return OrderPrediction(eta=float(spec.theta), delta_G=0.0)


def _semi_matrix(spec: KernelSpec, uf: UnisolventFrame, X, Y) -> np.ndarray:
    """(|Y|, |X|) matrix of r_x(y) = (2 pi)^(-d/2) [G_YX - G_YA L_X^T
    - L_Y G_AX + L_Y G_AA L_X^T], where L_X[i, j] = l_j(x_i)."""
    if uf.frame.d != spec.d or uf.frame.theta != spec.theta:
        raise InputError(
            f"frame (d={uf.frame.d}, theta={uf.frame.theta}) does not match "
            f"kernel (d={spec.d}, theta={spec.theta})"
        )
    A = uf.points
    LXt, LY = uf.cardinal_values(X).T, uf.cardinal_values(Y)
    G_YX, G_YA = kernel_matrix(spec, Y, X), kernel_matrix(spec, Y, A)
    G_AX, G_AA = kernel_matrix(spec, A, X), kernel_matrix(spec, A, A)
    core = G_YX - dot(G_YA, LXt) - dot(LY, G_AX) + dot(LY, dot(G_AA, LXt))
    return (2.0 * np.pi) ** (-spec.d / 2.0) * core


def _per_x(values: np.ndarray, x, y):
    # A single point x (scalar or 1-d) gives a vector over y, or a float.
    if values.shape[1] == 1 and np.ndim(x) < 2:
        return _maybe_scalar(values[:, 0], y)
    return values


def riesz_representer(spec: KernelSpec, uf: UnisolventFrame, x, y):
    """R_x(y) = r_x(y) + sum_j l_j(x) l_j(y), the representer of point
    evaluation at x (r_x: `semi_riesz`).

    For a single point x: a vector over the points `y`, or a float for a
    single y.  For several x, or x given as a (K, d) array: the (|y|, K)
    matrix whose column k is R_{x_k}.
    """
    values = _semi_matrix(spec, uf, x, y)
    values += dot(uf.cardinal_values(y), uf.cardinal_values(x).T)
    return _per_x(values, x, y)


def semi_riesz(spec: KernelSpec, uf: UnisolventFrame, x, y):
    """r_x(y) = R_x(y) - sum_j l_j(x) l_j(y); vanishes on A.  Shapes as
    for `riesz_representer`: (|y|, K) for several x."""
    return _per_x(_semi_matrix(spec, uf, x, y), x, y)
