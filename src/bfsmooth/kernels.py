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

from .errors import InputError, ParameterError, ParseError
from .polyspace import UnisolventFrame, _maybe_scalar, as_points

FAMILIES = ("thinplate", "shifted-tps", "mq", "imq", "gauss")

# delta_G for integer-s thin plates may be anything under 1/2; a concrete
# number is needed for threshold arithmetic.
_HALF_MINUS_EPS = 0.5 - 1e-6


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
        if self.s is not None and self.family in ("thinplate", "shifted-tps"):
            parts.append(f"s={self.s:g}")
        if self.a is not None and self.family in ("shifted-tps", "mq", "imq"):
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


def _profile(spec: KernelSpec, r2: np.ndarray) -> np.ndarray:
    """Kernel value as a function of the squared radius."""
    r2 = np.asarray(r2, dtype=float)
    if spec.family == "gauss":
        return np.exp(-r2)
    if spec.family == "mq":
        return -np.sqrt(spec.a**2 + r2)
    if spec.family == "imq":
        return 1.0 / np.sqrt(spec.a**2 + r2)
    if spec.family == "shifted-tps":
        q = spec.a**2 + r2
        if _is_pos_integer(spec.s):
            return ((-1.0) ** (int(spec.s) + 1) / 2.0) * q**spec.s * np.log(q)
        return (-1.0) ** math.ceil(spec.s) * q**spec.s
    # thinplate; r^2s log r = r^2s * log(r^2) / 2, with limit 0 at r = 0
    if _is_pos_integer(spec.s):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (
                ((-1.0) ** (int(spec.s) + 1) / 2.0)
                * r2**spec.s
                * np.where(r2 > 0, np.log(np.where(r2 > 0, r2, 1.0)), 0.0)
            )
        return out
    return (-1.0) ** math.ceil(spec.s) * r2**spec.s


def kernel_eval(spec: KernelSpec, x):
    """Evaluate G at one point or an array of points."""
    pts = as_points(x, spec.d)
    return _maybe_scalar(_profile(spec, np.sum(pts * pts, axis=1)), x)


def kernel_matrix(spec: KernelSpec, Y, Z) -> np.ndarray:
    """Matrix of G(y_i - z_j) values, shape (|Y|, |Z|)."""
    Y = as_points(Y, spec.d)
    Z = as_points(Z, spec.d)
    return _profile(spec, cdist(Y, Z, "sqeuclidean"))


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


def _check_frame(spec: KernelSpec, uf: UnisolventFrame):
    if uf.frame.d != spec.d or uf.frame.theta != spec.theta:
        raise InputError(
            f"frame (d={uf.frame.d}, theta={uf.frame.theta}) does not match "
            f"kernel (d={spec.d}, theta={spec.theta})"
        )


def riesz_representer(spec: KernelSpec, uf: UnisolventFrame, x, y):
    """R_x(y), the representer of point evaluation at x.

    R_x(y) = (2 pi)^(-d/2) [G(y-x) - sum_i l_i(x) G(y-a_i)
             - sum_j l_j(y) G(a_j-x) + sum_ij l_i(x) G(a_j-a_i) l_j(y)]
             + sum_j l_j(x) l_j(y)

    `y` may be a single point or an array of points.
    """
    _check_frame(spec, uf)
    xp = as_points(x, spec.d)
    yp = as_points(y, spec.d)
    A = uf.points
    lx = uf.cardinal_values(xp)[0]
    ly = uf.cardinal_values(yp)
    G_yx = kernel_matrix(spec, yp, xp)[:, 0]
    G_yA = kernel_matrix(spec, yp, A)
    G_Ax = kernel_matrix(spec, A, xp)[:, 0]
    G_AA = kernel_matrix(spec, A, A)
    core = G_yx - G_yA @ lx - ly @ G_Ax + ly @ (G_AA @ lx)
    values = (2.0 * np.pi) ** (-spec.d / 2.0) * core + ly @ lx
    return _maybe_scalar(values, y)


def semi_riesz(spec: KernelSpec, uf: UnisolventFrame, x, y):
    """r_x(y) = R_x(y) - sum_j l_j(x) l_j(y); vanishes on A."""
    _check_frame(spec, uf)
    xp = as_points(x, spec.d)
    yp = as_points(y, spec.d)
    lx = uf.cardinal_values(xp)[0]
    ly = uf.cardinal_values(yp)
    R = riesz_representer(spec, uf, xp, yp)
    values = np.atleast_1d(R) - ly @ lx
    return _maybe_scalar(values, y)
