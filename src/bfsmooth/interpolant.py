"""Minimal-seminorm interpolation and the fitted-model representation.

A fitted model is u(x) = sum_i v_i G(x - z_i) + sum_j beta_j p_j(x)
with the coefficient constraint P_Z^T v = 0, which places u in the
solution space W_{G,Z} + P_theta shared by the interpolant and both
smoothers.  On that space the seminorm is computable in closed form:
|u|^2 = (2 pi)^(d/2) v^T G_ZZ v.  Every fit builds its model in `_fit`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from ._blas import dot
from .assembly import BlockSystem, exact_system, solve_block
from .errors import ContractError, ParameterError
from .kernels import KernelSpec, kernel_matrix
from .polyspace import PolyFrame, _maybe_scalar, as_points, unisolvency_matrix

CONSTRAINT_RTOL = 1e-8
INTERP_RTOL = 1e-8

# Entries per row tile of the query-by-center kernel matrix in
# `eval_model`, so that the whole (|Q|, N') matrix is never held.
_EVAL_TILE_ENTRIES = 1 << 18

MODEL_KINDS = ("interpolant", "exact_smoother", "approx_smoother")


@dataclass(frozen=True)
class FittedModel:
    """Kernel expansion over centers Z plus a polynomial tail."""

    spec: KernelSpec
    frame: PolyFrame
    centers: np.ndarray
    v: np.ndarray
    beta: np.ndarray
    kind: str = "interpolant"
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "centers", as_points(self.centers, self.frame.d))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.v.shape != (len(self.centers),):
            raise ParameterError("v must have one coefficient per center")
        if self.beta.shape != (self.frame.M,):
            raise ParameterError(f"beta must have length M = {self.frame.M}")

    def constraint_violation(self) -> float:
        """Norm of P_Z^T v, which must vanish for a well-formed model."""
        P = unisolvency_matrix(self.frame, self.centers)
        return float(np.linalg.norm(dot(P.T, self.v)))


def _fit(sys: BlockSystem, spec: KernelSpec, frame: PolyFrame, centers,
         kind: str = "interpolant", rho: float = 0.0) -> FittedModel:
    """Solve a saddle system and wrap its blocks v and beta as a model;
    the approximate system's third block, a multiplier, is discarded."""
    v, beta, *_ = sys.split(solve_block(sys))
    return FittedModel(spec=spec, frame=frame, centers=centers, v=v, beta=beta,
                       kind=kind, rho=rho)


def fit_interpolant(spec: KernelSpec, frame: PolyFrame, X, y) -> FittedModel:
    """Fit the minimal-seminorm interpolant of the data (X, y)."""
    sys = exact_system(spec, frame, X, y, 0.0)
    model = _fit(sys, spec, frame, X)
    N = sys.layout[0]
    y = sys.rhs[:N]
    # s at X from the system's first block row [G_XX, P_X] [v; beta]
    fitted = sys.products(np.concatenate([model.v, model.beta]))[0][:N]
    # tolerance scale matches the solver's norm-wise residual guarantee
    scale = 1.0 + float(np.linalg.norm(y))
    worst = float(np.max(np.abs(fitted - y))) if len(y) else 0.0
    if worst > INTERP_RTOL * scale:
        raise ContractError(f"interpolation residual {worst:.3e} exceeds tolerance")
    return model


def eval_model(model: FittedModel | Sequence[FittedModel], x):
    """Evaluate a model at one point or an array of points.

    `model` may also be a sequence of k models that share spec, frame and
    centers, such as one center set fitted at several rho; anything else
    raises ParameterError.  The result then has shape (k, |x|), one row
    per model, and each row is the single-model result bit for bit: every
    kernel tile is built once and multiplied by each model's v in turn.
    """
    single = isinstance(model, FittedModel)
    models = [model] if single else _shared_basis(model)
    first = models[0]
    pts = as_points(x, first.frame.d)
    values = np.zeros((len(models), len(pts)))
    n_c = len(first.centers)
    if n_c:
        # whole multiples of 8 rows: with OpenBLAS the tiled matvec then
        # matches the untiled one bit for bit where that runs on one thread;
        # dgemv of tile.T with trans=1 is tile @ v with no copy (`_blas`)
        rows = max(8, _EVAL_TILE_ENTRIES // n_c // 8 * 8)
        buffer = np.empty((min(rows, len(pts)), n_c))
        for lo in range(0, len(pts), rows):
            Q = pts[lo : lo + rows]
            tile = kernel_matrix(first.spec, Q, first.centers, out=buffer[: len(Q)])
            for row, m in zip(values, models):
                row[lo : lo + rows] += blas.dgemv(1.0, tile.T, m.v, trans=1)
    monomials = first.frame.monomials(pts)
    for row, m in zip(values, models):
        row += dot(monomials, m.beta)
    return _maybe_scalar(values[0], x) if single else values


def _shared_basis(models) -> list[FittedModel]:
    """The models as a non-empty list, all with the first one's spec,
    frame and centers."""
    models = list(models)
    if not models or not all(isinstance(m, FittedModel) for m in models):
        raise ParameterError("expected a model or a non-empty sequence of models")
    first = models[0]
    for m in models[1:]:
        if (m.spec != first.spec or m.frame != first.frame
                or not np.array_equal(m.centers, first.centers)):
            raise ParameterError("models evaluated together must share "
                                 "spec, frame and centers")
    return models


def _check_constraint(model: FittedModel):
    vnorm = np.linalg.norm(model.v)
    if model.constraint_violation() > CONSTRAINT_RTOL * max(vnorm, 1.0):
        raise ContractError("model violates P_Z^T v = 0 beyond tolerance")


def seminorm_sq(model: FittedModel) -> float:
    """Squared seminorm (2 pi)^(d/2) v^T G_ZZ v; clipped at zero."""
    _check_constraint(model)
    if not len(model.centers):
        return 0.0
    G = kernel_matrix(model.spec, model.centers, model.centers)
    return _seminorm_from(model.spec, model.v, G)


def _seminorm_from(spec: KernelSpec, w: np.ndarray, G: np.ndarray) -> float:
    """(2 pi)^(d/2) w^T G w for G over w's centers; clipped at zero."""
    return max((2.0 * np.pi) ** (spec.d / 2.0) * float(dot(dot(w, G), w)), 0.0)


def _merged_centers(model1: FittedModel, model2: FittedModel):
    """Signed coefficient union Z1 u Z2 with duplicates merged additively."""
    Z, inverse = np.unique(
        np.concatenate([model1.centers, model2.centers]),
        axis=0, return_inverse=True,
    )
    w = np.bincount(
        inverse.ravel(), weights=np.concatenate([model1.v, -model2.v]),
        minlength=len(Z),
    )
    return Z, w


def seminorm_sq_diff(model1: FittedModel, model2: FittedModel) -> float:
    """Squared seminorm of the difference of two models.

    Both models must share the kernel spec; the combined coefficient
    vector over the merged center set inherits the zero-sum constraint
    from the two parts.
    """
    if model1.spec != model2.spec:
        raise ParameterError("models must share the same kernel spec")
    _check_constraint(model1)
    _check_constraint(model2)
    Z, w = _merged_centers(model1, model2)
    if not len(Z):
        return 0.0
    G = kernel_matrix(model1.spec, Z, Z)
    return _seminorm_from(model1.spec, w, G)
