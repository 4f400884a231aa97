"""Exact smoother: the penalized least-squares fit over the whole space.

The smoother minimizes J_e[f] = rho |f|^2 + (1/N) sum |f(x_i) - y_i|^2
and, despite being posed over an infinite-dimensional space, always
lands in the same finite expansion as the interpolant.  The diagnostics
check the energy identities the minimizer must satisfy; they and J_e are
evaluated on data by one function, `_on_data`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import dot
from .assembly import _check_rho, _samples, exact_system
from .errors import ParameterError
from .interpolant import (
    FittedModel,
    _check_constraint,
    _fit,
    _seminorm_from,
    eval_model,
    seminorm_sq,
)
from .kernels import KernelSpec, kernel_matrix
from .polyspace import PolyFrame, unisolvency_matrix

IDENTITY_RTOL = 1e-8


def fit_exact(spec: KernelSpec, frame: PolyFrame, X, y, rho: float) -> FittedModel:
    """Fit the Exact smoother with smoothing parameter rho > 0."""
    _check_rho(rho)  # exact_system reads rho = 0 as the interpolant
    return _fit(exact_system(spec, frame, X, y, rho), spec, frame, X,
                "exact_smoother", rho)


@dataclass(frozen=True)
class SmootherDiagnostics:
    """Functional value and energy-identity checks for a smoother fit.

    gap_* fields hold |left - right| / max(|right|, 1) for each identity;
    `ok` is True when every gap is within IDENTITY_RTOL.
    """

    J_e: float
    seminorm_sq: float
    residual_ms: float
    gap_energy: float
    gap_seminorm: float
    gap_functional: float
    gap_constraint: float
    ok: bool


def _on_data(model: FittedModel, X: np.ndarray, y: np.ndarray, rho: float):
    """s at X, |s|^2, mean|s - y|^2 and J_e = rho |s|^2 + mean|s - y|^2.

    When X is the model's center set, one G_XX gives s and |s|^2, each in
    the same order as eval_model and seminorm_sq, which any other X takes.
    """
    X, y = _samples(model.frame.d, X, y)
    if X.shape == model.centers.shape and np.array_equal(X, model.centers):
        _check_constraint(model)
        G = kernel_matrix(model.spec, X, X)
        s = dot(G, model.v) + dot(model.frame.monomials(X), model.beta)
        sn = _seminorm_from(model.spec, model.v, G)
    else:
        s = np.atleast_1d(eval_model(model, X))
        sn = seminorm_sq(model)
    residual_ms = float(np.mean((s - y) ** 2))
    return s, sn, residual_ms, rho * sn + residual_ms


def functional_value(model: FittedModel, X, y, rho: float) -> float:
    """J_e[model] = rho |model|^2 + mean squared residual on (X, y)."""
    return _on_data(model, X, y, rho)[3]


def diagnostics(model: FittedModel, X, y) -> SmootherDiagnostics:
    """Evaluate the smoother's three energy identities on its data.

    Violations are reported as relative gaps, not raised, so that
    ill-conditioned fits still return inspectable results.  The
    identities hold for a smoother only: a model with rho = 0, such as an
    interpolant, raises ParameterError.
    """
    rho = model.rho
    if not rho > 0:
        raise ParameterError(f"the smoother identities need a smoother with "
                             f"rho > 0, got a {model.kind} with rho = {rho}")
    X, y = _samples(model.frame.d, X, y)
    s, sn, residual_ms, J_e = _on_data(model, X, y, rho)

    def rel(left, right):
        return abs(left - right) / max(abs(right), 1.0)

    # 2 rho |s|^2 + mean|s - y|^2 + mean|s|^2 = mean|y|^2
    gap_energy = rel(
        2 * rho * sn + residual_ms + float(np.mean(s**2)), float(np.mean(y**2))
    )
    # |s|^2 = (1 / (N rho)) sum s(x_k)(y_k - s(x_k))
    gap_seminorm = rel(sn, float(np.sum(s * (y - s))) / (len(y) * rho))
    # J_e = (1/N) sum (y_k - s(x_k)) y_k
    gap_functional = rel(J_e, float(np.mean((y - s) * y)))
    # P_X^T (s_X - y) = 0
    P = unisolvency_matrix(model.frame, X)
    gap_constraint = float(np.linalg.norm(dot(P.T, s - y))) / max(
        np.linalg.norm(y), 1.0
    )
    gaps = (gap_energy, gap_seminorm, gap_functional, gap_constraint)
    return SmootherDiagnostics(J_e, sn, residual_ms, *gaps,
                               ok=all(g <= IDENTITY_RTOL for g in gaps))
