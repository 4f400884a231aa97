"""Minimal-seminorm interpolation and the fitted-model representation.

A fitted model is u(x) = sum_i v_i G(x - z_i) + sum_j beta_j p_j(x)
with the coefficient constraint P_Z^T v = 0, which places u in the
solution space W_{G,Z} + P_theta shared by the interpolant and both
smoothers.  On that space the seminorm is computable in closed form:
|u|^2 = (2 pi)^(d/2) v^T G_ZZ v.  Every fit builds its model in `_fit`,
of its system's kind (one of MODEL_KINDS), from the solution that
`solve_block` certifies, the fit's one certificate; an interpolant or
Exact-smoother model also keeps G_ZZ v from that certificate.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas

from ._blas import dot
from .assembly import BlockSystem, _check_rho, _lam, exact_system, solve_block
from .errors import ContractError, ParameterError
from .kernels import KernelSpec, kernel_matrix
from .polyspace import PolyFrame, _maybe_scalar, as_points, unisolvency_matrix

CONSTRAINT_RTOL = 1e-8

# Entries per row tile of the query-by-center kernel matrix in
# `eval_model`, so that the whole (|Q|, N') matrix is never held.
_EVAL_TILE_ENTRIES = 1 << 18
# Entries of the tiles `eval_model` keeps, in all, within one
# `_keeping_tiles` scope: 2^22 entries, 32 MB, which holds a 3600-point
# error grid against 30 x 30 centers (13 tiles, 3.24M entries) whole.
_KEPT_TILE_ENTRIES = 16 * _EVAL_TILE_ENTRIES
# The tiles kept in the open `_keeping_tiles` scope, if any, keyed by
# (spec, the points' shape, the points' bytes, the centers' bytes).
_kept_tiles: ContextVar[dict | None] = ContextVar("_kept_tiles", default=None)

MODEL_KINDS = ("interpolant", "exact_smoother", "approx_smoother")


def _check_model_rho(kind: str, rho: float) -> None:
    """ParameterError unless rho fits the model kind: 0 for an
    interpolant, finite and > 0 for either smoother."""
    if kind != "interpolant":
        _check_rho(rho)
    elif rho != 0:
        raise ParameterError(f"an interpolant has rho = 0, got {rho}")


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Kernel expansion over centers Z plus a polynomial tail.

    Models compare and hash by value: same type, spec, frame, kind and
    rho, and equal centers, v and beta.  rho must fit the kind
    (`_check_model_rho`).  `_Gv`, G_ZZ v, is set only by
    `_fit` for an interpolant or Exact-smoother fit, and is None on a
    model made any other way (the constructor, `dataclasses.replace`,
    `io.load_model`); it takes no part in equality.
    """

    spec: KernelSpec
    frame: PolyFrame
    centers: np.ndarray
    v: np.ndarray
    beta: np.ndarray
    kind: str = "interpolant"
    rho: float = 0.0
    _Gv: np.ndarray | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}")
        _check_model_rho(self.kind, self.rho)
        object.__setattr__(self, "centers", as_points(self.centers, self.frame.d))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.v.shape != (len(self.centers),):
            raise ParameterError("v must have one coefficient per center")
        if self.beta.shape != (self.frame.M,):
            raise ParameterError(f"beta must have length M = {self.frame.M}")
        if not (np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.beta))):
            raise ParameterError("v and beta must be finite")

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.centers, self.v, self.beta

    def __eq__(self, other):
        return (type(other) is type(self)
                and (self.spec, self.frame, self.kind, self.rho)
                == (other.spec, other.frame, other.kind, other.rho)
                and all(np.array_equal(a, b)
                        for a, b in zip(self._arrays(), other._arrays())))

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, which array_equal counts as equal
        return hash((self.spec, self.frame, self.kind, self.rho,
                     *((a + 0.0).tobytes() for a in self._arrays())))

    def constraint_violation(self) -> float:
        """Norm of P_Z^T v, which must vanish for a well-formed model."""
        P = unisolvency_matrix(self.frame, self.centers)
        return float(np.linalg.norm(dot(P.T, self.v)))


def _fit(sys: BlockSystem, spec: KernelSpec, frame: PolyFrame, centers,
         rho: float = 0.0) -> FittedModel:
    """Solve a saddle system and wrap its blocks v and beta as a model of
    the system's kind; an approx_smoother system's third block, a
    multiplier, is discarded.

    Every kind is solved by `solve_block`'s one rule: the builder's
    candidate (a repeated-rho approx_smoother system's only) or else the
    Cholesky trial, then LU, then long-double refinement.  An interpolant
    or exact_smoother model also keeps `_Gv` = G_XX v, the kernel part of
    the model at its own centers, taken from the
    A x = [(G_XX + lam I) v + P_X beta; P_X^T v] that certified the
    returned x (`BlockSystem._checked`): the gate's pass on the Cholesky
    and LU exits, the best iterate's long-double A x, rounded, on the
    refinement exit.  No exit adds a pass over K.
    """
    x = solve_block(sys)
    v, beta, *_ = sys.split(x)
    model = FittedModel(spec=spec, frame=frame, centers=centers, v=v, beta=beta,
                        kind=sys.kind, rho=rho)
    checked, Ax = sys._checked
    if sys.kind != "approx_smoother" and checked is x:
        lam = _lam(spec, len(v), rho) if rho else 0.0
        object.__setattr__(model, "_Gv", Ax[: len(v)] - lam * v - dot(sys.P, beta))
    return model


def fit_interpolant(spec: KernelSpec, frame: PolyFrame, X, y) -> FittedModel:
    """Fit the minimal-seminorm interpolant of the data (X, y): the
    exact_smoother system at rho = 0."""
    return _fit(exact_system(spec, frame, X, y, 0.0), spec, frame, X)


def eval_model(model: FittedModel | Sequence[FittedModel], x):
    """Evaluate a model at one point or an array of points.

    `model` may also be a sequence of k models that share spec, frame and
    centers, such as one center set fitted at several rho; anything else
    raises ParameterError.  The result then has shape (k, |x|), one row
    per model, and each row is the single-model result bit for bit: every
    kernel tile is built once and multiplied by each model's v in turn.
    Inside a `_keeping_tiles` scope (one `study.rho_search`) the tiles are
    kept, while the scope's _KEPT_TILE_ENTRIES last, and a later call
    reuses a kept tile for the same spec, centers and points, compared by
    their bytes; a kept tile is the same `kernel_matrix` output, so
    the result is unchanged bit for bit.
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
        kept = _kept_tiles.get()
        for lo in range(0, len(pts), rows):
            Q = pts[lo : lo + rows]
            tile = _tile(kept, first.spec, Q, first.centers, buffer[: len(Q)])
            for row, m in zip(values, models):
                row[lo : lo + rows] += blas.dgemv(1.0, tile.T, m.v, trans=1)
    monomials = first.frame.monomials(pts)
    for row, m in zip(values, models):
        row += dot(monomials, m.beta)
    return _maybe_scalar(values[0], x) if single else values


def _tile(kept: dict | None, spec: KernelSpec, Q: np.ndarray, centers: np.ndarray,
          out: np.ndarray) -> np.ndarray:
    """kernel_matrix(spec, Q, centers).  Outside a `_keeping_tiles` scope
    (`kept` None) it is built into `out`.  Inside one it is the kept tile
    of an equal spec and the same bytes of Q and centers if there is one
    (a -0.0 where a 0.0 was only misses); else it is built into
    an array of its own and kept while the scope's tiles stay within
    _KEPT_TILE_ENTRIES, so that the scope builds it once; past that it is
    built into `out`, again at each call."""
    if kept is None:
        return kernel_matrix(spec, Q, centers, out=out)
    key = (spec, Q.shape, Q.tobytes(), centers.tobytes())
    tile = kept.get(key)
    if tile is None:
        if sum(t.size for t in kept.values()) + out.size <= _KEPT_TILE_ENTRIES:
            tile = kept[key] = kernel_matrix(spec, Q, centers)
        else:
            tile = kernel_matrix(spec, Q, centers, out=out)
    return tile


@contextmanager
def _keeping_tiles():
    """A scope, such as one `study.rho_search`, within which `eval_model`
    keeps its kernel tiles (`_tile`); they are dropped when the scope
    exits, by return or by raise."""
    token = _kept_tiles.set({})
    try:
        yield
    finally:
        _kept_tiles.reset(token)


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


def _check_constraint(model: FittedModel, P: np.ndarray):
    """ContractError unless |P^T v| <= CONSTRAINT_RTOL max(|v|, 1), for
    P = P_Z, the model's own unisolvency matrix."""
    vnorm = np.linalg.norm(model.v)
    if np.linalg.norm(dot(P.T, model.v)) > CONSTRAINT_RTOL * max(vnorm, 1.0):
        raise ContractError("model violates P_Z^T v = 0 beyond tolerance")


def seminorm_sq(model: FittedModel) -> float:
    """Squared seminorm (2 pi)^(d/2) v^T G_ZZ v; clipped at zero."""
    _check_constraint(model, unisolvency_matrix(model.frame, model.centers))
    G = kernel_matrix(model.spec, model.centers, model.centers)
    return _seminorm_from(model.spec, model.v, dot(model.v, G))


def _seminorm_from(spec: KernelSpec, w: np.ndarray, Gw: np.ndarray) -> float:
    """(2 pi)^(d/2) w^T G w from Gw = G w, G over w's centers; clipped at
    zero."""
    return max((2.0 * np.pi) ** (spec.d / 2.0) * float(dot(Gw, w)), 0.0)


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
    for m in (model1, model2):
        _check_constraint(m, unisolvency_matrix(m.frame, m.centers))
    Z, w = _merged_centers(model1, model2)
    G = kernel_matrix(model1.spec, Z, Z)
    return _seminorm_from(model1.spec, w, dot(w, G))
