"""Polynomial spaces of bounded total order and unisolvent point sets.

The space P_theta consists of all d-variate polynomials of total order
< theta (total degree <= theta - 1), spanned here by the monomial basis
x^alpha with |alpha| < theta.  A point set is theta-unisolvent when the
only member of P_theta vanishing on it is zero; a *minimal* unisolvent
set has exactly M = dim P_theta points and carries a cardinal basis
l_j with l_j(a_i) = delta_ij, which in turn defines the Lagrange
projection Pf = sum f(a_i) l_i and its complement Q = I - P.

This module alone decides unisolvency: one rank rule (`is_unisolvent`),
one UnisolvencyError (`_require_unisolvent`) and one choice of the
minimal set, the first M pivots of a column-pivoted QR of P_X^T
(`_pivots`), for the representers (`minimal_unisolvent_subset`) and
the solvers in `assembly` alike.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._blas import dot
from .errors import InputError, ParameterError, UnisolvencyError

# Singular values below RANK_RTOL * s_max count as zero when ranking
# Vandermonde-type matrices.
RANK_RTOL = 1e-10


def enumerate_multi_indices(d: int, theta: int) -> list[tuple[int, ...]]:
    """All multi-indexes alpha with |alpha| < theta, graded-lex order.

    Returns binomial(theta-1+d, d) tuples, sorted first by total degree
    and then lexicographically within each degree.
    """
    if d < 1:
        raise ParameterError(f"dimension d must be >= 1, got {d}")
    if theta < 1:
        raise ParameterError(f"order theta must be >= 1, got {theta}")
    indices = []
    for degree in range(theta):
        block = [
            alpha
            for alpha in itertools.product(range(degree + 1), repeat=d)
            if sum(alpha) == degree
        ]
        # graded-lex with x1 ranked highest: within a degree, (1,0) < (0,1)
        block.sort(reverse=True)
        indices.extend(block)
    return indices


@dataclass(frozen=True)
class PolyFrame:
    """Monomial frame for P_theta in R^d.

    `indices` lists all multi-indexes of total degree < theta in
    graded-lexicographic order; M is their count.
    """

    d: int
    theta: int
    indices: tuple[tuple[int, ...], ...] = field(init=False)
    M: int = field(init=False)

    def __post_init__(self):
        idx = tuple(enumerate_multi_indices(self.d, self.theta))
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "M", len(idx))

    def monomials(self, points: np.ndarray) -> np.ndarray:
        """Evaluate every basis monomial at each point; shape (npts, M)."""
        pts = as_points(points, self.d)
        # powers[k][j] = x_k^j for 1 <= j < theta, by repeated multiplication
        powers = []
        for x in pts.T:
            column = [None, x]
            for _ in range(2, self.theta):
                column.append(column[-1] * x)
            powers.append(column)
        out = np.empty((len(pts), self.M))
        for m, alpha in enumerate(self.indices):
            factors = [powers[k][a] for k, a in enumerate(alpha) if a]
            out[:, m] = functools.reduce(np.multiply, factors, 1.0)
        return out


def as_points(points, d: int) -> np.ndarray:
    """Coerce input to a float array of shape (N, d)."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.ndim == 1:
        if d == 1:
            pts = pts[:, None]
        elif pts.shape[0] == d:
            pts = pts[None, :]
        else:
            raise InputError(f"cannot interpret shape {pts.shape} as points in R^{d}")
    if pts.ndim != 2 or pts.shape[1] != d:
        raise InputError(f"expected points of shape (N, {d}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InputError("points contain non-finite values")
    return pts


def _maybe_scalar(values: np.ndarray, original) -> float | np.ndarray:
    # Single points passed as scalars/1-d sequences come back as floats.
    if len(values) == 1 and np.ndim(original) < 2:
        return float(values[0])
    return values


def unisolvency_matrix(frame: PolyFrame, X) -> np.ndarray:
    """The N x M matrix P_X with entries monomial_j(x_i)."""
    return frame.monomials(X)


def _has_duplicates(pts: np.ndarray) -> bool:
    # After a lexicographic sort a repeated point has an equal neighbour;
    # == counts -0.0 and 0.0 as the same coordinate.  Points whose first
    # coordinates all differ are distinct, which one sort of that
    # coordinate shows for less than the full sort costs.
    first = np.sort(pts[:, 0])
    if not np.any(first[1:] == first[:-1]):
        return False
    same = np.ones(max(len(pts) - 1, 0), dtype=bool)
    for x in pts[np.lexsort(pts.T)].T:
        same &= x[1:] == x[:-1]
    return bool(same.any())


def is_unisolvent(frame: PolyFrame, X) -> bool:
    """True iff P_X has full column rank M under the rank tolerance."""
    pts = as_points(X, frame.d)
    if _has_duplicates(pts):
        raise InputError("duplicate points in X")
    if len(pts) < frame.M:
        return False
    # as_points has checked pts for finiteness; scipy's own check would
    # add about 20% to the SVD of a 100 000-row P_X
    sv = scipy.linalg.svd(unisolvency_matrix(frame, pts), compute_uv=False,
                          check_finite=False)
    return sv[-1] > RANK_RTOL * sv[0]


@dataclass(frozen=True)
class UnisolventFrame:
    """A minimal unisolvent set A plus the cardinal basis over monomials.

    cardinal[j, k] gives l_j(x) = sum_k cardinal[j, k] * x^indices[k],
    so that l_j(a_i) = delta_ij.
    """

    frame: PolyFrame
    points: np.ndarray
    cardinal: np.ndarray

    def cardinal_values(self, x) -> np.ndarray:
        """Evaluate all cardinal polynomials l_j; shape (npts, M)."""
        return dot(self.frame.monomials(x), self.cardinal.T)


def _require_unisolvent(frame: PolyFrame, X, what: str = "X"):
    """Raise UnisolvencyError unless X (called `what`) is unisolvent."""
    if not is_unisolvent(frame, X):
        raise UnisolvencyError(f"{what} is not {frame.theta}-unisolvent")


def _pivots(P: np.ndarray) -> np.ndarray:
    """Row indices of P in the column-pivot order of a QR of P^T
    (Businger & Golub 1965): for a unisolvent P = P_X the first M index a
    well-conditioned minimal unisolvent subset of X."""
    _, piv = scipy.linalg.qr(P.T, mode="r", pivoting=True)
    return piv


def minimal_unisolvent_subset(frame: PolyFrame, X) -> UnisolventFrame:
    """The minimal unisolvent subset A of X that the solvers use: the
    first M pivots of P_X^T (`_pivots`), in input order.  The cardinal
    matrix is C = (P_A)^-T.
    """
    pts = as_points(X, frame.d)
    _require_unisolvent(frame, pts)
    P = unisolvency_matrix(frame, pts)
    kept = np.sort(_pivots(P)[: frame.M])
    cardinal = scipy.linalg.inv(P[kept]).T
    return UnisolventFrame(frame=frame, points=pts[kept], cardinal=cardinal)
