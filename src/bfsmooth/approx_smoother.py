"""Approximate smoother on a fixed center set, usually a regular grid.

The smoothing functional is the same J_e as for the Exact smoother but
the minimization runs over the span generated by the centers X' only.
The resulting system has N' + 2M rows regardless of how many data
points there are, so doubling N only doubles assembly time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .assembly import ApproxParts, _check_rho, approx_parts
from .errors import ParameterError, ParseError
from .exact_smoother import _on_data
from .interpolant import FittedModel, _fit, seminorm_sq_diff
from .kernels import KernelSpec
from .polyspace import PolyFrame, as_points


@dataclass(frozen=True)
class GridSpec:
    """A regular rectangular grid: corner a, corner b, counts per axis.

    Grid steps satisfy counts * h = b - a, so nodes are a + h * alpha for
    0 <= alpha < counts and b itself is *not* a node.
    """

    a: np.ndarray
    b: np.ndarray
    counts: tuple[int, ...]
    h: np.ndarray = field(init=False)

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        counts = tuple(int(n) for n in np.atleast_1d(self.counts))
        if a.shape != b.shape or len(counts) != len(a):
            raise ParameterError("a, b and counts must have matching lengths")
        if not np.all(b > a):
            raise ParameterError("grid requires b > a componentwise")
        if any(n < 1 for n in counts):
            raise ParameterError("grid counts must be >= 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "h", (b - a) / np.array(counts, dtype=float))

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return int(np.prod(self.counts))


def parse_box(text: str, counts: bool = False) -> list[list]:
    """Parse the CLI box syntax 'a1,...,ad:b1,...,bd' into corner lists [a, b].

    With `counts`, the grid syntax 'a1,...:b1,...:n1,...,nd' is read and
    the integer counts come third.  Shape checks are left to the box type
    built from the lists.
    """
    what, form, kinds = (
        ("grid", "a:b:n", (float, float, int)) if counts else ("box", "a:b", (float, float))
    )
    parts = text.split(":")
    if len(parts) != len(kinds):
        raise ParseError(f"{what} spec {text!r} must have form {form}")
    try:
        return [[kind(t) for t in part.split(",")] for kind, part in zip(kinds, parts)]
    except ValueError as exc:
        raise ParseError(f"bad {what} spec {text!r}: {exc}") from None


def parse_grid(text: str) -> GridSpec:
    """Parse the CLI grid syntax 'a1,...,ad:b1,...,bd:n1,...,nd'."""
    a, b, counts = parse_box(text, counts=True)
    try:
        return GridSpec(a=np.array(a), b=np.array(b), counts=tuple(counts))
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc


def make_grid(gs: GridSpec, theta: int | None = None) -> np.ndarray:
    """Enumerate grid nodes a + h * alpha, row-major (last axis fastest).

    When `theta` is given and some axis has fewer than theta points, the
    grid is not guaranteed theta-unisolvent and a warning is emitted.
    """
    if theta is not None and any(n < theta for n in gs.counts):
        warnings.warn(
            f"grid counts {gs.counts} below theta={theta}: "
            "unisolvency is not guaranteed",
            stacklevel=2,
        )
    axes = [gs.a[i] + gs.h[i] * np.arange(gs.counts[i]) for i in range(gs.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def grid_density(gs: GridSpec) -> float:
    """Exact fill distance of a regular grid: d^(d/2) vol = N' h^d."""
    d = gs.d
    vol = float(np.prod(gs.b - gs.a))
    return (d ** (d / 2.0) * vol / gs.total) ** (1.0 / d)


def fit_approx(
    spec: KernelSpec,
    frame: PolyFrame,
    X,
    y,
    Xp,
    rho: float,
) -> FittedModel:
    """Fit the Approximate smoother with centers X' and parameter rho."""
    _check_rho(rho)  # fail before the O(N N'^2) assembly, not after it
    return fit_parts(approx_parts(spec, frame, X, y, Xp), rho)


def fit_parts(parts: ApproxParts, rho: float) -> FittedModel:
    """Solve prebuilt approximate-system blocks at rho and wrap the model.

    Build the parts once with `approx_parts` and call this per rho to
    reuse the O(N N'^2) assembly across a rho search.
    """
    return _fit(parts.system(rho), parts.spec, parts.frame, parts.centers,
                "approx_smoother", rho)


@dataclass(frozen=True)
class SmootherComparison:
    """Both sides of the Exact-vs-Approximate energy identity.

    lhs = rho |s_e - s_a|^2 + mean |s_e(x_k) - s_a(x_k)|^2
    rhs = J_e[s_a] - J_e[s_e]
    """

    lhs: float
    rhs: float
    gap: float
    J_e_exact: float
    J_e_approx: float


def compare(
    exact: FittedModel, approx: FittedModel, X, y, rho: float
) -> SmootherComparison:
    """Evaluate the gap identity between an Exact and an Approximate fit."""
    X = as_points(X, exact.frame.d)
    y = np.asarray(y, dtype=float)
    se, _, _, J_exact = _on_data(exact, X, y, rho)
    sa, _, _, J_approx = _on_data(approx, X, y, rho)
    lhs = rho * seminorm_sq_diff(exact, approx) + float(np.mean((se - sa) ** 2))
    rhs = J_approx - J_exact
    return SmootherComparison(
        lhs=lhs, rhs=rhs, gap=lhs - rhs, J_e_exact=J_exact, J_e_approx=J_approx
    )
