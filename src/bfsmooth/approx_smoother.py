"""Approximate smoother on a fixed center set, usually a regular grid.

The smoothing functional is the same J_e as for the Exact smoother but
the minimization runs over the span generated by the centers X' only.
The resulting system has N' + 2M rows regardless of how many data
points there are, so doubling N only doubles assembly time.  The box
type `Region` lives here too: a `GridSpec` is a box with node counts.
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
from .polyspace import PolyFrame


@dataclass(frozen=True, eq=False)
class Region:
    """Axis-aligned box [a, b] in R^d.

    Boxes compare and hash by value: same type and corners (and, for a
    GridSpec, the same counts).
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape or not np.all(b > a):
            raise ParameterError("box requires b > a componentwise")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _key(self) -> tuple:
        return tuple(self.a), tuple(self.b)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def d(self) -> int:
        return len(self.a)

    def probe_grid(self, per_axis: int, shrink: float = 0.0) -> np.ndarray:
        """Closed regular grid spanning the (optionally shrunk) box."""
        width = self.b - self.a
        lo = self.a + shrink * width
        hi = self.b - shrink * width
        return _mesh([np.linspace(lo[i], hi[i], per_axis) for i in range(self.d)])


@dataclass(frozen=True, eq=False)
class GridSpec(Region):
    """A regular grid on the box [a, b] with `counts` nodes per axis.

    Grid steps satisfy counts * h = b - a, so nodes are a + h * alpha for
    0 <= alpha < counts and b itself is *not* a node.
    """

    counts: tuple[int, ...]
    h: np.ndarray = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        counts = tuple(int(n) for n in np.atleast_1d(self.counts))
        if len(counts) != self.d:
            raise ParameterError("a, b and counts must have matching lengths")
        if any(n < 1 for n in counts):
            raise ParameterError("grid counts must be >= 1")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "h", (self.b - self.a) / np.array(counts, dtype=float))

    def _key(self) -> tuple:
        return *super()._key(), self.counts


def _parse(text: str, what: str, form: str, kinds, box_type):
    """Split 'x1,..:y1,..[:..]' into one list per part, typed by `kinds`,
    and build `box_type` from them; any fault is a ParseError."""
    parts = text.split(":")
    if len(parts) != len(kinds):
        raise ParseError(f"{what} spec {text!r} must have form {form}")
    try:
        items = [[kind(t) for t in part.split(",")] for kind, part in zip(kinds, parts)]
    except ValueError as exc:
        raise ParseError(f"bad {what} spec {text!r}: {exc}") from None
    try:
        return box_type(*items)
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc


def parse_box(text: str) -> Region:
    """Parse the CLI box syntax 'a1,...,ad:b1,...,bd' (a closed box)."""
    return _parse(text, "box", "a:b", (float, float), Region)


def parse_grid(text: str) -> GridSpec:
    """Parse the CLI grid syntax 'a1,...,ad:b1,...,bd:n1,...,nd'."""
    return _parse(text, "grid", "a:b:n", (float, float, int), GridSpec)


def _mesh(axes) -> np.ndarray:
    """All combinations of the per-axis nodes, row-major (last axis fastest)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def make_grid(gs: GridSpec, theta: int | None = None) -> np.ndarray:
    """Enumerate grid nodes a + h * alpha, row-major (last axis fastest).

    When `theta` is given and some axis has fewer than theta nodes, the
    grid is not theta-unisolvent (a polynomial of degree < theta in that
    coordinate vanishes on it) and a warning is emitted.
    """
    if theta is not None and any(n < theta for n in gs.counts):
        warnings.warn(
            f"grid counts {gs.counts} below theta={theta}: "
            f"the grid is not {theta}-unisolvent",
            stacklevel=2,
        )
    return _mesh([gs.a[i] + gs.h[i] * np.arange(gs.counts[i]) for i in range(gs.d)])


def grid_density(gs: GridSpec) -> float:
    """Exact fill distance of a regular grid on its box: |h|, the distance
    from the corner b to its nearest node b - h."""
    return float(np.linalg.norm(gs.h))


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
    se, _, _, J_exact = _on_data(exact, X, y, rho)
    sa, _, _, J_approx = _on_data(approx, X, y, rho)
    lhs = rho * seminorm_sq_diff(exact, approx) + float(np.mean((se - sa) ** 2))
    rhs = J_approx - J_exact
    return SmootherComparison(
        lhs=lhs, rhs=rhs, gap=lhs - rhs, J_e_exact=J_exact, J_e_approx=J_approx
    )
