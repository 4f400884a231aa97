"""Block saddle-point systems for interpolation and smoothing.

The three fits minimize over the kernel span plus P_theta under the
constraint P^T v = 0, so each solves [[K, P], [P^T, 0]] x = [r; 0] and
they differ only in K, P and r.  A system's `kind` is the name of its
fit, the `interpolant.MODEL_KINDS` value its model will carry:

    exact_smoother      K = G_XX + lam I, P = P_X, r = y
    interpolant         the same with lam = 0
    approx_smoother     K = [[lam G_X'X' + B B^T, B P_X],  P = [P_X'; 0],
                             [P_X^T B^T, P_X^T P_X]],      r = [B y; P_X^T y]

with B = G_X'X and lam = (2 pi)^(d/2) N rho (`_lam`).  One type holds all
three (`BlockSystem`): K is bit-symmetric and read through one row
writer, which copies from the dense builder's C-ordered array or, for
approx_smoother, computes the rows from `ApproxParts`; the system is read
through K's strict lower triangle and a saved diagonal, and the dense
saddle matrix is assembled from them only for LU or a caller that reads
`matrix`.

The interpolant and exact_smoother systems come from one builder,
`exact_system`.  The approx_smoother system has N' + 2M rows regardless
of N; its rho-independent blocks are accumulated by streaming over X in
chunks of DEFAULT_CHUNK rows, so peak memory stays O(N' * DEFAULT_CHUNK).
Across a rho search the systems differ only by a multiple of G_X'X', so
a system writes no K of its own but reads lam G_X'X' + BBt from the parts,
and `ApproxParts` factors the family once (`_SpectralFactor`, on the
cardinal basis of X') and gives each later system an O(N'^2) candidate
solution, the only solution a builder computes.

`solve_block` decides how every system is solved, by one rule.  It checks
the builder's candidate when there is one, and otherwise its own Cholesky
trial (`_cardinal_solve`): through the cardinal basis of a minimal
unisolvent subset of P's rows, the one that `polyspace` picks for every
caller (`_cardinal_basis`), the constraint P^T v = 0 is eliminated and K
reduces to a positive definite matrix, of order N - M for the dense
kinds and N' for approx_smoother, factored in K's own upper triangle (the
one read for which an approx_smoother system writes its K out), so a
dense system holds one N x N array.  A solution is accepted only under
one double-precision residual bound on the original saddle system; after
a miss, or when the reduced matrix is not positive definite, LU, then
long-double refinement, solve the system.  An accepted candidate or
trial is not LU's solution bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.linalg

from ._blas import dot
from .errors import InputError, ParameterError, SolveError
from .kernels import KernelSpec, kernel_matrix
from .polyspace import (PolyFrame, _pivots, _require_unisolvent, as_points,
                        unisolvency_matrix)

RESIDUAL_RTOL = 1e-8
CPD_SLACK = -1e-10
DEFAULT_CHUNK = 4096
# Entries per row block of the pass over a system's lower triangle
# (`BlockSystem._lower_blocks`); for `products` at N = 2000, 2^17 ran
# faster than 2^15, 2^16 and 2^18.
_TRIANGLE_BLOCK_ENTRIES = 1 << 17


class BlockSystem:
    """[[K, P], [P^T, 0]] x = rhs, the system of every fit (module
    docstring), with the symmetric K beside P.

    K is read in row blocks K[lo:hi, :cols] from one writer
    (`_write_rows`).  A dense builder hands its array over as K, and the
    writer copies from it.  `ApproxParts.system` passes `rows`, which
    computes the blocks from the parts, and `diag`, K's diagonal; K is
    then written out as one C-ordered array only when something reads
    `K`, in the library only `solve_block`'s Cholesky trial.  Every
    other read goes through K's strict lower triangle and the saved
    diagonal (`products` for the gate and the long-double
    refinement, `dense` for LU), which the Cholesky trial leaves intact:
    for every system it uses K's upper triangle as its workspace.
    `matrix`, the dense array, is assembled only when asked for and, K
    being bit-symmetric, equals the eagerly assembled saddle matrix bit
    for bit.  The order of K is `len(diag)`.  `layout` gives the block
    sizes of a solution (`split`); `kind` names the fit, as
    `FittedModel.kind` and every `SolveError` do; `candidate`, the
    solution `solve_block` checks first, is set by the builder (only
    `ApproxParts`' spectral solution) or else by `solve_block` to its
    Cholesky trial, so that a second solve checks the same trial rather
    than factor the spent triangle.  `_checked` is the last solution the
    gate or the refinement read, with its A x, so the one `solve_block`
    returns comes with the A x that certified it.
    """

    def __init__(self, K: np.ndarray | None, P: np.ndarray, rhs: np.ndarray,
                 layout: tuple[int, ...], kind: str, *, rows=None,
                 diag: np.ndarray | None = None):
        if K is not None:
            self.K = K  # shadows the `K` property
            diag = K.diagonal().copy()
        self._rows = rows  # None: the blocks are copied from K
        self.diag = diag
        self.P = P
        self.rhs = rhs
        self.layout = tuple(layout)
        self.kind = kind
        self.candidate: np.ndarray | None = None
        self._checked: tuple[np.ndarray, np.ndarray] | None = None

    @cached_property
    def K(self) -> np.ndarray:
        """K as one C-ordered array, written by `rows` on first read."""
        n = len(self.diag)
        K = np.empty((n, n))
        self._rows(0, n, n, K)
        return K

    def _write_rows(self, lo: int, hi: int, cols: int, out: np.ndarray) -> None:
        """Write K[lo:hi, :cols] into out."""
        if self._rows is None:
            out[...] = self.K[lo:hi, :cols]
        else:
            self._rows(lo, hi, cols, out)

    def split(self, solution: np.ndarray) -> tuple[np.ndarray, ...]:
        """Cut a solution vector along the block layout."""
        return tuple(np.split(solution, np.cumsum(self.layout)[:-1]))

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.dense()

    def _lower_blocks(self):
        """K's strict lower triangle in row blocks, as (lo, hi, block):
        the block holds rows lo:hi and columns :hi of K, C-contiguous for
        BLAS, with the upper triangle and diagonal of its square part
        zeroed.  One buffer serves every block, so a block is valid until
        the next is made."""
        N = len(self.diag)
        step = min(N, max(1, _TRIANGLE_BLOCK_ENTRIES // N))
        scratch = np.empty(step * N)
        upper = np.triu(np.ones((step, step), dtype=bool))
        for lo in range(0, N, step):
            hi = min(lo + step, N)
            block = scratch[: (hi - lo) * hi].reshape(hi - lo, hi)
            self._write_rows(lo, hi, hi, block)
            np.copyto(block[:, lo:], 0.0, where=upper[: hi - lo, : hi - lo])
            yield lo, hi, block

    def products(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A x in x's precision and |A| |x| in double, from one pass over
        K's strict lower triangle (`_lower_blocks`): each block is applied
        as itself and as its transpose, so each entry of K is read once."""
        N = len(self.diag)
        P = self.P
        v, beta = x[:N], x[N:]
        abs_v, abs_beta = np.abs(v, dtype=float), np.abs(beta, dtype=float)
        Kv = self.diag * v
        abs_Kv = np.abs(self.diag) * abs_v
        for lo, hi, block in self._lower_blocks():
            Kv[lo:hi] += dot(block, v[:hi])
            Kv[:hi] += dot(v[lo:hi], block)
            np.abs(block, out=block)
            abs_Kv[lo:hi] += dot(block, abs_v[:hi])
            abs_Kv[:hi] += dot(abs_v[lo:hi], block)
        abs_P = np.abs(P)
        Ax = np.concatenate([Kv + dot(P, beta), dot(v, P)])
        abs_Ax = np.concatenate([abs_Kv + dot(abs_P, abs_beta), dot(abs_v, abs_P)])
        return Ax, abs_Ax

    def dense(self) -> np.ndarray:
        """The saddle matrix from K's strict lower triangle
        (`_lower_blocks`, each block written and its transpose added), the
        saved diagonal and P, as a new Fortran-ordered array for LU."""
        P = self.P
        N, M = P.shape
        A = np.zeros((N + M, N + M))
        for lo, hi, block in self._lower_blocks():
            A[lo:hi, :hi] = block
            A[:hi, lo:hi] += block.T
        diag = np.arange(N)
        A[diag, diag] = self.diag
        A[:N, N:] = P
        A[N:, :N] = P.T
        return A.T  # the matrix is symmetric, and A.T is in Fortran order


def _samples(d: int, X, y) -> tuple[np.ndarray, np.ndarray]:
    """Sites as (N, d) points and finite values y of length N."""
    X = as_points(X, d)
    y = np.asarray(y, dtype=float)
    if y.shape != (len(X),):
        raise ParameterError(f"y must have length {len(X)}, got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InputError("y contains non-finite values")
    return X, y


def _check_rho(rho: float, name: str = "rho") -> float:
    """rho when it is finite and > 0; written so that NaN fails."""
    if not 0 < rho < np.inf:
        raise ParameterError(f"{name} must be finite and > 0, got {rho}")
    return rho


def _lam(spec: KernelSpec, N: int, rho: float) -> float:
    """lam, the weight of G in the smoothing systems, for a valid rho."""
    lam = (2.0 * np.pi) ** (spec.d / 2.0) * N * _check_rho(rho)
    if not lam < np.inf:
        raise ParameterError(f"rho = {rho} makes lam = (2 pi)^(d/2) N rho overflow")
    return lam


def exact_system(spec: KernelSpec, frame: PolyFrame, X, y, rho: float) -> BlockSystem:
    """The one dense builder: G_XX + lam I is written into one C-ordered
    N x N array, which the system keeps beside P_X.  rho = 0 gives the
    interpolant's system."""
    X, y = _samples(frame.d, X, y)
    _require_unisolvent(frame, X)
    N, M = len(X), frame.M
    lam = _lam(spec, N, rho) if rho != 0 else 0.0
    K = kernel_matrix(spec, X, X)
    diag = np.arange(N)
    K[diag, diag] += lam
    P = unisolvency_matrix(frame, X)
    rhs = np.concatenate([y, np.zeros(M)])
    return BlockSystem(K, P, rhs, P.shape, "exact_smoother" if rho else "interpolant")


@dataclass(frozen=True, eq=False)
class ApproxParts:
    """rho-independent blocks of the approx_smoother system.

    Assembled once per (X, y, X') triple; `system(rho)` then writes no
    (N' + 2M)^2 array: its K is read from these blocks (`_rows`), row
    block by row block, which is what makes rho searches cheap.  From the
    second `system` call on, the system carries a candidate solution from
    the spectral factor (`_factor`), which is built on first use and then
    solves every further rho in O(N'^2); the first system, like every
    system without a candidate, takes `solve_block`'s Cholesky trial, the
    one reader that writes K out.  No system writes into these arrays.
    Parts compare and hash by identity: they carry a system counter and
    a cached factor.
    """

    spec: KernelSpec
    frame: PolyFrame
    centers: np.ndarray  # X', (N', d)
    G_pp: np.ndarray  # G_{X',X'}, (N', N')
    BBt: np.ndarray  # G_{X',X} G_{X,X'}, (N', N')
    BP: np.ndarray  # G_{X',X} P_X, (N', M)
    PtP: np.ndarray  # P_X^T P_X, (M, M)
    P_p: np.ndarray  # P_{X'}, (N', M)
    By: np.ndarray  # G_{X',X} y, (N',)
    Pty: np.ndarray  # P_X^T y, (M,)
    N: int
    _systems: int = field(default=0, init=False, repr=False)

    @cached_property
    def _factor(self) -> _SpectralFactor | None:
        """The rho-family's spectral factor, or None when it cannot be
        built, e.g. Z^T G_pp Z not positive definite to working precision."""
        try:
            return _SpectralFactor.build(self)
        except scipy.linalg.LinAlgError:
            return None

    @cached_property
    def _corner_max(self) -> tuple[float, float]:
        """max |G_X'X'| and max |BBt|, which bound every corner entry."""
        return float(np.max(np.abs(self.G_pp))), float(np.max(np.abs(self.BBt)))

    def _rows(self, scale: float, lo: int, hi: int, cols: int, out: np.ndarray) -> None:
        """Write K[lo:hi, :cols] of the system with lam = scale into out,
        bit for bit as one (N' + 2M)^2 array would hold it: the corner as
        fl(lam G_X'X') + BBt, then BP, BP^T and PtP."""
        Np = len(self.G_pp)
        mid = min(max(lo, Np), hi)  # rows lo:mid are corner rows, mid:hi border rows
        c = min(cols, Np)
        top, bottom = out[: mid - lo], out[mid - lo :]
        np.multiply(scale, self.G_pp[lo:mid, :c], out=top[:, :c])
        top[:, :c] += self.BBt[lo:mid, :c]
        top[:, c:] = self.BP[lo:mid, : cols - c]
        bottom[:, :c] = self.BP.T[mid - Np : hi - Np, :c]
        bottom[:, c:] = self.PtP[mid - Np : hi - Np, : cols - c]

    def system(self, rho: float) -> BlockSystem:
        """K = [[lam G_X'X' + BBt, BP], [BP^T, PtP]] beside P = [P_X'; 0],
        with K read from the parts."""
        Np, M = self.P_p.shape
        scale = _lam(self.spec, self.N, rho)
        G_max, BBt_max = self._corner_max
        # rounding is monotone, so a finite fl(fl(lam max|G|) + max|BBt|)
        # bounds every corner entry; only otherwise is each entry checked
        if not float(scale) * G_max + BBt_max < np.inf:  # Python floats: no warning
            try:
                with np.errstate(over="raise"):
                    scale * self.G_pp + self.BBt
            except FloatingPointError:
                raise ParameterError(
                    f"rho = {rho} makes lam G_X'X' + B B^T overflow") from None
        diag = np.concatenate([scale * self.G_pp.diagonal() + self.BBt.diagonal(),
                               self.PtP.diagonal()])
        P = np.zeros((Np + M, M))
        P[:Np] = self.P_p
        rhs = np.concatenate([self.By, self.Pty, np.zeros(M)])
        object.__setattr__(self, "_systems", self._systems + 1)
        sys = BlockSystem(None, P, rhs, (Np, M, M), "approx_smoother",
                          rows=partial(self._rows, scale), diag=diag)
        # a one-rho fit never pays for the factorization; with N' = M the
        # constraint alone fixes alpha = 0 and there is no family to factor
        if self._systems > 1 and Np > M and self._factor is not None:
            sys.candidate = self._factor.solve(self, scale)
        return sys


def _cardinal_basis(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A minimal unisolvent subset A of P's rows, the other rows R, and
    C = P_A^-T P_R^T.

    Z = [-C; I] in (A, R) order spans null(P^T): column j of -C holds the
    values at A of the cardinal basis polynomial of point R_j.  A is the
    subset `polyspace.minimal_unisolvent_subset` picks, in pivot order.
    """
    M = P.shape[1]
    piv = _pivots(P)
    A, R = piv[:M], piv[M:]
    return A, R, scipy.linalg.solve(P[A].T, P[R].T)


def _expand(w: np.ndarray, A: np.ndarray, R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """v = Z w in the original order: v_R = w and v_A = -C w, so P^T v = 0."""
    v = np.empty(len(A) + len(R))
    v[R] = w
    v[A] = -dot(C, w)
    return v


def _half_cross(K: np.ndarray, A: np.ndarray, R: np.ndarray,
                C: np.ndarray) -> np.ndarray:
    """W = K_RA - C^T K_AA / 2, so that for symmetric K
    Z^T K Z = K_RR - K_RA C - C^T K_AR + C^T K_AA C = K_RR - W C - (W C)^T,
    one rank-2M update (`dsyr2k`)."""
    return K[np.ix_(R, A)] - 0.5 * dot(C.T, K[np.ix_(A, A)])


def _reduce(K: np.ndarray, A: np.ndarray, R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Lower triangle of Z^T K Z for symmetric K, in Fortran order for
    LAPACK, by one rank-2M update in place: the compact copy of K_RR is
    the only (N' - M)^2 array."""
    K_RR = K[np.ix_(R, R)].T  # K is symmetric; .T is the Fortran-order view
    return scipy.linalg.blas.dsyr2k(-1.0, _half_cross(K, A, R, C), C.T, beta=1.0,
                                    c=K_RR, lower=1, overwrite_c=1)


def _cardinal_solve(K: np.ndarray, P: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Cholesky solution of the system [[K, P], [P^T, 0]] x = [y; 0], of
    any kind, or None when its reduced matrix is not positive definite to
    working precision; `solve_block`'s trial.

    With A, R and C from `_cardinal_basis(P)`, v = Z w satisfies
    P^T v = 0 for every w, and the first block row projected by Z^T gives
    Z^T K Z w = Z^T y: symmetric positive definite for a strictly
    conditionally positive definite kernel, of order N - M with
    K = G_XX + lam I, and of order N' for an approx_smoother system, whose
    zero rows of P never enter A.  The reduction is written into K
    itself, in its original order, with the A rows and columns set to the
    identity, so no permutation is needed: K is C-ordered and symmetric,
    so K.T is its Fortran order, and `dsyr2k`, `dpotrf` and `dpotrs` work
    in place on K.T's lower triangle.  That is K's upper triangle with the
    diagonal; K's strict lower triangle is left as it was.  The multiplier
    P_A^-1 (y_A - (K v)_A) comes from the A rows, read before the
    factorization.
    """
    N = len(K)
    A, R, C = _cardinal_basis(P)
    M = len(A)
    W = np.zeros((N, M))
    W[R] = _half_cross(K, A, R, C)
    K_A = K[A]
    Ct = np.zeros((N, M))
    Ct[R] = C.T
    for a in A:  # inside the upper triangle only
        K[a, a:] = 0.0
        K[:a, a] = 0.0
        K[a, a] = 1.0
    low = scipy.linalg.blas.dsyr2k(-1.0, W, Ct, beta=1.0, c=K.T, lower=1,
                                   overwrite_c=1)
    low, info = scipy.linalg.lapack.dpotrf(low, lower=1, overwrite_a=1, clean=0)
    if info != 0:
        return None
    b = np.zeros(N)
    b[R] = y[R] - dot(C.T, y[A])
    w, _ = scipy.linalg.lapack.dpotrs(low, b, lower=1)
    v = _expand(w[R], A, R, C)
    beta = scipy.linalg.solve(P[A], y[A] - dot(K_A, v))
    return np.concatenate([v, beta])


@dataclass(frozen=True)
class _SpectralFactor:
    """The rho-family of approx_smoother systems in Demmler-Reinsch form.

    Let A be a minimal unisolvent subset of X' (R the other centers),
    C = P_A^-T P_R^T and Z = [-C; I] in (A, R) order, so that alpha = Z w
    satisfies P_X'^T alpha = 0 for every w.  Eliminating beta leaves
    Z^T (S + lam G_pp) Z w = Z^T r with S = BBt - BP PtP^-1 BP^T,
    r = By - BP PtP^-1 Pty and lam = `_lam(spec, N, rho)`.  The generalized
    eigenproblem Z^T S Z V = Z^T G_pp Z V diag(sigma), with
    V^T Z^T G_pp Z V = I, gives w = V (q / (sigma + lam)), q = V^T Z^T r.
    """

    V: np.ndarray  # (N' - M, N' - M)
    sigma: np.ndarray  # (N' - M,)
    q: np.ndarray  # (N' - M,)
    A: np.ndarray  # indices of the minimal unisolvent subset of X'
    R: np.ndarray  # the other indices
    C: np.ndarray  # P_A^-T P_R^T, (M, N' - M)

    @classmethod
    def build(cls, parts: ApproxParts) -> _SpectralFactor:
        A, R, C = _cardinal_basis(parts.P_p)
        ZtBP = parts.BP[R] - dot(C.T, parts.BP[A])
        L = scipy.linalg.cholesky(parts.PtP, lower=True)
        r = parts.By - dot(parts.BP, scipy.linalg.cho_solve((L, True), parts.Pty))
        # S = Z^T BBt Z - Y Y^T with Y = Z^T BP L^-T, the Schur complement of PtP
        Y = scipy.linalg.solve_triangular(L, ZtBP.T, lower=True).T
        S = scipy.linalg.blas.dsyrk(-1.0, Y, beta=1.0, c=_reduce(parts.BBt, A, R, C),
                                    lower=1, overwrite_c=1)
        G = _reduce(parts.G_pp, A, R, C)
        sigma, V = scipy.linalg.eigh(S, G, lower=True, overwrite_a=True,
                                     overwrite_b=True)
        return cls(V=V, sigma=sigma, q=dot(V.T, r[R] - dot(C.T, r[A])), A=A, R=R, C=C)

    def solve(self, parts: ApproxParts, scale: float) -> np.ndarray:
        """[alpha; beta; gamma] of `parts.system(rho)` with scale = lam."""
        w = dot(self.V, self.q / (self.sigma + scale))
        alpha = _expand(w, self.A, self.R, self.C)
        beta = scipy.linalg.solve(parts.PtP, parts.Pty - dot(parts.BP.T, alpha),
                                  assume_a="pos")
        # gamma from the A rows of the first block row
        A = self.A
        e_A = (parts.By[A] - scale * dot(parts.G_pp[A], alpha)
               - dot(parts.BBt[A], alpha) - dot(parts.BP[A], beta))
        gamma = scipy.linalg.solve(parts.P_p[A], e_A)
        return np.concatenate([alpha, beta, gamma])


def approx_parts(spec: KernelSpec, frame: PolyFrame, X, y, Xp) -> ApproxParts:
    """Accumulate the approx_smoother system blocks over X in chunks of
    DEFAULT_CHUNK rows, whose kernel blocks all share one buffer."""
    X, y = _samples(frame.d, X, y)
    _require_unisolvent(frame, X)
    Xp = as_points(Xp, frame.d)
    _require_unisolvent(frame, Xp, "X'")
    N, Np, M = len(X), len(Xp), frame.M
    BBt = np.zeros((Np, Np))
    BP = np.zeros((Np, M))
    PtP = np.zeros((M, M))
    By = np.zeros(Np)
    Pty = np.zeros(M)
    syrk = scipy.linalg.blas.dsyrk
    buffer = np.empty(Np * min(N, DEFAULT_CHUNK))
    for lo in range(0, N, DEFAULT_CHUNK):
        hi = min(lo + DEFAULT_CHUNK, N)
        B_c = kernel_matrix(spec, Xp, X[lo:hi], out=buffer[: Np * (hi - lo)].reshape(Np, -1))
        P_c = unisolvency_matrix(frame, X[lo:hi])  # (c, M)
        # rank-c updates of the upper triangles in place: BBt.T and PtP.T
        # are the Fortran-order views whose lower triangles those are
        syrk(1.0, B_c.T, beta=1.0, c=BBt.T, trans=1, lower=1, overwrite_c=1)
        syrk(1.0, P_c.T, beta=1.0, c=PtP.T, trans=0, lower=1, overwrite_c=1)
        BP += dot(B_c, P_c)
        By += dot(B_c, y[lo:hi])
        Pty += dot(P_c.T, y[lo:hi])
    for S in (BBt, PtP):
        lower = np.tril_indices(len(S), -1)
        S[lower] = S.T[lower]
    return ApproxParts(
        spec=spec,
        frame=frame,
        centers=Xp,
        G_pp=kernel_matrix(spec, Xp, Xp),
        BBt=BBt,
        BP=BP,
        PtP=PtP,
        P_p=unisolvency_matrix(frame, Xp),
        By=By,
        Pty=Pty,
        N=N,
    )


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x), or BLAS `dnrm2`'s scaled sum where its sum of
    squares overflows (silently, in `solve_block`): finite whenever the
    2-norm itself is."""
    norm = float(np.linalg.norm(x))
    return norm if norm < np.inf else float(scipy.linalg.blas.dnrm2(x))


def _residual_bound(sys: BlockSystem, x: np.ndarray) -> float:
    """Upper bound on |A x - b|_2 from double-precision arithmetic alone.

    The computed residual r = fl(A x - b) differs from the true one by at
    most gamma_{n+1} (|A| |x| + |b|) componentwise (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, section 3.5),
    in any summation order.  For n >= 2, n * eps = 2 n u exceeds
    gamma_{n+1} by about 2x, which covers the rounding of the bound itself.
    A x and |A| |x| come from one pass over K's strict lower triangle, its
    saved diagonal and P (`BlockSystem.products`), so no n x n temporary
    is made and the Cholesky trial, which factors in K's upper triangle,
    leaves the bound intact.  (x, A x) is kept as `sys._checked`.
    """
    b = sys.rhs
    Ax, scale = sys.products(x)
    sys._checked = (x, Ax)
    scale += np.abs(b)
    return _norm(Ax - b) + len(b) * np.finfo(float).eps * _norm(scale)


def _refine_extended(sys: BlockSystem, lu, sol: np.ndarray, target: float):
    """Iterative refinement on the residual b - A x in long double, read
    in one pass over the system (`BlockSystem.products`) and kept for the
    next correction.  The residual is not monotone on ill-conditioned
    instances, so run a fixed number of sweeps and keep the best iterate;
    returns it and its long-double residual norm, and keeps it with its
    A x, rounded to double, as `sys._checked`.
    """

    def _residual(x):
        Ax = sys.products(x.astype(np.longdouble))[0]
        r = (sys.rhs - Ax).astype(float)
        return r, _norm(r), Ax

    r, residual, Ax = _residual(sol)
    best_sol, best_residual, best_Ax = sol, residual, Ax
    for _ in range(8):
        if best_residual <= target:
            break
        correction = scipy.linalg.lu_solve(lu, r)
        if not np.all(np.isfinite(correction)):
            break
        sol = sol + correction
        r, residual, Ax = _residual(sol)
        if residual < best_residual:
            best_sol, best_residual, best_Ax = sol, residual, Ax
    sys._checked = (best_sol, best_Ax.astype(float))
    return best_sol, best_residual


@np.errstate(over="ignore", invalid="ignore")  # an inf or NaN bound fails the gate
def solve_block(sys: BlockSystem) -> np.ndarray:
    """Dense solve with a mandatory residual check, by one rule for every
    system.

    Every accepted solution passes a rigorous upper bound on its residual,
    |fl(A x - b)| + n eps ||A| |x| + |b|| (the matvec rounding bound of
    Higham 2002, section 3.5), against the original system; A x and
    |A| |x| come from one pass over the system (`BlockSystem.products`)
    that reads K's strict lower triangle and saved diagonal, intact after
    the Cholesky trial factored in K's upper triangle.
    First solution: `sys.candidate` when the builder set one (a
    repeated-rho approx_smoother system's spectral solution); otherwise
    the Cholesky trial (`_cardinal_solve`), kept as `sys.candidate`.  It
    is returned when the bound is within 0.05 * RESIDUAL_RTOL * |rhs|;
    its bits differ from LU's.
    LU, otherwise (a miss, or a reduced matrix that is not positive
    definite): the LU factorization overwrites a fresh copy of the saddle
    matrix assembled from K and P (`dense`), and the LU solution is
    returned when the same bound holds.
    Long double, only on a miss: iterative refinement (`_refine_extended`),
    and the best iterate's residual must be within RESIDUAL_RTOL * |rhs|,
    or SolveError is raised, as it is for an rhs whose `_norm` is not finite.
    On every exit `sys._checked` holds the returned x and the A x read
    for its verdict.
    """
    rhs_norm = _norm(sys.rhs)
    if not rhs_norm < np.inf:  # an infinite target would certify anything
        raise SolveError(f"{sys.kind} system right-hand side has 2-norm {rhs_norm}")
    target = 0.05 * RESIDUAL_RTOL * rhs_norm
    if sys.candidate is None:  # kept: the trial spends K's upper triangle
        sys.candidate = _cardinal_solve(sys.K, sys.P, sys.rhs[: len(sys.diag)])
    if sys.candidate is not None and _residual_bound(sys, sys.candidate) <= target:
        return sys.candidate
    try:
        with warnings.catch_warnings():
            # singularity is reported through SolveError, not a warning
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu = scipy.linalg.lu_factor(sys.dense(), overwrite_a=True)
            sol = scipy.linalg.lu_solve(lu, sys.rhs)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SolveError(f"{sys.kind} system solve failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SolveError(f"{sys.kind} system is singular to working precision")
    # The bound exceeds the long-double residual the refinement would
    # compute first, so passing it returns what the refinement would.
    if _residual_bound(sys, sol) <= target:
        return sol
    sol, residual = _refine_extended(sys, lu, sol, target)
    if residual > RESIDUAL_RTOL * max(rhs_norm, 1e-300):
        raise SolveError(
            f"{sys.kind} system residual {residual:.3e} exceeds "
            f"{RESIDUAL_RTOL:.0e} * |rhs| = {RESIDUAL_RTOL * rhs_norm:.3e}",
            residual=residual,
        )
    return sol


def cpd_check(spec: KernelSpec, frame: PolyFrame, X, trials: int, seed=0) -> bool:
    """Sample null(P_X^T) vectors v = Z w, w standard normal and Z the
    cardinal basis of `_cardinal_basis`, and test v^T G_XX v > 0 (up to
    slack)."""
    X = as_points(X, frame.d)
    _require_unisolvent(frame, X)
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    A, R, C = _cardinal_basis(unisolvency_matrix(frame, X))
    G = kernel_matrix(spec, X, X)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        # v_R is the draw, so v = 0 only when N = M and null(P_X^T) = {0}
        v = _expand(rng.standard_normal(len(R)), A, R, C)
        norm2 = dot(v, v)
        if norm2 and dot(dot(v, G), v) <= CPD_SLACK * norm2:
            return False
    return True
