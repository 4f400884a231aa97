"""Dense products on scipy's BLAS, the library's one BLAS thread pool.

numpy and scipy each bundle their own OpenBLAS, and each library keeps
its own pool of worker threads.  After a call an idle worker busy-waits
for about 0.1 s, so a numpy product just before a scipy factorization
leaves numpy's workers spinning on the cores LAPACK needs: on a 2-vCPU
host an order-2000 `dpotrf` took 52-63 ms alone and 109-123 ms right
after one numpy matrix-vector product.  Every dense product in the
package is therefore `dot` here, or a direct `scipy.linalg.blas` call,
and every factorization is `scipy.linalg`; numpy's `@`, `dot` and
`linalg` (apart from `norm`) are not used.  `tests/test_blas_pool.py`
enforces this.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas


def _fortran(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a as a Fortran-ordered array f and the BLAS trans flag t with
    op_t(f) = a.  A C-ordered a is passed as a.T with t = 1, not copied."""
    if a.flags.f_contiguous:
        return a, 0
    return np.ascontiguousarray(a).T, 1


def dot(a, b):
    """a @ b for 1-d or 2-d real arrays in double precision, through
    scipy's BLAS (`ddot`, `dgemv`, `dgemm`); a 2-d result is C-ordered, as
    numpy's.  Long double operands take numpy's product, which does not
    use BLAS."""
    a, b = np.asarray(a), np.asarray(b)
    if np.result_type(a, b) == np.longdouble:
        return np.matmul(a, b)
    if a.shape[-1] != b.shape[0] or not (1 <= a.ndim <= 2 and 1 <= b.ndim <= 2):
        raise ValueError(f"dot: shapes {a.shape} and {b.shape} not aligned")
    shape = a.shape[:-1] + b.shape[1:]
    if a.size == 0 or b.size == 0:
        return np.zeros(shape) if shape else 0.0
    if a.ndim == 1 and b.ndim == 1:
        return blas.ddot(a, b)
    if b.ndim == 1:  # a x
        f, t = _fortran(a)
        return blas.dgemv(1.0, f, b, trans=t)
    if a.ndim == 1:  # x^T b = b^T x
        f, t = _fortran(b)
        return blas.dgemv(1.0, f, a, trans=1 - t)
    # (a b)^T = b^T a^T comes out in Fortran order, so its .T is C-ordered
    fa, ta = _fortran(a)
    fb, tb = _fortran(b)
    return blas.dgemm(1.0, fb, fa, trans_a=1 - tb, trans_b=1 - ta).T
