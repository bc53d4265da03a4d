"""Iterative linear algebra: PCG with a lumped diagonal preconditioner.

The lumped diagonal preconditioner (LDP) takes each diagonal entry as the
row sum of the absolute matrix entries; applying it is a componentwise
division, which keeps the solver memory-light.  The transfer matrix
T = A^-1 B comes from one block solve: all columns advance together with
one sparse product per iteration, each bit-equal to its own solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, ParameterError, SingularPreconditionerError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PcgConfig:
    """Solver settings.

    ``max_iterations=None`` resolves to ``5 sqrt(n) + 1000`` at solve time.
    """

    tolerance: float = 1e-8
    max_iterations: int | None = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ParameterError("tolerance must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")

    def resolve_max_iterations(self, n):
        if self.max_iterations is not None:
            return self.max_iterations
        return int(5 * np.sqrt(n)) + 1000


def ldp(A):
    """Lumped diagonal preconditioner: d_i = sum_j |a_ij|."""
    if A.shape[0] != A.shape[1]:
        raise ParameterError("matrix must be square")
    if sp.issparse(A):
        d = np.asarray(abs(A).sum(axis=1)).ravel()
    else:
        d = np.abs(np.asarray(A)).sum(axis=1)
    if np.any(d == 0):
        raise SingularPreconditionerError(
            f"{np.count_nonzero(d == 0)} zero row(s) in the operator")
    return d


def _rows_product(A, V):
    """A v for every row v of the (k, n) array V, as contiguous rows: one
    product with a C-ordered (n, k) copy of V (scipy's ``csr_matvecs``,
    whose columns are bit-equal to ``A @ v``)."""
    return np.ascontiguousarray((A @ np.ascontiguousarray(V.T)).T)


def pcg_solve(A, b, cfg=PcgConfig()):
    """Preconditioned conjugate gradients for SPD systems.

    ``b`` has shape (n,) or (n, k).  Returns ``(x, iterations,
    relative_residual)`` with x shaped like b and
    ``||A x_l - b_l|| <= tolerance * ||b_l||`` for every column l.  The
    columns advance together, one product with A per iteration, each with
    its own step lengths, and leave once converged; every column's iterates
    are bit-equal to those of a solve of that column alone.  ``iterations``
    counts the block iterations and ``relative_residual`` is the worst
    column's true residual; the per-column counts go to a DEBUG record.
    Raises :class:`ConvergenceError` (carrying the best iterate) when the
    iteration budget is exhausted; for 2-D ``b``, ``column`` names the
    first column that did not converge.
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    cols = b.reshape(n, -1)
    r = np.ascontiguousarray(cols.T)    # (k, n): every column a row
    norm_b = np.sqrt(np.vecdot(r, r))
    k = len(r)
    T = np.zeros((n, k))
    iterations = np.zeros(k, dtype=int)
    residuals = np.zeros(k)
    live = np.flatnonzero(norm_b)       # columns still iterating
    it = 0
    if live.size:
        d = ldp(A)
        max_iter = cfg.resolve_max_iterations(n)
        nb = norm_b[live]
        r = r[live]
        x = np.zeros_like(r)
        z = r / d
        p = z.copy()
        rz = np.vecdot(r, z)
        best_res, best_x = np.ones(live.size), x
        for it in range(1, max_iter + 1):
            Ap = _rows_product(A, p)
            alpha = (rz / np.vecdot(p, Ap))[:, None]
            x = alpha * p + x   # a new array: best_x may hold the last one
            Ap *= alpha
            r -= Ap
            res = np.sqrt(np.vecdot(r, r)) / nb
            better = res < best_res
            best_res[better] = res[better]
            best_x = (x if better.all()
                      else np.where(better[:, None], x, best_x))
            hit = np.flatnonzero(res <= cfg.tolerance)
            if hit.size:
                # Recurrence residuals drift; confirm with the true residual.
                r_true = _rows_product(A, x[hit])
                np.subtract(cols[:, live[hit]].T, r_true, out=r_true)
                res_true = np.sqrt(np.vecdot(r_true, r_true)) / nb[hit]
                ok = res_true <= cfg.tolerance
                r[hit[~ok]] = r_true[~ok]
                if ok.any():
                    done = hit[ok]
                    T[:, live[done]] = x[done].T
                    iterations[live[done]] = it
                    residuals[live[done]] = res_true[ok]
                    keep = np.ones(live.size, dtype=bool)
                    keep[done] = False
                    live, nb, x, r, p, rz, best_res, best_x = (
                        v[keep] for v in (live, nb, x, r, p, rz, best_res,
                                          best_x))
                    if not live.size:
                        break
            z = r / d
            rz_next = np.vecdot(r, z)
            p *= (rz_next / rz)[:, None]
            p += z
            rz = rz_next
        else:
            raise ConvergenceError(
                f"PCG did not reach {cfg.tolerance:g} in {max_iter} "
                f"iterations (best residual {best_res[0]:.3e})",
                best_x=best_x[0], residual=best_res[0], iterations=max_iter,
                column=int(live[0]) if b.ndim == 2 else None)
    worst = residuals.max(initial=0.0)
    logger.debug("pcg n=%d k=%d iterations=%s worst residual=%.3e",
                 n, k, iterations.tolist(), worst)
    return T.reshape(b.shape), it, worst


def transfer_matrix(A, B, cfg=PcgConfig()):
    """Dense T = A^-1 B from one block :func:`pcg_solve`.

    A :class:`ConvergenceError` carries the failing column as ``column``.
    """
    B = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=float)
    return pcg_solve(A, B, cfg)[0]
