"""Iterative linear algebra: PCG with a lumped diagonal preconditioner.

The lumped diagonal preconditioner (LDP) takes each diagonal entry as the
row sum of the absolute matrix entries; applying it is a componentwise
division, which keeps the solver memory-light.  The transfer matrix
T = A^-1 B is computed column by column.
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


def pcg_solve(A, b, cfg=PcgConfig()):
    """Preconditioned conjugate gradients for SPD systems.

    Returns ``(x, iterations, relative_residual)`` with
    ``||A x - b|| <= tolerance * ||b||``.  Raises
    :class:`ConvergenceError` (carrying the best iterate) when the
    iteration budget is exhausted.
    """
    b = np.asarray(b, dtype=float).ravel()
    n = len(b)
    norm_b = np.linalg.norm(b)
    if norm_b == 0:
        return np.zeros(n), 0, 0.0
    d = ldp(A)
    max_iter = cfg.resolve_max_iterations(n)

    x = np.zeros(n)
    r = b.copy()
    z = r / d
    p = z.copy()
    rz = r @ z
    best = (1.0, x.copy(), 0)
    for k in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r) / norm_b
        if res < best[0]:
            best = (res, x.copy(), k)
        if res <= cfg.tolerance:
            # Recurrence residuals drift; confirm with the true residual.
            true_res = np.linalg.norm(b - A @ x) / norm_b
            if true_res <= cfg.tolerance:
                logger.debug("pcg converged n=%d iterations=%d residual=%.3e",
                             n, k, true_res)
                return x, k, true_res
            r = b - A @ x
            res = true_res
        z = r / d
        rz_next = r @ z
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p
    raise ConvergenceError(
        f"PCG did not reach {cfg.tolerance:g} in {max_iter} iterations "
        f"(best residual {best[0]:.3e})",
        best_x=best[1], residual=best[0], iterations=max_iter)


def transfer_matrix(A, B, cfg=PcgConfig()):
    """Dense T with column l solving A t = B[:, l] by PCG.

    A :class:`ConvergenceError` carries the failing column as ``column``.
    """
    B = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=float)
    T = np.empty(B.shape)
    for l in range(B.shape[1]):
        try:
            T[:, l], _, _ = pcg_solve(A, B[:, l], cfg)
        except ConvergenceError as exc:
            exc.column = l
            raise
    return T
