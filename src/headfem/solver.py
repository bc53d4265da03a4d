"""Iterative linear algebra: PCG with a lumped diagonal preconditioner.

The lumped diagonal preconditioner (LDP) takes each diagonal entry as the
row sum of the absolute matrix entries; applying it is a componentwise
division, which keeps the solver memory-light.  The transfer matrix
T = A^-1 B comes from block solves, one group of columns per usable core,
each group in its own thread: a group's columns advance together in four
row buffers allocated once per call, with one product through scipy's
public CSR ``A @ X`` per iteration, and every column is bit-equal to its
own solve.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
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
        if not 0 < self.tolerance < np.inf:
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


def _usable_cores():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity mask on this platform
        return os.cpu_count() or 1


def _pcg_group(A, d, cols, live, bufs, out, tolerance, max_iter):
    """Block LDP-PCG for the columns ``live`` of ``cols`` in the caller's
    (m, n) row buffers ``bufs`` = (R, X, P, W), R holding the right-hand
    sides.  Every iteration updates them in place, with one product
    ``A @ P.T``.  Writes each converged column into ``out`` = (T,
    iterations, residuals) and moves the remaining rows to the front.
    Returns ``(block iterations, failure)``, where failure is None or, for
    the first column still iterating after ``max_iter``, ``(column,
    iteration of its best residual, best residual)``.
    """
    R, X, P, W = bufs
    T, iterations, residuals = out
    m = len(R)
    nb = np.sqrt(np.vecdot(R, R))
    X.fill(0.0)
    np.divide(R, d, out=W)
    np.copyto(P, W)
    rz = np.vecdot(R, W)
    best_res, best_it = np.ones(m), np.zeros(m, dtype=int)
    for it in range(1, max_iter + 1):
        r, x, p, w = R[:m], X[:m], P[:m], W[:m]
        np.copyto(w, (A @ p.T).T)
        alpha = (rz / np.vecdot(p, w))[:, None]
        x += alpha * p
        w *= alpha
        r -= w
        res = np.sqrt(np.vecdot(r, r)) / nb
        better = res < best_res
        best_res[better] = res[better]
        best_it[better] = it
        hit = np.flatnonzero(res <= tolerance)
        if hit.size:
            # Recurrence residuals drift; confirm with the true residual,
            # on C-ordered rows: vecdot's bits depend on the layout.
            r_true = np.ascontiguousarray(
                (cols[:, live[hit]] - A @ x[hit].T).T)
            res_true = np.sqrt(np.vecdot(r_true, r_true)) / nb[hit]
            ok = res_true <= tolerance
            r[hit[~ok]] = r_true[~ok]
            if ok.any():
                done = live[hit[ok]]
                T[:, done] = x[hit[ok]].T
                iterations[done] = it
                residuals[done] = res_true[ok]
                kept = np.delete(np.arange(m), hit[ok])
                for v in (r, x, p):
                    v[:kept.size] = v[kept]
                live, nb, rz, best_res, best_it = (
                    v[kept] for v in (live, nb, rz, best_res, best_it))
                m = kept.size
                if not m:
                    return it, None
                r, p, w = R[:m], P[:m], W[:m]
        np.divide(r, d, out=w)              # z
        rz_next = np.vecdot(r, w)
        p *= (rz_next / rz)[:, None]
        p += w
        rz = rz_next
    return max_iter, (int(live[0]), int(best_it[0]), best_res[0])


def pcg_solve(A, b, cfg=PcgConfig()):
    """Preconditioned conjugate gradients for SPD systems.

    ``A`` is sparse; ``b`` has shape (n,) or (n, k).  Returns ``(x,
    iterations, relative_residual)`` with x shaped like b and
    ``||A x_l - b_l|| <= tolerance * ||b_l||`` for every column l.  The
    nonzero columns split into one group per usable core (interleaved);
    the first group runs on the calling thread, each other one on a worker
    thread.  Within a group the columns advance together, one product with
    A per iteration, each with its own step lengths, and leave once
    converged.  Every column's iterates are bit-equal to those of a solve
    of that column alone, so the grouping changes no bit of the result.
    ``iterations`` counts the block iterations of the slowest group and
    ``relative_residual`` is the worst column's true residual; the
    per-column counts go to a DEBUG record.  Raises
    :class:`ConvergenceError` (carrying the best iterate) when the
    iteration budget is exhausted; for 2-D ``b``, ``column`` names the
    first column that did not converge.
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    cols = b.reshape(n, -1)
    rows = np.ascontiguousarray(cols.T)     # (k, n): every column a row
    norm_b = np.sqrt(np.vecdot(rows, rows))
    k = len(rows)
    T = np.zeros((n, k))
    iterations = np.zeros(k, dtype=int)
    residuals = np.zeros(k)
    live = np.flatnonzero(norm_b)           # zero columns stay zero
    it = 0
    if live.size:
        A = sp.csr_array(A, dtype=float)
        d = ldp(A)
        max_iter = cfg.resolve_max_iterations(n)
        n_groups = min(_usable_cores(), live.size)
        groups = [live[g::n_groups] for g in range(n_groups)]
        bounds = np.cumsum([0] + [g.size for g in groups])
        R = rows[np.concatenate(groups)]    # group by group
        del rows
        bufs = (R, *(np.empty_like(R) for _ in range(3)))
        out = (T, iterations, residuals)

        def solve(g):
            lo, hi = bounds[g], bounds[g + 1]
            return _pcg_group(A, d, cols, groups[g],
                              [v[lo:hi] for v in bufs], out,
                              cfg.tolerance, max_iter)

        # An executor starts threads on submit: one group starts none.
        with ThreadPoolExecutor(max(1, n_groups - 1)) as pool:
            futures = [pool.submit(solve, g) for g in range(1, n_groups)]
            outcomes = [solve(0)] + [f.result() for f in futures]
        it = max(o[0] for o in outcomes)
        failures = [o[1] for o in outcomes if o[1] is not None]
        if failures:
            column, best_it, best_res = min(failures)
            raise ConvergenceError(
                f"PCG did not reach {cfg.tolerance:g} in {max_iter} "
                f"iterations (best residual {best_res:.3e})",
                best_x=_replay(A, d, cols, column, best_it, cfg.tolerance),
                residual=best_res, iterations=max_iter,
                column=column if b.ndim == 2 else None)
    worst = residuals.max(initial=0.0)
    logger.debug("pcg n=%d k=%d iterations=%s worst residual=%.3e",
                 n, k, iterations.tolist(), worst)
    return T.reshape(b.shape), it, worst


def _replay(A, d, cols, column, n_iter, tolerance):
    """The iterate of ``column`` after ``n_iter`` iterations (the zero start
    for none), solved alone again: bit-equal to its iterate in any group."""
    bufs = np.zeros((4, 1, len(cols)))
    if n_iter:
        bufs[0, 0] = cols[:, column]
        _pcg_group(A, d, cols, np.array([column]), bufs, (None,) * 3,
                   tolerance, n_iter)
    return bufs[1, 0]


def transfer_matrix(A, B, cfg=PcgConfig()):
    """Dense T = A^-1 B from one block :func:`pcg_solve`.

    A :class:`ConvergenceError` carries the failing column as ``column``.
    """
    B = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=float)
    return pcg_solve(A, B, cfg)[0]
