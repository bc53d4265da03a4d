"""Iterative linear algebra: PCG with a lumped diagonal preconditioner.

The lumped diagonal preconditioner (LDP) takes each diagonal entry as the
row sum of the absolute matrix entries; applying it is a componentwise
division, which keeps the solver memory-light.  The transfer matrix
T = A^-1 B comes from block solves, one group of columns per usable core,
each group in its own thread: a group's columns advance together with one
sparse product per iteration in buffers allocated once per call, and every
column is bit-equal to its own solve.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# The kernel behind scipy's CSR ``A @ X``, called here to write into a
# caller-owned buffer; it is private, so a test pins it to ``A @ X``.
from scipy.sparse._sparsetools import csr_matvecs

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


def _rows_product(A, V, vt, avt, out):
    """``out`` = A v for every row v of the (h, n) array V, as rows (``out``
    may be V).  The product runs on C-ordered (n, h) copies in the flat
    scratch ``vt`` and ``avt`` (h n entries or more), through scipy's
    ``csr_matvecs``, whose columns are bit-equal to ``A @ v``."""
    h, n = V.shape
    vt, avt = vt[:h * n], avt[:h * n]
    np.copyto(vt.reshape(n, h), V.T)
    avt.fill(0.0)
    csr_matvecs(A.shape[0], A.shape[1], h, A.indptr, A.indices, A.data,
                vt, avt)
    np.copyto(out, avt.reshape(n, h).T)


def _pcg_group(A, d, cols, live, bufs, out, tolerance, max_iter):
    """Block LDP-PCG for the columns ``live`` of ``cols`` in the caller's
    buffers ``bufs`` = (R, X, P, W, PT, APT): (m, n) row arrays, R holding
    the right-hand sides, and two flat arrays of m n entries.  Every
    iteration updates them in place.  Writes each converged column into
    ``out`` = (T, iterations, residuals).  Returns ``(block iterations,
    failure)``, where failure is None or, for the first column still
    iterating after ``max_iter``, ``(column, iteration of its best
    residual, best residual)``.
    """
    R, X, P, W, PT, APT = bufs
    PT, APT = PT.ravel(), APT.ravel()
    T, iterations, residuals = out
    m, n = R.shape
    nb = np.sqrt(np.vecdot(R, R))
    X.fill(0.0)
    np.divide(R, d, out=W)
    np.copyto(P, W)
    rz = np.vecdot(R, W)
    best_res, best_it = np.ones(m), np.zeros(m, dtype=int)
    for it in range(1, max_iter + 1):
        r, x, p, w = R[:m], X[:m], P[:m], W[:m]
        _rows_product(A, p, PT, APT, out=w)
        alpha = (rz / np.vecdot(p, w))[:, None]
        step = APT[:m * n].reshape(m, n)    # free once A p is in w
        np.multiply(alpha, p, out=step)
        x += step
        w *= alpha
        r -= w
        res = np.sqrt(np.vecdot(r, r)) / nb
        better = res < best_res
        best_res[better] = res[better]
        best_it[better] = it
        hit = np.flatnonzero(res <= tolerance)
        if hit.size:
            # Recurrence residuals drift; confirm with the true residual.
            h = hit.size
            r_true = w[:h]                  # free until z is formed
            np.take(x, hit, axis=0, out=r_true, mode="clip")
            _rows_product(A, r_true, PT, APT, out=r_true)
            b_hit = PT[:h * n].reshape(n, h)
            np.take(cols, live[hit], axis=1, out=b_hit, mode="clip")
            np.subtract(b_hit.T, r_true, out=r_true)
            res_true = np.sqrt(np.vecdot(r_true, r_true)) / nb[hit]
            ok = res_true <= tolerance
            for j, i in enumerate(hit):     # row by row: no (h, n) copies
                if ok[j]:
                    T[:, live[i]] = x[i]
                    iterations[live[i]] = it
                    residuals[live[i]] = res_true[j]
                else:
                    r[i] = r_true[j]
            if ok.any():
                keep = np.ones(m, dtype=bool)
                keep[hit[ok]] = False
                kept = np.flatnonzero(keep)
                for j, i in enumerate(kept):    # in order: row j <= row i
                    if i != j:
                        r[j], x[j], p[j] = r[i], x[i], p[i]
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
        bufs = (R, *(np.empty_like(R) for _ in range(5)))
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
    bufs = np.zeros((6, 1, len(cols)))
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
