"""Hierarchical-Bayesian MAP estimation by iterative alternating updates.

The unknown x and its per-DOF prior variances theta maximize the posterior
alternately: with theta fixed, the conditionally Gaussian problem has the
closed-form minimizer

    x = D^(1/2) L_s' (L_s L_s' + nu^2 I)^-1 y,   L_s = L D^(1/2),

with D = diag(theta).  By the push-through identity the same x is
D^(1/2) (L_s' L_s + nu^2 I)^-1 L_s' y, so each step factors whichever of
the two dense symmetric systems is smaller: measurements by measurements
for the full problem, unknowns by unknowns for a coarse multiresolution
problem with fewer subsets than measurements.  With x fixed, theta
follows the gamma or inverse-gamma hyperprior update.  A multiresolution
variant repeats the iteration on randomized coarse partitions of the DOFs
and averages the re-expanded estimates, which suppresses partition
artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import (
    DecompositionError,
    NumericalError,
    ParameterError,
    RoiError,
    UndefinedMetricError,
)
from .geometry import as_points, distance_table, nearest_center


@dataclass(frozen=True)
class HyperModel:
    """Gamma ('G') or inverse-gamma ('IG') hyperprior with shape ``beta``
    and scale ``theta0``.

    The updates use eta = beta - 3/2 (G) and kappa = beta + 3/2 (IG); the
    gamma update needs eta >= 0 to stay nonnegative.
    """

    family: str
    beta: float = 1.5
    theta0: float = 1e-5

    def __post_init__(self):
        fam = self.family.upper()
        object.__setattr__(self, "family", fam)
        if fam not in ("G", "IG"):
            raise ParameterError(f"hypermodel family must be G or IG, got {fam}")
        if not 0 < self.theta0 < np.inf:
            raise ParameterError("theta0 must be positive")
        if fam == "G" and not 1.5 <= self.beta < np.inf:
            raise ParameterError("gamma hypermodel requires beta >= 3/2")
        if fam == "IG" and not 0 < self.beta < np.inf:
            raise ParameterError("inverse-gamma hypermodel requires beta > 0")

    @property
    def eta(self):
        return self.beta - 1.5

    @property
    def kappa(self):
        return self.beta + 1.5

    def update_theta(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "G":
            return 0.5 * self.theta0 * (
                self.eta + np.sqrt(self.eta**2 + 2.0 * x**2 / self.theta0))
        return (self.theta0 + 0.5 * x**2) / self.kappa


@dataclass(frozen=True)
class IasState:
    """One step of the alternating iteration: estimate, hyperparameters,
    likelihood standard deviation and the step counter."""

    x: np.ndarray
    theta: np.ndarray
    nu: float
    k: int = 0

    def __post_init__(self):
        if not 0 < self.nu < np.inf:
            raise ParameterError("likelihood standard deviation nu must be > 0")
        theta = np.asarray(self.theta)
        if not (np.isfinite(theta).all() and np.all(theta >= 0)):
            raise ParameterError("theta must be entrywise finite and >= 0")


def initial_state(n_dofs, hyper, nu):
    return IasState(x=np.zeros(n_dofs),
                    theta=np.full(n_dofs, float(hyper.theta0)), nu=float(nu))


def ias_step(L, y, state, hyper):
    """One alternating update: x from the current theta, then theta from x.

    The x update factors the smaller of two equal symmetric systems.  With
    as many unknowns as measurements or more it solves the measurement
    system (L_s L_s' + nu^2 I) w = y and maps back with x = D^(1/2) L_s' w;
    with fewer unknowns (a coarse multiresolution problem) it solves the
    parameter system (L_s' L_s + nu^2 I) z = L_s' y and sets
    x = D^(1/2) z.  Both give the same x by the push-through identity
    L_s' (L_s L_s' + nu^2 I)^-1 = (L_s' L_s + nu^2 I)^-1 L_s'.  The
    nonzero eigenvalues of L_s L_s' and L_s' L_s agree and the rest are
    zero, so the smaller system is never worse conditioned than the larger.
    A zero theta_j (the gamma update at beta = 3/2 for x_j = 0) drops DOF
    j from L_s, and x_j stays 0.
    """
    L = np.asarray(L, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if L.shape[0] != y.size or L.shape[1] != state.x.size:
        raise ParameterError(
            f"shape mismatch: L {L.shape}, y {y.size}, x {state.x.size}")
    d_half = np.sqrt(np.abs(state.theta))
    Ls = L * d_half[None, :]
    measurement = L.shape[0] <= L.shape[1]
    K = Ls @ Ls.T if measurement else Ls.T @ Ls
    K.flat[::len(K) + 1] += state.nu**2
    rhs = y if measurement else Ls.T @ y
    # The checks and the upper Cholesky factor of cho_factor / cho_solve.
    if not (np.isfinite(K).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    c, info = lapack.dpotrf(K, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        space = "measurement" if measurement else "parameter"
        raise NumericalError(f"{space}-space solve failed: {info}-th leading "
                             "minor of the array is not positive definite")
    w, _ = lapack.dpotrs(c, rhs, lower=0)
    x = d_half * (Ls.T @ w if measurement else w)
    theta = hyper.update_theta(x)
    return replace(state, x=x, theta=theta, k=state.k + 1)


def ias_map(L, y, hyper, nu, n_iter, roi=None):
    """MAP estimate after ``n_iter`` alternating steps from theta = theta0.

    ``roi`` restricts the estimation to a DOF subset: the lead-field
    columns outside it are dropped and the result is embedded back at the
    ROI indices with zeros elsewhere.
    """
    if n_iter < 1:
        raise ParameterError("n_iter must be >= 1")
    L = np.asarray(L, dtype=float)
    Lr = L
    if roi is not None:
        roi = np.asarray(roi, dtype=np.int64)
        if roi.size == 0:
            raise RoiError("region of interest contains no DOFs")
        Lr = L[:, roi]
    state = initial_state(Lr.shape[1], hyper, nu)
    for _ in range(int(n_iter)):
        state = ias_step(Lr, y, state, hyper)
    if roi is None:
        return state.x
    x = np.zeros(L.shape[1])
    x[roi] = state.x
    return x


# ---------------------------------------------------------------------------
# randomized multiresolution decompositions

def make_decomposition(positions, n_subsets, rng):
    """Subset index of every DOF in a random nearest-center partition whose
    centers are drawn uniformly from the (n, 3) DOF positions (without
    replacement).

    Anchoring centers at DOF positions keeps each subset non-empty (a
    center always claims its own DOF); ``n_subsets`` equal to the DOF count
    therefore yields the identity decomposition.  Should an empty subset
    still occur, its center is re-drawn up to 50 times.
    """
    positions = as_points(positions, "DOF positions")
    return _draw_partition(
        len(positions), n_subsets, rng,
        lambda idx: nearest_center(positions, positions[idx])[0])


def _draw_partition(n, n_subsets, rng, nearest):
    """``make_decomposition`` of ``n`` DOFs with ``nearest(idx)``, the
    nearest of the DOFs ``idx`` to every DOF, as its nearest-center
    search."""
    if not (1 <= n_subsets <= n):
        raise DecompositionError(
            f"need 1 <= n_subsets <= {n}, got {n_subsets}")
    idx = rng.choice(n, size=n_subsets, replace=False)
    for _ in range(50):
        assignment = nearest(idx)
        empty = np.flatnonzero(np.bincount(assignment, minlength=n_subsets) == 0)
        if empty.size == 0:
            return assignment
        idx[empty] = rng.choice(n, size=empty.size, replace=False)
    raise DecompositionError("empty subset persisted after re-sampling")


def _partitions(positions, n_subsets, n_decompositions, m, rng):
    """``n_decompositions`` successive ``make_decomposition`` draws, as rows.

    When the DOF-DOF distance table holds no more pairs than the partitions
    would scan (n <= n_subsets * n_decompositions) and no more entries than
    the stacked coarse lead fields of ``m`` rows (n^2 <= n_decompositions *
    n_subsets * m), it is built once and each search gathers the centers'
    rows into one buffer and takes the lowest index of each column's
    minimum: ``nearest_center``'s answer, bit for bit.  The table is freed
    on return, before the caller allocates the coarse lead fields.
    """
    n = len(positions)
    pairs = n_subsets * n_decompositions
    if n <= pairs and n * n <= pairs * m:
        table = distance_table(positions)
        buf = np.empty((n_subsets, n))

        def draw():
            return _draw_partition(n, n_subsets, rng, lambda idx: np.take(
                table, idx, axis=0, out=buf, mode="clip").argmin(axis=0))
    else:
        def draw():
            return make_decomposition(positions, n_subsets, rng)
    return np.array([draw() for _ in range(int(n_decompositions))])


def multires_ias(L, y, positions, hyper, nu, n_iter, n_subsets,
                 n_decompositions, seed=0):
    """Serial multiresolution MAP estimation with averaging.

    For each of ``n_decompositions`` randomized partitions the lead-field
    columns of every subset are summed into one coarse column, ``n_iter``
    IAS steps run on the coarse problem from theta = theta0, and the
    coarse estimate is copied back to every member DOF.  The
    reconstruction is the mean of the expanded estimates.  The partitions
    are ``make_decomposition``'s, drawn from one DOF distance table where
    that is smaller than their scans (``_partitions``).  One product with
    the stacked one-hot matrices of all partitions sums every coarse column
    in increasing DOF order, bit for bit as one partition at a time.
    """
    L = np.asarray(L, dtype=float)
    positions = as_points(positions, "DOF positions")
    if L.shape[1] != len(positions):
        raise ParameterError("one position per lead-field column required "
                             "(constrained EEG or EIT lead fields)")
    if n_iter < 1 or n_decompositions < 1:
        raise ParameterError("n_iter and n_decompositions must be >= 1")
    n = L.shape[1]
    parts = _partitions(positions, n_subsets, n_decompositions, L.shape[0],
                        np.random.default_rng(seed))
    # Row d * n_subsets + s of the one-hot matrix sums subset s of partition d.
    coarse = sp.csr_matrix((np.ones(parts.size), (
        (parts + n_subsets * np.arange(len(parts))[:, None]).ravel(),
        np.tile(np.arange(n), len(parts))))) @ L.T
    total = np.zeros(n)
    for d, a in enumerate(parts):
        Lr = np.ascontiguousarray(coarse[d * n_subsets:(d + 1) * n_subsets].T)
        state = initial_state(n_subsets, hyper, nu)
        for _ in range(int(n_iter)):
            state = ias_step(Lr, y, state, hyper)
        total += state.x[a]
    return total / n_decompositions


# ---------------------------------------------------------------------------
# scaling and metrics

def normalize_problem(L, y):
    """Rescale (L, y) to the dimensionless form used by the inversion
    drivers: columns relative to the strongest column norm, data relative
    to its largest magnitude.

    Returns (L_hat, y_hat, x_scale): multiply a reconstruction obtained
    from the scaled problem by ``x_scale`` to recover physical amplitudes.
    """
    L = np.asarray(L, dtype=float)
    y = np.asarray(y, dtype=float)
    s_l = np.linalg.norm(L, axis=0).max()
    s_y = np.abs(y).max()
    if s_l == 0 or s_y == 0:
        return L, y, 1.0
    return L / s_l, y / s_y, s_y / s_l


def center_of_mass(amplitudes, positions):
    """Amplitude-weighted center of mass of nonnegative per-DOF amplitudes.

    Raises :class:`UndefinedMetricError` when every amplitude is zero.
    """
    w = np.asarray(amplitudes, dtype=float)
    if w.sum() == 0:
        raise UndefinedMetricError("all-zero reconstruction amplitudes")
    return (w[:, None] * positions).sum(axis=0) / w.sum()


def orientation_error_deg(vector, reference):
    """Angle in degrees between a reconstructed orientation vector and the
    reference orientation.

    Raises :class:`UndefinedMetricError` when either vector is zero.
    """
    denom = np.linalg.norm(vector) * np.linalg.norm(reference)
    if denom == 0:
        raise UndefinedMetricError("orientation undefined for zero vectors")
    cosang = np.clip(vector @ reference / denom, -1.0, 1.0)
    return float(np.degrees(np.arccos(cosang)))


def roi_metrics(x, positions, roi_center, roi_radius, true_position,
                true_orientation=None, orientations=None):
    """Position (mm) and orientation (degrees) error of the amplitude
    weighted center of mass of the DOFs within ``roi_radius`` of
    ``roi_center`` (an inclusive ball).

    ``x`` carries 1 or 3 components per position.  The amplitude is |x|
    for 1 component and the norm of the component vector for 3; the
    orientation vector is ``x * orientations`` for 1 component and the
    component vector for 3.  The angle is None without a
    ``true_orientation``, or for 1 component without ``orientations``.

    Raises :class:`RoiError` when the ball holds no DOF and
    :class:`UndefinedMetricError` when every amplitude in it, or the sum
    of its orientation vectors, is zero.
    """
    positions = np.asarray(positions, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    comp = x.size // max(len(positions), 1)
    if comp not in (1, 3) or x.size != comp * len(positions):
        raise ParameterError("expected 1 or 3 components per position")
    if comp == 3:
        vec = x.reshape(-1, 3)
        amp = np.linalg.norm(vec, axis=1)
    else:
        vec = None if orientations is None else (
            x[:, None] * np.asarray(orientations, dtype=float))
        amp = np.abs(x)

    center = np.asarray(roi_center, dtype=float)
    in_roi = np.linalg.norm(positions - center[None, :], axis=1) <= roi_radius
    if not in_roi.any():
        raise RoiError("ROI contains no source DOFs")
    com = center_of_mass(amp[in_roi], positions[in_roi])
    pos_err_mm = 1e3 * float(np.linalg.norm(
        com - np.asarray(true_position, dtype=float)))
    if true_orientation is None or vec is None:
        return pos_err_mm, None
    return pos_err_mm, orientation_error_deg(
        vec[in_roi].sum(axis=0), np.asarray(true_orientation, dtype=float))
