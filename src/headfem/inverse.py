"""Hierarchical-Bayesian MAP estimation by iterative alternating updates.

The unknown x and its per-DOF prior variances theta maximize the posterior
alternately: with theta fixed, the conditionally Gaussian problem has the
closed-form minimizer

    x = D^(1/2) L_s' (L_s L_s' + nu^2 I)^-1 y,   L_s = L D^(1/2),

with D = diag(theta), a dense symmetric solve whose size is the number of
measurements; with x fixed, theta follows the gamma or inverse-gamma
hyperprior update.  A multiresolution variant repeats the iteration on
randomized coarse partitions of the DOFs and averages the re-expanded
estimates, which suppresses partition artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    DecompositionError,
    NumericalError,
    ParameterError,
    RoiError,
    UndefinedMetricError,
)
from .geometry import nearest_center


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
        if self.theta0 <= 0:
            raise ParameterError("theta0 must be positive")
        if fam == "G" and self.beta < 1.5:
            raise ParameterError("gamma hypermodel requires beta >= 3/2")
        if fam == "IG" and self.beta <= 0:
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
        if self.nu <= 0:
            raise ParameterError("likelihood standard deviation nu must be > 0")
        if np.any(np.asarray(self.theta) <= 0):
            raise ParameterError("theta must be entrywise positive")


def initial_state(n_dofs, hyper, nu):
    return IasState(x=np.zeros(n_dofs),
                    theta=np.full(n_dofs, float(hyper.theta0)), nu=float(nu))


def ias_step(L, y, state, hyper):
    """One alternating update: x from the current theta, then theta from x.

    The x update solves the measurement-sized symmetric system
    (L_s L_s' + nu^2 I) w = y and maps back with x = D^(1/2) L_s' w.
    """
    L = np.asarray(L, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if L.shape[0] != y.size or L.shape[1] != state.x.size:
        raise ParameterError(
            f"shape mismatch: L {L.shape}, y {y.size}, x {state.x.size}")
    d_half = np.sqrt(np.abs(state.theta))
    Ls = L * d_half[None, :]
    K = Ls @ Ls.T
    K[np.diag_indices_from(K)] += state.nu**2
    try:
        c, low = sla.cho_factor(K)
        w = sla.cho_solve((c, low), y)
    except sla.LinAlgError as exc:
        raise NumericalError(f"measurement-space solve failed: {exc}")
    x = d_half * (Ls.T @ w)
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

def make_decomposition(positions, n_subsets, rng, max_retries=50):
    """Subset index of every DOF in a random nearest-center partition whose
    centers are drawn uniformly from the DOF positions (without replacement).

    Anchoring centers at DOF positions keeps each subset non-empty (a
    center always claims its own DOF); ``n_subsets`` equal to the DOF count
    therefore yields the identity decomposition.  Should an empty subset
    still occur, its center is re-drawn a bounded number of times.
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if not (1 <= n_subsets <= n):
        raise DecompositionError(
            f"need 1 <= n_subsets <= {n}, got {n_subsets}")
    centers = positions[rng.choice(n, size=n_subsets, replace=False)]
    for _ in range(max_retries):
        assignment, _ = nearest_center(positions, centers)
        empty = np.flatnonzero(np.bincount(assignment, minlength=n_subsets) == 0)
        if empty.size == 0:
            return assignment
        centers[empty] = positions[rng.choice(n, size=empty.size, replace=False)]
    raise DecompositionError("empty subset persisted after re-sampling")


def multires_ias(L, y, positions, hyper, nu, n_iter, n_subsets,
                 n_decompositions, seed=0):
    """Serial multiresolution MAP estimation with averaging.

    For each of ``n_decompositions`` randomized partitions the lead-field
    columns of every subset are summed into one coarse column, ``n_iter``
    IAS steps run on the coarse problem from theta = theta0, and the
    coarse estimate is copied back to every member DOF.  The
    reconstruction is the mean of the expanded estimates.
    """
    L = np.asarray(L, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if L.shape[1] != len(positions):
        raise ParameterError("one position per lead-field column required")
    rng = np.random.default_rng(seed)
    n = L.shape[1]
    total = np.zeros(n)
    for _ in range(int(n_decompositions)):
        a = make_decomposition(positions, n_subsets, rng)
        # Row s of the one-hot matrix sums the columns of subset s.
        onehot = sp.csr_matrix((np.ones(n), (a, np.arange(n))))
        Lr = np.ascontiguousarray((onehot @ L.T).T)
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
