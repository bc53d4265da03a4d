"""EEG and linearized EIT lead fields from the assembled CEM system.

Both modalities share the transfer matrix T = A^-1 B and the dense
electrode-level response M = C - B' T, which is positive definite and is
Cholesky-factored once per system by :func:`electrode_response`.  The EEG
lead field is

    L = -R M^-1 (T' G)

(equivalent to R (B' A^-1 B - C)^-1 B' A^-1 G), and the nonlinear EIT
forward map is y = R M^-1 I.  Differentiating the forward map around the
background conductivity gives one lead-field column per conductivity DOF,

    dy/ds_m = -R M^-1 T' K_m u,   u = A^-1 B M^-1 I,

where K_m is the unit-conductivity volume stiffness restricted to the
DOF's elements with the grounded row and column zeroed (those entries are
pinned and do not vary with sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import CurrentPatternError, DofError, SingularSystemError
from .fem import stiffness_blocks
from .geometry import nearest_center
from .io import sha256_array
from .solver import PcgConfig, transfer_matrix


@dataclass(frozen=True)
class LeadField:
    """Dense measurement-per-DOF matrix with its DOF geometry.

    EEG: volts per unit dipole moment (A m), one column per source
    component.  EIT: volts per unit conductivity change (S/m), rows are
    the electrode voltages stacked over current patterns, and the
    background data and the sha256 of the background conductivity
    (:func:`headfem.io.sha256_array`) ride along.  ``matrix`` is C-ordered
    as built and as read back by :func:`headfem.io.parse_leadfield`.
    """

    matrix: np.ndarray
    positions: np.ndarray
    orientations: np.ndarray | None
    modality: str
    n_patterns: int = 1
    background_sigma_sha256: str | None = None
    background_data: np.ndarray | None = None

    @property
    def n_electrodes(self):
        return self.matrix.shape[0] // self.n_patterns


@dataclass(frozen=True)
class EitDofMap:
    """Conductivity degrees of freedom: disjoint element sets with centers.

    The element sets partition the perturbable region; a DOF value is a
    uniform conductivity offset on its support.
    """

    element_sets: tuple
    centers: np.ndarray

    def __post_init__(self):
        for k, es in enumerate(self.element_sets):
            if len(es) == 0:
                raise DofError(f"DOF {k} has an empty element set")

    @property
    def n_dofs(self):
        return len(self.element_sets)


def build_dof_map(mesh, compartments, n_dofs, seed=0):
    """Partition the perturbable elements into ``n_dofs`` nearest-center sets.

    Centers are drawn volume-weighted without replacement from the element
    centroids of the given compartments, so every center claims at least
    its own element and no DOF comes out empty.
    """
    cand = np.flatnonzero(np.isin(mesh.labels, np.asarray(compartments)))
    if cand.size == 0:
        raise DofError("no mesh elements in the perturbable compartments")
    n_dofs = int(n_dofs)
    if not (1 <= n_dofs <= cand.size):
        raise DofError(f"need 1 <= n_dofs <= {cand.size}, got {n_dofs}")
    rng = np.random.default_rng(seed)
    vols = mesh.volumes[cand]
    chosen = rng.choice(cand, size=n_dofs, replace=False, p=vols / vols.sum())
    centroids = mesh.centroids()
    centers = centroids[chosen]
    owner, _ = nearest_center(centroids[cand], centers)
    # One stable sort by owner keeps each set in ascending element order.
    sizes = np.bincount(owner, minlength=n_dofs)
    sets = tuple(np.split(cand[np.argsort(owner, kind="stable")],
                          np.cumsum(sizes)[:-1]))
    return EitDofMap(element_sets=sets, centers=centers)


@dataclass(frozen=True)
class ElectrodeResponse:
    """Transfer matrix T = A^-1 B, the symmetric response M = C - B' T and
    the Cholesky factor of M; ``solve(rhs)`` returns M^-1 rhs."""

    T: np.ndarray
    M: np.ndarray
    factor: tuple

    def solve(self, rhs):
        return sla.cho_solve(self.factor, rhs)


def electrode_response(sys, cfg=PcgConfig()):
    """Factored electrode response of the system.

    M is the Schur complement of the SPD CEM block matrix, so it is
    positive definite; a failed Cholesky factorization raises
    :class:`SingularSystemError`.
    """
    T = transfer_matrix(sys.A, sys.B, cfg)
    M = sys.C.toarray() - sys.B.T @ T
    M = 0.5 * (M + M.T)  # exact symmetry; B' A^-1 B is symmetric up to solver tolerance
    try:
        factor = sla.cho_factor(M)
    except (ValueError, sla.LinAlgError) as exc:
        raise SingularSystemError(
            f"electrode response M is not positive definite: {exc}")
    return ElectrodeResponse(T=T, M=M, factor=factor)


def _zero_mean(X):
    """R X for R = I - 11'/L: X less its column means, without a BLAS
    product, whose rounding would follow the thread count."""
    return X - X.mean(axis=0)


def eeg_leadfield(sys, cfg=PcgConfig()):
    """EEG lead field L = -R M^-1 (T' G); columns are zero-mean by
    construction of R."""
    if sys.G is None or sys.G.shape[1] == 0:
        raise SingularSystemError("system has no source matrix G")
    resp = electrode_response(sys, cfg)
    TtG = np.asarray(sys.G.T @ resp.T).T
    L = -_zero_mean(np.ascontiguousarray(resp.solve(TtG)))
    src = sys.source_space
    return LeadField(matrix=L,
                     positions=src.positions if src is not None else None,
                     orientations=src.orientations if src is not None else None,
                     modality="eeg")


def check_current_patterns(currents, n_electrodes):
    """Validate zero-sum injection patterns, shape (L,) or (L, P)."""
    I = np.asarray(currents, dtype=float)
    if I.ndim == 1:
        I = I[:, None]
    if I.shape[0] != n_electrodes:
        raise CurrentPatternError(
            f"pattern length {I.shape[0]} != electrode count {n_electrodes}")
    # An all-zero pattern passes (0 > 0 is False); every other is checked.
    bad = np.abs(I.sum(axis=0)) > 1e-12 * np.linalg.norm(I, axis=0)
    if np.any(bad):
        raise CurrentPatternError(
            f"current pattern(s) {np.flatnonzero(bad).tolist()} do not sum to zero")
    return I


def adjacent_pair_patterns(n_electrodes, amplitude=1.0):
    """Default injection protocol: pattern k puts +amplitude on electrode k
    and -amplitude on electrode k+1 (L-1 patterns)."""
    I = np.zeros((n_electrodes, n_electrodes - 1))
    k = np.arange(n_electrodes - 1)
    I[k, k] = amplitude
    I[k + 1, k] = -amplitude
    return I


def eit_forward(sys, currents, cfg=PcgConfig()):
    """Electrode voltages y = R M^-1 I for zero-sum current patterns: a
    length-L vector for one pattern, an (L, P) array for several."""
    I = check_current_patterns(currents, sys.n_electrodes)
    y = _zero_mean(electrode_response(sys, cfg).solve(I))
    return y[:, 0] if np.asarray(currents).ndim == 1 else y


def _dof_sensitivities(sys, dofs, U, T):
    """Per-DOF electrode sensitivities q_{m,p} = T' K_m u_p for all patterns.

    The element-local products K_e u_p of all DOF elements are summed by
    ``np.bincount`` into a sparse DOF x node matrix W_p, whose pattern (the
    nodes of each DOF's elements) is built once per call, and
    Q_p = W_p T.
    """
    mesh, n = sys.mesh, sys.mesh.n_nodes
    all_elems = np.concatenate([np.asarray(e) for e in dofs.element_sets])
    owner = np.repeat(np.arange(dofs.n_dofs),
                      [len(e) for e in dofs.element_sets])
    blocks = stiffness_blocks(mesh, sigma=1.0, elements=all_elems)  # (E,4,4)
    conn = mesh.tetra[all_elems]                                    # (E,4)
    # Grounding rows/columns are sigma-independent; zero their derivative.
    gmask = conn == sys.ground
    blocks[gmask] = 0.0
    blocks.transpose(0, 2, 1)[gmask] = 0.0

    keys, inv = np.unique((owner[:, None] * n + conn).ravel(),
                          return_inverse=True)
    indptr = np.zeros(dofs.n_dofs + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=dofs.n_dofs), out=indptr[1:])
    W = sp.csr_matrix((np.zeros(len(keys)), keys % n, indptr),
                      shape=(dofs.n_dofs, n))
    P = U.shape[1]
    Q = np.empty((P, dofs.n_dofs, T.shape[1]))
    for p in range(P):
        s = np.einsum("eij,ej->ei", blocks, U[conn, p])             # K_e u_p
        W.data = np.bincount(inv, weights=s.ravel(), minlength=len(keys))
        Q[p] = W @ T
    return Q


def eit_leadfield(sys, dofs, currents, cfg=PcgConfig()):
    """Linearized EIT lead field around the mesh conductivity.

    Column m stacks dy/ds_m over all current patterns; the background data
    y_bg (same stacking) and the sha256 of the conductivity are stored on
    the result.  Solves: one per electrode for T; the background fields
    u_p = A^-1 B M^-1 I_p = T M^-1 I_p need none.
    """
    I = check_current_patterns(currents, sys.n_electrodes)
    resp = electrode_response(sys, cfg)
    V = resp.solve(I)                            # M^-1 I, (L, P)
    y_bg = _zero_mean(V)
    U = resp.T @ V                               # (n, P)

    P = I.shape[1]
    Q = _dof_sensitivities(sys, dofs, U, resp.T)  # (P, m, L)
    cols = np.empty((P * sys.n_electrodes, dofs.n_dofs))
    for p in range(P):
        cols[p * sys.n_electrodes:(p + 1) * sys.n_electrodes, :] = \
            -_zero_mean(resp.solve(Q[p].T))
    return LeadField(matrix=cols, positions=dofs.centers, orientations=None,
                     modality="eit", n_patterns=P,
                     background_sigma_sha256=sha256_array(sys.mesh.sigma),
                     background_data=y_bg.T.ravel())
