"""Correctness checks for the benchmark workloads.

Every check derives its reference apart from the code under test: from the
analytic concentric-shell geometry, from a direct sparse LU solve, from the
closed-form lead-field formulas, or from a property the method must have.
None compares against a stored copy of earlier output.  Each check returns
``(ok, detail)``; the caller counts a failed check as a failed operation.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

# PCG stops at a relative residual of 1e-8; the error of the solution can be
# larger by the condition number of the grounded stiffness matrix, which is
# below 1e3 for these meshes in the norm that matters here.  1e-5 keeps two
# decades of margin and still catches any wrong column or lost term.
SOLVE_RTOL = 1e-5
# The zero-mean projector R is exact; what is left is rounding.
ZERO_MEAN_RTOL = 1e-10


def rel_error(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def icosphere_sag(nodes, triangles):
    """How far the faces of a centered sphere triangulation dip below its
    vertex radius (vertex radius minus the smallest face-plane distance)."""
    p = np.asarray(nodes)[np.asarray(triangles)]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    plane = np.abs(np.einsum("ij,ij->i", n, p[:, 0])) / np.linalg.norm(n, axis=1)
    return float(np.linalg.norm(nodes, axis=1).max() - plane.min())


def shell_labels(points, radii):
    """Analytic label of concentric shells: index of the innermost sphere
    containing the point, -1 outside."""
    r = np.linalg.norm(points, axis=1)
    labels = np.searchsorted(np.asarray(radii), r, side="left")
    return np.where(labels < len(radii), labels, -1)


def check_labels(nodes, tetra, labels, radii, h, sag):
    """Centroid labels agree with the analytic shell label for every element
    farther than h plus the triangulation sag from every shell.

    Every node of a Kuhn tetrahedron of cube edge h lies within 0.935 h of
    its centroid, so such an element has all its nodes in one compartment
    and no priority rule can relabel it.
    """
    centroids = np.asarray(nodes)[np.asarray(tetra)].mean(axis=1)
    r = np.linalg.norm(centroids, axis=1)
    gap = np.min(np.abs(r[:, None] - np.asarray(radii)[None, :]), axis=1)
    far = gap > h + sag
    if not far.any():
        return False, "no element lies away from the shells"
    wrong = np.count_nonzero(shell_labels(centroids[far], radii)
                             != np.asarray(labels)[far])
    return wrong == 0, (f"{np.count_nonzero(far)} interior elements, "
                        f"{wrong} disagree with the analytic shell label")


def direct_transfer(A, B):
    """T = A^-1 B by sparse LU."""
    return spla.splu(A.tocsc()).solve(B.toarray())


def check_close(name, value, reference, rtol=SOLVE_RTOL):
    err = rel_error(value, reference)
    return err <= rtol, f"{name}: relative error {err:.2e} (<= {rtol:g})"


def _unit_stiffness(nodes, conn):
    """Unit-conductivity P1 element stiffness blocks, shape (E, 4, 4)."""
    p = nodes[conn]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]],
                   axis=1)                              # rows are edges
    vol = np.abs(np.linalg.det(jac)) / 6.0
    inv = np.linalg.inv(jac)                            # columns: grad lambda_1..3
    grads = np.concatenate([-inv.sum(axis=2, keepdims=True), inv], axis=2)
    return vol[:, None, None] * np.einsum("eki,ekj->eij", grads, grads)


def eit_leadfield_from_transfer(T, A, B, C, R, ground, nodes, tetra,
                                element_sets, patterns):
    """Linearized EIT lead field and background data from a given T.

    Column m, pattern p: -R M^-1 T' K_m u_p with u_p = A^-1 B M^-1 I_p and
    K_m the unit-conductivity stiffness of the DOF's elements, its grounded
    row and column zeroed.
    """
    M = C.toarray() - B.T @ T
    M = 0.5 * (M + M.T)
    V = sla.solve(M, patterns)
    U = spla.splu(A.tocsc()).solve(np.asarray(B @ V))
    n_el, n_pat = patterns.shape
    cols = np.empty((n_pat * n_el, len(element_sets)))
    for m, elems in enumerate(element_sets):
        conn = tetra[elems]
        K = _unit_stiffness(nodes, conn)
        K[conn == ground, :] = 0.0
        K = K.transpose(0, 2, 1)
        K[conn == ground, :] = 0.0
        Ku = np.einsum("eij,ejp->eip", K, U[conn])          # (E, 4, P)
        q = np.einsum("eil,eip->lp", T[conn], Ku)           # (L, P)
        cols[:, m] = -(R @ sla.solve(M, q)).T.ravel()
    return cols, (R @ V).T.ravel()


def check_zero_mean(name, matrix, n_electrodes):
    """Every block of ``n_electrodes`` rows sums to zero in every column."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    blocks = m.reshape(-1, n_electrodes, m.shape[1])
    sums = np.abs(blocks.sum(axis=1))
    norms = np.maximum(np.linalg.norm(blocks, axis=1), 1e-300)
    worst = float((sums / norms).max())
    return worst <= ZERO_MEAN_RTOL, (f"{name}: worst electrode mean "
                                     f"{worst:.2e} (<= {ZERO_MEAN_RTOL:g})")


def amplitudes(x, n_positions):
    """Per-DOF amplitude: |x| for one value per DOF, the vector norm for
    three Cartesian components per DOF."""
    x = np.asarray(x, dtype=float)
    if x.size == n_positions:
        return np.abs(x)
    return np.linalg.norm(x.reshape(n_positions, -1), axis=1)


def center_of_mass(weights, positions):
    w = np.asarray(weights, dtype=float)
    if w.sum() <= 0:
        return np.full(3, np.nan)
    return (w[:, None] * positions).sum(axis=0) / w.sum()


def ball_error_mm(weights, positions, truth, radius):
    """Distance (mm) from the truth to the amplitude-weighted center of
    mass of the DOFs within ``radius`` of the truth."""
    near = np.linalg.norm(positions - truth[None, :], axis=1) <= radius
    return 1e3 * float(np.linalg.norm(
        center_of_mass(weights[near], positions[near]) - truth))


def check_hits(errors_mm, radius_mm, need):
    """At least ``need`` localization errors within the radius (criterion 6
    of the acceptance suite for the hemorrhage protocol)."""
    errors_mm = np.asarray(errors_mm, dtype=float)
    hits = int(np.count_nonzero(errors_mm <= radius_mm))
    return hits >= need, (f"{hits}/{errors_mm.size} reconstructions within "
                          f"{radius_mm:g} mm (>= {need})")


# A MAP estimate must explain the data it was fitted to: the residual of a
# working reconstruction is about 0.2 of the data norm here, and any mix-up
# of scale, component order or DOF order leaves more than 0.8.
FIT_RTOL = 0.5


def check_reconstruction(x, positions, L, y, truth, radius):
    """A reconstruction from disk: the ball of ``radius`` around the truth
    carries amplitude and its center of mass lies inside the ball, and the
    estimate explains the data (relative residual <= FIT_RTOL)."""
    err = ball_error_mm(amplitudes(x, len(positions)), positions, truth, radius)
    fit = rel_error(L @ np.asarray(x, dtype=float).ravel(), y)
    ok = err <= 1e3 * radius and fit <= FIT_RTOL
    return ok, (f"ball center of mass {err:.2f} mm (<= {1e3 * radius:g}), "
                f"data residual {fit:.3f} (<= {FIT_RTOL:g})")


# ---------------------------------------------------------------------------
# readers for the files the command line writes

def read_tet_mesh(prefix):
    nodes = np.loadtxt(f"{prefix}_nodes.dat", ndmin=2)
    tetra = np.loadtxt(f"{prefix}_tetra.dat", dtype=np.int64, ndmin=2) - 1
    labels = np.loadtxt(f"{prefix}_labels.dat", dtype=np.int64, ndmin=1) - 1
    return nodes, tetra, labels


def read_leadfield(path):
    """Matrix and source positions of a binary lead field and its sidecar."""
    with open(f"{path}.json") as fh:
        side = json.load(fh)
    raw = np.fromfile(path, dtype="<f8")
    matrix = raw.reshape((side["rows"], side["cols"]), order="F")
    return matrix, np.asarray(side["positions"], dtype=float)


def read_reconstruction(path):
    """DOF positions and values (one or three per DOF, flattened in DOF
    order) from a reconstruction CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1:4], data[:, 4:].ravel()


def read_dataset(path):
    """Electrode-by-column CSV dataset, stacked column by column."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1:].ravel(order="F")
