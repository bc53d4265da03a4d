"""Complete-electrode-model system assembly on tetrahedral meshes.

Assembles the blocks of the electrode-potential system

    [ A  -B ] [ z ]   [ -G x ]
    [ -B' C ] [ v ] = [   I  ]

with linear nodal (P1) basis functions: the stiffness matrix ``A``
(conductivity volume term plus electrode contact terms, grounded at one
boundary node), the electrode coupling blocks ``B`` and ``C``, the
zero-mean projector ``R`` and the source matrix ``G`` built from lowest
order H(div) face functions (the 4-function Whitney stencil per source
element).  Every P1 integral has a closed form, and so do the gradients:
edge cross products over the triple product 6V (Cuvelier, Japhet &
Scarella, BIT 56, 2016), with no quadrature and no 3 x 3 inverse.

``G`` is built for all sources at once: the faces of the source elements
and their adjoining elements are gathered from the mesh face table
(:meth:`TetMesh.face_table`), and the per-source combination of the face
functions is one batched pseudoinverse of the (S, 3, 4) moment stack.
Point location tests the nearest-centroid candidates of all points in one
vectorized barycentric sweep and sends the points that none of them
contains to the same test over every element.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ElectrodeError, LocationError
from .geometry import nearest_center


# ---------------------------------------------------------------------------
# element geometry

def element_gradients(mesh, elements=None):
    """Volumes (``mesh.volumes``) and P1 basis gradients, shape (m,) and
    (m, 4, 3), of every element or of ``elements``: with e_k = x_k - x_0,
    grad(lambda_1..3) are e2 x e3, e3 x e1, e1 x e2 over the triple product
    e1 . (e2 x e3) = 6 V, and grad(lambda_0) is minus their sum."""
    tetra = mesh.tetra if elements is None else mesh.tetra[elements]
    vols = mesh.volumes if elements is None else mesh.volumes[elements]
    e = mesh.nodes[tetra[:, 1:]] - mesh.nodes[tetra[:, :1]]
    grads = np.empty((len(tetra), 4, 3))
    grads[:, 1] = np.cross(e[:, 1], e[:, 2])
    grads[:, 2] = np.cross(e[:, 2], e[:, 0])
    grads[:, 3] = np.cross(e[:, 0], e[:, 1])
    grads[:, 1:] /= 6.0 * vols[:, None, None]
    grads[:, 0] = -(grads[:, 1] + grads[:, 2] + grads[:, 3])
    return vols, grads


def _sigma_tensors(sigma):
    """(m, 6) rows (s11, s22, s33, s12, s13, s23) as (m, 3, 3) tensors."""
    t = np.empty((len(sigma), 3, 3))
    t[:, 0, 0] = sigma[:, 0]
    t[:, 1, 1] = sigma[:, 1]
    t[:, 2, 2] = sigma[:, 2]
    t[:, 0, 1] = t[:, 1, 0] = sigma[:, 3]
    t[:, 0, 2] = t[:, 2, 0] = sigma[:, 4]
    t[:, 1, 2] = t[:, 2, 1] = sigma[:, 5]
    return t


def _check_conductivity(sigma):
    if sigma.ndim == 1:
        if np.any(sigma < 0):
            raise AssemblyError("negative scalar conductivity")
        return
    t = _sigma_tensors(sigma)
    # Sylvester's criterion on every 3x3 tensor.
    d1 = t[:, 0, 0]
    d2 = t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] ** 2
    d3 = np.linalg.det(t)
    if np.any(d1 <= 0) or np.any(d2 <= 0) or np.any(d3 <= 0):
        raise AssemblyError("conductivity tensor row is not positive definite")


def stiffness_blocks(mesh, sigma=None, elements=None):
    """Per-element 4x4 stiffness blocks V * grad_i . sigma grad_j.

    ``sigma=None`` uses the mesh conductivity; a scalar uses that uniform
    value (``sigma=1.0`` gives the unit-conductivity blocks that appear in
    the conductivity derivative of ``A``).  ``elements`` restricts the
    computation to a subset.
    """
    vols, grads = element_gradients(mesh, elements)
    if np.any(vols <= 0):
        raise AssemblyError("non-positive element volume")
    if sigma is None:
        sigma = mesh.sigma if elements is None else mesh.sigma[elements]
    if not np.isscalar(sigma):
        sigma = np.asarray(sigma, dtype=float)
        _check_conductivity(sigma)
    if np.ndim(sigma) < 2:
        return grads @ grads.transpose(0, 2, 1) * (vols * sigma)[:, None, None]
    tens = _sigma_tensors(sigma)
    return np.einsum("eik,ekl,ejl->eij", grads, tens, grads) * vols[:, None, None]


def _block_triplets(blocks, connectivity):
    """(rows, cols, vals) of (e, k, k) blocks on (e, k) node connectivity."""
    k = connectivity.shape[1]
    rows = np.repeat(connectivity, k, axis=1).ravel()
    cols = np.tile(connectivity, (1, k)).ravel()
    return rows, cols, blocks.ravel()


def volume_stiffness(mesh, sigma=None, elements=None):
    """Conductivity volume stiffness without electrode or grounding terms."""
    blocks = stiffness_blocks(mesh, sigma=sigma, elements=elements)
    conn = mesh.tetra if elements is None else mesh.tetra[elements]
    rows, cols, vals = _block_triplets(blocks, conn)
    n = mesh.n_nodes
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# electrodes

def triangle_areas(nodes, triangles):
    p = nodes[triangles]
    return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
                                axis=1)


class ElectrodeSet:
    """Surface electrodes as disjoint sets of boundary triangles.

    Parameters
    ----------
    mesh : TetMesh
    triangle_ids : sequence of int arrays
        Indices into ``mesh.boundary_triangles()[0]``, one array per
        electrode; the sets must be disjoint.
    impedances : float or sequence
        Contact impedance per electrode (Ohm).
    """

    def __init__(self, mesh, triangle_ids, impedances):
        bfaces, _ = mesh.boundary_triangles()
        n_el = len(triangle_ids)
        imp = np.broadcast_to(np.asarray(impedances, dtype=float), (n_el,)).copy()
        if np.any(imp <= 0):
            raise ElectrodeError("contact impedances must be positive")
        seen = np.concatenate([np.asarray(t, dtype=np.int64) for t in triangle_ids]) \
            if n_el else np.array([], dtype=np.int64)
        if seen.size != len(np.unique(seen)):
            raise ElectrodeError("electrode triangle sets overlap")
        if seen.size and (seen.min() < 0 or seen.max() >= len(bfaces)):
            raise ElectrodeError("electrode triangle index outside the boundary")

        areas_all = triangle_areas(mesh.nodes, bfaces)
        self.triangle_ids = tuple(np.asarray(t, dtype=np.int64) for t in triangle_ids)
        self.triangles = tuple(bfaces[t] for t in self.triangle_ids)
        self.triangle_areas = tuple(areas_all[t] for t in self.triangle_ids)
        self.areas = np.array([a.sum() for a in self.triangle_areas])
        if np.any(self.areas <= 0):
            raise ElectrodeError("electrode with zero covered area")
        self.impedances = imp
        self.count = n_el

    @classmethod
    def from_centers(cls, mesh, centers, radius, impedances):
        """Cover each electrode by the boundary triangles whose centroid lies
        within ``radius`` of its center; conflicts go to the nearest center."""
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        bfaces, _ = mesh.boundary_triangles()
        cent = mesh.nodes[bfaces].mean(axis=1)
        nearest, dist = nearest_center(cent, centers)
        ids = [np.flatnonzero((dist <= radius) & (nearest == k))
               for k in range(len(centers))]
        for k, t in enumerate(ids):
            if t.size == 0:
                raise ElectrodeError(
                    f"electrode {k} at {centers[k]} covers no boundary triangle "
                    f"within radius {radius}")
        return cls(mesh, ids, impedances)

    @property
    def node_set(self):
        if self.count == 0:
            return np.array([], dtype=np.int64)
        return np.unique(np.concatenate([t.ravel() for t in self.triangles]))

    def __len__(self):
        return self.count


_SURF_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def ground_node(mesh, electrodes):
    """Lowest-index boundary node not covered by any electrode."""
    free = np.setdiff1d(mesh.boundary_nodes(), electrodes.node_set)
    if free.size == 0:
        raise AssemblyError("electrodes cover every boundary node; "
                            "cannot choose a grounding node")
    return int(free[0])


def assemble_A(mesh, electrodes, ground=True):
    """Grounded CEM stiffness matrix (volume + electrode contact terms).

    a_ij = int sigma grad psi_i . grad psi_j dV
         + sum_l 1/(Z_l A_l) int_{e_l} psi_i psi_j dS

    Volume and contact blocks are summed in one COO -> CSR pass; with
    ``ground`` the triplets in row and column ``i'`` of the grounding node
    are replaced by the single entry (i', i', 1), which makes the matrix
    positive definite.
    """
    vol = _block_triplets(stiffness_blocks(mesh), mesh.tetra)
    parts = [vol]
    if electrodes.count:
        scale = np.concatenate([
            areas / (z * a_l) for areas, z, a_l in zip(
                electrodes.triangle_areas, electrodes.impedances,
                electrodes.areas)])
        tris = np.concatenate(electrodes.triangles)
        parts.append(_block_triplets(scale[:, None, None] * _SURF_MASS, tris))
    rows, cols, vals = (np.concatenate(t) for t in zip(*parts))
    if ground and electrodes.count:
        i = ground_node(mesh, electrodes)
        keep = (rows != i) & (cols != i)
        rows = np.append(rows[keep], i)
        cols = np.append(cols[keep], i)
        vals = np.append(vals[keep], 1.0)
    n = mesh.n_nodes
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble_B_C_R(mesh, electrodes):
    """Electrode coupling blocks.

    With the contact impedance density Z_l A_l used in the stiffness
    electrode term, the matching couplings are

        b_il = 1/(Z_l A_l) int_{e_l} psi_i dS,   c_ll = 1/Z_l,

    so Z_l is the total contact resistance of electrode l and the column
    sums of B equal diag(C) (nodal partition of unity).  R = I - (1/L) 11'
    is the zero-mean projector on electrode voltages.
    """
    n, L = mesh.n_nodes, electrodes.count
    if L == 0:
        raise ElectrodeError("no electrodes defined")
    rows, cols, vals = [], [], []
    for l, (tris, areas, z, a_l) in enumerate(zip(electrodes.triangles,
                                                  electrodes.triangle_areas,
                                                  electrodes.impedances,
                                                  electrodes.areas)):
        if areas.sum() <= 0:
            raise ElectrodeError(f"electrode {l} has zero covered area")
        contrib = np.repeat(areas / (3.0 * z * a_l), 3)
        rows.append(tris.ravel())
        cols.append(np.full(tris.size, l, dtype=np.int64))
        vals.append(contrib)
    B = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, L)).tocsr()
    C = sp.diags(1.0 / electrodes.impedances, format="csr")
    R = np.eye(L) - np.full((L, L), 1.0 / L)
    return B, C, R


# ---------------------------------------------------------------------------
# H(div) source model
#
# Every face of a source element carries one Whitney face function: unit
# flux along the canonical normal of the sorted face (n0, n1, n2) and
# divergence sign / V on each of the (one or two) adjoining elements of the
# mesh face table, with opposite signs across an interior face.  All
# per-(source, face, slot) quantities are gathers over (S, 4, 2) arrays of
# adjoining elements; empty slots (boundary faces) carry sign 0.

def whitney_source_matrix(mesh, elements):
    """Raw face-function source matrix (4 columns per source element) and
    the (S, 4, 3) dipole moments of the face functions.

    g_{i,f} accumulates sign/4 over the nodes of every element adjoining
    face f (int psi_i dV = V/4 and div w = sign / V); the moment of a face
    function restricted to element k is sign * (centroid_k - a_k) / 3, with
    a_k the vertex of k opposite the face.
    """
    elements = np.asarray(elements, dtype=np.int64)
    faces, element_faces, face_elements = mesh.face_table()
    fid = element_faces[elements]                        # (S, 4)
    fnodes = faces[fid]                                  # (S, 4, 3)
    adjoining = face_elements[fid]                       # (S, 4, 2)
    present = adjoining >= 0
    # An empty slot borrows the face's first element and gets sign 0.
    tets = mesh.tetra[np.where(present, adjoining, adjoining[..., :1])]
    opposite = tets.sum(axis=3) - fnodes.sum(axis=2)[:, :, None]

    x = mesh.nodes
    p = x[fnodes]
    normal = np.cross(p[:, :, 1] - p[:, :, 0], p[:, :, 2] - p[:, :, 0])
    a = x[opposite]                                      # (S, 4, 2, 3)
    outward = np.einsum("sjc,sjkc->sjk", normal, p.mean(axis=2)[:, :, None] - a)
    signs = np.where(outward > 0, 1.0, -1.0) * present
    moments = (signs[..., None] * (x[tets].mean(axis=3) - a) / 3.0).sum(axis=2)

    S = len(elements)
    cols = np.broadcast_to(np.arange(4 * S).reshape(S, 4, 1, 1), tets.shape)
    vals = np.broadcast_to((signs / 4.0)[..., None], tets.shape)
    keep = np.broadcast_to(present[..., None], tets.shape)
    G = sp.coo_matrix((vals[keep], (tets[keep], cols[keep])),
                      shape=(mesh.n_nodes, 4 * S)).tocsr()
    return G, moments


def locate_elements(mesh, points, tol=1e-9):
    """Element containing each point: the first of its 32 nearest-centroid
    candidates that passes the barycentric test, else the lowest-index
    element that does.  Raises LocationError for points outside the mesh."""
    from scipy.spatial import cKDTree   # here: no pipeline path needs it
    points = np.atleast_2d(np.asarray(points, dtype=float))
    tree = cKDTree(mesh.centroids())
    k = min(mesh.n_elements, 32)
    _, cand = tree.query(points, k=k)
    cand = np.asarray(cand, dtype=np.int64).reshape(len(points), k)
    _, grads = element_gradients(mesh)
    scale = tol * np.max(np.ptp(mesh.nodes, axis=0))
    origin = mesh.nodes[mesh.tetra[:, 0]]

    def inside(pts, elems):
        # lambda_k(p) = lambda_k(p0) + grad_k . (p - p0); using vertex 0
        lam = np.einsum("...kc,...c->...k", grads[elems], pts - origin[elems])
        lam[..., 0] += 1.0
        return np.all((lam >= -scale) & (lam <= 1.0 + scale), axis=-1)

    hit = inside(points[:, None, :], cand)               # (n, k)
    out = np.where(hit.any(axis=1), cand[np.arange(len(points)),
                                         hit.argmax(axis=1)], -1)
    missed = np.flatnonzero(out < 0)
    chunk = max(1, 1_000_000 // mesh.n_elements)         # points per block
    for lo in range(0, missed.size, chunk):
        idx = missed[lo:lo + chunk]
        hit = inside(points[idx, None, :], np.arange(mesh.n_elements))
        out[idx] = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    if np.any(out < 0):
        raise LocationError(
            f"point {points[np.argmax(out < 0)]} lies outside the mesh")
    return out


def assemble_G(mesh, sources):
    """Source matrix with columns combined according to the source mode.

    Unconstrained mode emits 3 columns per source (pattern: position 1
    xyz, position 2 xyz, ...), each the minimum-norm combination of the
    element's 4 face functions whose dipole moment equals the unit axis
    dipole (the pseudoinverse of the 3 x 4 moment matrix).  Constrained
    mode projects that combination onto the source normal, one column per
    source.
    """
    elements = np.asarray(sources.element_ids, dtype=np.int64)
    if elements.size and (elements.min() < 0 or elements.max() >= mesh.n_elements):
        raise LocationError("source element index outside the mesh")
    G_w, moments = whitney_source_matrix(mesh, elements)

    coeff = np.linalg.pinv(moments.transpose(0, 2, 1))    # (S, 4, 3)
    if sources.mode == "constrained":
        coeff = np.einsum("sjc,sc->sj", coeff, sources.orientations)[..., None]
    S, n_comp = len(elements), coeff.shape[2]
    W = sp.csr_matrix(
        (coeff.ravel(),
         np.repeat(np.arange(n_comp * S).reshape(S, 1, n_comp), 4, axis=1).ravel(),
         np.arange(0, 4 * S * n_comp + 1, n_comp)),
        shape=(4 * S, n_comp * S))
    return (G_w @ W).tocsr()


# ---------------------------------------------------------------------------
# assembled system

@dataclass(frozen=True)
class CemSystem:
    """Assembled CEM blocks plus the context needed to reassemble them."""

    mesh: object
    electrodes: ElectrodeSet
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    R: np.ndarray
    ground: int
    G: sp.csr_matrix | None = None
    source_space: object | None = None

    @property
    def n_electrodes(self):
        return self.electrodes.count

    def with_sigma(self, sigma):
        """The system at conductivity ``sigma``: the mesh and ``A`` are
        rebuilt; B, C, R, G, the ground node and the electrodes depend only
        on the geometry and are shared."""
        mesh = self.mesh.with_sigma(sigma)
        return replace(self, mesh=mesh, A=assemble_A(mesh, self.electrodes))


def assemble_cem_system(mesh, electrodes, sources=None):
    """Assemble all CEM blocks for a mesh/electrode pair (EEG needs
    ``sources`` for the right-hand-side matrix G)."""
    A = assemble_A(mesh, electrodes)
    B, C, R = assemble_B_C_R(mesh, electrodes)
    G = assemble_G(mesh, sources) if sources is not None else None
    return CemSystem(mesh=mesh, electrodes=electrodes, A=A, B=B, C=C, R=R,
                     ground=ground_node(mesh, electrodes), G=G,
                     source_space=sources)
