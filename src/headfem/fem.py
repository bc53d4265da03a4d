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

The node-node matrices reuse one sparsity pattern per mesh topology
(:meth:`TetMesh.csr_pattern`), so the element blocks of ``A`` are added
straight into its data array.  The assembly re-checks nothing the mesh
holds: a :class:`TetMesh` checked its volumes and its conductivity
(:func:`headfem.meshgen.check_conductivity`) when it was made.  The system
at another conductivity is
``assemble_cem_system(mesh.with_sigma(sigma), electrodes)``.
An :class:`ElectrodeSet` is one table of the covered boundary triangles in
electrode order, so the contact term of ``A`` and the block ``B`` are one
gather over it each, and its grounding node ``ground`` is found once per set.

``G`` is built for all sources at once: the faces of the source elements
and their adjoining elements are gathered from the mesh face table
(:meth:`TetMesh.face_table`), and the per-source combination of the face
functions is one batched pseudoinverse of the (S, 3, 4) moment stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ElectrodeError, LocationError
from .geometry import as_points, nearest_center
from .meshgen import centroids, sigma_tensors, sorted_unique


# ---------------------------------------------------------------------------
# element geometry

def element_gradients(mesh, elements=None):
    """Volumes (``mesh.volumes``) and P1 basis gradients, shape (m,) and
    (m, 4, 3), of every element or of ``elements``: with e_k = x_k - x_0,
    grad(lambda_1..3) are e2 x e3, e3 x e1, e1 x e2 over the triple product
    e1 . (e2 x e3) = 6 V, and grad(lambda_0) is minus their sum.

    The edges come from one corner gather per node column, coordinate by
    coordinate, and each cross-product component is np.cross's own
    u_j v_k - u_k v_j, so the gradients are np.cross's bit for bit without
    an (m, 3, 3) edge gather."""
    tetra = mesh.tetra if elements is None else mesh.tetra[elements]
    vols = mesh.volumes if elements is None else mesh.volumes[elements]
    xt = mesh.nodes.T
    x0 = np.take(xt, tetra[:, 0], axis=1)
    e = [np.take(xt, tetra[:, k], axis=1) - x0 for k in (1, 2, 3)]
    grads = np.empty((len(tetra), 4, 3))
    for i, (u, v) in zip((1, 2, 3), ((e[1], e[2]), (e[2], e[0]), (e[0], e[1]))):
        for c, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.subtract(u[j] * v[k], u[k] * v[j], out=grads[:, i, c])
    grads[:, 1:] /= 6.0 * vols[:, None, None]
    grads[:, 0] = -(grads[:, 1] + grads[:, 2] + grads[:, 3])
    return vols, grads


def stiffness_blocks(mesh, sigma=None, elements=None):
    """Per-element 4x4 stiffness blocks V * grad_i . sigma grad_j.

    ``sigma=None`` uses the mesh conductivity; a number uses that uniform
    value (``sigma=1.0`` gives the unit-conductivity blocks that appear in
    the conductivity derivative of ``A``).  ``elements`` restricts the
    computation to a subset.  Nothing is checked here: the volumes and the
    conductivity of a :class:`TetMesh` were checked when it was made.
    """
    vols, grads = element_gradients(mesh, elements)
    if sigma is None:
        sigma = mesh.sigma if elements is None else mesh.sigma[elements]
        if mesh.is_tensor:
            blocks = np.einsum("eik,ekl,ejl->eij", grads, sigma_tensors(sigma),
                               grads)
            blocks *= vols[:, None, None]
            return blocks
    blocks = grads @ grads.transpose(0, 2, 1)
    blocks *= (vols * sigma)[:, None, None]
    return blocks


# ---------------------------------------------------------------------------
# electrodes

def triangle_areas(nodes, triangles):
    p = nodes[triangles]
    return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
                                axis=1)


class ElectrodeSet:
    """Surface electrodes as one table of covered boundary triangles.

    Parameters
    ----------
    mesh : TetMesh
    triangle_ids : sequence of int arrays
        Indices into ``mesh.boundary_triangles()[0]``, one array per
        electrode; the sets must be disjoint.
    impedances : float or sequence
        Contact impedance per electrode (Ohm).

    ``triangle_ids`` (boundary index), ``triangles``, ``electrode`` (owner)
    and ``triangle_areas`` hold one row per covered triangle, in electrode
    order; ``areas`` and ``impedances`` one value per electrode.
    """

    def __init__(self, mesh, triangle_ids, impedances):
        bfaces, _ = mesh.boundary_triangles()
        n_el = len(triangle_ids)
        imp = np.broadcast_to(np.asarray(impedances, dtype=float), (n_el,)).copy()
        if not np.all((imp > 0) & (imp < np.inf)):
            raise ElectrodeError("contact impedances must be positive")
        ids = [np.asarray(t, dtype=np.int64) for t in triangle_ids]
        seen = np.concatenate(ids) if n_el else np.array([], dtype=np.int64)
        if seen.size != len(sorted_unique(seen)):
            raise ElectrodeError("electrode triangle sets overlap")
        if seen.size and (seen.min() < 0 or seen.max() >= len(bfaces)):
            raise ElectrodeError("electrode triangle index outside the boundary")

        counts = np.array([t.size for t in ids], dtype=np.int64)
        self.triangle_ids = seen
        self.triangles = bfaces[seen]
        self.electrode = np.repeat(np.arange(n_el), counts)
        self.triangle_areas = triangle_areas(mesh.nodes, self.triangles)
        self.areas = np.array([self.triangle_areas[e - k:e].sum()
                               for k, e in zip(counts, np.cumsum(counts))])
        if np.any(self.areas <= 0):
            raise ElectrodeError("electrode with zero covered area")
        self.impedances = imp
        self.count = n_el
        self._mesh = mesh

    @classmethod
    def from_centers(cls, mesh, centers, radius, impedances):
        """Cover each electrode by the boundary triangles whose centroid lies
        within ``radius`` of its center, one of the (k, 3) or (3,)
        ``centers``; conflicts go to the nearest center."""
        if not np.size(centers):
            raise ElectrodeError("no electrode centers given")
        centers = as_points(centers, "electrode centers", ElectrodeError)
        bfaces, _ = mesh.boundary_triangles()
        cent = centroids(mesh.nodes, bfaces)
        nearest, dist = nearest_center(cent, centers)
        ids = [np.flatnonzero((dist <= radius) & (nearest == k))
               for k in range(len(centers))]
        for k, t in enumerate(ids):
            if t.size == 0:
                raise ElectrodeError(
                    f"electrode {k} at {centers[k]} covers no boundary triangle "
                    f"within radius {radius}")
        return cls(mesh, ids, impedances)

    @cached_property
    def ground(self):
        """Lowest-index boundary node no electrode covers (grounds ``A``)."""
        free = np.setdiff1d(self._mesh.boundary_nodes(),
                            sorted_unique(self.triangles), assume_unique=True)
        if free.size == 0:
            raise AssemblyError("electrodes cover every boundary node; "
                                "cannot choose a grounding node")
        return int(free[0])


# Elements per chunk of ``assemble_A``: 1 MB of (k, 4, 4) blocks, as fast
# as one pass over the EIT desk mesh and a fifth of its peak memory.
_BLOCK_ROWS = 1 << 13

_SURF_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _triangle_slots(mesh, triangles):
    """(t, 9) CSR positions of the 3 x 3 blocks of boundary triangles,
    whose edges are element edges and so in the mesh pattern."""
    indptr, indices, _ = mesh.csr_pattern()
    n = mesh.n_nodes
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + indices
    pairs = triangles[:, :, None] * n + triangles[:, None, :]
    return np.searchsorted(keys, pairs.reshape(-1, 9))


def assemble_A(mesh, electrodes, ground=True):
    """Grounded CEM stiffness matrix (volume + electrode contact terms).

    a_ij = int sigma grad psi_i . grad psi_j dV
         + sum_l 1/(Z_l A_l) int_{e_l} psi_i psi_j dS

    The element and contact blocks are summed straight into the data array
    of the mesh CSR pattern (:meth:`TetMesh.csr_pattern`, built once per
    topology).  The element blocks are built and added ``_BLOCK_ROWS``
    elements at a time by ``np.add.at``, which adds in element order across
    the chunks: the bits of one ``np.bincount`` of all (m, 4, 4) blocks,
    without those blocks or an int64 copy of the int32 slots.
    With ``ground`` the row and column of the grounding node ``i'`` are
    zeroed in place and a_i'i' = 1, which makes the matrix positive
    definite; the zeroed entries stay stored.  With no electrodes it is the
    volume stiffness alone.
    """
    indptr, indices, slot = mesh.csr_pattern()
    data = np.zeros(len(indices))
    for lo in range(0, mesh.n_elements, _BLOCK_ROWS):
        part = slice(lo, lo + _BLOCK_ROWS)
        np.add.at(data, slot[part].ravel(),
                  stiffness_blocks(mesh, elements=part).ravel())
    if electrodes.count:
        e = electrodes.electrode
        scale = electrodes.triangle_areas / (electrodes.impedances[e]
                                             * electrodes.areas[e])
        data += np.bincount(_triangle_slots(mesh, electrodes.triangles).ravel(),
                            weights=(scale[:, None, None] * _SURF_MASS).ravel(),
                            minlength=len(indices))
    if ground and electrodes.count:
        i = electrodes.ground
        row = slice(indptr[i], indptr[i + 1])
        data[row] = 0.0
        data[indices == i] = 0.0
        data[indptr[i] + np.searchsorted(indices[row], i)] = 1.0
    n = mesh.n_nodes
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


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
    e = electrodes.electrode
    scale = electrodes.triangle_areas / (3.0 * electrodes.impedances[e]
                                         * electrodes.areas[e])
    B = sp.coo_matrix((np.repeat(scale, 3),
                       (electrodes.triangles.ravel(), np.repeat(e, 3))),
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


def assemble_cem_system(mesh, electrodes, sources=None):
    """Assemble all CEM blocks for a mesh/electrode pair (EEG needs
    ``sources`` for the right-hand-side matrix G)."""
    A = assemble_A(mesh, electrodes)
    B, C, R = assemble_B_C_R(mesh, electrodes)
    G = assemble_G(mesh, sources) if sources is not None else None
    return CemSystem(mesh=mesh, electrodes=electrodes, A=A, B=B, C=C, R=R,
                     ground=electrodes.ground, G=G,
                     source_space=sources)
