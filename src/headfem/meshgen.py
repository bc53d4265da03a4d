"""Uniform labeled tetrahedral mesh generation.

The generator covers the segmentation bounding box with a structured grid
of cubes of edge ``h`` and splits each cube into 6 tetrahedra along the
main diagonal (Kuhn subdivision), which tiles space conformally and gives
every element the same positive volume h^3/6.  Elements are labeled by the
compartment containing their centroid, innermost compartment first;
elements whose 4 nodes touch two or more compartments are handed to the
compartment with the lowest priority value.  Elements outside every
compartment are dropped.

Grid nodes and the centroids of each Kuhn tetrahedron type (offsets that
permute (3/4, 1/2, 1/4) h) lie on shared x-lines, so
``Segmentation.locate`` labels them all with one +x ray per line and
surface, and sends the few undecided points to its per-point fallback,
``SurfaceMesh.contains``.

A :class:`TetMesh` checks its input where it is made, and assembly
re-checks nothing.  Compartments apply the same :func:`check_conductivity`.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyMeshError, ParameterError


def _kuhn_table():
    """6 tetrahedra per cube as corner ids (bit k of the id = axis k offset),
    ordered so every tetrahedron has positive volume."""
    tets = []
    for perm in itertools.permutations((0, 1, 2)):
        ids = [0]
        acc = 0
        for axis in perm:
            acc |= 1 << axis
            ids.append(acc)
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        if inversions % 2 == 1:
            ids[2], ids[3] = ids[3], ids[2]
        tets.append(ids)
    return np.array(tets, dtype=np.int64)


_KUHN_TETS = _kuhn_table()
_CORNER_OFFSETS = np.array([[(j >> a) & 1 for a in range(3)] for j in range(8)],
                           dtype=np.int64)


def tet_volumes(nodes, tetra):
    """Signed volumes under the stored node ordering: the triple product
    e1 . (e2 x e3) / 6 of the edges e_k = x_k - x_0."""
    x0 = nodes[tetra[:, 0]]
    e1, e2, e3 = (nodes[tetra[:, k]] - x0 for k in (1, 2, 3))
    return np.einsum("ij,ij->i", e1, np.cross(e2, e3)) / 6.0


def centroids(nodes, cells):
    """``nodes[cells].mean(axis=1)`` bit for bit, without the (m, w, 3)
    gather: the same sum from 0.0 (which makes an all -0.0 sum +0.0), one
    corner column at a time, then one division."""
    out = np.zeros((len(cells), nodes.shape[1]))
    corner = np.empty_like(out)
    for k in range(cells.shape[1]):
        out += np.take(nodes, cells[:, k], axis=0, out=corner)
    out /= cells.shape[1]
    return out


def sorted_unique(a):
    """``np.unique(a)`` by one sort: a bare ``np.unique`` of integer keys
    takes numpy 2.4's hashing path, several times slower at mesh sizes."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _read_only(arr, dtype):
    """``arr`` as a read-only contiguous array: shared if it is read-only,
    copied if the caller can still write it."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out.flags.writeable and np.may_share_memory(out, arr):
        out = out.copy()
    out.setflags(write=False)
    return out


def sigma_tensors(sigma):
    """(m, 6) rows (s11, s22, s33, s12, s13, s23) as (m, 3, 3) tensors."""
    return sigma[:, [[0, 3, 4], [3, 1, 5], [4, 5, 2]]]


def check_conductivity(sigma, where):
    """The conductivity rule: every value finite, scalars >= 0 and (k, 6)
    tensor rows positive definite by Sylvester's criterion.  Raises
    :class:`ParameterError` led by ``where``."""
    if not np.isfinite(sigma).all():
        raise ParameterError(f"{where}: conductivity is not finite")
    if np.ndim(sigma) < 2 and np.any(sigma < 0):
        raise ParameterError(f"{where}: negative scalar conductivity")
    if np.ndim(sigma) == 2:
        t = sigma_tensors(sigma)
        d2 = t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] ** 2
        if any(np.any(d <= 0) for d in (t[:, 0, 0], d2, np.linalg.det(t))):
            raise ParameterError(
                f"{where}: conductivity tensor row is not positive definite")


def _checked_sigma(sigma, n_elements):
    """``sigma`` as a checked read-only float array: length-m scalars or
    (m, 6) tensor rows."""
    sigma = _read_only(sigma, float)
    if sigma.ndim not in (1, 2) or sigma.shape[1:] not in ((), (6,)):
        raise ParameterError("sigma must be m scalars or tensor rows of "
                             f"6 columns, got shape {sigma.shape}")
    if len(sigma) != n_elements:
        raise ParameterError("sigma length must equal element count")
    check_conductivity(sigma, "sigma")
    return sigma


class TetMesh:
    """Labeled tetrahedral volume mesh with per-element conductivity.

    ``sigma`` is either a length-M scalar array (isotropic) or an (M, 6)
    array of symmetric tensor rows (s11, s22, s33, s12, s13, s23) that keeps
    :func:`check_conductivity`.  Nodes must be finite (n, 3) and volumes
    finite and positive; the arrays are read-only, so the checks hold for life.
    """

    def __init__(self, nodes, tetra, labels, sigma):
        nodes = _read_only(nodes, float)
        tetra = _read_only(tetra, np.int64)
        labels = _read_only(labels, np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise ParameterError(f"nodes must be (n, 3), got {nodes.shape}")
        if tetra.ndim != 2 or tetra.shape[1] != 4:
            raise ParameterError(f"tetra must be (m, 4), got {tetra.shape}")
        if tetra.size and (tetra.min() < 0 or tetra.max() >= len(nodes)):
            raise ParameterError("tetrahedron references a missing node")
        if len(labels) != len(tetra):
            raise ParameterError("labels length must equal element count")
        if not np.isfinite(nodes).all():
            raise ParameterError("non-finite node coordinate")
        self.sigma = _checked_sigma(sigma, len(tetra))
        vols = tet_volumes(nodes, tetra)
        bad = ~((vols > 0) & (vols < np.inf))
        if bad.any():
            raise ParameterError(f"{np.count_nonzero(bad)} element(s) with "
                                 "non-positive or infinite volume")
        self.nodes, self.tetra, self.labels = nodes, tetra, labels
        self.volumes = vols
        vols.setflags(write=False)
        # Face table, boundary and CSR pattern: shared by every mesh that
        # with_nodes and with_sigma derive, whichever computes them first.
        self._topology = {}

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.tetra)

    @property
    def is_tensor(self):
        return self.sigma.ndim == 2

    def centroids(self):
        return centroids(self.nodes, self.tetra)

    def element_faces(self):
        """All (4m, 3) faces, outward-oriented for positive elements.

        Face k of element e is opposite local vertex k.
        """
        local = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]
        return self.tetra[:, local].reshape(-1, 3)

    def face_table(self):
        """The faces of the mesh topology, computed once per ``tetra``.

        Returns
        -------
        faces : (F, 3) int array of unique faces, node ids sorted per row,
            rows in lexicographic order.
        element_faces : (m, 4) face id of each element face (face k of an
            element is opposite its local vertex k).
        face_elements : (F, 2) elements on each face in increasing order,
            -1 in the second column where the face is on the boundary.
        """
        cache = self._topology
        if "faces" not in cache:
            key = np.sort(self.element_faces(), axis=1)
            order = np.lexsort(key.T[::-1])  # stable: runs keep element order
            key = key[order]
            first = np.ones(len(key), dtype=bool)
            first[1:] = (key[1:] != key[:-1]).any(axis=1)
            inv = np.empty(len(key), dtype=np.int64)
            inv[order] = np.cumsum(first) - 1
            starts = np.flatnonzero(first)
            second = np.diff(starts, append=len(key)) > 1
            face_elements = np.full((len(starts), 2), -1, dtype=np.int64)
            face_elements[:, 0] = order[starts] // 4
            face_elements[second, 1] = order[starts[second] + 1] // 4
            cache["faces"] = (key[starts], inv.reshape(-1, 4), face_elements)
        return cache["faces"]

    def boundary_triangles(self):
        """Outward-oriented boundary faces and their owner elements, in
        element-face order.

        Returns
        -------
        faces : (b, 3) int array of node indices, oriented outward.
        owners : (b,) element indices.
        """
        cache = self._topology
        if "boundary" not in cache:
            _, element_faces, face_elements = self.face_table()
            idx = np.flatnonzero(face_elements[element_faces.ravel(), 1] < 0)
            cache["boundary"] = (self.element_faces()[idx], idx // 4)
        return cache["boundary"]

    def boundary_nodes(self):
        faces, _ = self.boundary_triangles()
        return sorted_unique(faces)

    def csr_pattern(self):
        """The node-node sparsity pattern of the P1 matrices, computed once
        per ``tetra``.

        Returns
        -------
        indptr, indices : int32 CSR arrays of the n x n pattern: the
            diagonal and both directions of every element edge, column
            indices sorted within each row.
        slot : (m, 16) int32 CSR position of entry (tetra[e, i],
            tetra[e, j]) of element e at column 4 i + j, so a matrix with
            (m, 4, 4) element blocks is ``np.bincount(slot.ravel(),
            weights=blocks.ravel(), minlength=nnz)``.
        """
        cache = self._topology
        if "pattern" not in cache:
            n, t = self.n_nodes, self.tetra
            a, b = np.array(list(itertools.combinations(range(4), 2))).T
            ta, tb = t[:, a], t[:, b]                    # the 6 element edges
            up = ta < tb
            edges, eid = np.unique(np.where(up, ta * n + tb, tb * n + ta),
                                   return_inverse=True)
            eid = eid.reshape(-1, 6)
            elo, ehi = edges // n, edges % n
            # Keys row * n + col of the diagonal, upper and lower entries;
            # one argsort puts them in CSR order.
            keys = np.concatenate([np.arange(n, dtype=np.int64) * (n + 1),
                                   edges, ehi * n + elo])
            order = np.argsort(keys)
            pos = np.empty(len(keys), dtype=np.int32)
            pos[order] = np.arange(len(keys), dtype=np.int32)
            diag, upper, lower = np.split(pos, [n, n + len(edges)])
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(1 + np.bincount(elo, minlength=n)
                      + np.bincount(ehi, minlength=n), out=indptr[1:])
            indices = (keys[order] % n).astype(np.int32)
            slot = np.empty((len(t), 4, 4), dtype=np.int32)
            k = np.arange(4)
            slot[:, k, k] = diag[t]
            slot[:, a, b] = np.where(up, upper[eid], lower[eid])
            slot[:, b, a] = np.where(up, lower[eid], upper[eid])
            for arr in (indptr, indices, slot):
                arr.setflags(write=False)
            cache["pattern"] = (indptr, indices, slot.reshape(-1, 16))
        return cache["pattern"]

    def with_nodes(self, nodes):
        """Same topology on moved nodes; the face table and the CSR pattern
        are shared."""
        mesh = TetMesh(nodes, self.tetra, self.labels, self.sigma)
        mesh._topology = self._topology
        return mesh

    def with_sigma(self, sigma):
        """Same mesh with a replaced conductivity distribution; the nodes,
        the volumes, the face table and the CSR pattern are shared."""
        mesh = copy.copy(self)
        mesh.sigma = _checked_sigma(sigma, self.n_elements)
        return mesh

    def __repr__(self):
        return f"TetMesh({self.n_nodes} nodes, {self.n_elements} elements)"


@dataclass(frozen=True)
class SourceSpace:
    """Candidate source locations inside the active compartments.

    In constrained mode each position carries the outward normal of the
    nearest active-compartment surface triangle; in unconstrained
    (Cartesian) mode ``orientations`` is ``None`` and lead-field columns
    follow the pattern position 1 xyz, position 2 xyz, ...
    """

    positions: np.ndarray
    orientations: np.ndarray | None
    element_ids: np.ndarray
    mode: str


def _conductivity_table(seg):
    """Per-compartment sigma rows; scalars widen to tensor rows only when
    any compartment is anisotropic."""
    if seg.has_tensor:
        table = np.zeros((len(seg), 6))
        for k, comp in enumerate(seg.compartments):
            if comp.is_tensor:
                table[k] = comp.conductivity
            else:
                table[k, :3] = comp.conductivity
        return table
    return np.array([c.conductivity for c in seg.compartments])


def generate_mesh(seg, h):
    """Generate the uniform labeled tetrahedral mesh for a segmentation.

    Parameters
    ----------
    seg : Segmentation
    h : float
        Grid resolution in meters (cube edge length).

    Raises
    ------
    ParameterError
        If ``h <= 0`` or the bounding box is degenerate.
    EmptyMeshError
        If no element centroid falls inside any compartment.
    """
    if not np.isfinite(h) or h <= 0:
        raise ParameterError(f"resolution must be positive, got {h}")
    lo, hi = seg.bounding_box()
    extent = hi - lo
    if not np.all(np.isfinite(extent)) or np.any(extent <= 0):
        raise ParameterError("segmentation bounding box is degenerate")

    ncell = np.maximum(1, np.ceil(extent / h - 1e-12).astype(int))
    nx, ny, nz = ncell
    # Grid nodes, x fastest; node id = ix + (nx+1)*(iy + (ny+1)*iz).
    xs = lo[0] + h * np.arange(nx + 1)
    ys = lo[1] + h * np.arange(ny + 1)
    zs = lo[2] + h * np.arange(nz + 1)
    gz, gy, gx = np.meshgrid(zs, ys, xs, indexing="ij")
    grid_nodes = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    cz, cy, cx = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                             indexing="ij")
    base = (cx + (nx + 1) * (cy + (ny + 1) * cz)).ravel()
    off = (_CORNER_OFFSETS[:, 0] + (nx + 1) * (_CORNER_OFFSETS[:, 1]
           + (ny + 1) * _CORNER_OFFSETS[:, 2]))
    corners = base[:, None] + off[None, :]          # (ncubes, 8)
    tetra = corners[:, _KUHN_TETS].reshape(-1, 4)   # (ncubes*6, 4)

    point_label = seg.locate(np.concatenate([centroids(grid_nodes, tetra),
                                             grid_nodes]))
    cent_label = point_label[:len(tetra)]
    keep = cent_label >= 0
    if not keep.any():
        raise EmptyMeshError(
            f"no element centroid inside any compartment at h={h}")
    tetra = tetra[keep]
    labels = cent_label[keep]

    # The grid nodes that kept elements use, renumbered in grid order; their
    # labels drive the multi-compartment priority rule.
    used = np.zeros(len(grid_nodes), dtype=bool)
    used[tetra] = True
    tetra = (np.cumsum(used) - 1)[tetra]
    nodes = grid_nodes[used]
    node_label = point_label[-len(grid_nodes):][used]
    labels = _apply_priorities(seg, tetra, labels, node_label)

    table = _conductivity_table(seg)
    sigma = table[labels]
    return TetMesh(nodes, tetra, labels, sigma)


def _apply_priorities(seg, tetra, labels, node_label):
    """Re-label elements whose nodes span several compartments.

    The centroid label stands unless another touched compartment has a
    strictly lower priority value; priority ties keep the centroid label if
    it participates, otherwise the innermost (lowest index) candidate wins.
    """
    nl = node_label[tetra]                      # (m, 4)
    first = nl.max(axis=1)
    multi = np.flatnonzero(
        np.any((nl != first[:, None]) & (nl >= 0), axis=1) & (first >= 0))
    pri = np.array([c.priority for c in seg.compartments], dtype=float)
    # (k, 5) for the k straddling elements: node labels, centroid label.
    cands = np.column_stack([nl[multi], labels[multi]])
    slot_pri = np.where(cands >= 0, pri[cands], np.inf)
    best = slot_pri.min(axis=1)
    # Lowest compartment index among the candidates at the best priority.
    winner = np.where(slot_pri == best[:, None], cands, len(pri)).min(axis=1)
    change = pri[cands[:, 4]] != best
    out = labels.copy()
    out[multi[change]] = winner[change]
    return out


def smooth_mesh(mesh, iterations=2, step=0.3):
    """Two-pass interface smoothing with sign-alternating steps.

    Each iteration runs a forward pass moving every compartment-interface
    node a fraction ``step`` toward the average of its interface neighbors
    and a backward pass with the negated step, which approximates the
    Bi-Laplacian smoothing flow without systematic shrinkage.  Moves that
    would drive an adjacent element volume to zero or below are rejected.
    Connectivity, labels and conductivities are untouched.
    """
    if iterations < 0:
        raise ParameterError("iterations must be >= 0")
    if not (0.0 < step < 1.0):
        raise ParameterError(f"smoothing step must be in (0, 1), got {step}")
    if iterations == 0:
        return mesh

    nodes = mesh.nodes.copy()
    smooth_set, neighbors, offsets = _interface_graph(mesh)
    if smooth_set.size == 0:
        return mesh

    for _ in range(int(iterations)):
        for s in (step, -step):
            nodes = _smooth_pass(mesh, nodes, smooth_set, neighbors, offsets, s)
    return mesh.with_nodes(nodes)


def _interface_graph(mesh):
    """Interface nodes and their neighbor adjacency (CSR-style arrays).

    Interface faces are element faces shared by two elements with different
    labels, plus the outer boundary; neighbors are the nodes joined to a
    node by an edge of such a face.
    """
    faces, _, face_elements = mesh.face_table()
    first, second = face_elements.T
    interface = (second < 0) | (mesh.labels[first] != mesh.labels[second])
    ifaces = faces[interface]
    if len(ifaces) == 0:
        return np.array([], dtype=np.int64), None, None

    # Face rows are sorted, so every edge is (lo, hi) with the key lo*n + hi;
    # ``both`` holds the keys of both directions in (node, neighbor) order.
    n = mesh.n_nodes
    keys = sorted_unique(np.concatenate([ifaces[:, 0] * n + ifaces[:, 1],
                                         ifaces[:, 1] * n + ifaces[:, 2],
                                         ifaces[:, 0] * n + ifaces[:, 2]]))
    both = np.sort(np.concatenate([keys, keys % n * n + keys // n]))
    snodes, starts = np.unique(both // n, return_index=True)
    return snodes, both % n, np.append(starts, len(both))


def _smooth_pass(mesh, nodes, smooth_set, neighbors, offsets, step):
    proposed = nodes.copy()
    counts = np.diff(offsets)
    avg = np.add.reduceat(nodes[neighbors], offsets[:-1], axis=0)
    avg /= counts[:, None]
    proposed[smooth_set] = nodes[smooth_set] + step * (avg - nodes[smooth_set])
    # Jacobi-style acceptance: revert every node of any element whose volume
    # would become non-positive, repeat until clean (terminates: reverting
    # all moves restores the valid input mesh).
    for _ in range(len(smooth_set) + 1):
        vols = tet_volumes(proposed, mesh.tetra)
        bad = vols <= 0
        if not bad.any():
            break
        bad_nodes = sorted_unique(mesh.tetra[bad])
        proposed[bad_nodes] = nodes[bad_nodes]
    return proposed


def place_sources(mesh, seg, n, mode="unconstrained", seed=0):
    """Sample source positions uniformly over the active-compartment volume.

    Elements are drawn with probability proportional to their volume, the
    position uniformly inside the element.  Constrained mode attaches the
    outward normal of the nearest active-compartment surface triangle.
    """
    if mode not in ("constrained", "unconstrained"):
        raise ConfigError(f"unknown source mode '{mode}'")
    if n < 1:
        raise ParameterError("need at least one source")
    active = [k for k, c in enumerate(seg.compartments) if c.active]
    if not active:
        raise ConfigError("no active compartment")
    cand = np.flatnonzero(np.isin(mesh.labels, active))
    if cand.size == 0:
        raise ConfigError("active compartments contain no mesh elements")

    rng = np.random.default_rng(seed)
    vols = mesh.volumes[cand]
    elements = rng.choice(cand, size=n, p=vols / vols.sum())

    # Uniform barycentric coordinates via sorted-uniform spacings.
    u = np.sort(rng.random((n, 3)), axis=1)
    bary = np.column_stack([u[:, 0], u[:, 1] - u[:, 0], u[:, 2] - u[:, 1],
                            1.0 - u[:, 2]])
    positions = np.einsum("nk,nkj->nj", bary, mesh.nodes[mesh.tetra[elements]])

    orientations = None
    if mode == "constrained":
        orientations = np.empty((n, 3))
        labels = mesh.labels[elements]
        for k in np.unique(labels):
            rows = labels == k
            orientations[rows] = _nearest_normals(
                seg.compartments[k].surfaces, positions[rows])
    return SourceSpace(positions=positions, orientations=orientations,
                       element_ids=elements, mode=mode)


def _nearest_normals(surfaces, points):
    """Outward normal of the triangle nearest to each point over all
    ``surfaces``; on equal distance the lower triangle index and then the
    earlier surface win."""
    best = np.full(len(points), np.inf)
    normals = np.empty((len(points), 3))
    for surf in surfaces:
        j, d = surf.nearest_triangles(points)
        nearer = d < best
        best[nearer] = d[nearer]
        normals[nearer] = surf.normals[j[nearer]]
    return normals
