import numpy as np
import pytest

from headfem import geometry, meshgen
from headfem.geometry import (
    Compartment,
    Segmentation,
    SurfaceMesh,
    box_surface,
    icosphere,
)


def reference_locate(seg, points):
    """Per-point labels: each compartment's sub-surfaces are tested with
    ``SurfaceMesh.contains``, innermost compartment first, -1 outside every
    one.  The reference for the line labeler ``Segmentation.locate``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.full(len(pts), -1, dtype=np.int64)
    open_ = np.arange(len(pts))
    for k, comp in enumerate(seg.compartments):
        if open_.size == 0:
            break
        hit = np.zeros(open_.size, dtype=bool)
        for s in comp.surfaces:
            rest = ~hit
            if not rest.any():
                break
            hit[rest] = s.contains(pts[open_[rest]])
        labels[open_[hit]] = k
        open_ = open_[~hit]
    return labels


def reference_line_locate(seg, points):
    """``Segmentation.locate`` with its points grouped into (y, z) lines by
    ``np.unique`` of (y, z) read as one complex number.  Returns the labels
    and the (rays, pairs, fallback points) counts of the DEBUG record; the
    reference for the lexsorted grouping."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    yz, line = np.unique(
        np.ascontiguousarray(pts[:, 1:]).view(complex)[:, 0],
        return_inverse=True)
    yz = yz.view(float).reshape(-1, 2)
    labels = np.full(len(pts), -1, dtype=np.int64)
    n_rays = n_fallback = n_pairs = 0
    for k, comp in enumerate(seg.compartments):
        hit = np.zeros(len(pts), dtype=bool)
        for surf in comp.surfaces:
            inside, unsure, rays, pairs = surf._line_parity(yz, line,
                                                            pts[:, 0])
            ask = np.flatnonzero(unsure & ~hit & (labels < 0))
            if ask.size:
                inside[ask] = surf.contains(pts[ask])
            hit |= inside
            n_rays += rays
            n_fallback += ask.size
            n_pairs += pairs
        labels[hit & (labels < 0)] = k
    return labels, (n_rays, n_pairs, n_fallback)


def reference_tet_volumes(nodes, tetra):
    """Signed volumes from the (m, 3, 3) edge gather: the reference for
    ``meshgen.tet_volumes``."""
    e = nodes[tetra[:, 1:]] - nodes[tetra[:, :1]]
    return np.einsum("ij,ij->i", e[:, 0], np.cross(e[:, 1], e[:, 2])) / 6.0


def reference_generate_mesh(seg, h):
    """``meshgen.generate_mesh`` with the (m, 4, 3) centroid gather, the
    complex-keyed line grouping of ``reference_line_locate``, node
    compaction by ``np.unique`` and the priority candidates of every
    element: the bit-for-bit reference of the mesh generator on valid
    input."""
    lo, hi = seg.bounding_box()
    ncell = np.maximum(1, np.ceil((hi - lo) / h - 1e-12).astype(int))
    nx, ny, nz = ncell
    xs, ys, zs = (lo[k] + h * np.arange(ncell[k] + 1) for k in range(3))
    gz, gy, gx = np.meshgrid(zs, ys, xs, indexing="ij")
    grid_nodes = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    cz, cy, cx = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                             indexing="ij")
    base = (cx + (nx + 1) * (cy + (ny + 1) * cz)).ravel()
    off = meshgen._CORNER_OFFSETS @ [1, nx + 1, (nx + 1) * (ny + 1)]
    tetra = (base[:, None] + off)[:, meshgen._KUHN_TETS].reshape(-1, 4)

    centroids = grid_nodes[tetra].mean(axis=1)
    point_label, _ = reference_line_locate(
        seg, np.concatenate([centroids, grid_nodes]))
    cent_label = point_label[:len(centroids)]
    keep = cent_label >= 0
    used, tetra = np.unique(tetra[keep], return_inverse=True)
    tetra = tetra.reshape(-1, 4)
    labels = cent_label[keep]
    nl = point_label[len(centroids):][used][tetra]
    first = nl.max(axis=1)
    multi = np.any((nl != first[:, None]) & (nl >= 0), axis=1) & (first >= 0)
    pri = np.array([c.priority for c in seg.compartments], dtype=float)
    cands = np.column_stack([nl, labels])
    slot_pri = np.where(cands >= 0, pri[cands], np.inf)
    best = slot_pri.min(axis=1)
    winner = np.where(slot_pri == best[:, None], cands, len(pri)).min(axis=1)
    change = multi & (pri[labels] != best)
    labels = np.where(change, winner, labels)
    return meshgen.TetMesh(grid_nodes[used], tetra, labels,
                           meshgen._conductivity_table(seg)[labels])


def reference_icosphere(radius=1.0, subdivisions=2, center=(0.0, 0.0, 0.0)):
    """Nodes and triangles of the per-face midpoint-dict subdivision: the
    reference for ``geometry.icosphere``."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    for _ in range(int(subdivisions)):
        cache = {}
        vlist = list(verts)

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = vlist[i] + vlist[j]
                m /= np.linalg.norm(m)
                cache[key] = len(vlist)
                vlist.append(m)
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(vlist)
        faces = np.array(new_faces, dtype=np.int64)
    return verts * float(radius) + np.asarray(center, dtype=float), faces


def reference_nearest_triangle(surface, point):
    """The triangle of ``surface`` nearest to one point and its distance:
    the per-point reference for ``SurfaceMesh.nearest_triangles``."""
    d2 = geometry._point_triangle_sqdist(np.asarray(point, dtype=float)[None],
                                         surface._v0, surface._e1,
                                         surface._e2)[0]
    j = int(np.argmin(d2))
    return j, float(np.sqrt(d2[j]))


# Regular tetrahedron: the smallest closed surface.
TET_NODES = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
])
# Outward-oriented faces.
TET_TRIS = np.array([
    [0, 1, 2],
    [0, 3, 1],
    [0, 2, 3],
    [1, 3, 2],
])


@pytest.fixture
def tet_surface():
    return SurfaceMesh(TET_NODES, TET_TRIS, name="tet")


@pytest.fixture
def cube_surface():
    return box_surface(name="cube")


@pytest.fixture
def unit_cube_segmentation():
    return Segmentation([
        Compartment(box_surface(name="cube"), conductivity=1.0, priority=0,
                    active=True),
    ])


@pytest.fixture
def nested_sphere_segmentation():
    inner = icosphere(radius=0.5, subdivisions=2, name="inner")
    outer = icosphere(radius=1.0, subdivisions=2, name="outer")
    return Segmentation([
        Compartment(inner, conductivity=0.33, priority=0, active=True),
        Compartment(outer, conductivity=0.43, priority=0),
    ])
