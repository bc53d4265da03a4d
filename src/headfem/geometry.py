"""Triangulated surface segmentations of the head.

A head model is described by closed triangulated surfaces, one set per
tissue compartment, ordered from the innermost compartment outwards.  This
module imports and validates those surfaces and answers the central
geometric query of the mesh generator: which compartment contains a given
point.

``Segmentation.locate`` labels points with one +x ray per x-line of the
points (points of a line share bit-identical y and z): one ray per line and
surface finds every crossing, and a point's parity is the number of
crossings to its right (parity voxelization, Nooruddin & Turk, IEEE TVCG
9(2), 2003).  Grid nodes and Kuhn centroids fill few lines with many
points each; a scattered point set costs one line per point.  Points this
cannot decide for certain go to its fallback, ``SurfaceMesh.contains``:
those on a line within a band (1e-6 of the surface diameter) of a triangle
edge, vertex or x-parallel triangle, and those within the band of a crossed
triangle's plane.  A line is tested only against the triangles whose (y, z)
box, widened to cover the band, holds it: the lines are sorted by (y, z),
so ``searchsorted`` finds them (sort and sweep, Ericson, Real-Time
Collision Detection, 2005, ch. 7; the widening is derived in
``SurfaceMesh._line_parity``), and the cost follows these pairs instead of
lines x triangles.

``SurfaceMesh.contains`` decides containment point by point, by ray-casting
parity with a fixed ray direction; rays that graze an edge, vertex or
coplanar triangle are detected and retried with the next direction from a
fixed list, so the result does not depend on luck.  Points lying exactly on
a surface count as inside by convention.
"""

from __future__ import annotations

import logging
import os
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError, TopologyError
from .io import _parse_table, _uncommented, _write_rows
from .meshgen import check_conductivity, sorted_unique

logger = logging.getLogger(__name__)

# Fixed, reproducible ray directions for the parity test.  The first is an
# arbitrary irrational-looking direction so axis-aligned geometry never
# produces a grazing hit on the first try.
_rng = np.random.default_rng(20240517)
_RAY_DIRECTIONS = np.vstack([
    np.array([0.32574285, 0.54028471, 0.77595762]),
    _rng.normal(size=(19, 3)),
])
_RAY_DIRECTIONS /= np.linalg.norm(_RAY_DIRECTIONS, axis=1, keepdims=True)

_MAX_COMPARTMENTS = 27

# Uncertainty band of ``Segmentation.locate``, relative to the surface
# diameter.
_LINE_BAND = 1e-6

# The k-d tree pruning of ``nearest_center``: the measured crossovers (see
# the README) and the relative tie margin.
_PRUNE_PAIRS = 1 << 20
_PRUNE_SIDE = 128
_TIE_MARGIN = 1e-9

# Default tissue conductivities (S/m).  White matter, grey matter, skull and
# scalp follow the values commonly quoted for head modeling; published
# default lists pair only four values with five tissue names, so the CSF
# entry here is the standard literature value rather than part of that
# four-value set.  All of these are overridable per compartment.
DEFAULT_CONDUCTIVITY = {
    "white": 0.14,
    "grey": 0.33,
    "csf": 1.79,
    "skull": 0.0064,
    "scalp": 0.43,
}


def as_points(points, what="points", error=ParameterError):
    """(3,) or (k, 3) ``points`` as a (k, 3) float array, the one shape rule
    of every point query; any other shape raises ``error`` naming it."""
    pts = np.asarray(points, dtype=float)
    if pts.shape == (3,):
        return pts[None]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise error(f"{what} must be (n, 3) or (3,), got shape {pts.shape}")
    return pts


class SurfaceMesh:
    """A closed, consistently oriented triangle surface.

    Parameters
    ----------
    nodes : (n, 3) array_like
        Vertex coordinates in meters.
    triangles : (m, 3) array_like
        Zero-based vertex indices.
    name : str
        Compartment / surface label.

    Raises
    ------
    TopologyError
        If the surface is not closed (some edge is not shared by exactly
        two triangles) or not consistently orientable.
    FormatError
        If a triangle references a node outside ``[0, n)``, is degenerate
        (zero area), or the arrays are malformed.
    """

    def __init__(self, nodes, triangles, name="surface"):
        nodes = np.ascontiguousarray(nodes, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise FormatError(f"nodes must be (n, 3), got {nodes.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise FormatError(f"triangles must be (m, 3), got {triangles.shape}")
        if not np.all(np.isfinite(nodes)):
            raise FormatError("non-finite node coordinate")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(nodes)):
            bad = triangles[(triangles < 0) | (triangles >= len(nodes))][0]
            raise FormatError(
                f"triangle references node {bad} outside 0..{len(nodes) - 1}")

        self.nodes = nodes
        self.triangles = triangles
        self.name = str(name)
        self.nodes.setflags(write=False)
        self.triangles.setflags(write=False)

        self._validate_topology()
        self._build_geometry()

    # -- validation -----------------------------------------------------

    def _validate_topology(self):
        tri = self.triangles
        if len(tri) < 4:
            raise TopologyError("a closed surface needs at least 4 triangles")
        a, b = tri.ravel(), np.roll(tri, -1, axis=1).ravel()  # edges (a, b)
        if np.any(a == b):
            raise TopologyError("triangle with a repeated vertex")
        # Edges as keys lo*n + hi; np.unique with return_counts sorts them
        # (a bare np.unique hashes, 10x slower at 245,760 keys, numpy 2.4).
        n = len(self.nodes)
        _, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                              return_counts=True)
        if np.any(counts != 2):
            raise TopologyError(
                f"surface '{self.name}' is not closed: "
                f"{np.count_nonzero(counts != 2)} edge(s) not shared by exactly "
                "2 triangles")
        # Consistently oriented: each directed edge a*n + b appears once.
        _, counts = np.unique(a * n + b, return_counts=True)
        if np.any(counts != 1):
            raise TopologyError(f"surface '{self.name}' is not consistently oriented")

    def _build_geometry(self):
        p = self.nodes[self.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        cross = np.cross(e1, e2)
        areas = 0.5 * np.linalg.norm(cross, axis=1)
        scale = float(np.max(np.ptp(self.nodes, axis=0))) or 1.0
        if np.any(areas <= 1e-16 * scale * scale):
            raise FormatError(
                f"surface '{self.name}' has {np.count_nonzero(areas <= 1e-16 * scale * scale)} "
                "degenerate triangle(s)")
        # Orientation sign: +1 if the stored winding produces outward normals
        # (enclosed signed volume positive), -1 otherwise.  Normals exposed by
        # this class are always outward.
        signed_vol = np.einsum("ij,ij->", p[:, 0], cross) / 6.0
        self._orient = 1.0 if signed_vol >= 0 else -1.0
        self._v0 = np.ascontiguousarray(p[:, 0])
        self._e1 = np.ascontiguousarray(e1)
        self._e2 = np.ascontiguousarray(e2)
        self._raw_normals = cross
        self.areas = areas
        self.normals = self._orient * cross / (2.0 * areas[:, None])
        self.areas.setflags(write=False)
        self.normals.setflags(write=False)
        self.bbox = np.array([self.nodes.min(axis=0), self.nodes.max(axis=0)])
        self._diameter = float(np.linalg.norm(self.bbox[1] - self.bbox[0]))
        self.enclosed_volume = abs(signed_vol)

    # -- queries --------------------------------------------------------

    def contains(self, points):
        """Vectorized inside-or-on-surface test.

        Parameters
        ----------
        points : (k, 3) or (3,) array_like

        Returns
        -------
        (k,) bool array (or scalar bool for a single point).
        """
        pts = as_points(points)
        single = np.ndim(points) == 1
        inside = np.zeros(len(pts), dtype=bool)

        # Quick bbox rejection.
        tol = 1e-9 * (self._diameter or 1.0)
        cand = np.all((pts >= self.bbox[0] - tol) & (pts <= self.bbox[1] + tol),
                      axis=1)
        idx = np.flatnonzero(cand)
        if idx.size:
            inside[idx] = self._contains_impl(pts[idx], tol)
        return bool(inside[0]) if single else inside

    def _contains_impl(self, pts, tol):
        inside = np.zeros(len(pts), dtype=bool)
        undecided = np.arange(len(pts))
        last_parity = np.zeros(len(pts), dtype=bool)
        for d in _RAY_DIRECTIONS:
            parity, suspect, onsurf = self._cast(pts[undecided], d, tol)
            inside[undecided[onsurf]] = True
            settle = ~suspect & ~onsurf
            inside[undecided[settle]] = parity[settle]
            last_parity[undecided] = parity
            undecided = undecided[suspect & ~onsurf]
            if undecided.size == 0:
                break
        # Pathological leftovers (every direction grazed): accept last parity.
        if undecided.size:
            logger.warning("%d point(s) grazed every ray direction on surface "
                           "'%s'; keeping the last parity", undecided.size,
                           self.name)
        inside[undecided] = last_parity[undecided]
        return inside

    def _cast(self, pts, direction, tol):
        """One Moller-Trumbore parity pass for all points along one ray.

        Returns per-point (parity, suspect, on_surface): ``suspect`` flags
        grazing hits that require a retry with another direction.
        """
        n_pts = len(pts)
        parity = np.zeros(n_pts, dtype=np.int64)
        suspect = np.zeros(n_pts, dtype=bool)
        onsurf = np.zeros(n_pts, dtype=bool)
        if n_pts == 0:
            return parity.astype(bool), suspect, onsurf

        # All Moller-Trumbore quantities reduce to affine functions of the
        # point, so the (points x triangles) blocks come out of three BLAS
        # products instead of 3-vector broadcasts:
        #   u = f * (p.h - v0.h),  v = f * (p.k - v0.k),  t = f * (p.n - v0.n)
        # with h = d x e2, k = e1 x d, n = e1 x e2.
        e1, e2, v0 = self._e1, self._e2, self._v0
        h = np.cross(direction, e2)
        k = np.cross(e1, direction)
        n = self._raw_normals
        a = np.einsum("ij,ij->i", e1, h)
        scale2 = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
        parallel = np.abs(a) <= 1e-12 * scale2
        f = np.where(parallel, 1.0, 1.0 / np.where(parallel, 1.0, a))
        c_h = np.einsum("ij,ij->i", v0, h)
        c_k = np.einsum("ij,ij->i", v0, k)
        c_n = np.einsum("ij,ij->i", v0, n)
        nrm_len = 2.0 * self.areas
        eb = 1e-10
        ok = ~parallel[None, :]

        # Chunk over points to bound the (points x triangles) temporaries.
        chunk = max(1, int(4_000_000 // max(len(e1), 1)))
        for lo in range(0, n_pts, chunk):
            sl = slice(lo, min(lo + chunk, n_pts))
            p = pts[sl]
            u = (p @ h.T - c_h) * f
            v = (p @ k.T - c_k) * f
            dn = p @ n.T - c_n
            t = dn * f
            w = u + v

            in_tri = (u >= -eb) & (v >= -eb) & (w <= 1.0 + eb)
            strict = (u > eb) & (v > eb) & (w < 1.0 - eb)

            hit = ok & strict & (t > tol)
            on = ok & in_tri & (np.abs(t) <= tol)
            graze = ok & in_tri & ~strict & (t > tol)
            # Coplanar triangles close to the point plane are unresolvable
            # along this direction; retry.
            copl = parallel[None, :] & (np.abs(dn) <= tol * nrm_len[None, :])

            parity[sl] = np.count_nonzero(hit, axis=1) & 1
            onsurf[sl] = np.any(on, axis=1)
            suspect[sl] = np.any(graze | copl, axis=1)
        return parity.astype(bool), suspect, onsurf

    def _line_parity(self, yz, line, x):
        """Per-point (inside, unsure) for points ``(x, yz[line])`` from one
        +x ray per line of the (y, z)-sorted ``yz``, the rays cast and the
        line-triangle pairs tested; ``inside`` is False where ``unsure``.

        Only the lines in a triangle's (y, z) box widened by ``widen`` are
        tested (sort and sweep, Ericson, Real-Time Collision Detection, 2005,
        ch. 7).  A line matters if it is inside the projected triangle offset
        outward by the band; the offset moves a vertex of angle t by band /
        sin(t/2) <= 2 band / sin(t) = 2 band |a| |b| / |n_x| (a, b its edges,
        |n_x| twice the projected area).  So widen = 2 band max|edge|^2 /
        |n_x|, or the band for x-parallel triangles, times 1 + 1e-6.
        """
        band = _LINE_BAND * (self._diameter or 1.0)
        lo, hi = self.bbox[0, 1:] - band, self.bbox[1, 1:] + band
        cand = np.flatnonzero(np.all((yz >= lo) & (yz <= hi), axis=1))

        v0, e1, e2, n = self._v0, self._e1, self._e2, self._raw_normals
        nx = n[:, 0]
        scale2 = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
        par = np.abs(nx) <= 1e-12 * scale2
        # Signed (y, z)-plane distance of a line from each edge of the
        # triangle's projection, positive inside: edge v0v2 (cu), v0v1 (cv),
        # v1v2 (nx - cu - cv).  x-parallel triangles get zero weights; a
        # line grazes one within the band of its plane (widened by the tilt
        # of a nearly parallel one) and of its (y, z) box.
        edges = np.stack([e2, e1, e2 - e1])
        length = np.hypot(edges[..., 1], edges[..., 2])
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(par, 0.0, np.sign(nx)) / length
            reach = band * np.linalg.norm(n, axis=1) / np.abs(nx)
            widen = band * (1 + 1e-6) * np.where(
                par, 1.0, 2 * length.max(axis=0) ** 2 / np.abs(nx))
        c = self.nodes[self.triangles.T]
        box_lo, box_hi = c.min(axis=0), c.max(axis=0)
        slack = (band * np.linalg.norm(n[:, 1:], axis=1)
                 + np.abs(nx) * (box_hi[:, 0] - box_lo[:, 0]))
        box_lo, box_hi = box_lo[:, 1:], box_hi[:, 1:]

        # Candidate pairs, in chunks of triangles whose y-slabs hold at most
        # 100,000 lines: per triangle the distinct line ys in its widened
        # box, then per (triangle, y) the lines with z in it.  A (y, z) pair
        # read as one complex number sorts as ``yz`` does.
        wlo, whi = box_lo - widen[:, None], box_hi + widen[:, None]
        key, ys = yz[cand].view(complex)[:, 0], yz[cand, 0]
        slab = np.cumsum(np.r_[0, np.searchsorted(ys, whi[:, 0], side="right")
                               - np.searchsorted(ys, wlo[:, 0])])
        ys = sorted_unique(ys)
        row0 = np.searchsorted(ys, wlo[:, 0])
        rows = np.searchsorted(ys, whi[:, 0], side="right") - row0
        unsure_line = np.zeros(len(yz), dtype=bool)
        cl, cx, cr = [], [], []         # crossings (line, x, reach)
        pairs = t0 = 0
        while t0 < len(v0):
            t1 = max(t0 + 1, int(np.searchsorted(slab, slab[t0] + 100_000,
                                                 side="right")) - 1)
            t = np.repeat(np.arange(t0, t1), rows[t0:t1])
            y = ys[_runs(row0[t0:t1], rows[t0:t1])]
            lohi = np.column_stack([y, wlo[t, 1], y, whi[t, 1]]).view(complex)
            first = np.searchsorted(key, lohi[:, 0])
            count = np.searchsorted(key, lohi[:, 1], side="right") - first
            li, t, t0 = cand[_runs(first, count)], np.repeat(t, count), t1
            pairs += li.size
            q = yz[li]
            dy = q[:, 0] - v0[t, 1]
            dz = q[:, 1] - v0[t, 2]
            cu = dy * e2[t, 2] - dz * e2[t, 1]
            cv = dz * e1[t, 1] - dy * e1[t, 2]
            m = np.minimum(np.minimum(cu * g[0, t], cv * g[1, t]),
                           (nx[t] - cu - cv) * g[2, t])
            cross = m > band
            unsure_line[li[~par[t] & (m >= -band) & ~cross]] = True
            r, tr = np.flatnonzero(cross), t[cross]
            cl.append(li[r])
            cx.append(v0[tr, 0] - (n[tr, 1] * dy[r] + n[tr, 2] * dz[r]) / nx[tr])
            cr.append(reach[tr])
            r, tr = np.flatnonzero(par[t]), t[par[t]]
            near_plane = np.abs(dy[r] * n[tr, 1] + dz[r] * n[tr, 2]) <= slack[tr]
            in_box = np.all((q[r] >= box_lo[tr] - band)
                            & (q[r] <= box_hi[tr] + band), axis=1)
            unsure_line[li[r[near_plane & in_box]]] = True

        # Crossings in line order (triangles ascending within a line).  Point
        # p lies left of crossing c if x_c - x_p > reach_c, and within the
        # band if |x_c - x_p| <= reach_c.
        order = np.argsort(np.concatenate(cl), kind="stable")
        cl, cx, cr = (np.concatenate(a)[order] for a in (cl, cx, cr))
        lines = np.arange(len(yz))
        first = np.searchsorted(cl, lines)[line]
        count = np.searchsorted(cl, lines, side="right")[line] - first
        right = np.zeros(len(x), dtype=np.int64)
        unsure = unsure_line[line]
        for k in range(int(count.max(initial=0))):
            on = np.flatnonzero(count > k)
            j = first[on] + k
            d = cx[j] - x[on]
            right[on] += d > cr[j]
            unsure[on] |= np.abs(d) <= cr[j]
        return (right & 1).astype(bool) & ~unsure, unsure, cand.size, pairs

    def nearest_triangles(self, points):
        """Index of the triangle nearest to each of the (k, 3) or (3,)
        ``points`` (:func:`as_points`; the lowest on ties) and its distance.

        Points go through in row chunks of at most 2**15 (point, triangle)
        pairs, which bounds the temporaries.
        """
        points = as_points(points)
        rows = max(1, (1 << 15) // len(self.triangles))
        j = np.empty(len(points), dtype=np.int64)
        d = np.empty(len(points))
        for lo in range(0, len(points), rows):
            d2 = _point_triangle_sqdist(points[lo:lo + rows], self._v0,
                                        self._e1, self._e2)
            j[lo:lo + rows] = np.argmin(d2, axis=1)
            d[lo:lo + rows] = np.sqrt(np.take_along_axis(
                d2, j[lo:lo + rows, None], axis=1)[:, 0])
        return j, d

    def __repr__(self):
        return (f"SurfaceMesh('{self.name}', {len(self.nodes)} nodes, "
                f"{len(self.triangles)} triangles)")


def _yz_lines(pts):
    """The distinct (y, z) pairs of the points in lexicographic order (the
    lines of the +x rays) and the line of each point."""
    order = np.lexsort((pts[:, 2], pts[:, 1]))
    y, z = pts[order, 1], pts[order, 2]
    new = np.ones(len(pts), dtype=bool)
    np.not_equal(y[1:], y[:-1], out=new[1:])
    new[1:] |= z[1:] != z[:-1]
    line = np.empty(len(pts), dtype=np.int64)
    line[order] = np.cumsum(new) - 1
    return np.column_stack([y[new], z[new]]), line


def _runs(start, count):
    """The ranges ``start[i] .. start[i] + count[i] - 1``, concatenated."""
    ends = np.cumsum(count)
    return np.repeat(start + count - ends, count) + np.arange(ends[-1:].sum())


def _point_triangle_sqdist(p, v0, e1, e2):
    """Squared distances (k, m) from (k, 3) points ``p`` to the m triangles
    (v0, v0+e1, v0+e2).

    Vectorized closest-point-on-triangle (Ericson, Real-Time Collision
    Detection, 5.1.5).  Coordinates lead the (3, k, m) intermediates, so
    each operation runs on whole (k, m) planes.
    """
    p = p.T[:, :, None]
    v0, e1, e2 = (np.ascontiguousarray(a.T)[:, None, :]
                  for a in (v0, e1, e2))
    ap = p - v0
    d1 = _dot3(e1, ap)
    d2 = _dot3(e2, ap)
    bp = ap - e1
    d3 = _dot3(e1, bp)
    d4 = _dot3(e2, bp)
    cp = ap - e2
    d5 = _dot3(e1, cp)
    d6 = _dot3(e2, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = np.where(d1 - d3 != 0, d1 / (d1 - d3), 0.0)
        t_ac = np.where(d2 - d6 != 0, d2 / (d2 - d6), 0.0)
        denom_bc = (d4 - d3) + (d5 - d6)
        t_bc = np.where(denom_bc != 0, (d4 - d3) / denom_bc, 0.0)
        denom = va + vb + vc
        v_in = np.where(denom != 0, vb / denom, 0.0)
        w_in = np.where(denom != 0, vc / denom, 0.0)

    closest = v0 + v_in * e1 + w_in * e2
    closest = np.where((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
                       v0 + e1 + t_bc * (e2 - e1), closest)
    closest = np.where((vb <= 0) & (d2 >= 0) & (d6 <= 0),
                       v0 + t_ac * e2, closest)
    closest = np.where((vc <= 0) & (d1 >= 0) & (d3 <= 0),
                       v0 + t_ab * e1, closest)
    closest = np.where((d6 >= 0) & (d5 <= d6), v0 + e2, closest)
    closest = np.where((d3 >= 0) & (d4 <= d3), v0 + e1, closest)
    closest = np.where((d1 <= 0) & (d2 <= 0), v0, closest)
    diff = closest - p
    return _dot3(diff, diff)


def _dot3(a, b):
    """Dot product over the leading axis of length 3, summed in the order
    numpy's einsum uses, so distances match its earlier per-point form."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def nearest_center(points, centers):
    """Index of the center nearest to each of the (k, 3) or (3,) ``points``
    (:func:`as_points`, as are ``centers``; the lowest on ties) and its
    distance.  Distances are sqrt((dx*dx + dy*dy) + dz*dz),
    the bits of ``np.linalg.norm(axis=-1)``, so exact ties on a lattice
    resolve alike.

    Below ``_PRUNE_PAIRS`` points x centers, or with fewer than
    ``_PRUNE_SIDE`` points or centers, every pair is evaluated in row
    chunks (:func:`_nearest_brute`).  Otherwise a k-d tree over the
    centers (``scipy.spatial.cKDTree``; Friedman, Bentley & Finkel, ACM
    TOMS 3, 1977) serves as a filter only: a point whose second nearest
    center is farther than its nearest by a relative ``_TIE_MARGIN`` has
    that nearest center under any rounding of the distance, and every other
    row (exact or near ties, duplicate centers, non-finite input) goes
    through the chunked search.  Every distance is then the formula above,
    so index and distance are those of the brute-force search, bit for bit.
    """
    points = as_points(points)
    centers = as_points(centers, "centers")
    if not len(centers):
        raise ParameterError("nearest_center needs at least one center")
    if (len(points) * len(centers) < _PRUNE_PAIRS
            or min(len(points), len(centers)) < _PRUNE_SIDE
            or not np.isfinite(centers).all()):
        return _nearest_brute(points, centers)
    from scipy.spatial import cKDTree
    rows = np.flatnonzero(np.isfinite(points).all(axis=1))
    d, j = cKDTree(centers).query(points[rows], k=2)
    sure = d[:, 1] > d[:, 0] * (1.0 + _TIE_MARGIN)
    rows, j = rows[sure], j[sure, 0]
    e = points[rows] - centers[j]
    r = e[:, 0] * e[:, 0]
    r += e[:, 1] * e[:, 1]
    r += e[:, 2] * e[:, 2]
    np.sqrt(r, out=r)
    # A distance that overflows the formula decides nothing either.
    sure = np.isfinite(r)
    rows = rows[sure]
    index = np.empty(len(points), dtype=np.int64)
    dist = np.empty(len(points))
    index[rows], dist[rows] = j[sure], r[sure]
    rest = np.ones(len(points), dtype=bool)
    rest[rows] = False
    index[rest], dist[rest] = _nearest_brute(points[rest], centers)
    return index, dist


def _nearest_brute(points, centers):
    """``nearest_center`` over every pair, in row chunks of at most 2**15
    pairs; two (rows, m) buffers are allocated once and reused by every
    chunk."""
    c = centers.T
    rows = max(1, (1 << 15) // c.shape[1])
    index = np.empty(len(points), dtype=np.int64)
    dist = np.empty(len(points))
    r_buf = np.empty((min(rows, len(points)), c.shape[1]))
    t_buf = np.empty_like(r_buf)
    for lo in range(0, len(points), rows):
        p = points[lo:lo + rows]
        r = _distances(p, c, r_buf[:len(p)], t_buf[:len(p)])
        j = r.argmin(axis=1)
        index[lo:lo + len(p)] = j
        dist[lo:lo + len(p)] = r[np.arange(len(p)), j]
    return index, dist


def distance_table(points):
    """(n, n) distances between all pairs of (n, 3) ``points`` by
    ``nearest_center``'s formula, in row chunks of at most 2**15 pairs.
    The formula is symmetric bit for bit (a - b is -(b - a) exactly), so
    row i holds the distances of every point to center i as
    ``nearest_center`` computes them."""
    points = np.asarray(points, dtype=float)
    n, c = len(points), points.T
    rows = max(1, (1 << 15) // max(n, 1))
    table = np.empty((n, n))
    t_buf = np.empty((min(rows, n), n))
    for lo in range(0, n, rows):
        p = points[lo:lo + rows]
        _distances(p, c, table[lo:lo + len(p)], t_buf[:len(p)])
    return table


def _distances(p, c, r, t):
    """sqrt((dx*dx + dy*dy) + dz*dz) between (k, 3) points ``p`` and the
    (3, m) columns ``c`` into the (k, m) buffer ``r``, with scratch ``t``."""
    np.subtract(p[:, :1], c[0], out=r)
    r *= r
    for k in (1, 2):
        np.subtract(p[:, k:k + 1], c[k], out=t)
        t *= t
        r += t
    return np.sqrt(r, out=r)


class Compartment:
    """One tissue compartment: a set of closed sub-surfaces sharing one
    conductivity, priority and active flag."""

    def __init__(self, surfaces, conductivity, priority=0, active=False,
                 name=None):
        if isinstance(surfaces, SurfaceMesh):
            surfaces = (surfaces,)
        surfaces = tuple(surfaces)
        if not surfaces:
            raise FormatError("compartment needs at least one surface")
        self.name = name if name is not None else surfaces[0].name
        cond = np.asarray(conductivity, dtype=float)
        if cond.ndim == 0:
            cond = float(cond)
        elif cond.shape != (6,):
            raise FormatError(
                "conductivity must be a scalar or a 6-entry tensor row "
                "(s11, s22, s33, s12, s13, s23)")
        check_conductivity(np.atleast_2d(cond) if np.ndim(cond) else cond,
                           f"compartment '{self.name}'")
        self.surfaces = surfaces
        self.conductivity = cond
        self.priority = int(priority)
        self.active = bool(active)

    @property
    def is_tensor(self):
        return not np.isscalar(self.conductivity)

    def __repr__(self):
        return f"Compartment('{self.name}', priority={self.priority}, active={self.active})"


class Segmentation:
    """Ordered multi-compartment head segmentation, innermost first."""

    def __init__(self, compartments):
        compartments = tuple(compartments)
        if not compartments:
            raise FormatError("segmentation needs at least one compartment")
        if len(compartments) > _MAX_COMPARTMENTS:
            raise FormatError(
                f"at most {_MAX_COMPARTMENTS} compartments supported, "
                f"got {len(compartments)}")
        self.compartments = compartments

    def __len__(self):
        return len(self.compartments)

    def __getitem__(self, i):
        return self.compartments[i]

    @property
    def has_tensor(self):
        return any(c.is_tensor for c in self.compartments)

    def bounding_box(self):
        los = [s.bbox[0] for c in self.compartments for s in c.surfaces]
        his = [s.bbox[1] for c in self.compartments for s in c.surfaces]
        return np.min(los, axis=0), np.max(his, axis=0)

    def locate(self, points):
        """Label each of the (k, 3) or (3,) ``points`` (:func:`as_points`)
        with the innermost enclosing compartment.

        Returns an int array with the compartment index, or -1 for points
        outside every compartment.  One DEBUG record on ``headfem.geometry``
        gives the points, the rays cast (lines within a surface's bounding
        box, summed over surfaces), the line-triangle pairs tested (summed
        over surfaces) and the points passed to ``SurfaceMesh.contains``.
        """
        pts = as_points(points)
        yz, line = _yz_lines(pts)
        labels = np.full(len(pts), -1, dtype=np.int64)
        n_rays = n_fallback = n_pairs = 0
        for k, comp in enumerate(self.compartments):
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
        logger.debug("labeled %d points: %d x-rays cast, %d line-triangle "
                     "pairs tested, %d points sent to the per-point fallback",
                     len(pts), n_rays, n_pairs, n_fallback)
        return labels


# ---------------------------------------------------------------------------
# File I/O: one row per line through the numeric-text codec of ``io``

def parse_surface_mesh(read, *files, name=None, scale=1.0):
    """The surface in a node and a triangle file or in one combined file
    (see the ``load_*`` functions) whose bytes are ``read(file)``.  Errors
    name the file; ``name`` defaults to the stem of the first one."""
    if len(files) == 2:
        nodes, triangles = (_parse_table(read(f), float, (3,), f)
                            for f in files)
    else:
        (path,) = files
        text = _uncommented(read(path))
        head = text.lstrip().partition(b"\n")[0]
        n_nodes, n_tris = _parse_table(head, np.int64, (2,),
                                       f"{path} header")[0]
        # Without the header's text, lines still count from the top.
        rows = _parse_table(text.replace(head, b"", 1), float, (3,), path)
        if min(n_nodes, n_tris) < 1 or len(rows) != n_nodes + n_tris:
            raise FormatError(
                f"{path}: {len(rows)} rows do not match the header "
                f"({n_nodes} nodes and {n_tris} triangles, each > 0)")
        nodes, triangles = rows[:n_nodes], rows[n_nodes:]
    if not np.all(np.isfinite(triangles) & (triangles == np.rint(triangles))):
        raise FormatError(f"{files[-1]}: triangle indices must be integers")
    if name is None:
        name = os.path.splitext(os.path.basename(str(files[0])))[0]
    return SurfaceMesh(nodes * float(scale), triangles.astype(np.int64) - 1,
                       name=name)


def load_surface_mesh(nodes_file, triangles_file, name=None, scale=1.0):
    """Load a surface from a node file and a triangle file.

    The node file holds one ``x y z`` triple per line; the triangle file one
    ``i j k`` triple of one-based node indices per line.  Coordinates are
    multiplied by ``scale`` (use e.g. ``1e-3`` for millimeter files).
    """
    return parse_surface_mesh(lambda p: Path(p).read_bytes(), nodes_file,
                              triangles_file, name=name, scale=scale)


def load_surface_mesh_asc(path, name=None, scale=1.0):
    """Load a surface from a single combined ASCII file: a header line
    ``n_nodes n_triangles``, then the node lines and the one-based triangle
    lines, each as in :func:`load_surface_mesh`."""
    return parse_surface_mesh(lambda p: Path(p).read_bytes(), path,
                              name=name, scale=scale)


def save_surface_mesh(mesh, nodes_file, triangles_file):
    """Write a surface as a node/triangle file pair (one-based indices).
    Coordinates have 17 significant digits, so a round trip is exact."""
    with open(nodes_file, "w") as fh:
        _write_rows(fh, "%.17g %.17g %.17g\n", mesh.nodes)
    with open(triangles_file, "w") as fh:
        _write_rows(fh, "%d %d %d\n", mesh.triangles + 1)


# ---------------------------------------------------------------------------
# Analytic surface generators (test fixtures and sphere phantoms)

def icosphere(radius=1.0, subdivisions=2, center=(0.0, 0.0, 0.0), name="sphere"):
    """Subdivided icosahedron with outward-oriented triangles."""
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
        # Midpoints of the edges ab, bc, ca of each face in turn, numbered
        # by first use and pushed out to the unit sphere.
        n = len(verts)
        ends = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, edge = np.unique(ends[:, 0] * n + ends[:, 1],
                                   return_index=True, return_inverse=True)
        order = np.argsort(first)
        lo, hi = ends[first[order]].T
        m = verts[lo] + verts[hi]
        verts = np.concatenate([verts, m / np.sqrt(np.vecdot(m, m))[:, None]])
        # Corners a, b, c, ab, bc, ca; children (a, ab, ca), (b, bc, ab),
        # (c, ca, bc) and (ab, bc, ca).
        corners = np.hstack([faces, n + np.argsort(order)[edge].reshape(-1, 3)])
        faces = corners[:, [0, 3, 5, 1, 4, 3, 2, 5, 4, 3, 4, 5]].reshape(-1, 3)
    nodes = verts * float(radius) + np.asarray(center, dtype=float)
    return SurfaceMesh(nodes, faces, name=name)


def box_surface(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0), name="box"):
    """Axis-aligned box as 12 outward-oriented triangles."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    nodes = np.array([
        [x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
        [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1],
    ])
    faces = np.array([
        [0, 2, 1], [0, 3, 2],          # bottom (z=z0), outward -z
        [4, 5, 6], [4, 6, 7],          # top, outward +z
        [0, 1, 5], [0, 5, 4],          # y=y0, outward -y
        [2, 3, 7], [2, 7, 6],          # y=y1, outward +y
        [0, 4, 7], [0, 7, 3],          # x=x0, outward -x
        [1, 2, 6], [1, 6, 5],          # x=x1, outward +x
    ], dtype=np.int64)
    return SurfaceMesh(nodes, faces, name=name)
