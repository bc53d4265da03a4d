"""The line labeler ``Segmentation.locate`` must reproduce the per-point
reference ``reference_locate`` on grid nodes and Kuhn centroids, including
grazing and on-surface cases, and its candidate-pair search must give the
same per-point results as the dense test of every line against every
triangle."""

import itertools
import unittest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfem.experiments import EitHemorrhageParams, layered_sphere_segmentation
from headfem.geometry import (
    _LINE_BAND,
    Compartment,
    Segmentation,
    SurfaceMesh,
    box_surface,
    icosphere,
)
from headfem.meshgen import generate_mesh

from conftest import reference_line_locate, reference_locate

_KUHN_OFFSETS = np.array(list(itertools.permutations((0.75, 0.5, 0.25))))


def kuhn_points(lo, n_cells, h):
    """Nodes of an n_cells grid from ``lo`` plus the 6 Kuhn centroids per
    cube; points of one x-line share bit-identical (y, z)."""
    idx = np.stack(np.meshgrid(*[np.arange(k + 1) for k in n_cells],
                               indexing="ij"), axis=-1).reshape(-1, 3)
    nodes = lo + h * idx
    cubes = nodes[np.all(idx < n_cells, axis=1)]
    cents = (cubes[:, None, :] + h * _KUHN_OFFSETS[None]).reshape(-1, 3)
    return np.vstack([nodes, cents])


def grid_over(seg, h, shift):
    lo, hi = seg.bounding_box()
    lo = lo - h * np.asarray(shift)
    n_cells = np.ceil((hi - lo) / h).astype(int) + 1
    return kuhn_points(lo, n_cells, h)


def locate_counted(seg, pts):
    """``seg.locate(pts)`` and the (rays, pairs, fallback) counts of its
    DEBUG record."""
    with unittest.TestCase().assertLogs("headfem.geometry", "DEBUG") as log:
        labels = seg.locate(pts)
    (rec,) = [r for r in log.records if r.levelname == "DEBUG"]
    n_points, *counts = rec.args
    assert n_points == len(pts)
    return labels, *counts


def assert_matches_oracle(seg, pts):
    labels, n_rays, _, n_fallback = locate_counted(seg, pts)
    np.testing.assert_array_equal(labels, reference_locate(seg, pts))
    assert 0 <= n_fallback <= len(pts)
    return n_rays, n_fallback


coord = st.floats(-1.0, 1.0)
unit = st.floats(0.0, 1.0)
settings_ = settings(max_examples=20, deadline=None)


@settings_
@given(radius=st.floats(0.2, 2.0), center=st.tuples(coord, coord, coord),
       cells=st.floats(4.0, 10.0), shift=st.tuples(unit, unit, unit))
def test_shifted_scaled_icosphere(radius, center, cells, shift):
    seg = Segmentation([Compartment(icosphere(radius, 2, center=center), 1.0)])
    assert_matches_oracle(seg, grid_over(seg, 2 * radius / cells, shift))


@settings_
@given(offset=st.tuples(coord, coord, coord), r_in=st.floats(0.2, 0.7),
       h=st.floats(0.25, 0.5), shift=st.tuples(unit, unit, unit))
def test_nested_and_multi_surface_compartments(offset, r_in, h, shift):
    # Innermost sphere, then a compartment made of two overlapping
    # sub-surfaces, then an enclosing box.
    a = icosphere(1.0, 1, name="a")
    b = icosphere(0.8, 1, center=np.asarray(offset) * 0.6, name="b")
    seg = Segmentation([
        Compartment(icosphere(r_in, 2, name="in"), 0.3),
        Compartment((a, b), 1.0),
        Compartment(box_surface((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5)), 0.1),
    ])
    assert_matches_oracle(seg, grid_over(seg, h, shift))


@settings_
@given(h=st.floats(0.05, 0.5), lo=st.tuples(coord, coord, coord),
       size=st.tuples(*[st.integers(1, 5)] * 3),
       inner=st.tuples(*[st.integers(0, 2)] * 3))
def test_boxes_on_grid_planes_go_to_fallback(h, lo, size, inner):
    # Outer box faces on node planes, inner box faces on half-cell planes
    # (centroid lines): lines run inside faces and through edges, and points
    # sit on the surfaces, so the per-point fallback must fire.
    lo = np.asarray(lo)
    n = np.asarray(size) + 2
    outer = box_surface(lo + h * 1, lo + h * (n + 1), name="outer")
    corner = 1 + 0.5 * np.asarray(inner)
    core = box_surface(lo + h * corner, lo + h * (corner + 1), name="core")
    seg = Segmentation([Compartment(core, 0.3), Compartment(outer, 1.0)])
    pts = kuhn_points(lo, n + 2, h)
    _, n_fallback = assert_matches_oracle(seg, pts)
    assert n_fallback > 0


def test_flat_surface_parallel_to_x():
    # A tetrahedron flattened into the plane z = 0 is closed and valid, but
    # every triangle is parallel to the rays: only the coplanar test sends
    # its on-surface points (inside, by convention) to the fallback.
    nodes = np.array([[1.0, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0]])
    flat = SurfaceMesh(nodes, [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    seg = Segmentation([Compartment(flat, 1.0)])
    pts = kuhn_points(np.array([-1.5, -1.5, -1.0]), (6, 6, 4), 0.5)
    labels, _, _, n_fallback = locate_counted(seg, pts)
    np.testing.assert_array_equal(labels, reference_locate(seg, pts))
    assert np.any(labels == 0) and n_fallback >= np.count_nonzero(labels == 0)


def test_points_off_any_grid():
    # No two points share a line: one ray per point, same labels.
    rng = np.random.default_rng(3)
    seg = Segmentation([Compartment(icosphere(0.5, 2), 1.0),
                        Compartment(icosphere(1.0, 2), 0.5)])
    pts = rng.uniform(-1.1, 1.1, size=(500, 3))
    n_rays, _ = assert_matches_oracle(seg, pts)
    assert n_rays >= 500


def test_generate_mesh_logs_rays_and_fallback(caplog):
    seg = Segmentation([Compartment(box_surface(), 1.0)])
    with caplog.at_level("DEBUG", logger="headfem.geometry"):
        generate_mesh(seg, 0.25)
    assert "x-rays cast" in caplog.text and "per-point fallback" in caplog.text
    assert "line-triangle pairs tested" in caplog.text


# Coordinates with exact repeats, both zeros and NaN, so that points share
# lines, lines differ only in the sign of a zero, and NaN rows occur.
_shared = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, 1.0 / 3, -0.7, 1.2,
                           np.nan])


@settings(max_examples=80, deadline=None)
@given(pts=st.lists(st.tuples(st.floats(-1.3, 1.3) | _shared, _shared,
                              _shared), max_size=60))
def test_lexsorted_lines_give_the_complex_unique_labels(pts):
    seg = Segmentation([
        Compartment(icosphere(0.5, 1, name="in"), 0.3),
        Compartment(box_surface((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)), 1.0)])
    pts = np.array(pts, dtype=float).reshape(-1, 3)
    labels, *counts = locate_counted(seg, pts)
    ref_labels, ref_counts = reference_line_locate(seg, pts)
    assert labels.dtype == ref_labels.dtype
    np.testing.assert_array_equal(labels, ref_labels)
    assert tuple(counts) == ref_counts


def test_empty_point_set():
    seg = Segmentation([Compartment(icosphere(1.0, 1), 1.0)])
    labels, n_rays, n_pairs, n_fallback = locate_counted(seg, np.zeros((0, 3)))
    assert labels.shape == (0,) and n_rays == n_fallback == n_pairs == 0


@settings_
@given(k=st.integers(2, 5), sub=st.integers(1, 2),
       radius=st.floats(0.1, 0.2),
       center=st.tuples(*[st.floats(-0.05, 0.05)] * 3),
       lo=st.tuples(*[st.integers(-4, -2)] * 3),
       hi=st.tuples(*[st.integers(2, 4)] * 3),
       s=st.tuples(*[st.integers(-8, 8)] * 3))
def test_labels_invariant_under_whole_grid_steps(k, sub, radius, center, lo,
                                                 hi, s):
    # Surfaces on the 2**-20 lattice, box corners and grid on multiples of
    # h = 2**-k: shifting both by s h changes no coordinate difference, so
    # no label may change.
    h, lo, hi = 2.0**-k, np.asarray(lo) / 8, np.asarray(hi) / 8
    shift = np.asarray(s) * h
    ico = icosphere(radius, sub, center=center)
    nodes = np.round(ico.nodes * 2**20) / 2**20
    seg, moved = (Segmentation([
        Compartment(SurfaceMesh(nodes + d, ico.triangles), 0.3),
        Compartment(box_surface(lo + d, hi + d), 1.0)]) for d in (0.0, shift))
    pts = grid_over(seg, h, (1, 1, 1))
    np.testing.assert_array_equal(seg.locate(pts), moved.locate(pts + shift))


def test_eit_desk_mesh_labels_match_oracle():
    p = EitHemorrhageParams()
    seg = layered_sphere_segmentation(p.radii, p.conductivities, p.priorities,
                                      (0,), p.subdivisions)
    mesh = generate_mesh(seg, p.resolution)
    oracle = reference_locate(seg, mesh.centroids())
    nl = reference_locate(seg, mesh.nodes)[mesh.tetra]
    top = nl.max(axis=1)
    keep = np.where(nl >= 0, nl, top[:, None]).min(axis=1) == top
    assert keep.sum() > 0.5 * mesh.n_elements     # thin shells: many straddle
    np.testing.assert_array_equal(mesh.labels[keep], oracle[keep])


# ---------------------------------------------------------------------------
# Candidate pairs against the dense line-triangle test


def dense_line_parity(surf, yz, line, x):
    """``SurfaceMesh._line_parity`` as one dense block over every (line,
    triangle) pair: per-point (inside, unsure, rays cast)."""
    band = _LINE_BAND * (surf._diameter or 1.0)
    lo, hi = surf.bbox[0, 1:] - band, surf.bbox[1, 1:] + band
    cand = np.flatnonzero(np.all((yz >= lo) & (yz <= hi), axis=1))

    v0, e1, e2, n = surf._v0, surf._e1, surf._e2, surf._raw_normals
    nx = n[:, 0]
    scale2 = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
    par = np.abs(nx) <= 1e-12 * scale2
    edges = np.stack([e2, e1, e2 - e1])
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(par, 0.0, np.sign(nx)) / np.hypot(edges[..., 1],
                                                      edges[..., 2])
        reach = band * np.linalg.norm(n, axis=1) / np.abs(nx)
    corners = surf.nodes[surf.triangles[par]]
    par_lo = corners[:, :, 1:].min(axis=1) - band
    par_hi = corners[:, :, 1:].max(axis=1) + band
    par_n = n[par, 1:]
    par_slack = (band * np.linalg.norm(par_n, axis=1)
                 + np.abs(nx[par]) * np.ptp(corners[:, :, 0], axis=1))

    unsure_line = np.zeros(len(yz), dtype=bool)
    cl, cx, cr = [np.zeros(0, dtype=np.int64)], [np.zeros(0)], [np.zeros(0)]
    chunk = max(1, 100_000 // len(v0))
    for start in range(0, cand.size, chunk):
        li = cand[start:start + chunk]
        q = yz[li]
        dy = q[:, :1] - v0[:, 1]
        dz = q[:, 1:] - v0[:, 2]
        cu = dy * e2[:, 2] - dz * e2[:, 1]
        cv = dz * e1[:, 1] - dy * e1[:, 2]
        m = np.minimum(np.minimum(cu * g[0], cv * g[1]), (nx - cu - cv) * g[2])
        cross = m > band
        near_plane = np.abs(dy[:, par] * par_n[:, 0]
                            + dz[:, par] * par_n[:, 1]) <= par_slack
        in_box = np.all((q[:, None] >= par_lo) & (q[:, None] <= par_hi),
                        axis=2)
        unsure_line[li] = (np.any(~par & (m >= -band) & ~cross, axis=1)
                           | np.any(near_plane & in_box, axis=1))
        r, t = np.nonzero(cross)
        cl.append(li[r])
        cx.append(v0[t, 0] - (n[t, 1] * dy[r, t] + n[t, 2] * dz[r, t]) / nx[t])
        cr.append(reach[t])

    cl, cx, cr = (np.concatenate(a) for a in (cl, cx, cr))
    first = np.searchsorted(cl, line)
    count = np.searchsorted(cl, line, side="right") - first
    right = np.zeros(len(x), dtype=np.int64)
    unsure = unsure_line[line]
    for k in range(int(count.max(initial=0))):
        on = np.flatnonzero(count > k)
        j = first[on] + k
        d = cx[j] - x[on]
        right[on] += d > cr[j]
        unsure[on] |= np.abs(d) <= cr[j]
    return (right & 1).astype(bool) & ~unsure, unsure, cand.size


def assert_pruned_matches_dense(surf, pts):
    """Same (inside, unsure, rays) from the candidate pairs as from the
    dense block; returns the pairs tested."""
    yz, line = np.unique(np.ascontiguousarray(pts[:, 1:]).view(complex)[:, 0],
                         return_inverse=True)
    yz = yz.view(float).reshape(-1, 2)
    *pruned, pairs = surf._line_parity(yz, line, pts[:, 0])
    dense = dense_line_parity(surf, yz, line, pts[:, 0])
    for a, b in zip(pruned, dense):
        np.testing.assert_array_equal(a, b)
    assert pairs <= dense[2] * len(surf.triangles)
    return pairs


def transformed(surf, seed, scale, center):
    """``surf`` rotated by a random rotation, scaled and moved."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return SurfaceMesh(surf.nodes @ q.T * scale + center, surf.triangles)


def on_lines(yz, xs):
    """Points on the x-lines through ``yz``, at every x in ``xs``."""
    yz = np.asarray(yz, dtype=float).reshape(-1, 2)
    return np.column_stack([np.repeat(xs, len(yz)), np.tile(yz, (len(xs), 1))])


def vertex_and_edge_lines(surf):
    """(y, z) of the lines through every vertex and through points on every
    edge: they graze the surface exactly or within rounding."""
    a = surf.nodes[surf.triangles][:, :, 1:]
    b = np.roll(a, -1, axis=1)
    s = np.array([0.25, 0.5, 0.75])[:, None, None, None]
    return np.vstack([surf.nodes[:, 1:], ((1 - s) * a + s * b).reshape(-1, 2)])


@settings_
@given(sub=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.05, 5.0), center=st.tuples(coord, coord, coord),
       cells=st.floats(3.0, 9.0), shift=st.tuples(unit, unit, unit))
def test_pruned_matches_dense_on_rotated_icospheres(sub, seed, scale, center,
                                                    cells, shift):
    surf = transformed(icosphere(1.0, sub), seed, scale, center)
    seg = Segmentation([Compartment(surf, 1.0)])
    pts = grid_over(seg, 2 * scale / cells, shift)
    lo, hi = surf.bbox
    pts = np.vstack([pts, on_lines(vertex_and_edge_lines(surf),
                                   np.linspace(lo[0], hi[0], 5))])
    assert_pruned_matches_dense(surf, pts)


@settings_
@given(h=st.floats(0.05, 0.5), lo=st.tuples(coord, coord, coord),
       size=st.tuples(*[st.integers(1, 4)] * 3), sub=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
def test_pruned_matches_dense_through_vertices_and_edges(h, lo, size, sub,
                                                          seed):
    # Box faces on grid planes (x-parallel triangles, lines along edges
    # and through corners), and an icosphere whose vertices and edge points
    # carry lines of their own.
    lo = np.asarray(lo)
    n = np.asarray(size) + 2
    box = box_surface(lo + h, lo + h * (n + 1))
    pts = kuhn_points(lo, n + 2, h)
    assert_pruned_matches_dense(box, pts)
    sphere = transformed(icosphere(1.0, sub), seed, h * n.min() / 2,
                         lo + h * (n + 2) / 2)
    x = np.linspace(sphere.bbox[0, 0], sphere.bbox[1, 0], 7)
    assert_pruned_matches_dense(
        sphere, np.vstack([pts, on_lines(vertex_and_edge_lines(sphere), x)]))


def sliver_surface(sub, flat, turn):
    """An icosphere flattened to ``flat`` in z and turned about the x axis:
    its faces are nearly x-parallel and project to skinny (y, z)
    triangles, whose sharp vertices lie inside the surface's box."""
    c, s = np.cos(turn), np.sin(turn)
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    ico = icosphere(1.0, sub)
    return SurfaceMesh(ico.nodes * [1.0, 1.0, flat] @ rot.T, ico.triangles)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings_
@given(sub=st.integers(1, 2), flat=st.floats(1e-4, 1e-2),
       turn=st.floats(0.0, np.pi), reach=st.lists(st.floats(0.05, 1.5),
                                                   max_size=2))
def test_pruned_matches_dense_near_sliver_vertices(sub, flat, turn, reach):
    # Lines on the outward bisector of each projected vertex, up to 1.5
    # times band / sin(angle / 2) away: the dense test flags those closer
    # than that, which for the sharp vertices lie far outside the
    # triangle's box widened by the band alone.  A vertex with a projected
    # edge of zero length (an x-parallel edge) or a projected angle of 0 or
    # pi has no bisector and is skipped.
    surf = sliver_surface(sub, flat, turn)
    band = _LINE_BAND * surf._diameter
    p = surf.nodes[surf.triangles][:, :, 1:]
    lines = []
    for k in range(3):
        v = p[:, k]
        a, b = p[:, (k + 1) % 3] - v, p[:, (k + 2) % 3] - v
        la, lb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
        keep = (la > 0) & (lb > 0)
        v, u, w = v[keep], a[keep] / la[keep, None], b[keep] / lb[keep, None]
        bisect = np.linalg.norm(u + w, axis=1, keepdims=True)
        sin_half = np.linalg.norm(u - w, axis=1, keepdims=True) / 2
        keep = (bisect[:, 0] > 0) & (sin_half[:, 0] > 0)
        v, out = v[keep], -(u + w)[keep] / bisect[keep]
        lines += [v + f * band / sin_half[keep] * out for f in [0.5, *reach]]
    lines = np.vstack(lines)
    assert np.all(np.isfinite(lines))
    assert_pruned_matches_dense(surf, on_lines(lines, np.linspace(-1, 1, 5)))


def test_pairs_tested_fall_far_below_lines_times_triangles():
    # EIT desk shells at subdivision 5 (20,480 triangles each) on the desk
    # grid: the candidate pairs are under 1 % of the dense block.
    p = EitHemorrhageParams()
    seg = layered_sphere_segmentation(p.radii, p.conductivities, p.priorities,
                                      (0,), 5)
    pts = grid_over(seg, p.resolution, (0.0, 0.0, 0.0))
    yz = np.unique(pts[:, 1:].copy().view(complex)[:, 0])
    yz = yz.view(float).reshape(-1, 2)
    for comp in seg.compartments:
        surf = comp.surfaces[0]
        *_, rays, pairs = surf._line_parity(yz, np.zeros(0, dtype=np.int64),
                                            np.zeros(0))
        assert rays > 1000
        assert pairs < 0.01 * rays * len(surf.triangles)
