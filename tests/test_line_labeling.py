"""The line labeler must reproduce the per-point oracle ``Segmentation.locate``
on grid nodes and Kuhn centroids, including grazing and on-surface cases."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from headfem.experiments import EitHemorrhageParams, layered_sphere_segmentation
from headfem.geometry import (
    Compartment,
    Segmentation,
    SurfaceMesh,
    box_surface,
    icosphere,
    locate_on_lines,
)
from headfem.meshgen import generate_mesh

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


def assert_matches_oracle(seg, pts):
    labels, n_rays, n_fallback = locate_on_lines(seg, pts)
    np.testing.assert_array_equal(labels, seg.locate(pts))
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
    labels, _, n_fallback = locate_on_lines(seg, pts)
    np.testing.assert_array_equal(labels, seg.locate(pts))
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
    with caplog.at_level("DEBUG", logger="headfem.meshgen"):
        generate_mesh(seg, 0.25)
    assert "x-rays cast" in caplog.text and "per-point fallback" in caplog.text


def test_empty_point_set():
    seg = Segmentation([Compartment(icosphere(1.0, 1), 1.0)])
    labels, n_rays, n_fallback = locate_on_lines(seg, np.zeros((0, 3)))
    assert labels.shape == (0,) and n_rays == n_fallback == 0


def test_eit_desk_mesh_labels_match_oracle():
    p = EitHemorrhageParams()
    seg = layered_sphere_segmentation(p.radii, p.conductivities, p.priorities,
                                      (0,), p.subdivisions)
    mesh = generate_mesh(seg, p.resolution)
    oracle = seg.locate(mesh.centroids())
    nl = seg.locate(mesh.nodes)[mesh.tetra]
    top = nl.max(axis=1)
    keep = np.where(nl >= 0, nl, top[:, None]).min(axis=1) == top
    assert keep.sum() > 0.5 * mesh.n_elements     # thin shells: many straddle
    np.testing.assert_array_equal(mesh.labels[keep], oracle[keep])
