from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfem.errors import ConfigError, EmptyMeshError, ParameterError
from headfem.geometry import Compartment, Segmentation, box_surface, icosphere
from headfem.meshgen import (
    SourceSpace,
    TetMesh,
    _apply_priorities,
    _nearest_normals,
    generate_mesh,
    place_sources,
    smooth_mesh,
    tet_volumes,
)

from conftest import reference_locate


class TestGenerateMesh:
    @pytest.mark.parametrize("h,expected", [(1.0, 6), (0.5, 48), (0.25, 384)])
    def test_unit_cube_element_count(self, unit_cube_segmentation, h, expected):
        # A Kuhn split yields 6 tetrahedra per cube, (1/h)^3 cubes in a unit
        # cube, hence 6/h^3 elements; enumeration confirms the construction.
        mesh = generate_mesh(unit_cube_segmentation, h)
        n_cubes = round(1.0 / h) ** 3
        assert mesh.n_elements == 6 * n_cubes == expected
        assert np.all(mesh.volumes > 0)
        np.testing.assert_allclose(mesh.volumes, h**3 / 6.0, rtol=1e-12)
        np.testing.assert_allclose(mesh.volumes.sum(), 1.0, rtol=1e-12)

    def test_nested_spheres_innermost_label(self, nested_sphere_segmentation):
        mesh = generate_mesh(nested_sphere_segmentation, 0.25)
        centroids = mesh.centroids()
        r = np.linalg.norm(centroids, axis=1)
        # Elements well inside the inner sphere carry the inner label.
        assert np.all(mesh.labels[r < 0.35] == 0)
        assert np.all(mesh.labels[(r > 0.6) & (r < 0.85)] == 1)

    def test_labels_match_oracle_when_priorities_equal(
            self, nested_sphere_segmentation):
        seg = Segmentation([
            Compartment(c.surfaces, c.conductivity, priority=0, active=c.active)
            for c in nested_sphere_segmentation.compartments])
        mesh = generate_mesh(seg, 0.3)
        oracle = reference_locate(seg, mesh.centroids())
        np.testing.assert_array_equal(mesh.labels, oracle)

    def test_priority_overrides_straddling_elements(self):
        # Two overlapping half-shifted cubes; the second has higher priority
        # (lower value), so straddling elements flip to it.
        a = box_surface((0, 0, 0), (1, 1, 1), name="a")
        b = box_surface((0.75, 0, 0), (1.75, 1, 1), name="b")
        seg = Segmentation([
            Compartment(a, 1.0, priority=2),
            Compartment(b, 1.0, priority=1),
        ])
        mesh = generate_mesh(seg, 0.5)
        centroids = mesh.centroids()
        nl = reference_locate(seg, mesh.nodes)[mesh.tetra]
        straddle = np.array([len(set(int(v) for v in row if v >= 0)) > 1
                             for row in nl])
        inside_a = centroids[:, 0] < 0.75
        assert np.all(mesh.labels[straddle & inside_a] == 1)
        # Non-straddling elements keep their centroid label.
        oracle = reference_locate(seg, centroids)
        np.testing.assert_array_equal(mesh.labels[~straddle], oracle[~straddle])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_priority_rule_matches_per_element_reference(self, data):
        k = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 30))
        pri = data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        node_label = np.array(data.draw(st.lists(
            st.integers(-1, k - 1), min_size=4 * m, max_size=4 * m)))
        labels = np.array(data.draw(st.lists(
            st.integers(0, k - 1), min_size=m, max_size=m)))
        tetra = np.arange(4 * m).reshape(m, 4)
        seg = SimpleNamespace(compartments=[SimpleNamespace(priority=p)
                                            for p in pri])
        expect = labels.copy()
        for e in range(m):
            touched = {int(l) for l in node_label[tetra[e]] if l >= 0}
            if len(touched) < 2:
                continue
            cands = touched | {int(labels[e])}
            best = min(pri[c] for c in cands)
            if pri[labels[e]] != best:
                expect[e] = min(c for c in cands if pri[c] == best)
        np.testing.assert_array_equal(
            _apply_priorities(seg, tetra, labels, node_label), expect)

    def test_sigma_filled_from_compartments(self, nested_sphere_segmentation):
        mesh = generate_mesh(nested_sphere_segmentation, 0.3)
        np.testing.assert_allclose(mesh.sigma[mesh.labels == 0], 0.33)
        np.testing.assert_allclose(mesh.sigma[mesh.labels == 1], 0.43)

    def test_tensor_compartment_widens_sigma(self):
        seg = Segmentation([
            Compartment(icosphere(0.5, 1), np.array([1.0, 2.0, 3.0, 0.1, 0.0, 0.0])),
            Compartment(icosphere(1.0, 1), 0.5),
        ])
        mesh = generate_mesh(seg, 0.4)
        assert mesh.sigma.shape == (mesh.n_elements, 6)
        outer = mesh.sigma[mesh.labels == 1]
        np.testing.assert_allclose(outer[:, :3], 0.5)
        np.testing.assert_allclose(outer[:, 3:], 0.0)

    def test_sphere_volume_convergence(self):
        r = 1.0
        seg = Segmentation([Compartment(icosphere(r, 3), 1.0, active=True)])
        mesh = generate_mesh(seg, r / 10.0)
        vol = mesh.volumes.sum()
        exact = 4.0 / 3.0 * np.pi * r**3
        assert abs(vol - exact) / exact < 0.10

    def test_empty_mesh_error(self):
        tiny = icosphere(0.05, 1, center=(0.9, 0.9, 0.9))
        big = icosphere(0.05, 1, center=(0.05, 0.05, 0.05))
        seg = Segmentation([Compartment(tiny, 1.0), Compartment(big, 1.0)])
        with pytest.raises(EmptyMeshError):
            generate_mesh(seg, 2.5)  # all centroids miss both blobs

    @settings(max_examples=25, deadline=None)
    @given(h=st.floats(0.01, 2.0), cells=st.tuples(*[st.integers(1, 6)] * 3),
           lo=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
    def test_kuhn_mesh_of_grid_aligned_box(self, h, cells, lo):
        # A box of whole grid cells meshes into 6/h^3 positive elements per
        # unit volume, and the mesh is conforming: every face is on one
        # element (the box surface, two per cell square) or exactly two.
        n = np.array(cells)
        lo = np.array(lo)
        hi = lo + h * n
        mesh = generate_mesh(Segmentation([Compartment(
            box_surface(lo, hi), 1.0)]), h)
        assert np.all(mesh.volumes > 0)
        assert mesh.n_elements == 6 * np.prod(n)
        np.testing.assert_allclose(
            mesh.n_elements * h**3 / np.prod(hi - lo), 6.0, rtol=1e-9)
        faces, element_faces, face_elements = mesh.face_table()
        counts = np.bincount(element_faces.ravel(), minlength=len(faces))
        assert counts.max() <= 2
        np.testing.assert_array_equal(face_elements[:, 1] >= 0, counts == 2)
        assert np.all(face_elements[counts == 2, 0]
                      < face_elements[counts == 2, 1])
        nx, ny, nz = n
        assert np.sum(counts == 1) == 4 * (nx * ny + ny * nz + nz * nx)

    def test_bad_resolution(self, unit_cube_segmentation):
        with pytest.raises(ParameterError):
            generate_mesh(unit_cube_segmentation, 0.0)

    def test_boundary_faces_point_outward(self, unit_cube_segmentation):
        mesh = generate_mesh(unit_cube_segmentation, 0.5)
        faces, owners = mesh.boundary_triangles()
        p = mesh.nodes[faces]
        normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        outward = p.mean(axis=1) - mesh.centroids()[owners]
        assert np.all(np.einsum("ij,ij->i", normals, outward) > 0)


class TestSmoothMesh:
    def test_zero_iterations_identity(self, unit_cube_segmentation):
        mesh = generate_mesh(unit_cube_segmentation, 0.5)
        assert smooth_mesh(mesh, iterations=0) is mesh

    def test_cube_centroid_preserved(self, unit_cube_segmentation):
        mesh = generate_mesh(unit_cube_segmentation, 0.25)
        sm = smooth_mesh(mesh, iterations=2, step=0.3)
        before = mesh.nodes.mean(axis=0)
        after = sm.nodes.mean(axis=0)
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_volumes_stay_positive(self, nested_sphere_segmentation):
        mesh = generate_mesh(nested_sphere_segmentation, 0.22)
        sm = smooth_mesh(mesh, iterations=3, step=0.45)
        assert tet_volumes(sm.nodes, sm.tetra).min() > 0

    def test_connectivity_and_labels_unchanged(self, nested_sphere_segmentation):
        mesh = generate_mesh(nested_sphere_segmentation, 0.3)
        sm = smooth_mesh(mesh, iterations=1)
        np.testing.assert_array_equal(sm.tetra, mesh.tetra)
        np.testing.assert_array_equal(sm.labels, mesh.labels)
        np.testing.assert_array_equal(sm.sigma, mesh.sigma)

    def test_sphere_surface_gets_rounder(self, nested_sphere_segmentation):
        # Staircase boundary nodes should move toward the smooth sphere.
        mesh = generate_mesh(nested_sphere_segmentation, 0.22)
        sm = smooth_mesh(mesh, iterations=2, step=0.3)
        assert not np.allclose(sm.nodes, mesh.nodes)

    @pytest.mark.parametrize("step", [0.0, 1.0, -0.5, 1.5])
    def test_bad_step(self, unit_cube_segmentation, step):
        mesh = generate_mesh(unit_cube_segmentation, 0.5)
        with pytest.raises(ParameterError):
            smooth_mesh(mesh, iterations=1, step=step)


class TestPlaceSources:
    def test_single_element_contains_all(self):
        nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        tetra = np.array([[0, 1, 2, 3]])
        mesh = TetMesh(nodes, tetra, np.array([0]), np.array([1.0]))
        seg = Segmentation([Compartment(icosphere(2.0, 1), 1.0, active=True)])
        src = place_sources(mesh, seg, 3, seed=5)
        assert src.n_sources == 3
        assert np.all(src.element_ids == 0)
        # Inside the reference tetrahedron: barycentric coords positive.
        assert np.all(src.positions >= 0)
        assert np.all(src.positions.sum(axis=1) <= 1)

    def test_constrained_orientations_outward_unit(self):
        seg = Segmentation([Compartment(icosphere(1.0, 2), 1.0, active=True)])
        mesh = generate_mesh(seg, 0.3)
        src = place_sources(mesh, seg, 25, mode="constrained", seed=11)
        norms = np.linalg.norm(src.orientations, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        radial = src.positions / np.linalg.norm(src.positions, axis=1, keepdims=True)
        assert np.all(np.einsum("ij,ij->i", src.orientations, radial) > 0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 300),
           h=st.floats(0.15, 0.3))
    def test_constrained_matches_per_source_loop(self, seed, n, h):
        # Two active compartments, the inner one made of two disjoint
        # spheres: the batched pass picks bit for bit the normals of a loop
        # of nearest_triangle calls over each source's surfaces.
        seg = Segmentation([
            Compartment([icosphere(0.3, 2, center=(-0.4, 0, 0)),
                         icosphere(0.3, 1, center=(0.4, 0, 0))], 1.0,
                        active=True),
            Compartment(icosphere(1.0, 2), 0.5, active=True)])
        mesh = generate_mesh(seg, h)
        src = place_sources(mesh, seg, n, mode="constrained", seed=seed)
        np.testing.assert_array_equal(src.orientations,
                                      _per_source_orientations(mesh, seg, src))

    def test_nearest_normals_tie_rules(self):
        # Dyadic points make distances exact.  The cube [0,1]^3 and the box
        # [1,2]x[0,1]^2 share the face x = 1 with opposite outward normals:
        # at equal distance the earlier surface wins.  The cube center is
        # equidistant to all 12 cube triangles: the lowest index wins.
        cube, box = box_surface(), box_surface((1, 0, 0), (2, 1, 1))
        pts = np.array([[0.875, 0.5, 0.25], [1.125, 0.25, 0.5],
                        [0.5, 0.5, 0.5], [0.25, 0.125, 0.5]])
        for surfaces in ([cube, box], [box, cube]):
            got = _nearest_normals(surfaces, pts)
            np.testing.assert_array_equal(got,
                                          _per_point_normals(surfaces, pts))
            first = 1.0 if surfaces[0] is cube else -1.0
            np.testing.assert_array_equal(got[:2], [[first, 0, 0]] * 2)
        j, _ = cube.nearest_triangles(pts[2:3])
        assert j[0] == cube.nearest_triangle(pts[2])[0] == 0

    def test_same_seed_reproducible(self, nested_sphere_segmentation):
        mesh = generate_mesh(nested_sphere_segmentation, 0.3)
        a = place_sources(mesh, nested_sphere_segmentation, 10, seed=3)
        b = place_sources(mesh, nested_sphere_segmentation, 10, seed=3)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.element_ids, b.element_ids)

    def test_volume_weighted_sampling(self):
        # Two elements with volume ratio 3:1; counts must fall within 3 sigma
        # of the multinomial expectation over 1e5 draws.
        nodes = np.array([
            [0, 0, 0], [3, 0, 0], [0, 1, 0], [0, 0, 1],   # volume 1/2
            [10, 0, 0], [11, 0, 0], [10, 1, 0], [10, 0, 1],  # volume 1/6
        ], dtype=float)
        tetra = np.array([[0, 1, 2, 3], [4, 5, 6, 7]])
        mesh = TetMesh(nodes, tetra, np.zeros(2, dtype=int), np.ones(2))
        seg = Segmentation([Compartment(icosphere(20.0, 1), 1.0, active=True)])
        n = 100_000
        src = place_sources(mesh, seg, n, seed=12345)
        n_big = np.count_nonzero(src.element_ids == 0)
        p = 0.75
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(n_big - n * p) < 3 * sigma

    def test_no_active_compartment(self, unit_cube_segmentation):
        seg = Segmentation([Compartment(
            unit_cube_segmentation[0].surfaces, 1.0, active=False)])
        mesh = generate_mesh(seg, 0.5)
        with pytest.raises(ConfigError):
            place_sources(mesh, seg, 5)

    def test_unconstrained_has_no_orientations(self, unit_cube_segmentation):
        mesh = generate_mesh(unit_cube_segmentation, 0.5)
        src = place_sources(mesh, unit_cube_segmentation, 4, seed=1)
        assert src.orientations is None
        assert src.mode == "unconstrained"
        assert src.n_components == 3


def _per_point_normals(surfaces, points):
    """Reference: one nearest_triangle call per (point, surface); a later
    surface wins only when strictly nearer."""
    out = np.empty((len(points), 3))
    for i, p in enumerate(points):
        best = (np.inf, None, None)
        for surf in surfaces:
            j, d = surf.nearest_triangle(p)
            if d < best[0]:
                best = (d, surf, j)
        out[i] = best[1].normals[best[2]]
    return out


def _per_source_orientations(mesh, seg, src):
    return np.concatenate([
        _per_point_normals(seg.compartments[mesh.labels[e]].surfaces, p[None])
        for p, e in zip(src.positions, src.element_ids)])
