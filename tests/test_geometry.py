import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfem import geometry
from headfem.errors import FormatError, TopologyError
from headfem.geometry import (
    Compartment,
    Segmentation,
    SurfaceMesh,
    box_surface,
    icosphere,
    load_surface_mesh,
    load_surface_mesh_asc,
    nearest_center,
    point_in_compartment,
    save_surface_mesh,
)

from conftest import TET_NODES, TET_TRIS, reference_locate


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestLoadSurfaceMesh:
    def test_regular_tetrahedron(self, tmp_path):
        _write(tmp_path / "n.dat", [" ".join(map(str, r)) for r in TET_NODES])
        _write(tmp_path / "t.dat", [" ".join(str(i + 1) for i in r) for r in TET_TRIS])
        mesh = load_surface_mesh(tmp_path / "n.dat", tmp_path / "t.dat")
        assert len(mesh.nodes) == 4
        assert len(mesh.triangles) == 4
        np.testing.assert_array_equal(mesh.triangles, TET_TRIS)

    def test_cube_euler_characteristic(self, cube_surface):
        # V - E + F = 8 - 18 + 12 = 2 for a genus-0 surface.
        assert cube_surface.euler_characteristic() == 2
        assert len(cube_surface.nodes) == 8
        assert len(cube_surface.triangles) == 12

    def test_out_of_range_index(self, tmp_path):
        _write(tmp_path / "n.dat", [" ".join(map(str, r)) for r in TET_NODES])
        tris = TET_TRIS.copy()
        tris[0, 0] = 8  # node 9 in one-based terms, file has 4 nodes
        _write(tmp_path / "t.dat", [" ".join(str(i + 1) for i in r) for r in tris])
        with pytest.raises(IndexError):
            load_surface_mesh(tmp_path / "n.dat", tmp_path / "t.dat")

    def test_open_surface_rejected(self):
        with pytest.raises(TopologyError):
            SurfaceMesh(TET_NODES, TET_TRIS[:3])

    def test_inconsistent_orientation_rejected(self):
        tris = TET_TRIS.copy()
        tris[0] = tris[0][::-1]
        with pytest.raises(TopologyError):
            SurfaceMesh(TET_NODES, tris)

    def test_parse_failure(self, tmp_path):
        _write(tmp_path / "n.dat", ["0 0 zero", "1 0 0", "0 1 0", "0 0 1"])
        _write(tmp_path / "t.dat", ["1 2 3"])
        with pytest.raises(FormatError):
            load_surface_mesh(tmp_path / "n.dat", tmp_path / "t.dat")

    def test_wrong_column_count(self, tmp_path):
        _write(tmp_path / "n.dat", ["0 0", "1 0", "0 1"])
        _write(tmp_path / "t.dat", ["1 2 3"])
        with pytest.raises(FormatError):
            load_surface_mesh(tmp_path / "n.dat", tmp_path / "t.dat")

    def test_degenerate_triangle_rejected(self):
        nodes = np.vstack([TET_NODES, TET_NODES[0]])  # duplicate coordinates
        tris = TET_TRIS.copy()
        tris[0] = [0, 4, 2]  # nodes 0 and 4 coincide -> zero area? no: area fine
        # Build an actual zero-area triangle instead.
        nodes = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]])
        tris = np.array([[0, 1, 2], [0, 2, 1], [0, 1, 3], [0, 3, 1]])
        with pytest.raises((FormatError, TopologyError)):
            SurfaceMesh(nodes, tris)

    def test_unit_scale(self, tmp_path):
        _write(tmp_path / "n.dat", [" ".join(map(str, r)) for r in TET_NODES])
        _write(tmp_path / "t.dat", [" ".join(str(i + 1) for i in r) for r in TET_TRIS])
        mm = load_surface_mesh(tmp_path / "n.dat", tmp_path / "t.dat", scale=1e-3)
        np.testing.assert_allclose(mm.nodes, TET_NODES * 1e-3)

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        sphere = icosphere(radius=0.0923, subdivisions=1,
                           center=rng.normal(size=3) * 0.01)
        save_surface_mesh(sphere, tmp_path / "n.dat", tmp_path / "t.dat")
        again = load_surface_mesh(tmp_path / "n.dat", tmp_path / "t.dat")
        assert np.array_equal(sphere.nodes, again.nodes)  # exact, not approx
        save_surface_mesh(again, tmp_path / "n2.dat", tmp_path / "t2.dat")
        assert (tmp_path / "n.dat").read_bytes() == (tmp_path / "n2.dat").read_bytes()

    def test_asc_roundtrip(self, tmp_path):
        lines = ["# tetra in combined layout", "4 4"]
        lines += [" ".join(map(str, r)) for r in TET_NODES]
        lines += [" ".join(str(i + 1) for i in r) for r in TET_TRIS]
        _write(tmp_path / "m.asc", lines)
        mesh = load_surface_mesh_asc(tmp_path / "m.asc")
        assert len(mesh.nodes) == 4 and len(mesh.triangles) == 4
        np.testing.assert_allclose(mesh.nodes, TET_NODES)

    def test_asc_bad_header(self, tmp_path):
        _write(tmp_path / "m.asc", ["4", "0 0 0"])
        with pytest.raises(FormatError):
            load_surface_mesh_asc(tmp_path / "m.asc")


class TestContainment:
    def test_tet_centroid_inside(self, tet_surface):
        seg = Segmentation([Compartment(tet_surface, 1.0)])
        assert point_in_compartment(seg, TET_NODES.mean(axis=0)) == 0

    def test_far_point_outside(self, tet_surface):
        seg = Segmentation([Compartment(tet_surface, 1.0)])
        r = np.linalg.norm(TET_NODES, axis=1).max()
        assert point_in_compartment(seg, np.array([10 * r, 0.0, 0.0])) is None

    def test_nested_spheres_innermost_wins(self, nested_sphere_segmentation):
        seg = nested_sphere_segmentation
        assert point_in_compartment(seg, np.zeros(3)) == 0
        assert point_in_compartment(seg, np.array([0.0, 0.0, 0.8])) == 1
        assert point_in_compartment(seg, np.array([0.0, 0.0, 1.5])) is None

    def test_on_surface_counts_as_inside(self, cube_surface):
        seg = Segmentation([Compartment(cube_surface, 1.0)])
        # Face interior point, edge midpoint, and corner of the unit cube.
        for p in ([0.5, 0.5, 1.0], [0.5, 0.0, 0.0], [1.0, 1.0, 1.0]):
            assert point_in_compartment(seg, np.array(p)) == 0

    def test_parity_independent_of_ray_direction(self, tet_surface):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1.5, 1.5, size=(40, 3))
        ref = None
        for _ in range(10):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            tol = 1e-9 * tet_surface._diameter
            par, suspect, onsurf = tet_surface._cast(pts, d, tol)
            assert not suspect.any()
            assert not onsurf.any()
            if ref is None:
                ref = par
            np.testing.assert_array_equal(par, ref)

    def test_axis_aligned_ray_on_cube(self, cube_surface):
        # First fixed direction must not be confused by axis-aligned faces.
        pts = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [-0.1, 0.2, 0.3]])
        np.testing.assert_array_equal(cube_surface.contains(pts),
                                      [True, False, False])

    def test_every_direction_grazing_is_logged(self, cube_surface, caplog,
                                               monkeypatch):
        # With +x as the only direction, a ray through the diagonal of the
        # x = 1 face grazes and cannot be retried.
        monkeypatch.setattr(geometry, "_RAY_DIRECTIONS", np.array([[1.0, 0, 0]]))
        with caplog.at_level("WARNING", logger="headfem.geometry"):
            cube_surface.contains(np.array([[0.25, 0.5, 0.5], [0.5, 0.2, 0.7]]))
        assert "1 point(s) grazed every ray direction" in caplog.text

    def test_batch_matches_single(self, nested_sphere_segmentation):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.2, 1.2, size=(60, 3))
        batch = nested_sphere_segmentation.locate(pts)
        np.testing.assert_array_equal(
            batch, reference_locate(nested_sphere_segmentation, pts))
        for p, expect in zip(pts, batch):
            got = point_in_compartment(nested_sphere_segmentation, p)
            assert (got if got is not None else -1) == expect


class TestCompartment:
    def test_merged_submeshes(self):
        left = icosphere(0.3, 1, center=(-0.5, 0, 0), name="lh")
        right = icosphere(0.3, 1, center=(0.5, 0, 0), name="rh")
        comp = Compartment((left, right), 0.33, name="cortex")
        pts = np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(Segmentation([comp]).locate(pts),
                                      [0, 0, -1])

    def test_compartment_cap(self):
        s = icosphere(1.0, 0)
        comps = [Compartment(s, 1.0) for _ in range(28)]
        with pytest.raises(FormatError):
            Segmentation(comps)

    def test_tensor_row_validation(self):
        s = icosphere(1.0, 0)
        Compartment(s, np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(FormatError):
            Compartment(s, np.array([1.0, 2.0]))


class TestGenerators:
    def test_icosphere_closed_and_outward(self):
        s = icosphere(radius=2.0, subdivisions=2)
        assert s.euler_characteristic() == 2
        # Outward normals: dot(normal, radial) > 0 everywhere on a sphere.
        centers = s.nodes[s.triangles].mean(axis=1)
        assert np.all(np.einsum("ij,ij->i", s.normals, centers) > 0)
        # Enclosed volume approaches 4/3 pi r^3 from below.
        vol = s.enclosed_volume
        assert 0.9 * 4 / 3 * np.pi * 8 < vol < 4 / 3 * np.pi * 8

    def test_box_outward(self, cube_surface):
        centers = cube_surface.nodes[cube_surface.triangles].mean(axis=1)
        out = centers - 0.5
        assert np.all(np.einsum("ij,ij->i", cube_surface.normals, out) > 0)

    def test_nearest_triangle(self, cube_surface):
        j, d = cube_surface.nearest_triangle(np.array([0.5, 0.5, 2.0]))
        assert d == pytest.approx(1.0)
        assert np.allclose(cube_surface.normals[j], [0, 0, 1])


class TestNearestCenter:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lattice=st.booleans(),
           n_points=st.integers(1, 12),
           n_centers=st.one_of(st.integers(1, 50),
                               st.sampled_from([2**13 + 1, 2**14 + 3])))
    def test_matches_per_point_loop(self, seed, lattice, n_points,
                                    n_centers):
        # 2**13 + 1 centers make row chunks of 3 points, 2**14 + 3 of one,
        # so up to 12 points cross chunk boundaries.  Integer lattices
        # force exact distance ties.
        rng = np.random.default_rng(seed)
        if lattice:
            points = rng.integers(-3, 4, size=(n_points, 3)).astype(float)
            centers = rng.integers(-3, 4, size=(n_centers, 3)).astype(float)
        else:
            points = rng.normal(size=(n_points, 3))
            centers = rng.normal(size=(n_centers, 3))
        index, dist = nearest_center(points, centers)
        for i, p in enumerate(points):
            d = np.linalg.norm(centers - p, axis=1)
            j = int(np.argmin(d))            # the first of tied minima
            assert index[i] == j
            assert dist[i] == d[j]

    def test_single_point(self):
        index, dist = nearest_center([0.0, 0.0, 1.0],
                                     [[0, 0, 2.0], [0, 0, 0.0], [3, 0, 0]])
        assert index.tolist() == [0] and dist.tolist() == [1.0]
