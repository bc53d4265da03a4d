import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from headfem import geometry
from headfem.errors import FormatError, ParameterError, TopologyError
from headfem.geometry import (
    Compartment,
    Segmentation,
    SurfaceMesh,
    box_surface,
    icosphere,
    load_surface_mesh,
    load_surface_mesh_asc,
    nearest_center,
    save_surface_mesh,
)

from conftest import (
    TET_NODES,
    TET_TRIS,
    reference_icosphere,
    reference_locate,
)


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")


def euler_characteristic(surface):
    """V - E + F (2 for a genus-0 closed surface)."""
    t = surface.triangles
    edges = np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=2), axis=2)
    return (len(surface.nodes) - len(np.unique(edges.reshape(-1, 2), axis=0))
            + len(t))


def label(seg, point):
    """The compartment that ``Segmentation.locate`` gives one point (-1:
    outside every one)."""
    return int(seg.locate(np.asarray(point, dtype=float)[None, :])[0])


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
        assert euler_characteristic(cube_surface) == 2
        assert len(cube_surface.nodes) == 8
        assert len(cube_surface.triangles) == 12

    def test_out_of_range_index(self, tmp_path):
        _write(tmp_path / "n.dat", [" ".join(map(str, r)) for r in TET_NODES])
        tris = TET_TRIS.copy()
        tris[0, 0] = 8  # node 9 in one-based terms, file has 4 nodes
        _write(tmp_path / "t.dat", [" ".join(str(i + 1) for i in r) for r in tris])
        with pytest.raises(FormatError, match="outside 0..3"):
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


def load_lines(tmp_path, layout, node_lines, tri_lines):
    """The surface of these node and triangle lines, written as a node /
    triangle file pair or as one ``.asc`` file (whose header counts the
    lines that hold values)."""
    if layout == "pair":
        _write(tmp_path / "n.dat", node_lines)
        _write(tmp_path / "t.dat", tri_lines)
        return load_surface_mesh(tmp_path / "n.dat", tmp_path / "t.dat")
    count = [sum(bool(ln.partition("#")[0].strip()) for ln in lines)
             for lines in (node_lines, tri_lines)]
    _write(tmp_path / "m.asc", ["# combined layout", "%d %d" % tuple(count)]
           + node_lines + tri_lines)
    return load_surface_mesh_asc(tmp_path / "m.asc")


NODE_LINES = [" ".join(map(str, r)) for r in TET_NODES]
TRI_LINES = [" ".join(str(i + 1) for i in r) for r in TET_TRIS]


@pytest.mark.parametrize("layout", ["pair", "asc"])
class TestSurfaceText:
    """One reader for both surface layouts: ``#`` comments, blank lines,
    one-based integral indices, and a FormatError naming the file."""

    def test_comments_and_blank_lines(self, tmp_path, layout):
        nodes = ["# x y z", ""] + [f"  {ln}  # node {k + 1}"
                                   for k, ln in enumerate(NODE_LINES)]
        tris = [TRI_LINES[0], "", "   ", TRI_LINES[1] + "#", "#",
                *TRI_LINES[2:]]
        mesh = load_lines(tmp_path, layout, nodes, tris)
        np.testing.assert_array_equal(mesh.nodes, TET_NODES)
        np.testing.assert_array_equal(mesh.triangles, TET_TRIS)

    def test_integral_float_indices(self, tmp_path, layout):
        tris = [" ".join(f"{i + 1}.0" for i in r) for r in TET_TRIS]
        mesh = load_lines(tmp_path, layout, NODE_LINES, tris)
        np.testing.assert_array_equal(mesh.triangles, TET_TRIS)
        tris[2] = "1 3.5 4"
        with pytest.raises(FormatError, match="indices must be integers"):
            load_lines(tmp_path, layout, NODE_LINES, tris)

    @pytest.mark.parametrize("token", ["x", "1,5", "0x1"])
    def test_non_numeric_token_names_the_file(self, tmp_path, layout, token):
        nodes = NODE_LINES[:1] + [f"0 0 {token}"] + NODE_LINES[2:]
        # Lines count from the top: the .asc file has two lines above.
        name, line = ("n.dat", 2) if layout == "pair" else ("m.asc", 4)
        with pytest.raises(FormatError, match=f"{name}: line {line}, "
                           f"column 3: '{token}' is not a number"):
            load_lines(tmp_path, layout, nodes, TRI_LINES)

    def test_ragged_rows_name_the_line(self, tmp_path, layout):
        # Eight values on two lines of 2 and 4 (no fill by value count alone).
        nodes = ["0 0", "0 1 0 0"] + NODE_LINES[2:]
        with pytest.raises(FormatError, match="line .* do not fill a row of 3"):
            load_lines(tmp_path, layout, nodes, TRI_LINES)

    def test_empty_node_file(self, tmp_path, layout):
        # A FormatError, not the IndexError of a triangle without nodes.
        with pytest.raises(FormatError):
            load_lines(tmp_path, layout, ["# no nodes", ""], TRI_LINES)


@settings(max_examples=40, deadline=None)
@given(radii=hnp.arrays(float, 42, elements=st.floats(0.5, 2.0)),
       scale=st.floats(1e-6, 1e6),
       center=hnp.arrays(float, 3, elements=st.floats(-1e3, 1e3)),
       seed=st.integers(0, 2**32 - 1))
def test_save_load_round_trip_property(radii, scale, center, seed):
    # A random closed surface (a star-shaped icosphere with relabeled
    # nodes) reads back bit for bit, and saves the same bytes again.
    base = icosphere(1.0, 1)
    perm = np.random.default_rng(seed).permutation(len(base.nodes))
    nodes = np.empty_like(base.nodes)
    nodes[perm] = base.nodes * radii[:, None] * scale + center
    surface = SurfaceMesh(nodes, perm[base.triangles])
    with tempfile.TemporaryDirectory() as tmp:
        save_surface_mesh(surface, f"{tmp}/n.dat", f"{tmp}/t.dat")
        again = load_surface_mesh(f"{tmp}/n.dat", f"{tmp}/t.dat")
        save_surface_mesh(again, f"{tmp}/n2.dat", f"{tmp}/t2.dat")
        for name in ("n", "t"):
            with open(f"{tmp}/{name}.dat", "rb") as a, \
                    open(f"{tmp}/{name}2.dat", "rb") as b:
                assert a.read() == b.read()
    for name in ("nodes", "triangles"):
        a, b = getattr(again, name), getattr(surface, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestContainment:
    def test_tet_centroid_inside(self, tet_surface):
        seg = Segmentation([Compartment(tet_surface, 1.0)])
        assert label(seg, TET_NODES.mean(axis=0)) == 0

    def test_far_point_outside(self, tet_surface):
        seg = Segmentation([Compartment(tet_surface, 1.0)])
        r = np.linalg.norm(TET_NODES, axis=1).max()
        assert label(seg, np.array([10 * r, 0.0, 0.0])) == -1

    def test_nested_spheres_innermost_wins(self, nested_sphere_segmentation):
        seg = nested_sphere_segmentation
        assert label(seg, np.zeros(3)) == 0
        assert label(seg, np.array([0.0, 0.0, 0.8])) == 1
        assert label(seg, np.array([0.0, 0.0, 1.5])) == -1

    def test_on_surface_counts_as_inside(self, cube_surface):
        seg = Segmentation([Compartment(cube_surface, 1.0)])
        # Face interior point, edge midpoint, and corner of the unit cube.
        for p in ([0.5, 0.5, 1.0], [0.5, 0.0, 0.0], [1.0, 1.0, 1.0]):
            assert label(seg, np.array(p)) == 0

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
            assert label(nested_sphere_segmentation, p) == expect


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

    @pytest.mark.parametrize("cond", [np.nan, np.inf, -0.33,
                                      [1.0, 1.0, np.nan, 0.0, 0.0, 0.0],
                                      [1.0, 1.0, -1.0, 0.0, 0.0, 0.0],
                                      [1.0, 1.0, 1.0, 2.0, 0.0, 0.0]])
    def test_conductivity_rule_names_the_compartment(self, cond):
        # NaN or negative values used to be meshed and fail in the solver.
        s = icosphere(1.0, 0)
        with pytest.raises(ParameterError, match="compartment 'brain'"):
            Compartment(s, cond, name="brain")
        assert Compartment(s, 0.0).conductivity == 0.0


class TestGenerators:
    def test_icosphere_closed_and_outward(self):
        s = icosphere(radius=2.0, subdivisions=2)
        assert euler_characteristic(s) == 2
        # Outward normals: dot(normal, radial) > 0 everywhere on a sphere.
        centers = s.nodes[s.triangles].mean(axis=1)
        assert np.all(np.einsum("ij,ij->i", s.normals, centers) > 0)
        # Enclosed volume approaches 4/3 pi r^3 from below.
        vol = s.enclosed_volume
        assert 0.9 * 4 / 3 * np.pi * 8 < vol < 4 / 3 * np.pi * 8

    @pytest.mark.parametrize("subdivisions", range(7))
    def test_icosphere_matches_the_midpoint_dict_bit_for_bit(self,
                                                             subdivisions):
        for radius, center in [(1.0, (0.0, 0.0, 0.0)),
                               (0.0923, (0.01, -0.02, 0.003)),
                               (2.5, (-1.0, 0.0, 1e-3))]:
            nodes, faces = reference_icosphere(radius, subdivisions, center)
            s = icosphere(radius, subdivisions, center)
            assert s.nodes.dtype == nodes.dtype
            assert s.triangles.dtype == faces.dtype
            np.testing.assert_array_equal(s.nodes.view(np.uint64),
                                          nodes.view(np.uint64))
            np.testing.assert_array_equal(s.triangles, faces)

    def test_box_outward(self, cube_surface):
        centers = cube_surface.nodes[cube_surface.triangles].mean(axis=1)
        out = centers - 0.5
        assert np.all(np.einsum("ij,ij->i", cube_surface.normals, out) > 0)

    def test_nearest_triangle(self, cube_surface):
        [j], [d] = cube_surface.nearest_triangles([0.5, 0.5, 2.0])
        assert d == pytest.approx(1.0)
        assert np.allclose(cube_surface.normals[j], [0, 0, 1])


class TestPointSets:
    """Every point query takes (3,) or (k, 3) and names any other shape."""

    @pytest.mark.parametrize("shape", [(2, 6), (1, 6), (4, 2), (6,),
                                       (2, 3, 1)])
    def test_nearest_queries_reject_other_shapes(self, cube_surface, shape):
        # (2, 6) points used to be read as (4, 3) and get four answers.
        bad = np.zeros(shape)
        for query in (lambda: nearest_center(bad, [[0.0, 0.0, 0.0]]),
                      lambda: nearest_center([[0.0, 0.0, 0.0]], bad),
                      lambda: cube_surface.nearest_triangles(bad)):
            with pytest.raises(ParameterError, match=re.escape(str(shape))):
                query()

    @pytest.mark.parametrize("shape", [(5, 2), (2,), (3, 4)])
    def test_containment_rejects_other_shapes(self, cube_surface,
                                              nested_sphere_segmentation,
                                              shape):
        # (k, 2) points used to end in an IndexError or a ValueError.
        bad = np.zeros(shape)
        for query in (cube_surface.contains,
                      nested_sphere_segmentation.locate):
            with pytest.raises(ParameterError, match=re.escape(str(shape))):
                query(bad)

    def test_one_point_is_a_row(self, cube_surface,
                                nested_sphere_segmentation):
        p = [0.5, 0.5, 0.5]
        assert cube_surface.contains(p) is True
        assert nested_sphere_segmentation.locate(p).shape == (1,)
        assert cube_surface.nearest_triangles(p)[0].shape == (1,)
        assert nearest_center(p, p)[0].tolist() == [0]


class TestNearestCenter:
    @pytest.mark.parametrize("n_points", [0, 1, 5])
    def test_no_centers_is_a_parameter_error(self, n_points):
        # Zero centers used to divide by zero when sizing the row chunks.
        with pytest.raises(ParameterError, match="at least one center"):
            nearest_center(np.zeros((n_points, 3)), np.empty((0, 3)))

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

    @staticmethod
    def draw_search(rng, n_points, n_centers, lattice, duplicates, on_center,
                    bad_rows, bad_center):
        """Points and centers with the cases the tree must hand back to the
        chunked search: half-integer lattices (exact ties), duplicate
        centers, points on a center, NaN and infinite point rows, and a NaN
        center."""
        if lattice:
            points = rng.integers(-6, 7, size=(n_points, 3)) / 2.0
            centers = rng.integers(-6, 7, size=(n_centers, 3)) / 2.0
        else:
            points = rng.normal(size=(n_points, 3))
            centers = rng.normal(size=(n_centers, 3))
        centers[rng.integers(n_centers, size=duplicates)] = centers[
            rng.integers(n_centers, size=duplicates)]
        points[rng.integers(n_points, size=on_center)] = centers[
            rng.integers(n_centers, size=on_center)]
        bad = rng.integers(n_points, size=bad_rows)
        points[bad] = np.nan
        points[bad[::2]] = [np.inf, 0.0, 1.0]
        if bad_center:
            centers[rng.integers(n_centers), 1] = np.nan
        return points, centers

    @staticmethod
    def assert_per_point(points, centers, index, dist):
        for i, p in enumerate(points):
            d = np.linalg.norm(centers - p, axis=1)
            j = int(np.argmin(d))            # the first of tied minima
            assert index[i] == j
            assert dist[i].tobytes() == d[j].tobytes()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lattice=st.booleans(),
           n_centers=st.sampled_from([geometry._PRUNE_SIDE, 1024, 2500]),
           duplicates=st.integers(0, 30), on_center=st.integers(0, 30),
           bad_rows=st.integers(0, 6), bad_center=st.booleans())
    def test_pruned_search_matches_per_point_loop(self, seed, lattice,
                                                  n_centers, duplicates,
                                                  on_center, bad_rows,
                                                  bad_center):
        # Sizes at and above the pruning constants, so the k-d tree runs
        # unless a center is NaN.
        rng = np.random.default_rng(seed)
        n_points = -(-geometry._PRUNE_PAIRS // n_centers) + int(
            rng.integers(0, 100))
        assert min(n_points, n_centers) >= geometry._PRUNE_SIDE
        points, centers = self.draw_search(rng, n_points, n_centers, lattice,
                                           duplicates, on_center, bad_rows,
                                           bad_center)
        index, dist = nearest_center(points, centers)
        self.assert_per_point(points, centers, index, dist)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lattice=st.booleans(),
           n_points=st.integers(0, 40), n_centers=st.integers(1, 12),
           duplicates=st.integers(0, 4), on_center=st.integers(0, 4),
           bad_rows=st.integers(0, 3))
    def test_pruned_branch_at_any_size(self, seed, lattice, n_points,
                                       n_centers, duplicates, on_center,
                                       bad_rows):
        # With the constants at zero the tree runs on every search, down to
        # one center (whose second neighbor the tree reports as infinite)
        # and to no points.
        rng = np.random.default_rng(seed)
        points, centers = self.draw_search(
            rng, max(n_points, 1), n_centers, lattice, duplicates,
            on_center if n_points else 0, bad_rows if n_points else 0, False)
        points = points[:n_points]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_PRUNE_PAIRS", 0)
            mp.setattr(geometry, "_PRUNE_SIDE", 0)
            index, dist = nearest_center(points, centers)
        assert index.shape == dist.shape == (n_points,)
        self.assert_per_point(points, centers, index, dist)

    def test_tree_rounding_changes_no_result(self, monkeypatch):
        # This scipy's tree returns the package's distance bits, but a build
        # that sums the squares in another order rounds them differently:
        # up to 8 ulps of noise on the tree's distances must change no
        # index and no distance, on exact lattice ties either.
        import scipy.spatial

        rng = np.random.default_rng(11)

        class RoundingTree(scipy.spatial.cKDTree):
            def query(self, x, k):
                d, j = super().query(x, k=k)
                return d * (1.0 + rng.integers(-8, 9, d.shape) * 2.0**-53), j

        monkeypatch.setattr(scipy.spatial, "cKDTree", RoundingTree)
        points, centers = self.draw_search(
            rng, -(-geometry._PRUNE_PAIRS // 512), 512, True, 10, 10, 2, False)
        index, dist = nearest_center(points, centers)
        self.assert_per_point(points, centers, index, dist)

    def test_one_center_above_the_pair_constant(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(geometry._PRUNE_PAIRS + 1, 3))
        index, dist = nearest_center(points, [[0.5, -0.25, 1.0]])
        assert not index.any()
        assert dist.tobytes() == np.linalg.norm(
            points - [0.5, -0.25, 1.0], axis=1).tobytes()

    def test_searches_below_the_constants_leave_scipy_spatial_unimported(self):
        # `import headfem`, the electrode search of the cli_datasets project
        # (32 electrodes on the 3-shell h = 12 mm head) and a 600 x 100
        # multiresolution partition stay below the pruning constants, so
        # neither the EEG CLI nor set-up pays for importing scipy.spatial;
        # a desk-size DOF map search does import it.
        code = """if True:
            import sys
            import numpy as np
            import headfem
            from headfem import fem, geometry, inverse, meshgen, simulate
            assert "scipy.spatial" not in sys.modules
            seg = geometry.Segmentation([
                geometry.Compartment(geometry.icosphere(r, 2), s,
                                     active=k == 0)
                for k, (r, s) in enumerate([(0.078, 0.33), (0.085, 0.0064),
                                            (0.092, 0.43)])])
            mesh = meshgen.generate_mesh(seg, 0.012)
            fem.ElectrodeSet.from_centers(
                mesh, simulate.fibonacci_sphere_points(32, 0.092), 0.02, 1e3)
            n_bound = len(mesh.boundary_triangles()[0])
            assert 32 * n_bound > 50_000, n_bound
            rng = np.random.default_rng(0)
            inverse.make_decomposition(rng.normal(size=(600, 3)), 100, rng)
            assert "scipy.spatial" not in sys.modules
            geometry.nearest_center(rng.normal(size=(27_117, 3)),
                                    rng.normal(size=(600, 3)))
            assert "scipy.spatial" in sys.modules
            print("ok")
        """
        run_fresh(code)

    def test_desk_multires_leaves_scipy_spatial_unimported(self):
        # The EIT desk inversion: 600 DOFs, 100 subsets, 20 partitions and
        # 240 measurements draw every partition from the DOF distance
        # table, so a CLI multires `invert` never imports scipy.spatial.
        code = """if True:
            import sys
            import numpy as np
            from headfem import inverse
            rng = np.random.default_rng(0)
            inverse.multires_ias(
                rng.normal(size=(240, 600)), rng.normal(size=240),
                rng.normal(size=(600, 3)), inverse.HyperModel("IG"), nu=0.3,
                n_iter=1, n_subsets=100, n_decompositions=20)
            assert "scipy.spatial" not in sys.modules
            print("ok")
        """
        run_fresh(code)


def run_fresh(code):
    """Run ``code`` in a new interpreter on this headfem; it prints "ok"."""
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["ok"]
