import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from headfem.errors import (
    AssemblyError,
    ElectrodeError,
    ParameterError,
)
from headfem.fem import (
    _SURF_MASS,
    ElectrodeSet,
    assemble_A,
    assemble_B_C_R,
    assemble_G,
    assemble_cem_system,
    element_gradients,
    stiffness_blocks,
    triangle_areas,
    whitney_source_matrix,
)
from headfem.experiments import EitHemorrhageParams, layered_sphere_segmentation
from headfem.geometry import Compartment, Segmentation, box_surface, icosphere
from headfem.leadfield import eeg_leadfield
from headfem.meshgen import (
    SourceSpace,
    TetMesh,
    generate_mesh,
    place_sources,
    smooth_mesh,
    tet_volumes,
)
from headfem.simulate import fibonacci_sphere_points
from headfem.solver import PcgConfig


def single_tet_mesh(sigma=1.0):
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    tetra = np.array([[0, 1, 2, 3]])
    s = np.asarray([sigma]) if np.isscalar(sigma) else np.asarray(sigma)[None, :]
    return TetMesh(nodes, tetra, np.array([0]), s)


def volume_A(mesh):
    """``assemble_A`` with no electrodes: the volume stiffness alone."""
    return assemble_A(mesh, ElectrodeSet(mesh, [], 1.0))


def regular_tet_mesh(sigma=1.0):
    nodes = np.array([
        [1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0],
    ])
    # Positive orientation.
    tetra = np.array([[0, 1, 2, 3]])
    from headfem.meshgen import tet_volumes
    if tet_volumes(nodes, tetra)[0] < 0:
        tetra = np.array([[0, 2, 1, 3]])
    s = np.asarray([sigma]) if np.isscalar(sigma) else np.asarray(sigma)[None, :]
    return TetMesh(nodes, tetra, np.array([0]), s)


def two_tet_mesh():
    """Two tetrahedra sharing the face (0, 1, 2)."""
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0.4, 0.4, -1.0]])
    tetra = np.array([[0, 1, 2, 3], [0, 2, 1, 4]])
    return TetMesh(nodes, tetra, np.zeros(2, dtype=int), np.ones(2))


def quadrature_stiffness(nodes, sigma=1.0):
    """Independent oracle: 4-point Gauss rule on the reference tetrahedron
    (degree-2 exact, so exact for the constant integrand grad_i . grad_j)."""
    a = (5.0 - np.sqrt(5.0)) / 20.0
    b = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
    qpts = np.array([
        [a, a, a], [b, a, a], [a, b, a], [a, a, b],
    ])
    # P1 gradients from finite differences of the basis functions.
    def basis(xi):
        lam = np.array([1.0 - xi.sum(), xi[0], xi[1], xi[2]])
        return lam

    jac = np.stack([nodes[1] - nodes[0], nodes[2] - nodes[0],
                    nodes[3] - nodes[0]], axis=1)
    vol = abs(np.linalg.det(jac)) / 6.0
    eps = 1e-6
    K = np.zeros((4, 4))
    for q in qpts:
        grads = np.zeros((4, 3))
        for i in range(4):
            for d in range(3):
                dp = q.copy()
                dm = q.copy()
                dp[d] += eps
                dm[d] -= eps
                # chain rule to physical coordinates
                gref = (basis(dp)[i] - basis(dm)[i]) / (2 * eps)
                grads[i, d] = gref
        gphys = grads @ np.linalg.inv(jac)
        K += 0.25 * vol * sigma * (gphys @ gphys.T)
    return K


def reference_element_gradients(mesh):
    """Volumes and P1 gradients by batched LAPACK: the determinant and the
    inverse of the edge Jacobian, whose rows are grad(lambda_1..3).  The
    reference for the closed form of ``element_gradients``."""
    p = mesh.nodes[mesh.tetra]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]],
                   axis=2)
    vols = np.linalg.det(jac) / 6.0
    inv = np.linalg.inv(jac)
    grads = np.empty((len(p), 4, 3))
    grads[:, 1:, :] = inv
    grads[:, 0, :] = -inv.sum(axis=1)
    return vols, grads


def cross_element_gradients(mesh, elements=None):
    """Gradients from the (m, 3, 3) edge gather and ``np.cross``: the
    reference for the bits of the column-wise cross products of
    ``element_gradients``."""
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


class TestElementGradients:
    def test_desk_gradients_are_the_cross_product_bits(self):
        p = EitHemorrhageParams()
        mesh = generate_mesh(
            layered_sphere_segmentation(p.radii, p.conductivities,
                                        p.priorities, (0,), p.subdivisions),
            p.resolution)
        pick = np.random.default_rng(5).permutation(mesh.n_elements)[:5000]
        for elements in (None, pick, np.sort(pick)):
            vols, grads = element_gradients(mesh, elements)
            ref_vols, ref_grads = cross_element_gradients(mesh, elements)
            assert grads.flags.c_contiguous
            assert vols.tobytes() == ref_vols.tobytes()
            assert grads.tobytes() == ref_grads.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40),
           scale=st.floats(1e-3, 1e3), shift=st.floats(-10.0, 10.0))
    def test_closed_form_matches_lapack_reference(self, seed, m, scale, shift):
        # Random positive tetrahedra on randomly rotated, well-shaped bases:
        # the apex sits at a height between 1e-3 and 1 times the base size
        # above a point of the base plane that may lie outside the base
        # triangle, so caps and slivers occur.
        rng = np.random.default_rng(seed)
        rot, _ = np.linalg.qr(rng.normal(size=(m, 3, 3)))
        base = (np.eye(3) + 0.3 * rng.normal(size=(m, 3, 3))) @ rot
        w = rng.uniform(-1.0, 2.0, size=(m, 3))
        w[:, 2] = 1.0 - w[:, 0] - w[:, 1]
        normal = np.cross(base[:, 1] - base[:, 0], base[:, 2] - base[:, 0])
        size = np.linalg.norm(base - base[:, :1], axis=2).max(axis=1)
        height = size * 10.0 ** rng.uniform(-3.0, 0.0, size=m)
        apex = (np.einsum("mk,mkc->mc", w, base)
                + (height / np.linalg.norm(normal, axis=1))[:, None] * normal)
        nodes = (np.concatenate([base, apex[:, None]], axis=1).reshape(-1, 3)
                 * scale + shift * scale)
        tetra = np.arange(4 * m).reshape(m, 4)
        flip = tet_volumes(nodes, tetra) < 0
        tetra[flip] = tetra[flip][:, [0, 2, 1, 3]]
        mesh = TetMesh(nodes, tetra, np.zeros(m, dtype=int), np.ones(m))

        vols, grads = element_gradients(mesh)
        ref_vols, ref_grads = reference_element_gradients(mesh)
        np.testing.assert_allclose(vols, ref_vols, rtol=1e-12, atol=0)
        err = np.linalg.norm(grads - ref_grads, axis=(1, 2))
        assert np.all(err <= 1e-10 * np.linalg.norm(ref_grads, axis=(1, 2)))
        # grad(lambda_i) . (x_j - x_0) = delta_ij - delta_i0
        p = mesh.nodes[mesh.tetra]
        dots = np.einsum("eic,ejc->eij", grads, p - p[:, :1])
        expect = np.eye(4) - np.eye(4)[:, :1]
        scale_ij = np.einsum("ei,ej->eij", np.linalg.norm(grads, axis=2),
                             np.linalg.norm(p - p[:, :1], axis=2))
        assert np.all(np.abs(dots - expect) <= 1e-12 * scale_ij + 1e-15)
        assert vols.tobytes() == mesh.volumes.tobytes()
        assert grads.tobytes() == cross_element_gradients(mesh)[1].tobytes()
        pick = rng.permutation(m)[:rng.integers(1, m + 1)]
        sub_vols, sub_grads = element_gradients(mesh, pick)
        assert sub_vols.tobytes() == vols[pick].tobytes()
        assert sub_grads.tobytes() == grads[pick].tobytes()


def coo_assemble_A(mesh, electrodes, ground=True):
    """Grounded CEM stiffness from one (16m + 9t)-long triplet list: the
    ground row and column triplets are dropped for (i', i', 1) and the list
    goes through one COO -> CSR pass.  The reference for the pattern
    assembly of ``assemble_A``."""
    def triplets(blocks, conn):
        k = conn.shape[1]
        return (np.repeat(conn, k, axis=1).ravel(),
                np.tile(conn, (1, k)).ravel(), blocks.ravel())

    parts = [triplets(stiffness_blocks(mesh), mesh.tetra)]
    if electrodes.count:
        e = electrodes.electrode
        scale = electrodes.triangle_areas / (electrodes.impedances[e]
                                             * electrodes.areas[e])
        parts.append(triplets(scale[:, None, None] * _SURF_MASS,
                              electrodes.triangles))
    rows, cols, vals = (np.concatenate(t) for t in zip(*parts))
    if ground and electrodes.count:
        i = reference_ground(mesh, electrodes)
        keep = (rows != i) & (cols != i)
        rows = np.append(rows[keep], i)
        cols = np.append(cols[keep], i)
        vals = np.append(vals[keep], 1.0)
    n = mesh.n_nodes
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def reference_assemble_B(mesh, electrodes):
    """B built electrode by electrode from triplet lists, the reference
    for the one gather over the coverage table in ``assemble_B_C_R``."""
    rows, cols, vals = [], [], []
    for l in range(electrodes.count):
        mine = electrodes.electrode == l
        tris, areas = electrodes.triangles[mine], electrodes.triangle_areas[mine]
        z, a_l = electrodes.impedances[l], areas.sum()
        rows.append(tris.ravel())
        cols.append(np.full(tris.size, l, dtype=np.int64))
        vals.append(np.repeat(areas / (3.0 * z * a_l), 3))
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(mesh.n_nodes, electrodes.count)).tocsr()


def reference_ground(mesh, electrodes):
    """The lowest boundary node outside every electrode, or None."""
    free = np.setdiff1d(mesh.boundary_nodes(), np.unique(electrodes.triangles))
    return int(free[0]) if free.size else None


def assert_same_csr(a, b):
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _adjacent_electrodes(data, mesh):
    """0-3 electrodes cut as consecutive runs of the boundary triangles
    sorted by distance to a random point, so neighbors share nodes."""
    bfaces, _ = mesh.boundary_triangles()
    cent = mesh.nodes[bfaces].mean(axis=1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    order = np.argsort(np.linalg.norm(cent - rng.normal(size=3) * np.ptp(
        mesh.nodes, axis=0), axis=1), kind="stable")
    sizes = data.draw(st.lists(st.integers(1, 3), max_size=3), "sizes")
    ends = np.cumsum(sizes, dtype=np.int64)
    ids = [order[e - k:e] for k, e in zip(sizes, ends)]
    z = rng.uniform(10.0, 1e4, len(ids))
    return ElectrodeSet(mesh, ids, z)


class TestAssembleA:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), box=st.booleans(), tensor=st.booleans(),
           ground=st.booleans())
    def test_pattern_sum_matches_coo_reference(self, data, box, tensor,
                                               ground):
        mesh = _kuhn_box_mesh(data) if box else sphere_meshes()[2]
        if tensor:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                                  "sigma seed"))
            # Diagonally dominant rows are positive definite.
            sigma = np.column_stack([rng.uniform(0.5, 2.0, (mesh.n_elements, 3)),
                                     rng.uniform(-0.1, 0.1, (mesh.n_elements, 3))])
            mesh = mesh.with_sigma(sigma)
        el = _adjacent_electrodes(data, mesh)
        if ground and el.count:
            assume(reference_ground(mesh, el) is not None)
        A = assemble_A(mesh, el, ground=ground)
        ref = coo_assemble_A(mesh, el, ground=ground)
        assert A.has_sorted_indices and ref.has_sorted_indices
        A, ref = A.tocoo(), ref.tocoo()
        i = el.ground if ground and el.count else -1
        off = (A.row != i) & (A.col != i)
        off_ref = (ref.row != i) & (ref.col != i)
        np.testing.assert_array_equal(A.row[off], ref.row[off_ref])
        np.testing.assert_array_equal(A.col[off], ref.col[off_ref])
        np.testing.assert_allclose(A.data[off], ref.data[off_ref], rtol=0,
                                   atol=1e-14 * np.abs(ref.data).max())
        if i >= 0:
            e_i = np.eye(mesh.n_nodes)[i]
            np.testing.assert_array_equal(A.toarray()[i], e_i)
            np.testing.assert_array_equal(A.toarray()[:, i], e_i)

    def test_repeat_assembly_memory_is_the_size_of_the_blocks(self):
        seg, mesh, _ = sphere_meshes()
        el = ElectrodeSet.from_centers(
            mesh, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], radius=0.4,
            impedances=1e3)
        assemble_A(mesh, el)        # builds the pattern and the face table
        tracemalloc.start()
        try:
            assemble_A(mesh, el)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * mesh.n_elements * 16 * 8

    def test_single_tet_electrode_block(self):
        mesh = single_tet_mesh(sigma=0.0)
        # One electrode covering the single z=0 boundary face.
        bfaces, _ = mesh.boundary_triangles()
        z0 = [i for i, f in enumerate(bfaces)
              if np.allclose(mesh.nodes[f][:, 2], 0.0)]
        assert len(z0) == 1
        Z = 2.5
        el = ElectrodeSet(mesh, [np.array(z0)], Z)
        A = assemble_A(mesh, el, ground=False).toarray()
        tri = bfaces[z0[0]]
        for i in tri:
            assert A[i, i] == pytest.approx(1.0 / (6.0 * Z), rel=1e-14)
        for i in tri:
            for j in tri:
                if i != j:
                    assert A[i, j] == pytest.approx(1.0 / (12.0 * Z), rel=1e-14)
        off = [k for k in range(4) if k not in tri]
        assert np.all(A[off, :] == 0)

    def test_isotropic_equals_tensor(self):
        s = 0.73
        iso = regular_tet_mesh(sigma=s)
        tens = regular_tet_mesh(sigma=[s, s, s, 0.0, 0.0, 0.0])
        Ki = volume_A(iso).toarray()
        Kt = volume_A(tens).toarray()
        np.testing.assert_allclose(Kt, Ki, atol=1e-15 * np.abs(Ki).max())

    def test_stiffness_matches_quadrature_oracle(self):
        mesh = regular_tet_mesh(sigma=1.0)
        K = volume_A(mesh).toarray()
        K_ref = quadrature_stiffness(mesh.nodes[mesh.tetra[0]])
        np.testing.assert_allclose(K, K_ref, rtol=1e-5)

    def test_zero_row_sums_without_electrodes(self, nested_sphere_segmentation):
        mesh = generate_mesh(nested_sphere_segmentation, 0.35)
        K = volume_A(mesh)
        rs = np.asarray(K.sum(axis=1)).ravel()
        assert np.abs(rs).max() < 1e-12 * np.abs(K.data).max()
        # symmetry
        assert abs(K - K.T).max() < 1e-14 * np.abs(K.data).max()

    def test_grounded_system_positive_definite(self, nested_sphere_segmentation):
        mesh = generate_mesh(nested_sphere_segmentation, 0.35)
        top = mesh.nodes[mesh.boundary_triangles()[0]].mean(axis=1)
        el = ElectrodeSet.from_centers(mesh, [top[np.argmax(top[:, 2])]],
                                       radius=0.4, impedances=1e3)
        A = assemble_A(mesh, el)
        lam = spla.eigsh(A, k=1, which="SA", return_eigenvectors=False)
        assert lam[0] > 0

    def test_multi_triangle_electrodes_match_dense_sum(
            self, nested_sphere_segmentation):
        # Adjacent many-triangle electrodes share boundary nodes, so their
        # contact blocks overlap in A.
        mesh = generate_mesh(nested_sphere_segmentation, 0.35)
        el = ElectrodeSet.from_centers(
            mesh, [[0.0, 0.0, 1.0], [0.0, 0.6, 0.8], [0.0, 0.0, -1.0]],
            radius=0.6, impedances=[10.0, 3.0, 50.0])
        assert np.bincount(el.electrode).min() > 1
        assert np.intersect1d(el.triangles[el.electrode == 0],
                              el.triangles[el.electrode == 1]).size > 0
        ref = volume_A(mesh).toarray()
        for tri, at, l in zip(el.triangles, el.triangle_areas, el.electrode):
            ref[np.ix_(tri, tri)] += (at / (el.impedances[l] * el.areas[l])
                                      * _SURF_MASS)
        A0 = assemble_A(mesh, el, ground=False)
        # atol covers Kuhn-mesh entries that are zero in exact arithmetic
        # and come out as +-1e-34 residues in either summation order.
        np.testing.assert_allclose(A0.toarray(), ref, rtol=1e-14,
                                   atol=1e-14 * np.abs(ref).max())

        # Grounding replaces row and column i by e_i and leaves the rest of
        # the ungrounded matrix, pattern included, as it was.
        A, A0 = assemble_A(mesh, el).tocoo(), A0.tocoo()
        i = el.ground
        e_i = np.eye(mesh.n_nodes)[i]
        np.testing.assert_array_equal(A.toarray()[i], e_i)
        np.testing.assert_array_equal(A.toarray()[:, i], e_i)
        off = (A.row != i) & (A.col != i)
        off0 = (A0.row != i) & (A0.col != i)
        np.testing.assert_array_equal(A.row[off], A0.row[off0])
        np.testing.assert_array_equal(A.col[off], A0.col[off0])
        np.testing.assert_allclose(A.data[off], A0.data[off0], rtol=1e-14,
                                   atol=1e-14 * np.abs(ref).max())

    def test_non_pd_tensor_rejected(self):
        # The mesh refuses the conductivity before any assembly.
        with pytest.raises(ParameterError, match="not positive definite"):
            regular_tet_mesh(sigma=[1.0, 1.0, -1.0, 0.0, 0.0, 0.0])

    def test_negative_scalar_rejected(self):
        with pytest.raises(ParameterError, match="negative"):
            single_tet_mesh(sigma=-1.0)


class TestAssembleBCR:
    def test_r_matrix_two_electrodes(self):
        mesh = single_tet_mesh()
        bfaces, _ = mesh.boundary_triangles()
        el = ElectrodeSet(mesh, [np.array([0]), np.array([1])], 1.0)
        _, _, R = assemble_B_C_R(mesh, el)
        np.testing.assert_allclose(R, [[0.5, -0.5], [-0.5, 0.5]])

    def test_single_triangle_electrode_entries(self):
        # Contact impedance density Z * At: c = 1/Z and the three node
        # entries of B are At / (3 Z At) = 1/(3 Z), summing to 1/Z.
        mesh = single_tet_mesh()
        bfaces, _ = mesh.boundary_triangles()
        z0 = [i for i, f in enumerate(bfaces)
              if np.allclose(mesh.nodes[f][:, 2], 0.0)]
        Z = 4.0
        el = ElectrodeSet(mesh, [np.array(z0)], Z)
        B, C, _ = assemble_B_C_R(mesh, el)
        assert C.toarray()[0, 0] == pytest.approx(1.0 / Z, rel=1e-14)
        col = B.toarray()[:, 0]
        tri = bfaces[z0[0]]
        np.testing.assert_allclose(col[tri], 1.0 / (3 * Z), rtol=1e-14)
        assert col.sum() == pytest.approx(1.0 / Z, rel=1e-14)

    @pytest.mark.parametrize("L", [2, 3, 7, 16])
    def test_r_annihilates_constants(self, L):
        R = np.eye(L) - np.full((L, L), 1.0 / L)
        np.testing.assert_allclose(R @ np.ones(L), 0.0, atol=1e-15)
        np.testing.assert_allclose(R, R.T)

    def test_column_sums_equal_diag_c(self, nested_sphere_segmentation):
        mesh = generate_mesh(nested_sphere_segmentation, 0.3)
        bfaces, _ = mesh.boundary_triangles()
        cent = mesh.nodes[bfaces].mean(axis=1)
        picks = [np.argmax(cent[:, 2]), np.argmax(cent[:, 0]), np.argmin(cent[:, 1])]
        el = ElectrodeSet.from_centers(mesh, cent[picks], radius=0.35,
                                       impedances=[1e3, 2e3, 500.0])
        B, C, _ = assemble_B_C_R(mesh, el)
        colsums = np.asarray(B.sum(axis=0)).ravel()
        np.testing.assert_allclose(colsums, C.diagonal(), rtol=1e-14)

    def test_overlapping_electrodes_rejected(self):
        mesh = single_tet_mesh()
        with pytest.raises(ElectrodeError):
            ElectrodeSet(mesh, [np.array([0, 1]), np.array([1, 2])], 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_impedance_must_be_finite_and_positive(self, bad):
        mesh = single_tet_mesh()
        with pytest.raises(ElectrodeError, match="impedances must be positive"):
            ElectrodeSet(mesh, [np.array([0]), np.array([1])], [1.0, bad])

    def test_empty_electrode_rejected(self):
        mesh = single_tet_mesh()
        with pytest.raises(ElectrodeError):
            ElectrodeSet(mesh, [np.array([], dtype=int)], 1.0)


class TestElectrodeTable:
    def test_rows_follow_the_input_electrode_by_electrode(self):
        _, mesh, _ = sphere_meshes()
        bfaces, _ = mesh.boundary_triangles()
        # From 8 terms on, numpy's pairwise .sum() and a running sum
        # (bincount, reduceat) round differently.
        order = np.random.default_rng(5).permutation(len(bfaces))
        ids = [order[:13], order[13:14], order[14:38]]
        el = ElectrodeSet(mesh, ids, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(el.triangle_ids, order[:38])
        np.testing.assert_array_equal(el.electrode, np.repeat([0, 1, 2],
                                                              [13, 1, 24]))
        np.testing.assert_array_equal(el.triangles, bfaces[el.triangle_ids])
        every = triangle_areas(mesh.nodes, bfaces)
        assert np.array_equal(el.triangle_areas, every[el.triangle_ids])
        assert np.array_equal(el.areas, [every[t].sum() for t in ids])
        assert el.count == 3

    def test_eit_desk_blocks_match_the_per_electrode_loop(self):
        p = EitHemorrhageParams()
        mesh = generate_mesh(
            layered_sphere_segmentation(p.radii, p.conductivities,
                                        p.priorities, (0,), p.subdivisions),
            p.resolution)
        el = ElectrodeSet.from_centers(
            mesh, fibonacci_sphere_points(p.n_electrodes, p.radii[-1]),
            radius=p.electrode_radius, impedances=p.impedance)
        sys = assemble_cem_system(mesh, el)
        assert_same_csr(sys.B, reference_assemble_B(mesh, el))
        assert sys.ground == el.ground == reference_ground(mesh, el)

    @pytest.mark.parametrize("centers", [[], np.empty((0, 3))])
    def test_no_centers_is_an_electrode_error(self, centers):
        mesh = single_tet_mesh()
        with pytest.raises(ElectrodeError, match="no electrode centers"):
            ElectrodeSet.from_centers(mesh, centers, 0.02, 1.0)

    @pytest.mark.parametrize("shape", [(1, 6), (2, 2), (6,)])
    def test_centers_not_k_by_3_are_an_electrode_error(self, shape):
        # (1, 6) centers used to make one electrode of two read as (2, 3).
        mesh = single_tet_mesh()
        with pytest.raises(ElectrodeError, match=re.escape(str(shape))):
            ElectrodeSet.from_centers(mesh, np.zeros(shape), 10.0, 1.0)

    def test_electrodes_on_every_boundary_node_leave_no_ground(self):
        # Four one-face electrodes cover all four nodes of one tetrahedron.
        mesh = single_tet_mesh()
        el = ElectrodeSet(mesh, [np.array([k]) for k in range(4)], 1.0)
        for build in (lambda: el.ground, lambda: assemble_A(mesh, el),
                      lambda: assemble_cem_system(mesh, el)):
            with pytest.raises(AssemblyError,
                               match="electrodes cover every boundary node"):
                build()
        assert assemble_A(mesh, el, ground=False).shape == (4, 4)

    def test_ground_is_found_once_per_electrode_set(self, monkeypatch):
        _, mesh, _ = sphere_meshes()
        el = ElectrodeSet.from_centers(
            mesh, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], radius=0.4,
            impedances=1e3)
        inner, calls = np.setdiff1d, []

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)
        monkeypatch.setattr(np, "setdiff1d", counting)
        sys = assemble_cem_system(mesh, el)
        assemble_cem_system(mesh.with_sigma(2.0 * mesh.sigma), el)
        assemble_A(mesh, el)
        assert len(calls) == 1
        assert sys.ground == el.ground


class TestCemProperties:
    """Invariants of the CEM blocks on random electrode sets over a plain
    and a smoothed two-shell mesh."""

    @staticmethod
    def draw_system(data, min_electrodes=1):
        seg, plain, smoothed = sphere_meshes()
        mesh = smoothed if data.draw(st.booleans(), "smoothed") else plain
        n_bound = len(mesh.boundary_triangles()[0])
        n_el = data.draw(st.integers(min_electrodes, 6), "electrodes")
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=n_el,
                                   max_size=n_el), "sizes")
        # A seeded permutation shrinks in seconds; a drawn one of every
        # boundary triangle takes minutes.
        order = np.random.default_rng(data.draw(
            st.integers(0, 2**32 - 1), "seed")).permutation(n_bound)
        ends = np.cumsum(sizes)
        ids = [order[e - k:e] for k, e in zip(sizes, ends)]
        z = data.draw(st.lists(st.floats(10.0, 1e4), min_size=n_el,
                               max_size=n_el), "impedances")
        return seg, mesh, ElectrodeSet(mesh, ids, z)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_table_matches_the_per_electrode_loop(self, data):
        _, mesh, el = self.draw_system(data)
        B, _, _ = assemble_B_C_R(mesh, el)
        assert_same_csr(B, reference_assemble_B(mesh, el))
        free = reference_ground(mesh, el)
        if free is None:
            with pytest.raises(AssemblyError):
                el.ground
        else:
            assert el.ground == free

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_b_column_sums_equal_diag_c(self, data):
        _, mesh, el = self.draw_system(data)
        B, C, _ = assemble_B_C_R(mesh, el)
        np.testing.assert_allclose(np.asarray(B.sum(axis=0)).ravel(),
                                   C.diagonal(), rtol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), c=st.floats(-1e3, 1e3))
    def test_r_annihilates_constants(self, data, c):
        _, mesh, el = self.draw_system(data)
        _, _, R = assemble_B_C_R(mesh, el)
        np.testing.assert_allclose(R @ np.full(el.count, c), 0.0,
                                   atol=1e-15 * el.count * max(abs(c), 1.0))

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8),
           mode=st.sampled_from(["constrained", "unconstrained"]))
    def test_eeg_leadfield_columns_zero_mean(self, data, n, mode):
        seg, mesh, el = self.draw_system(data, min_electrodes=2)
        src = place_sources(mesh, seg, n, mode=mode,
                            seed=data.draw(st.integers(0, 2**31 - 1), "seed"))
        L = eeg_leadfield(assemble_cem_system(mesh, el, src),
                          PcgConfig(tolerance=1e-10)).matrix
        assert np.abs(L.mean(axis=0)).max() <= 1e-12 * np.abs(L).max()


def reference_source_matrices(mesh, sources):
    """Per-source loop construction of the raw face-function matrix G_w
    and of G (one least-squares solve per source), the reference for the
    batched gathers in ``fem``."""
    tetra, x = mesh.tetra, mesh.nodes
    faces = {}
    for e, t in enumerate(tetra):
        for j in range(4):
            faces.setdefault(tuple(sorted(np.delete(t, j))), []).append(e)
    rows, cols, vals, blocks = [], [], [], []
    for s, e in enumerate(sources.element_ids):
        moments = np.zeros((4, 3))
        for j in range(4):
            fnodes = np.array(sorted(np.delete(tetra[e], j)))
            normal = np.cross(x[fnodes[1]] - x[fnodes[0]],
                              x[fnodes[2]] - x[fnodes[0]])
            for k in faces[tuple(fnodes)]:
                a = x[np.setdiff1d(tetra[k], fnodes)[0]]
                sgn = 1.0 if normal @ (x[fnodes].mean(axis=0) - a) > 0 else -1.0
                moments[j] += sgn * (x[tetra[k]].mean(axis=0) - a) / 3.0
                rows += list(tetra[k])
                cols += [4 * s + j] * 4
                vals += [sgn / 4.0] * 4
        coeff, *_ = np.linalg.lstsq(moments.T, np.eye(3), rcond=None)
        if sources.mode == "constrained":
            coeff = coeff @ sources.orientations[s][:, None]
        blocks.append(coeff)
    G_w = sp.coo_matrix((vals, (rows, cols)),
                        shape=(mesh.n_nodes, 4 * len(blocks))).tocsr()
    return G_w, G_w @ sp.block_diag(blocks, format="csr")


@functools.lru_cache(maxsize=None)
def sphere_meshes():
    seg = Segmentation([
        Compartment(icosphere(0.5, 2), 0.33, priority=1, active=True),
        Compartment(icosphere(1.0, 2), 0.43, priority=0, active=True)])
    mesh = generate_mesh(seg, 0.25)
    return seg, mesh, smooth_mesh(mesh, 2, 0.3)


@pytest.fixture(scope="module")
def three_shell_mesh():
    seg = Segmentation([
        Compartment(icosphere(0.078, 2), 0.33, priority=2, active=True),
        Compartment(icosphere(0.085, 2), 0.0064, priority=0),
        Compartment(icosphere(0.092, 2), 0.43, priority=1)])
    return seg, generate_mesh(seg, 0.012)


class TestSourceModel:
    def test_single_tet_face_function_quarter_entries(self):
        mesh = single_tet_mesh()
        G, _ = whitney_source_matrix(mesh, [0])
        G = G.toarray()
        assert G.shape == (4, 4)
        # Every face function deposits +-1/4 on all 4 nodes of the element.
        np.testing.assert_allclose(np.abs(G), 0.25)

    def test_interior_face_column_sums_to_zero(self):
        mesh = two_tet_mesh()
        G, _ = whitney_source_matrix(mesh, [0])
        sums = np.asarray(G.sum(axis=0)).ravel()
        # Face (0,1,2) is interior: its column sums to zero; boundary faces
        # sum to +-1.
        _, element_faces, face_elements = mesh.face_table()
        interior = np.flatnonzero((face_elements[element_faces[0]] >= 0).all(axis=1))
        assert len(interior) == 1
        assert sums[interior[0]] == pytest.approx(0.0, abs=1e-15)
        for j in range(4):
            if j != interior[0]:
                assert abs(sums[j]) == pytest.approx(1.0, rel=1e-15)

    def test_unit_flux_and_divergence(self):
        # The shared face (0, 1, 2) has canonical normal +z.  Its face
        # function is the same column for either source element: divergence
        # +1/V on element 1 (below, the flux leaves it) and -1/V on element
        # 0, so the shared nodes cancel and the apexes 3 and 4 keep -+1/4.
        mesh = two_tet_mesh()
        faces, element_faces, face_elements = mesh.face_table()
        shared = np.flatnonzero((face_elements >= 0).all(axis=1))
        np.testing.assert_array_equal(faces[shared], [[0, 1, 2]])
        np.testing.assert_array_equal(face_elements[shared], [[0, 1]])
        G, _ = whitney_source_matrix(mesh, [0, 1])
        G = G.toarray()
        j0 = np.flatnonzero(element_faces[0] == shared[0])[0]
        j1 = np.flatnonzero(element_faces[1] == shared[0])[0]
        np.testing.assert_array_equal(G[:, j0], G[:, 4 + j1])
        np.testing.assert_array_equal(G[:, j0], [0.0, 0.0, 0.0, -0.25, 0.25])

    def test_zero_amplitude_maps_to_zero(self):
        mesh = two_tet_mesh()
        G, _ = whitney_source_matrix(mesh, [0])
        np.testing.assert_array_equal(G @ np.zeros(G.shape[1]), np.zeros(G.shape[0]))

    def test_cartesian_columns_match_axis_moments(self):
        mesh = two_tet_mesh()
        src = SourceSpace(positions=np.array([[0.25, 0.25, 0.25]]),
                          orientations=None,
                          element_ids=np.array([0]), mode="unconstrained")
        G = assemble_G(mesh, src)
        assert G.shape == (5, 3)
        # Reconstruct the combination coefficients and verify the moment.
        _, moments = whitney_source_matrix(mesh, [0])
        M = moments[0].T
        coeff, *_ = np.linalg.lstsq(M, np.eye(3), rcond=None)
        np.testing.assert_allclose(M @ coeff, np.eye(3), atol=1e-12)

    def test_constrained_single_column(self):
        mesh = two_tet_mesh()
        n = np.array([0.0, 0.0, 1.0])
        src = SourceSpace(positions=np.array([[0.25, 0.25, 0.25]]),
                          orientations=n[None, :],
                          element_ids=np.array([0]), mode="constrained")
        G = assemble_G(mesh, src)
        assert G.shape == (5, 1)

    def test_interior_dipole_moment_identity(self, three_shell_mesh):
        # For a source whose four faces are interior, sum_i x_i g_i equals
        # int x div w dV = -(dipole moment), so -X' G gives the unit axes.
        seg, mesh = three_shell_mesh
        src = place_sources(mesh, seg, 200, seed=1)
        _, element_faces, face_elements = mesh.face_table()
        interior = (face_elements[element_faces[src.element_ids]] >= 0).all(axis=(1, 2))
        assert interior.sum() > 100
        G = assemble_G(mesh, src).toarray()
        P = -(mesh.nodes.T @ G).reshape(3, -1, 3)[:, interior]     # (3, s, 3)
        np.testing.assert_allclose(P, np.broadcast_to(np.eye(3)[:, None, :], P.shape),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 25),
           constrained=st.booleans(), smoothed=st.booleans())
    def test_batched_matches_per_source_reference(self, seed, n, constrained,
                                                  smoothed):
        seg, plain, smooth = sphere_meshes()
        mesh = smooth if smoothed else plain
        src = place_sources(mesh, seg, n, seed=seed,
                            mode="constrained" if constrained else "unconstrained")
        ref_w, ref = reference_source_matrices(mesh, src)
        G_w, _ = whitney_source_matrix(mesh, src.element_ids)
        np.testing.assert_array_equal(G_w.indptr, ref_w.indptr)
        np.testing.assert_array_equal(G_w.indices, ref_w.indices)
        np.testing.assert_array_equal(G_w.data, ref_w.data)
        G = assemble_G(mesh, src).toarray()
        ref = ref.toarray()
        np.testing.assert_allclose(G, ref, rtol=0, atol=1e-14 * np.abs(ref).max())

    def test_interior_columns_sum_zero_on_sphere(self):
        seg = Segmentation([Compartment(icosphere(1.0, 2), 1.0, active=True)])
        mesh = generate_mesh(seg, 0.4)
        src = place_sources(mesh, seg, 5, seed=2)
        # Pick sources whose elements sit strictly inside: all face functions
        # two-sided, so every raw column sums to zero.
        G, _ = whitney_source_matrix(mesh, src.element_ids)
        sums = np.asarray(G.sum(axis=0)).ravel()
        _, element_faces, face_elements = mesh.face_table()
        two_sided = (face_elements[element_faces[src.element_ids]] >= 0).all(axis=2).ravel()
        np.testing.assert_allclose(sums[two_sided], 0.0, atol=1e-14)


def reference_face_table(mesh):
    """The face table by ``np.unique(axis=0)`` over the row-sorted element
    faces and a stable argsort of the inverse; the reference for the
    one-lexsort ``TetMesh.face_table``."""
    key = np.sort(mesh.element_faces(), axis=1)
    faces, inv = np.unique(key, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    order = np.argsort(inv, kind="stable")
    counts = np.bincount(inv, minlength=len(faces))
    starts = np.cumsum(counts) - counts
    face_elements = np.full((len(faces), 2), -1, dtype=np.int64)
    face_elements[:, 0] = order[starts] // 4
    second = counts > 1
    face_elements[second, 1] = order[starts[second] + 1] // 4
    return faces, inv.reshape(-1, 4), face_elements


# The even permutations of the four local vertices keep the orientation.
_EVEN_LOCAL_ORDERS = np.array([
    p for p in itertools.permutations(range(4))
    if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0])


def _kuhn_box_mesh(data):
    h = data.draw(st.floats(0.05, 2.0), label="h")
    cells = np.array(data.draw(st.tuples(*[st.integers(1, 5)] * 3),
                               label="cells"))
    lo = np.array(data.draw(st.tuples(*[st.floats(-10.0, 10.0)] * 3),
                            label="lo"))
    return generate_mesh(Segmentation([Compartment(
        box_surface(lo, lo + h * cells), 1.0)]), h)


def _smoothed_mesh(data):
    h = data.draw(st.floats(0.18, 0.45), label="h")
    iterations = data.draw(st.integers(1, 3), label="iterations")
    step = data.draw(st.floats(0.05, 0.5), label="step")
    seg, _, _ = sphere_meshes()
    sm = smooth_mesh(generate_mesh(seg, h), iterations, step)
    return TetMesh(sm.nodes, sm.tetra, sm.labels, sm.sigma)


def _permuted_mesh(data):
    """A Kuhn box or sphere mesh with shuffled node ids, element order and
    (orientation-keeping) local vertex order."""
    mesh = _kuhn_box_mesh(data) if data.draw(st.booleans(), label="box") \
        else sphere_meshes()[1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    perm = rng.permutation(mesh.n_nodes)
    nodes = np.empty_like(mesh.nodes)
    nodes[perm] = mesh.nodes
    local = _EVEN_LOCAL_ORDERS[rng.integers(0, 12, mesh.n_elements)]
    tetra = np.take_along_axis(perm[mesh.tetra], local, axis=1)
    order = rng.permutation(mesh.n_elements)
    return TetMesh(nodes, tetra[order], mesh.labels[order], mesh.sigma[order])


class TestFaceTable:
    @pytest.mark.parametrize("make", [_kuhn_box_mesh, _smoothed_mesh,
                                      _permuted_mesh])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_unique_reference(self, make, data):
        mesh = make(data)
        for got, ref in zip(mesh.face_table(), reference_face_table(mesh),
                            strict=True):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    def test_faces_and_incidence(self, nested_sphere_segmentation):
        mesh = generate_mesh(nested_sphere_segmentation, 0.35)
        faces, element_faces, face_elements = mesh.face_table()
        np.testing.assert_array_equal(
            faces[element_faces].reshape(-1, 3),
            np.sort(mesh.element_faces(), axis=1))
        two = face_elements[:, 1] >= 0
        assert np.all(face_elements[two, 0] < face_elements[two, 1])
        # Each element lists each of its faces once, and a face is listed by
        # exactly the elements recorded for it.
        counts = np.bincount(element_faces.ravel(), minlength=len(faces))
        np.testing.assert_array_equal(counts, 1 + two)
        for slot in range(2):
            e = face_elements[:, slot]
            ok = e >= 0
            assert np.all((element_faces[e[ok]] == np.flatnonzero(ok)[:, None]).any(axis=1))
        bfaces, owners = mesh.boundary_triangles()
        assert len(bfaces) == np.count_nonzero(~two)

    def test_with_sigma_and_with_nodes_share_the_table(self, nested_sphere_segmentation):
        mesh = generate_mesh(nested_sphere_segmentation, 0.35)
        smoothed = smooth_mesh(mesh, 2, 0.3)
        moved = mesh.with_nodes(smoothed.nodes)
        scaled = mesh.with_sigma(2.0 * mesh.sigma)
        fresh = TetMesh(smoothed.nodes, mesh.tetra, mesh.labels, mesh.sigma)
        for other in (smoothed, moved, scaled):
            assert other.face_table() is mesh.face_table()
            assert other.csr_pattern() is mesh.csr_pattern()
        assert scaled.volumes is mesh.volumes
        for a, b in zip(fresh.face_table(), mesh.face_table()):
            np.testing.assert_array_equal(a, b)
        for other in (smoothed, moved, scaled, fresh):
            for a, b in zip(other.boundary_triangles(), mesh.boundary_triangles()):
                np.testing.assert_array_equal(a, b)


    def test_with_sigma_checks_the_conductivity(self):
        mesh = two_tet_mesh()
        for make in (mesh.with_sigma, lambda sigma: TetMesh(
                mesh.nodes, mesh.tetra, mesh.labels, sigma)):
            with pytest.raises(ParameterError, match="length"):
                make(np.ones(3))
            for shape in ((2, 3), (2, 6, 1)):
                with pytest.raises(ParameterError, match="6 columns"):
                    make(np.ones(shape))
        tens = mesh.with_sigma(np.tile([1.0, 2.0, 3.0, 0.0, 0.0, 0.0], (2, 1)))
        assert tens.is_tensor and not tens.sigma.flags.writeable
        assert not mesh.is_tensor

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_sigma_must_be_finite_and_nonnegative(self, bad):
        # NaN and inf used to reach the solver; a negative value the
        # assembly, chunk by chunk.
        mesh = two_tet_mesh()
        for make in (mesh.with_sigma, lambda sigma: TetMesh(
                mesh.nodes, mesh.tetra, mesh.labels, sigma)):
            with pytest.raises(ParameterError, match="conductivity"):
                make(np.array([1.0, bad]))
            with pytest.raises(ParameterError, match="conductivity"):
                make(np.tile([1.0, 1.0, bad, 0.0, 0.0, 0.0], (2, 1)))
        assert mesh.with_sigma(np.zeros(2)).sigma.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("make", ["nan", "-inf", "overflow", "n_by_2"])
    def test_nodes_and_volumes_must_be_valid(self, make):
        # vols <= 0 is False for NaN, so a NaN node used to pass, and
        # (n, 2) nodes ended in an untyped einsum error.
        mesh = two_tet_mesh()
        nodes = mesh.nodes.copy()
        if make == "overflow":
            nodes *= 1e120                       # volumes ~1e360 = inf
        elif make == "n_by_2":
            nodes = nodes[:, :2]
        else:
            nodes[4, 2] = float(make)            # keeps the orientation
        for build in (mesh.with_nodes, lambda x: TetMesh(
                x, mesh.tetra, mesh.labels, mesh.sigma)):
            with pytest.raises(ParameterError, match="node|volume"):
                build(nodes)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_node_index_out_of_range_is_a_parameter_error(self, index):
        mesh = two_tet_mesh()
        tetra = mesh.tetra.copy()
        tetra[0, 0] = index
        with pytest.raises(ParameterError, match="missing node"):
            TetMesh(mesh.nodes, tetra, mesh.labels, mesh.sigma)

    def test_caller_arrays_stay_writable(self):
        # A mesh copies the arrays that its caller can still write and
        # shares the read-only ones.
        mesh = two_tet_mesh()
        nodes, sigma = mesh.nodes.copy(), np.array([1.0, 2.0])
        own = TetMesh(nodes, mesh.tetra, mesh.labels, sigma).with_sigma(sigma)
        nodes[0, 0] = sigma[0] = 3.0
        assert own.nodes[0, 0] == 0.0 and own.sigma[0] == 1.0
        assert mesh.with_sigma(own.sigma).sigma is own.sigma
        shared = TetMesh(mesh.nodes, mesh.tetra, mesh.labels, own.sigma)
        assert shared.nodes is mesh.nodes and shared.tetra is mesh.tetra


class TestSystem:
    def test_assemble_cem_system(self, nested_sphere_segmentation):
        mesh = generate_mesh(nested_sphere_segmentation, 0.35)
        bfaces, _ = mesh.boundary_triangles()
        cent = mesh.nodes[bfaces].mean(axis=1)
        el = ElectrodeSet.from_centers(
            mesh, cent[[np.argmax(cent[:, 2]), np.argmin(cent[:, 2])]],
            radius=0.4, impedances=1e3)
        src = place_sources(mesh, nested_sphere_segmentation, 3, seed=0)
        sys = assemble_cem_system(mesh, el, src)
        assert sys.A.shape == (mesh.n_nodes, mesh.n_nodes)
        assert sys.B.shape == (mesh.n_nodes, 2)
        assert sys.G.shape == (mesh.n_nodes, 9)
        assert sys.ground == el.ground == reference_ground(mesh, el)
        # Grounded row/column is the identity row.
        gi = sys.ground
        row = sys.A.getrow(gi).toarray().ravel()
        assert row[gi] == 1.0
        assert np.count_nonzero(row) == 1
        # A symmetric.
        assert abs(sys.A - sys.A.T).max() < 1e-12
        # At another conductivity only A changes: B, C, G and the ground
        # node depend on the geometry alone.
        sys2 = assemble_cem_system(mesh.with_sigma(2.0 * mesh.sigma), el, src)
        np.testing.assert_array_equal(sys2.mesh.sigma, 2.0 * mesh.sigma)
        for name in ("B", "C", "G"):
            assert (getattr(sys2, name) != getattr(sys, name)).nnz == 0
        assert sys2.ground == sys.ground
