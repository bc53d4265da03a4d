import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from headfem import geometry
from headfem.errors import CurrentPatternError, DofError, SingularSystemError
from headfem.experiments import EitHemorrhageParams, layered_sphere_segmentation
from headfem.fem import (
    ElectrodeSet,
    assemble_A,
    assemble_B_C_R,
    assemble_cem_system,
    stiffness_blocks,
)
from headfem.geometry import Compartment, Segmentation, icosphere
from headfem.leadfield import (
    EitDofMap,
    _dof_sensitivities,
    adjacent_pair_patterns,
    build_dof_map,
    check_current_patterns,
    eeg_leadfield,
    eit_forward,
    eit_leadfield,
    electrode_response,
)
from headfem.meshgen import generate_mesh, place_sources
from headfem.solver import PcgConfig

TIGHT = PcgConfig(tolerance=1e-12)


def fibonacci_points(n, radius):
    i = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * i / n)
    theta = np.pi * (1 + 5**0.5) * i
    return radius * np.column_stack([np.sin(phi) * np.cos(theta),
                                     np.sin(phi) * np.sin(theta),
                                     np.cos(phi)])


def small_sphere_system(n_electrodes=4, h=0.045, n_sources=3, seed=0,
                        mode="unconstrained"):
    seg = Segmentation([Compartment(icosphere(0.1, 2), 0.33, active=True)])
    mesh = generate_mesh(seg, h)
    el = ElectrodeSet.from_centers(mesh, fibonacci_points(n_electrodes, 0.1),
                                   radius=0.05, impedances=1e3)
    src = place_sources(mesh, seg, n_sources, mode=mode, seed=seed)
    return mesh, el, assemble_cem_system(mesh, el, src), seg


def direct_eit_forward(mesh, electrodes, sigma, currents):
    """Independent oracle: direct sparse factorization, no PCG."""
    m2 = mesh.with_sigma(sigma)
    A = assemble_A(m2, electrodes)
    B, C, R = assemble_B_C_R(m2, electrodes)
    lu = spla.splu(A.tocsc())
    AinvB = lu.solve(B.toarray())
    M = C.toarray() - B.T @ AinvB
    I = np.atleast_2d(np.asarray(currents, dtype=float).T).T
    return R @ sla.solve(M, I)


class TestEegLeadfield:
    def test_columns_zero_mean(self):
        _, _, sys, _ = small_sphere_system(n_electrodes=6, n_sources=4)
        lf = eeg_leadfield(sys, TIGHT)
        means = lf.matrix.mean(axis=0)
        norms = np.linalg.norm(lf.matrix, axis=0)
        assert np.all(np.abs(means) <= 1e-10 * np.maximum(norms, 1e-300))

    def test_zero_source_column_gives_zero_lf_column(self):
        import scipy.sparse as sp
        mesh, el, sys, _ = small_sphere_system()
        G = sys.G.tolil()
        G[:, 2] = 0.0
        sys2 = type(sys)(mesh=sys.mesh, electrodes=sys.electrodes, A=sys.A,
                         B=sys.B, C=sys.C, R=sys.R, ground=sys.ground,
                         G=G.tocsr(), source_space=sys.source_space)
        lf = eeg_leadfield(sys2, TIGHT)
        np.testing.assert_allclose(lf.matrix[:, 2], 0.0, atol=1e-16)

    def test_dense_source_matrix_matches_sparse(self):
        _, _, sys, _ = small_sphere_system()
        lf = eeg_leadfield(sys, TIGHT)
        lf_d = eeg_leadfield(dataclasses.replace(sys, G=sys.G.toarray()), TIGHT)
        np.testing.assert_allclose(lf_d.matrix, lf.matrix, rtol=1e-12,
                                   atol=1e-14 * np.abs(lf.matrix).max())

    def test_matches_dense_direct_evaluation(self):
        mesh, el, sys, _ = small_sphere_system(n_electrodes=5, n_sources=4,
                                               h=0.06)
        assert mesh.n_nodes <= 500
        lf = eeg_leadfield(sys, TIGHT)
        Ainv = np.linalg.inv(sys.A.toarray())
        B = sys.B.toarray()
        G = sys.G.toarray()
        L_ref = sys.R @ np.linalg.solve(B.T @ Ainv @ B - sys.C.toarray(),
                                        B.T @ Ainv @ G)
        err = np.linalg.norm(lf.matrix - L_ref) / np.linalg.norm(L_ref)
        assert err <= 1e-8

    def test_constrained_mode_contracts_cartesian_columns(self):
        # The normal-constrained column of each source is exactly the
        # normal-weighted combination of its three Cartesian columns.
        mesh, el, sys_u, seg = small_sphere_system(n_electrodes=4, n_sources=5,
                                                   seed=8)
        src_c = place_sources(mesh, seg, 5, mode="constrained", seed=8)
        np.testing.assert_array_equal(src_c.positions,
                                      sys_u.source_space.positions)
        sys_c = assemble_cem_system(mesh, el, src_c)
        lf_u = eeg_leadfield(sys_u, TIGHT)
        lf_c = eeg_leadfield(sys_c, TIGHT)
        for s in range(5):
            expect = lf_u.matrix[:, 3 * s:3 * s + 3] @ src_c.orientations[s]
            np.testing.assert_allclose(lf_c.matrix[:, s], expect, rtol=1e-9,
                                       atol=1e-12 * np.abs(expect).max())

    def test_isotropic_tensor_rows_reproduce_scalar_leadfield(self):
        mesh, el, sys, seg = small_sphere_system(n_electrodes=4)
        tens = np.zeros((mesh.n_elements, 6))
        tens[:, :3] = mesh.sigma[:, None]
        mesh_t = mesh.with_sigma(tens)
        sys_t = assemble_cem_system(mesh_t, el, sys.source_space)
        lf = eeg_leadfield(sys, TIGHT)
        lf_t = eeg_leadfield(sys_t, TIGHT)
        np.testing.assert_allclose(lf_t.matrix, lf.matrix,
                                   rtol=1e-10, atol=1e-14 * np.abs(lf.matrix).max())

    def test_electrode_permutation_permutes_rows(self):
        mesh, el, sys, seg = small_sphere_system(n_electrodes=5, n_sources=3)
        perm = np.array([3, 0, 4, 2, 1])
        el2 = ElectrodeSet(mesh, [el.triangle_ids[el.electrode == k]
                                  for k in perm],
                           el.impedances[perm])
        sys2 = assemble_cem_system(mesh, el2, sys.source_space)
        lf = eeg_leadfield(sys, TIGHT)
        lf2 = eeg_leadfield(sys2, TIGHT)
        np.testing.assert_allclose(lf2.matrix, lf.matrix[perm], rtol=1e-9,
                                   atol=1e-12 * np.abs(lf.matrix).max())

    def test_response_matrix_symmetric_invertible(self):
        _, _, sys, _ = small_sphere_system()
        resp = electrode_response(sys, TIGHT)
        M = resp.M
        np.testing.assert_allclose(M, M.T, atol=1e-12 * np.abs(M).max())
        assert np.linalg.cond(M) < 1e12
        np.testing.assert_allclose(resp.solve(M), np.eye(len(M)), atol=1e-12)

    def test_indefinite_response_raises(self):
        # With C = 0 the response M = -B' A^-1 B is negative definite, so
        # its Cholesky factorization must fail.
        _, _, sys, _ = small_sphere_system()
        with pytest.raises(SingularSystemError):
            electrode_response(dataclasses.replace(sys, C=0.0 * sys.C), TIGHT)

    def test_central_dipole_matches_analytic_solution(self):
        # A dipole at the center of a homogeneous sphere of radius R has the
        # closed-form surface potential u = 3 (p . r_hat) / (4 pi sigma R^2);
        # the assembled lead field must reproduce it (sign, scale, pattern)
        # up to discretization error.
        from headfem.geometry import nearest_center
        from headfem.meshgen import SourceSpace

        R, sigma = 0.1, 0.33
        seg = Segmentation([Compartment(icosphere(R, 3), sigma, active=True)])
        mesh = generate_mesh(seg, 0.012)
        centers = fibonacci_points(20, R)
        el = ElectrodeSet.from_centers(mesh, centers, radius=0.02,
                                       impedances=1e3)
        eid = nearest_center(np.zeros((1, 3)), mesh.centroids())[0]
        src = SourceSpace(positions=mesh.centroids()[eid], orientations=None,
                          element_ids=eid, mode="unconstrained")
        sys = assemble_cem_system(mesh, el, src)
        lf = eeg_leadfield(sys, PcgConfig(tolerance=1e-10))

        p = np.array([0.0, 0.0, 1.0])
        y = lf.matrix @ p
        rhat = centers / np.linalg.norm(centers, axis=1, keepdims=True)
        u = 3.0 * (rhat @ p) / (4 * np.pi * sigma * R**2)
        u -= u.mean()
        assert np.linalg.norm(y - u) / np.linalg.norm(u) < 0.15
        scale = np.linalg.norm(y) / np.linalg.norm(u)
        assert 0.9 < scale < 1.1
        assert np.corrcoef(y, u)[0, 1] > 0.99


class TestEitForward:
    def test_zero_current_zero_voltage(self):
        _, _, sys, _ = small_sphere_system()
        y = eit_forward(sys, np.zeros(4), TIGHT)
        np.testing.assert_array_equal(y, 0.0)

    def test_voltages_sum_to_zero(self):
        _, _, sys, _ = small_sphere_system(n_electrodes=6)
        I = adjacent_pair_patterns(6)
        y = eit_forward(sys, I, TIGHT)
        np.testing.assert_allclose(y.sum(axis=0), 0.0,
                                   atol=1e-12 * np.abs(y).max())

    def test_linearity_in_currents(self):
        _, _, sys, _ = small_sphere_system()
        I = np.array([1.0, -0.25, -0.5, -0.25])
        y1 = eit_forward(sys, I, TIGHT)
        y3 = eit_forward(sys, 3.0 * I, TIGHT)
        np.testing.assert_allclose(y3, 3.0 * y1, rtol=1e-12)

    def test_nonzero_sum_rejected(self):
        _, _, sys, _ = small_sphere_system()
        with pytest.raises(CurrentPatternError):
            eit_forward(sys, np.array([1.0, 0.0, 0.0, 0.0]), TIGHT)

    def test_zero_pattern_does_not_hide_a_nonzero_sum(self):
        # An all-zero pattern is valid, but must not skip the zero-sum check
        # of the other patterns.
        with pytest.raises(CurrentPatternError, match=r"\[1\]"):
            check_current_patterns(np.array([[0, 1], [0, 1], [0, 1]]), 3)
        I = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(check_current_patterns(I, 3), I)

    def test_matches_direct_oracle(self):
        mesh, el, sys, _ = small_sphere_system(n_electrodes=6)
        I = adjacent_pair_patterns(6)
        y = eit_forward(sys, I, TIGHT)
        y_ref = direct_eit_forward(mesh, el, mesh.sigma, I)
        np.testing.assert_allclose(y, y_ref, rtol=1e-8)


def reference_owners(points, centers):
    """The lowest-index nearest center of every point from its full row of
    ``np.linalg.norm`` distances, 1,024 rows at a time, and the number of
    rows whose two nearest centers tie exactly.  The reference for the
    tree-pruned owners of ``build_dof_map``."""
    owner = np.empty(len(points), dtype=np.int64)
    ties = 0
    for lo in range(0, len(points), 1024):
        d = np.linalg.norm(points[lo:lo + 1024, None, :] - centers[None, :, :],
                           axis=2)
        owner[lo:lo + 1024] = d.argmin(axis=1)
        two = np.partition(d, 1, axis=1)[:, :2]
        ties += int(np.count_nonzero(two[:, 0] == two[:, 1]))
    return owner, ties


class TestDofMap:
    def test_desk_sets_match_brute_force_owners(self):
        # The EIT desk model: 27,117 candidates x 600 centers, far above
        # the pruning constants, with exactly tied Kuhn centroids.
        p = EitHemorrhageParams()
        mesh = generate_mesh(
            layered_sphere_segmentation(p.radii, p.conductivities,
                                        p.priorities, (0,), p.subdivisions),
            p.resolution)
        dofs = build_dof_map(mesh, list(p.dof_compartments), p.n_dofs,
                             seed=p.dof_seed)
        cand = np.flatnonzero(np.isin(mesh.labels, p.dof_compartments))
        owner, ties = reference_owners(mesh.centroids()[cand], dofs.centers)
        assert cand.size * p.n_dofs >= geometry._PRUNE_PAIRS
        assert ties > 0
        assert len(dofs.element_sets) == p.n_dofs
        for k, es in enumerate(dofs.element_sets):
            np.testing.assert_array_equal(es, cand[owner == k])

    def test_chunked_owners_match_dense_formula(self):
        # 600 DOFs over ~7,000 elements spans several row chunks.
        seg = Segmentation([Compartment(icosphere(0.1, 2), 0.33, active=True)])
        mesh = generate_mesh(seg, 0.015)
        dofs = build_dof_map(mesh, [0], n_dofs=600, seed=5)
        owner, _ = reference_owners(mesh.centroids(), dofs.centers)
        assert mesh.n_elements > 2 * (1_000_000 // 600)
        for k, es in enumerate(dofs.element_sets):
            np.testing.assert_array_equal(es, np.flatnonzero(owner == k))

    @pytest.mark.parametrize("compartments, n_dofs",
                             [([0], 1), ([1], 40), ([0, 1], 300)])
    def test_sets_match_owner_comprehension(self, compartments, n_dofs):
        # Perturbable elements in one or both shells of a two-shell mesh:
        # each set is the candidates its center owns, in ascending order.
        from headfem.geometry import nearest_center
        seg = Segmentation([
            Compartment(icosphere(0.06, 2), 0.5, priority=1, active=True),
            Compartment(icosphere(0.1, 2), 0.33, active=True)])
        mesh = generate_mesh(seg, 0.02)
        dofs = build_dof_map(mesh, compartments, n_dofs=n_dofs, seed=n_dofs)
        cand = np.flatnonzero(np.isin(mesh.labels, compartments))
        owner, _ = nearest_center(mesh.centroids()[cand], dofs.centers)
        assert len(dofs.element_sets) == n_dofs
        for k, es in enumerate(dofs.element_sets):
            np.testing.assert_array_equal(es, cand[owner == k])


def reference_dof_sensitivities(sys, dofs, U, T):
    """q_{m,p} = T' K_m u_p from the (E, 4, L) gather T[conn] of every DOF
    element, summed into the DOFs by a one-hot product.  The reference for
    the DOF x node matrices of ``_dof_sensitivities``."""
    mesh = sys.mesh
    all_elems = np.concatenate([np.asarray(e) for e in dofs.element_sets])
    E = all_elems.size
    onehot = sp.csr_matrix((np.ones(E), np.arange(E), np.cumsum(
        [0] + [len(e) for e in dofs.element_sets])), shape=(dofs.n_dofs, E))
    blocks = stiffness_blocks(mesh, sigma=1.0, elements=all_elems)
    conn = mesh.tetra[all_elems]
    gmask = conn == sys.ground
    blocks[np.repeat(gmask[:, :, None], 4, axis=2)] = 0.0
    blocks[np.repeat(gmask[:, None, :], 4, axis=1)] = 0.0
    Tg = T[conn]                                                # (E, 4, L)
    Q = np.zeros((U.shape[1], dofs.n_dofs, T.shape[1]))
    for p in range(U.shape[1]):
        s = np.einsum("eij,ej->ei", blocks, U[:, p][conn])
        Q[p] = onehot @ np.einsum("eil,ei->el", Tg, s)
    return Q


class TestDofSensitivities:
    @pytest.mark.parametrize("n_dofs", [1, 9, 60])
    def test_matches_element_gather_reference(self, n_dofs):
        mesh, _, sys, _ = small_sphere_system(n_electrodes=5)
        dofs = build_dof_map(mesh, [0], n_dofs=n_dofs, seed=n_dofs)
        # The DOFs cover the whole mesh, so one of them touches the ground
        # node, whose rows and columns carry no sensitivity.
        assert any(np.isin(sys.ground, mesh.tetra[e])
                   for e in dofs.element_sets)
        rng = np.random.default_rng(n_dofs)
        U = rng.normal(size=(mesh.n_nodes, 4))
        T = rng.normal(size=(mesh.n_nodes, 5))
        Q = _dof_sensitivities(sys, dofs, U, T)
        ref = reference_dof_sensitivities(sys, dofs, U, T)
        assert Q.shape == ref.shape
        assert np.abs(Q - ref).max() <= 1e-13 * np.abs(ref).max()
        # Moving the ground values changes nothing.
        U[sys.ground] += 1.0
        T[sys.ground] += 1.0
        np.testing.assert_array_equal(_dof_sensitivities(sys, dofs, U, T), Q)


@pytest.fixture(scope="module")
def reciprocity_system():
    mesh, _, sys, _ = small_sphere_system(n_electrodes=6, h=0.05)
    return sys, build_dof_map(mesh, [0], n_dofs=5, seed=6)


zero_sum_patterns = hnp.arrays(np.float64, 6, elements=st.floats(-1.0, 1.0)) \
    .map(lambda v: v - v.mean()).filter(lambda v: np.abs(v).max() > 1e-3)


class TestEitLeadfield:
    @settings(max_examples=20, deadline=None)
    @given(I=zero_sum_patterns, m=zero_sum_patterns)
    def test_reciprocity(self, reciprocity_system, I, m):
        # Geselowitz (IEEE TBME 18, 1971): driving I and measuring m gives
        # the sensitivity of driving m and measuring I, m' J_I = I' J_m.
        sys, dofs = reciprocity_system
        cfg = PcgConfig(tolerance=1e-10)
        J = eit_leadfield(sys, dofs, np.column_stack([I, m]), cfg).matrix
        J_I, J_m = J[:6], J[6:]
        scale = np.linalg.norm(m) * np.linalg.norm(J_I, axis=0) + \
            np.linalg.norm(I) * np.linalg.norm(J_m, axis=0)
        np.testing.assert_array_less(np.abs(m @ J_I - I @ J_m),
                                     cfg.tolerance * scale + 1e-300)

    def test_finite_difference_oracle(self):
        # Central differences of the direct-solve forward map validate every
        # lead-field entry to 1e-3 relative at step 1e-6 * sigma.
        mesh, el, sys, _ = small_sphere_system(n_electrodes=4, h=0.05)
        dofs = build_dof_map(mesh, [0], n_dofs=4, seed=1)
        I = adjacent_pair_patterns(4)[:, :2]
        lf = eit_leadfield(sys, dofs, I, TIGHT)
        s0 = float(mesh.sigma[0])
        for m in range(dofs.n_dofs):
            delta = 1e-6 * s0
            sig_p = mesh.sigma.copy()
            sig_m = mesh.sigma.copy()
            sig_p[dofs.element_sets[m]] += delta
            sig_m[dofs.element_sets[m]] -= delta
            fd = (direct_eit_forward(mesh, el, sig_p, I)
                  - direct_eit_forward(mesh, el, sig_m, I)) / (2 * delta)
            fd = fd.T.ravel()
            col = lf.matrix[:, m]
            assert np.all(np.abs(col - fd) <= 1e-3 * np.abs(fd))

    def test_duplicate_dof_identical_columns(self):
        mesh, el, sys, _ = small_sphere_system(n_electrodes=4)
        base = build_dof_map(mesh, [0], n_dofs=3, seed=0)
        dup = EitDofMap(element_sets=base.element_sets + (base.element_sets[1],),
                        centers=np.vstack([base.centers, base.centers[1]]))
        lf = eit_leadfield(sys, dup, adjacent_pair_patterns(4), TIGHT)
        np.testing.assert_array_equal(lf.matrix[:, 1], lf.matrix[:, 3])

    def test_zero_perturbation_reproduces_background(self):
        _, _, sys, _ = small_sphere_system(n_electrodes=5)
        dofs = build_dof_map(sys.mesh, [0], n_dofs=4, seed=2)
        I = adjacent_pair_patterns(5)
        lf = eit_leadfield(sys, dofs, I, TIGHT)
        y = lf.background_data + lf.matrix @ np.zeros(dofs.n_dofs)
        np.testing.assert_array_equal(y, lf.background_data)
        y_fwd = eit_forward(sys, I, TIGHT)
        np.testing.assert_allclose(lf.background_data, y_fwd.T.ravel(),
                                   rtol=1e-12)

    def test_linearization_second_order(self):
        # || y(sigma + d) - (y_bg + L d) || must drop ~4x when d halves.
        mesh, el, sys, _ = small_sphere_system(n_electrodes=6)
        dofs = build_dof_map(mesh, [0], n_dofs=5, seed=3)
        I = adjacent_pair_patterns(6)
        lf = eit_leadfield(sys, dofs, I, TIGHT)
        rng = np.random.default_rng(0)
        x = 0.2 * float(mesh.sigma[0]) * rng.uniform(0.5, 1.0, dofs.n_dofs)

        def linearization_error(x):
            sig = mesh.sigma.copy()
            for m, es in enumerate(dofs.element_sets):
                sig[es] += x[m]
            y = direct_eit_forward(mesh, el, sig, I).T.ravel()
            return np.linalg.norm(y - (lf.background_data + lf.matrix @ x))

        e1 = linearization_error(x)
        e2 = linearization_error(0.5 * x)
        assert e1 / e2 >= 3.5

    def test_zero_mean_per_pattern_block(self):
        _, _, sys, _ = small_sphere_system(n_electrodes=5)
        dofs = build_dof_map(sys.mesh, [0], n_dofs=4, seed=5)
        lf = eit_leadfield(sys, dofs, adjacent_pair_patterns(5), TIGHT)
        blocks = lf.matrix.reshape(lf.n_patterns, lf.n_electrodes, -1)
        norms = np.linalg.norm(blocks, axis=1)
        np.testing.assert_array_less(np.abs(blocks.sum(axis=1)),
                                     1e-10 * np.maximum(norms, 1e-300) + 1e-300)

    def test_empty_dof_rejected(self):
        _, _, sys, _ = small_sphere_system()
        with pytest.raises(DofError):
            EitDofMap(element_sets=(np.array([0, 1]), np.array([], dtype=int)),
                      centers=np.zeros((2, 3)))

    def test_dof_map_partitions_compartment(self):
        mesh, _, _, _ = small_sphere_system()
        dofs = build_dof_map(mesh, [0], n_dofs=8, seed=4)
        cat = np.sort(np.concatenate(dofs.element_sets))
        np.testing.assert_array_equal(cat, np.flatnonzero(mesh.labels == 0))
        # Every element belongs to its nearest center.
        centroids = mesh.centroids()
        for k, es in enumerate(dofs.element_sets):
            d = np.linalg.norm(centroids[es][:, None] - dofs.centers[None], axis=2)
            np.testing.assert_array_equal(np.argmin(d, axis=1), k)
