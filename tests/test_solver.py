import logging
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from headfem.errors import (
    ConvergenceError,
    ParameterError,
    SingularPreconditionerError,
)
from headfem.experiments import (
    EitHemorrhageParams,
    layered_sphere_segmentation,
)
from headfem.fem import ElectrodeSet, assemble_cem_system
from headfem.meshgen import generate_mesh
from headfem.simulate import fibonacci_sphere_points
from headfem import solver
from headfem.solver import PcgConfig, ldp, pcg_solve, transfer_matrix


def random_spd(n, seed, cond=100.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.geomspace(1.0, cond, n)
    return Q @ np.diag(lam) @ Q.T


def shifted_laplacian(n, seed, cond):
    """Sparse SPD CSR matrix: a random weighted graph Laplacian plus the
    shift that sets its condition number to about ``cond``."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, size=(2, 2 * n))
    W = sp.coo_matrix((rng.uniform(0.1, 1.0, 2 * n), (i, j)), shape=(n, n))
    W = (W + W.T).tocsr()
    W.setdiag(0.0)
    L = sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W
    lmax = max(np.linalg.eigvalsh(L.toarray())[-1], 1.0)
    return (L + lmax / max(cond - 1.0, 1e-3) * sp.eye(n)).tocsr()


def reference_pcg(A, b, cfg):
    """Single-column LDP-PCG, the solver's loop before the block solve.
    Returns ``(x, iterations, relative_residual, restarts)``."""
    b = np.asarray(b, dtype=float).ravel()
    n = len(b)
    norm_b = np.linalg.norm(b)
    if norm_b == 0:
        return np.zeros(n), 0, 0.0, 0
    d = ldp(A)
    max_iter = cfg.resolve_max_iterations(n)

    x = np.zeros(n)
    r = b.copy()
    z = r / d
    p = z.copy()
    rz = r @ z
    best = (1.0, x.copy(), 0)
    restarts = 0
    for k in range(1, max_iter + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r) / norm_b
        if res < best[0]:
            best = (res, x.copy(), k)
        if res <= cfg.tolerance:
            true_res = np.linalg.norm(b - A @ x) / norm_b
            if true_res <= cfg.tolerance:
                return x, k, true_res, restarts
            r = b - A @ x
            restarts += 1
        z = r / d
        rz_next = r @ z
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p
    raise ConvergenceError(
        f"PCG did not reach {cfg.tolerance:g} in {max_iter} iterations "
        f"(best residual {best[0]:.3e})",
        best_x=best[1], residual=best[0], iterations=max_iter)


def reference_transfer_matrix(A, B, cfg=PcgConfig()):
    """T solved column by column with :func:`reference_pcg`.  Returns
    ``(T, iterations, restarts)`` with one count per column."""
    B = B.toarray() if sp.issparse(B) else np.asarray(B, dtype=float)
    T = np.empty(B.shape)
    iterations, restarts = [], []
    for l in range(B.shape[1]):
        try:
            T[:, l], it, _, rs = reference_pcg(A, B[:, l], cfg)
        except ConvergenceError as exc:
            exc.column = l
            raise
        iterations.append(it)
        restarts.append(rs)
    return T, iterations, restarts


def solve_both(A, B, cfg, caplog):
    """The block and the column-loop outcome: ``(T, per-column
    iterations)`` from the solver's DEBUG record, or the error raised."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="headfem.solver"):
        try:
            T = transfer_matrix(A, B, cfg)
            block = T, caplog.records[-1].args[2]
        except ConvergenceError as exc:
            block = exc
    try:
        ref = reference_transfer_matrix(A, B, cfg)[:2]
    except ConvergenceError as exc:
        ref = exc
    return block, ref


def assert_same_outcome(block, ref):
    assert type(block) is type(ref)
    if isinstance(ref, ConvergenceError):
        assert str(block) == str(ref)
        assert block.column == ref.column
        assert block.iterations == ref.iterations
        assert block.residual == ref.residual
        assert np.array_equal(block.best_x, ref.best_x)
    else:
        assert np.array_equal(block[0], ref[0])
        assert block[1] == ref[1]


class TestLdp:
    def test_identity(self):
        np.testing.assert_array_equal(ldp(sp.eye(5, format="csr")), np.ones(5))

    def test_formula(self):
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(ldp(A), [3.0, 3.0])

    def test_zero_row(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SingularPreconditionerError):
            ldp(A)


class TestPcg:
    def test_identity_one_iteration(self):
        b = np.array([3.0, -1.0, 2.0])
        x, it, res = pcg_solve(sp.eye(3, format="csr"), b)
        np.testing.assert_allclose(x, b, rtol=1e-14)
        assert it == 1

    def test_two_by_two_closed_form(self):
        # Direct 2x2 solve oracle: A = [[4,1],[1,3]], b = [1,2]
        # det = 11, x = (3*1 - 1*2, 4*2 - 1*1)/11 = (1/11, 7/11).
        A = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x, _, _ = pcg_solve(A, np.array([1.0, 2.0]), PcgConfig(tolerance=1e-14))
        np.testing.assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)

    def test_matches_dense_solve(self):
        A = random_spd(50, seed=42)
        rng = np.random.default_rng(1)
        b = rng.normal(size=50)
        x_ref = np.linalg.solve(A, b)
        x, _, _ = pcg_solve(sp.csr_matrix(A), b, PcgConfig(tolerance=1e-10))
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8

    def test_zero_rhs(self):
        A = sp.eye(4, format="csr")
        x, it, res = pcg_solve(A, np.zeros(4))
        np.testing.assert_array_equal(x, 0.0)
        assert it == 0

    def test_iteration_cap_with_best_iterate(self):
        A = sp.csr_matrix(random_spd(30, seed=3, cond=1e4))
        b = np.ones(30)
        with pytest.raises(ConvergenceError) as exc:
            pcg_solve(A, b, PcgConfig(tolerance=1e-14, max_iterations=3))
        err = exc.value
        assert err.best_x is not None
        assert err.iterations == 3
        assert err.residual <= 1.0  # no worse than the zero start

    def test_iteration_count_bound(self):
        # In exact arithmetic CG terminates in <= n steps; allow n + 5 in
        # floating point (moderately conditioned fixtures).
        for seed in (0, 1, 2):
            n = 40
            A = sp.csr_matrix(random_spd(n, seed=seed, cond=10.0))
            b = np.random.default_rng(seed).normal(size=n)
            _, it, _ = pcg_solve(A, b, PcgConfig(tolerance=1e-10))
            assert it <= n + 5

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            PcgConfig(tolerance=0.0)
        with pytest.raises(ParameterError):
            PcgConfig(max_iterations=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="tolerance"):
                PcgConfig(tolerance=bad)


class TestTransferMatrix:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 60),
           log_cond=st.floats(0.0, 6.0), log_tol=st.floats(-12.0, -6.0),
           sparse=st.booleans(),
           kinds=st.lists(st.sampled_from(["dense", "few", "zero", "copy"]),
                          min_size=1, max_size=8))
    def test_bit_identical_to_column_loop(self, caplog, seed, n, log_cond,
                                          log_tol, sparse, kinds):
        # Zero columns never enter the block; a copy of an earlier column
        # must repeat its iterates exactly while both are in the block.
        A = (shifted_laplacian(n, seed, 10**log_cond) if sparse
             else sp.csr_matrix(random_spd(n, seed, 10**log_cond)))
        rng = np.random.default_rng(seed)
        B = np.zeros((n, len(kinds)))
        for l, kind in enumerate(kinds):
            if kind == "dense" or (kind == "copy" and l == 0):
                B[:, l] = rng.normal(size=n)
            elif kind == "few":
                B[rng.integers(0, n, 3), l] = rng.normal(size=3)
            elif kind == "copy":
                B[:, l] = B[:, rng.integers(0, l)]
        assert_same_outcome(*solve_both(A, B, PcgConfig(10**log_tol), caplog))

    def test_true_residual_restart(self, caplog):
        # At cond 1e5 the recurrence residual of column 0 passes 1e-12
        # before the true one does, so that column restarts from b - A x.
        n, seed = 20, 4
        A = sp.csr_matrix(random_spd(n, seed, cond=1e5))
        B = np.random.default_rng(seed).normal(size=(3, n)).T
        cfg = PcgConfig(tolerance=1e-12)
        assert reference_transfer_matrix(A, B, cfg)[2][0] > 0
        assert_same_outcome(*solve_both(A, B, cfg, caplog))

    def test_later_column_fails(self, caplog):
        # Column 0 converges within the budget and column 1 does not: the
        # error names column 1 and carries its best iterate.
        n = 30
        A = sp.csr_matrix(random_spd(n, seed=3, cond=1e4))
        B = np.random.default_rng(3).normal(size=(n, 2))
        _, its, _ = reference_transfer_matrix(A, B)
        B = B[:, np.argsort(its)]
        assert min(its) < max(its)
        block, ref = solve_both(A, B, PcgConfig(max_iterations=min(its)),
                                caplog)
        assert isinstance(ref, ConvergenceError) and ref.column == 1
        assert_same_outcome(block, ref)

    def test_bit_identical_on_eit_desk_system(self, caplog):
        # The EIT desk CEM system: n = 11,077, 16 electrode columns that
        # converge in 140-148 iterations, so the block shrinks at the end.
        p = EitHemorrhageParams()
        mesh = generate_mesh(
            layered_sphere_segmentation(p.radii, p.conductivities,
                                        p.priorities, (0,), p.subdivisions),
            p.resolution)
        el = ElectrodeSet.from_centers(
            mesh, fibonacci_sphere_points(p.n_electrodes, p.radii[-1]),
            radius=p.electrode_radius, impedances=p.impedance)
        system = assemble_cem_system(mesh, el)
        cfg = PcgConfig(tolerance=p.solver_tolerance)
        assert_same_outcome(*solve_both(system.A, system.B, cfg, caplog))

    def test_logs_per_column_iterations(self, caplog):
        A = sp.csr_matrix(random_spd(20, seed=2))
        B = np.random.default_rng(2).normal(size=(20, 3))
        B[:, 1] = 0.0
        with caplog.at_level(logging.DEBUG, logger="headfem.solver"):
            _, it, res = pcg_solve(A, B, PcgConfig(tolerance=1e-10))
        (record,) = caplog.records
        _, its, _ = reference_transfer_matrix(A, B, PcgConfig(tolerance=1e-10))
        assert record.args[:3] == (20, 3, its)
        assert record.args[3] == res and res <= 1e-10
        assert it == max(its) and its[1] == 0
        assert record.getMessage().startswith(
            f"pcg n=20 k=3 iterations={its} worst residual=")

    def test_identity(self):
        B = sp.random(20, 4, density=0.3, random_state=7, format="csr")
        T = transfer_matrix(sp.eye(20, format="csr"), B)
        np.testing.assert_allclose(T, B.toarray(), atol=1e-12)

    def test_scaling(self):
        B = sp.random(15, 3, density=0.5, random_state=2, format="csr")
        T = transfer_matrix(2.0 * sp.eye(15, format="csr"), B,
                            PcgConfig(tolerance=1e-14))
        np.testing.assert_allclose(T, B.toarray() / 2.0, rtol=1e-12)

    def test_columnwise_residual(self):
        n = 40
        A = sp.csr_matrix(random_spd(n, seed=5))
        B = sp.random(n, 3, density=0.4, random_state=5, format="csr")
        tol = 1e-9
        T = transfer_matrix(A, B, PcgConfig(tolerance=tol))
        for l in range(3):
            b = B[:, [l]].toarray().ravel()
            res = np.linalg.norm(A @ T[:, l] - b) / np.linalg.norm(b)
            assert res <= tol

    def test_convergence_error_reports_column(self):
        A = sp.csr_matrix(random_spd(25, seed=1, cond=1e6))
        B = sp.csr_matrix(np.ones((25, 2)))
        with pytest.raises(ConvergenceError) as exc:
            transfer_matrix(A, B, PcgConfig(tolerance=1e-15, max_iterations=2))
        assert exc.value.column == 0
        assert exc.value.iterations == 2


@pytest.fixture(scope="module")
def eit_desk_system():
    """The EIT desk CEM system (n = 11,077, 16 electrode columns) and the
    protocol's solver settings."""
    p = EitHemorrhageParams()
    mesh = generate_mesh(
        layered_sphere_segmentation(p.radii, p.conductivities,
                                    p.priorities, (0,), p.subdivisions),
        p.resolution)
    el = ElectrodeSet.from_centers(
        mesh, fibonacci_sphere_points(p.n_electrodes, p.radii[-1]),
        radius=p.electrode_radius, impedances=p.impedance)
    system = assemble_cem_system(mesh, el)
    return system.A, system.B, PcgConfig(tolerance=p.solver_tolerance)


def solve_on_cores(A, B, cfg, cores, caplog, monkeypatch):
    """pcg_solve with ``cores`` usable cores: ``(T, per-column iterations
    from the DEBUG record, block iterations, worst residual)`` or the
    error raised."""
    monkeypatch.setattr(solver, "_usable_cores", lambda: cores)
    caplog.clear()
    try:
        with caplog.at_level(logging.DEBUG, logger="headfem.solver"):
            T, it, worst = pcg_solve(A, B, cfg)
    except ConvergenceError as exc:
        return exc
    return T, caplog.records[-1].args[2], it, worst


@pytest.fixture
def short_switch_interval():
    """Threads switch every 10 us, so worker groups interleave often and a
    lost or misplaced column write would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def assert_group_invariant(A, B, cfg, caplog, monkeypatch):
    """The solve on 2, 3 and k + 1 usable cores (one group per core, at
    most one per column) equals the one-group solve bit for bit, including
    every field of a ConvergenceError.  Returns the one-group outcome."""
    B = B.toarray() if sp.issparse(B) else B
    one = solve_on_cores(A, B, cfg, 1, caplog, monkeypatch)
    for cores in (2, 3, B.shape[1] + 1):
        grouped = solve_on_cores(A, B, cfg, cores, caplog, monkeypatch)
        assert_same_outcome(grouped, one)
        if not isinstance(one, ConvergenceError):
            assert grouped[2:] == one[2:]
    return one


class TestColumnGroups:
    def test_eit_desk_system(self, eit_desk_system, caplog, monkeypatch):
        A, B, cfg = eit_desk_system
        T, its, it, _ = assert_group_invariant(A, B, cfg, caplog,
                                               monkeypatch)
        assert it == max(its) and min(its) < max(its)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 60),
           log_cond=st.floats(0.0, 6.0), log_tol=st.floats(-12.0, -6.0),
           max_iterations=st.none() | st.integers(1, 40),
           kinds=st.lists(st.sampled_from(["dense", "few", "zero"]),
                          min_size=1, max_size=8))
    def test_hypothesis_systems(self, caplog, monkeypatch,
                                short_switch_interval, seed, n, log_cond,
                                log_tol, max_iterations, kinds):
        A = shifted_laplacian(n, seed, 10**log_cond)
        rng = np.random.default_rng(seed)
        B = np.zeros((n, len(kinds)))
        for l, kind in enumerate(kinds):
            if kind == "dense":
                B[:, l] = rng.normal(size=n)
            elif kind == "few":
                B[rng.integers(0, n, 3), l] = rng.normal(size=3)
        assert_group_invariant(A, B, PcgConfig(10**log_tol, max_iterations),
                               caplog, monkeypatch)

    def test_true_residual_restart(self, caplog, monkeypatch,
                                   short_switch_interval):
        n, seed = 20, 4
        A = sp.csr_matrix(random_spd(n, seed, cond=1e5))
        B = np.random.default_rng(seed).normal(size=(3, n)).T
        cfg = PcgConfig(tolerance=1e-12)
        assert reference_transfer_matrix(A, B, cfg)[2][0] > 0
        assert_group_invariant(A, B, cfg, caplog, monkeypatch)

    def test_later_column_fails(self, caplog, monkeypatch,
                                short_switch_interval):
        # Columns 0 and 2 converge within the budget, 1 and 3 do not: every
        # grouping reports column 1 with its best iterate.
        n = 30
        A = sp.csr_matrix(random_spd(n, seed=3, cond=1e4))
        B = np.random.default_rng(3).normal(size=(n, 2))
        _, its, _ = reference_transfer_matrix(A, B)
        B = B[:, np.argsort(its)][:, [0, 1, 0, 1]]
        err = assert_group_invariant(A, B, PcgConfig(max_iterations=min(its)),
                                     caplog, monkeypatch)
        assert isinstance(err, ConvergenceError) and err.column == 1

    def test_one_core_starts_no_thread(self, eit_desk_system, monkeypatch):
        A, B, cfg = eit_desk_system
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: (started.append(self), start(self)))
        for cores in (1, 2):
            monkeypatch.setattr(solver, "_usable_cores", lambda: cores)
            transfer_matrix(A, B, cfg)
            assert len(started) == cores - 1

    def test_groups_allocate_no_more_than_one_block(self, eit_desk_system,
                                                    monkeypatch):
        # Every group iterates in buffers the caller allocated; its only
        # (m, n) arrays are the temporaries of its own products, so two
        # half groups hold no more than one whole one: one more half block
        # would be 700 kB.  The worker thread's own state and (m,) arrays
        # are a few kB, hence the 64 KiB allowance.
        A, B, cfg = eit_desk_system
        peaks = []
        for cores in (1, 2):
            monkeypatch.setattr(solver, "_usable_cores", lambda: cores)
            tracemalloc.start()
            try:
                transfer_matrix(A, B, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024
        # B as a dense array, T, four (16, 11,077) row buffers and the
        # two (11,077, 16) arrays of each ``A @ X``.
        assert peaks[0] < 12e6
