import numpy as np
import pytest
import scipy.sparse as sp

from headfem.errors import (
    ConvergenceError,
    ParameterError,
    SingularPreconditionerError,
)
from headfem.solver import PcgConfig, ldp, pcg_solve, transfer_matrix


def random_spd(n, seed, cond=100.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.geomspace(1.0, cond, n)
    return Q @ np.diag(lam) @ Q.T


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


class TestTransferMatrix:
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
