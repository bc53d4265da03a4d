import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headfem.errors import (
    DecompositionError,
    ParameterError,
    RoiError,
    UndefinedMetricError,
)
from headfem.inverse import (
    HyperModel,
    IasState,
    ias_map,
    ias_step,
    initial_state,
    make_decomposition,
    multires_ias,
    normalize_problem,
    roi_metrics,
)
from headfem.meshgen import SourceSpace


class TestHyperModel:
    def test_gamma_update_closed_form(self):
        # beta = 1.5 -> eta = 0: theta = (1/2) theta0 sqrt(2 x^2 / theta0).
        h = HyperModel("G", beta=1.5, theta0=2.0)
        assert h.update_theta(np.array([3.0]))[0] == pytest.approx(3.0, abs=1e-12)

    def test_inverse_gamma_update_closed_form(self):
        # kappa = 3: theta = (theta0 + x^2/2) / kappa.
        h = HyperModel("IG", beta=1.5, theta0=1.0)
        assert h.update_theta(np.array([2.0]))[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("family", ["G", "IG"])
    def test_updates_monotone_in_amplitude(self, family):
        h = HyperModel(family, beta=1.5, theta0=1e-3)
        grid = np.linspace(0.0, 5.0, 200)
        th = h.update_theta(grid)
        assert np.all(np.diff(th) >= 0)
        th_neg = h.update_theta(-grid)
        np.testing.assert_allclose(th_neg, th)  # depends on |x| only

    def test_validation(self):
        with pytest.raises(ParameterError):
            HyperModel("weibull")
        with pytest.raises(ParameterError):
            HyperModel("G", theta0=0.0)
        with pytest.raises(ParameterError):
            HyperModel("G", beta=1.0)  # eta < 0
        HyperModel("IG", beta=0.5)


class TestIasStep:
    def test_scalar_closed_form(self):
        # L = [1], y = 2, theta0 = 1, nu = 1: x = theta0 y / (theta0 + nu^2).
        h = HyperModel("G", beta=1.5, theta0=1.0)
        state = initial_state(1, h, nu=1.0)
        out = ias_step(np.array([[1.0]]), np.array([2.0]), state, h)
        assert out.x[0] == pytest.approx(1.0, abs=1e-12)
        assert out.k == 1

    def test_dual_form_identity(self):
        # x must equal the normal-equations minimizer of
        # ||Lx - y||^2 / nu^2 + sum x_i^2 / theta_i.
        rng = np.random.default_rng(11)
        for _ in range(5):
            m, n = rng.integers(3, 20), rng.integers(3, 40)
            L = rng.normal(size=(m, n))
            y = rng.normal(size=m)
            theta = rng.uniform(0.1, 2.0, size=n)
            nu = 0.3
            h = HyperModel("IG", theta0=1.0)
            state = IasState(x=np.zeros(n), theta=theta, nu=nu)
            out = ias_step(L, y, state, h)
            x_ref = np.linalg.solve(L.T @ L / nu**2 + np.diag(1.0 / theta),
                                    L.T @ y / nu**2)
            np.testing.assert_allclose(out.x, x_ref, rtol=1e-8, atol=1e-12)

    def test_nu_zero_rejected(self):
        h = HyperModel("G")
        with pytest.raises(ParameterError):
            IasState(x=np.zeros(1), theta=np.ones(1), nu=0.0)

    def test_shape_mismatch(self):
        h = HyperModel("G")
        state = initial_state(3, h, nu=1.0)
        with pytest.raises(ParameterError):
            ias_step(np.ones((2, 2)), np.ones(2), state, h)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["G", "IG"]))
    def test_result_does_not_depend_on_the_estimate(self, seed, family):
        # The x update reads theta only, so no initial guess can seed it.
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 12), rng.integers(1, 30)
        L = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        theta = rng.uniform(1e-3, 2.0, size=n)
        h = HyperModel(family, theta0=1e-2)
        a = ias_step(L, y, IasState(x=np.zeros(n), theta=theta, nu=0.2), h)
        b = ias_step(L, y, IasState(x=rng.normal(size=n) * 1e3, theta=theta,
                                    nu=0.2), h)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.theta, b.theta)


class TestIasMap:
    def test_zero_data_zero_estimate(self):
        h = HyperModel("IG", theta0=1e-3)
        L = np.random.default_rng(0).normal(size=(4, 10))
        x = ias_map(L, np.zeros(4), h, nu=0.1, n_iter=5)
        np.testing.assert_array_equal(x, 0.0)

    def test_single_iteration_is_tikhonov(self):
        rng = np.random.default_rng(5)
        L = rng.normal(size=(6, 15))
        y = rng.normal(size=6)
        theta0, nu = 0.02, 0.3
        h = HyperModel("G", theta0=theta0)
        x = ias_map(L, y, h, nu=nu, n_iter=1)
        x_ref = np.linalg.solve(L.T @ L / nu**2 + np.eye(15) / theta0,
                                L.T @ y / nu**2)
        np.testing.assert_allclose(x, x_ref, rtol=1e-10)

    def test_identity_spike_recovery(self):
        # Dense enumeration oracle: with L = I the largest |x| entry must
        # sit where the data spike sits.
        h = HyperModel("IG", beta=1.5, theta0=1e-3)
        y = np.zeros(5)
        y[2] = 1.0
        x = ias_map(np.eye(5), y, h, nu=0.01, n_iter=2)
        assert np.argmax(np.abs(x)) == 2

    def test_large_theta0_recovers_spike_exactly(self):
        # Weak regularization: the identity-problem estimate concentrates on
        # the spike for theta0 >= 1.
        for theta0 in (1.0, 10.0, 1e3):
            h = HyperModel("IG", beta=1.5, theta0=theta0)
            y = np.zeros(5)
            y[3] = 2.0
            x = ias_map(np.eye(5), y, h, nu=0.01, n_iter=3)
            assert np.argmax(np.abs(x)) == 3
            assert abs(x[3] - 2.0) < 0.01

    def test_roi_restriction_embeds_back(self):
        rng = np.random.default_rng(2)
        L = rng.normal(size=(5, 12))
        y = rng.normal(size=5)
        h = HyperModel("G", theta0=0.1)
        roi = np.array([2, 3, 7])
        x = ias_map(L, y, h, nu=0.5, n_iter=2, roi=roi)
        assert np.all(x[np.setdiff1d(np.arange(12), roi)] == 0)
        x_direct = ias_map(L[:, roi], y, h, nu=0.5, n_iter=2)
        np.testing.assert_allclose(x[roi], x_direct)

    def test_empty_roi(self):
        h = HyperModel("G")
        with pytest.raises(RoiError):
            ias_map(np.eye(3), np.ones(3), h, nu=1.0, n_iter=1,
                    roi=np.array([], dtype=int))


def multires_reference(L, y, positions, hyper, nu, n_iter, n_subsets,
                       n_decompositions, seed):
    """Multiresolution averaging written out subset by subset."""
    rng = np.random.default_rng(seed)
    total = np.zeros(L.shape[1])
    for _ in range(n_decompositions):
        a = make_decomposition(positions, n_subsets, rng)
        members = [np.flatnonzero(a == s) for s in range(n_subsets)]
        Lr = np.stack([L[:, m].sum(axis=1) for m in members], axis=1)
        x = ias_map(Lr, y, hyper, nu, n_iter)
        for s, m in enumerate(members):
            total[m] += x[s]
    return total / n_decompositions


class TestMultires:
    def _problem(self, n=12, m=6, seed=0):
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        positions = rng.uniform(-1, 1, size=(n, 3))
        return L, y, positions

    def test_identity_decomposition_matches_ias_map(self):
        L, y, positions = self._problem()
        h = HyperModel("IG", theta0=1e-2)
        xb = ias_map(L, y, h, nu=0.2, n_iter=3)
        for n_decompositions in (1, 5):
            xa = multires_ias(L, y, positions, h, nu=0.2, n_iter=3,
                              n_subsets=L.shape[1],
                              n_decompositions=n_decompositions, seed=3)
            np.testing.assert_allclose(xa, xb, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lattice=st.booleans(),
           family=st.sampled_from(["G", "IG"]))
    def test_matches_subset_loop(self, seed, lattice, family):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 80)), int(rng.integers(1, 16))
        L = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        if lattice:         # distinct grid points: many exact distance ties
            grid = np.stack(np.meshgrid(*[np.arange(5.0)] * 3), -1)
            positions = rng.permutation(grid.reshape(-1, 3))[:n]
        else:
            positions = rng.uniform(-1, 1, size=(n, 3))
        h = HyperModel(family, theta0=1e-2)
        args = dict(nu=0.3, n_iter=int(rng.integers(1, 4)),
                    n_subsets=int(rng.integers(1, n + 1)),
                    n_decompositions=int(rng.integers(1, 6)), seed=seed)
        np.testing.assert_allclose(
            multires_ias(L, y, positions, h, **args),
            multires_reference(L, y, positions, h, **args), rtol=1e-12)

    def test_decomposition_has_no_empty_subset(self):
        rng = np.random.default_rng(9)
        positions = rng.uniform(size=(50, 3))
        for s in (1, 5, 25, 50):
            assignment = make_decomposition(positions, s, rng)
            counts = np.bincount(assignment, minlength=s)
            assert np.all(counts > 0)
            assert counts.size == s

    def test_coincident_positions_redraw_or_raise(self):
        # Coincident DOFs tie to the lower center and leave the other's
        # subset empty until it is re-drawn; with fewer distinct positions
        # than subsets no re-draw can succeed.
        rng = np.random.default_rng(3)
        positions = np.repeat(rng.uniform(size=(4, 3)), 3, axis=0)
        for _ in range(20):
            counts = np.bincount(make_decomposition(positions, 4, rng))
            assert counts.tolist() == [3, 3, 3, 3]
        with pytest.raises(DecompositionError):
            make_decomposition(positions, 5, rng)

    def test_seed_reproducible(self):
        L, y, positions = self._problem(seed=7)
        h = HyperModel("IG", theta0=1e-2)
        args = dict(nu=0.3, n_iter=2, n_subsets=4, n_decompositions=5, seed=42)
        xa = multires_ias(L, y, positions, h, **args)
        xb = multires_ias(L, y, positions, h, **args)
        np.testing.assert_array_equal(xa, xb)

    def test_averaging_smooths_single_decomposition(self):
        L, y, positions = self._problem(n=30, m=8, seed=12)
        h = HyperModel("IG", theta0=1e-2)
        x1 = multires_ias(L, y, positions, h, nu=0.3, n_iter=2,
                          n_subsets=6, n_decompositions=1, seed=0)
        x20 = multires_ias(L, y, positions, h, nu=0.3, n_iter=2,
                           n_subsets=6, n_decompositions=20, seed=0)
        # Averaged estimate has strictly more distinct values (piecewise
        # constant artifacts mix across partitions).
        assert len(np.unique(np.round(x20, 12))) > len(np.unique(np.round(x1, 12)))


class TestRoiMetrics:
    def _space(self, positions, orientations=None, mode="unconstrained"):
        return SourceSpace(positions=np.asarray(positions, dtype=float),
                           orientations=orientations,
                           element_ids=np.zeros(len(positions), dtype=int),
                           mode=mode)

    def test_single_nonzero_dof(self):
        space = self._space([[0, 0, 0], [0.05, 0, 0]])
        x = np.zeros(6)
        x[3] = 1.0  # source 1, x-component
        pos_err, ang_err = roi_metrics(x, space, np.array([0.04, 0, 0]), 0.03,
                                       (np.array([0.03, 0.0, 0.0]),
                                        np.array([1.0, 0.0, 0.0])))
        assert pos_err == pytest.approx(20.0)  # 0.02 m
        assert ang_err == pytest.approx(0.0, abs=1e-9)

    def test_two_equal_amplitudes_midpoint(self):
        space = self._space([[0, 0, 0], [0.02, 0, 0]])
        x = np.array([0, 0, 1.0, 0, 0, 1.0])
        pos_err, _ = roi_metrics(x, space, np.array([0.01, 0, 0]), 0.05,
                                 (np.array([0.01, 0.0, 0.0]),
                                  np.array([0.0, 0.0, 1.0])))
        assert pos_err == pytest.approx(0.0, abs=1e-9)

    def test_parallel_and_antiparallel(self):
        space = self._space([[0, 0, 0]])
        truth = (np.zeros(3), np.array([0.0, 1.0, 0.0]))
        _, ang = roi_metrics(np.array([0, 1.0, 0]), space, np.zeros(3), 0.01, truth)
        assert ang == pytest.approx(0.0, abs=1e-9)
        _, ang = roi_metrics(np.array([0, -1.0, 0]), space, np.zeros(3), 0.01, truth)
        assert ang == pytest.approx(180.0)

    def test_constrained_mode(self):
        ori = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        space = self._space([[0, 0, 0], [0.01, 0, 0]], orientations=ori,
                            mode="constrained")
        x = np.array([2.0, 0.0])
        pos_err, ang = roi_metrics(x, space, np.zeros(3), 0.05,
                                   (np.zeros(3), np.array([0.0, 0.0, 1.0])))
        assert pos_err == pytest.approx(0.0, abs=1e-9)
        assert ang == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_amplitudes(self):
        space = self._space([[0, 0, 0]])
        with pytest.raises(UndefinedMetricError):
            roi_metrics(np.zeros(3), space, np.zeros(3), 0.01,
                        (np.zeros(3), np.array([1.0, 0, 0])))

    def test_zero_mean_vector_raises(self):
        # Opposite dipoles: nonzero amplitudes, so the center of mass is
        # defined, but their mean orientation vector is zero.
        space = self._space([[0, 0, 0], [0.01, 0, 0]])
        x = np.array([1.0, 0, 0, -1.0, 0, 0])
        with pytest.raises(UndefinedMetricError):
            roi_metrics(x, space, np.zeros(3), 0.05,
                        (np.zeros(3), np.array([1.0, 0, 0])))

    def test_empty_roi(self):
        space = self._space([[1.0, 0, 0]])
        with pytest.raises(RoiError):
            roi_metrics(np.ones(3), space, np.zeros(3), 0.01,
                        (np.zeros(3), np.array([1.0, 0, 0])))


class TestNormalize:
    def test_scales_recover_physical_units(self):
        rng = np.random.default_rng(3)
        L = rng.normal(size=(5, 8))
        x_true = rng.normal(size=8)
        y = L @ x_true
        Lh, yh, x_scale = normalize_problem(L, y)
        x_hat = np.linalg.lstsq(Lh, yh, rcond=None)[0]
        np.testing.assert_allclose(x_hat * x_scale,
                                   np.linalg.lstsq(L, y, rcond=None)[0],
                                   rtol=1e-10)
        assert np.abs(yh).max() == pytest.approx(1.0)
        assert np.linalg.norm(Lh, axis=0).max() == pytest.approx(1.0)
