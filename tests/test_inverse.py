import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from headfem import inverse
from headfem.errors import (
    DecompositionError,
    NumericalError,
    ParameterError,
    RoiError,
    UndefinedMetricError,
)
from headfem.inverse import (
    HyperModel,
    IasState,
    center_of_mass,
    ias_map,
    ias_step,
    initial_state,
    make_decomposition,
    multires_ias,
    normalize_problem,
    roi_metrics,
)


def measurement_space_x(L, y, theta, nu):
    """The x update written as the measurement-space formula
    D^(1/2) L_s' (L_s L_s' + nu^2 I)^-1 y, operation for operation."""
    d_half = np.sqrt(np.abs(theta))
    Ls = L * d_half[None, :]
    K = Ls @ Ls.T
    K[np.diag_indices_from(K)] += nu**2
    return d_half * (Ls.T @ sla.cho_solve(sla.cho_factor(K), y))


def measurement_space_map(L, y, hyper, nu, n_iter):
    """``ias_map`` with every x update taken by the measurement-space
    formula, whatever the shape of L."""
    theta = np.full(L.shape[1], hyper.theta0)
    for _ in range(n_iter):
        x = measurement_space_x(L, y, theta, nu)
        theta = hyper.update_theta(x)
    return x


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
        # theta0 <= 0 and beta < 1.5 are False for NaN, so NaN used to pass.
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="theta0 must be positive"):
                HyperModel("G", theta0=bad)
            with pytest.raises(ParameterError, match="beta >= 3/2"):
                HyperModel("G", beta=bad)
            with pytest.raises(ParameterError, match="beta > 0"):
                HyperModel("IG", beta=bad)


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["m < n", "m = n", "m > n"]),
           family=st.sampled_from(["G", "IG"]))
    @example(seed=465602, shape="m > n", family="G")
    def test_both_forms_match_normal_equations(self, seed, shape, family):
        # m <= n factors the measurement system, m > n the parameter
        # system; both must give the normal-equations minimizer, and the
        # parameter form the measurement-space formula.  The two forms
        # round differently, so they are compared normwise: at seed 465602
        # the entry -1.04e-5 differs by 1.3e-10 relative, while
        # max|dx| / max|x| is 2.7e-14.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 40))
        n = {"m < n": m + int(rng.integers(1, 40)), "m = n": m,
             "m > n": int(rng.integers(1, m))}[shape]
        L = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        theta = np.exp(rng.uniform(np.log(1e-3), np.log(2.0), size=n))
        nu = 0.3
        out = ias_step(L, y, IasState(x=np.zeros(n), theta=theta, nu=nu),
                       HyperModel(family, theta0=1e-2))
        x_ref = np.linalg.solve(L.T @ L / nu**2 + np.diag(1.0 / theta),
                                L.T @ y / nu**2)
        np.testing.assert_allclose(out.x, x_ref, rtol=1e-8, atol=1e-12)
        if m > n:
            x_ms = measurement_space_x(L, y, theta, nu)
            assert np.abs(out.x - x_ms).max() <= 1e-10 * np.abs(x_ms).max()

    def test_wide_step_is_the_measurement_formula_bit_for_bit(self):
        # m <= n (every EEG and CLI lead field) keeps the measurement-space
        # solve exactly as before.
        rng = np.random.default_rng(4)
        for m, n in ((32, 450), (16, 16)):
            L = rng.normal(size=(m, n))
            y = rng.normal(size=m)
            theta = rng.uniform(1e-3, 2.0, size=n)
            out = ias_step(L, y, IasState(x=np.zeros(n), theta=theta, nu=0.2),
                           HyperModel("IG", theta0=1e-3))
            np.testing.assert_array_equal(
                out.x, measurement_space_x(L, y, theta, 0.2))

    def test_zero_theta_is_a_state(self):
        # At beta = 3/2 (eta = 0) the gamma update gives theta = 0 wherever
        # x is exactly 0; the next state used to refuse it.
        x = ias_map([[1.0, 0.0], [0.5, 0.0]], [1.0, 0.2], HyperModel("G"),
                    0.1, 3)
        assert np.isfinite(x).all() and x[0] > 0 and x[1] == 0
        IasState(x=np.zeros(2), theta=np.array([0.0, 1.0]), nu=1.0)
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ParameterError, match="theta"):
                IasState(x=np.zeros(1), theta=np.array([bad]), nu=1.0)

    def test_nu_zero_rejected(self):
        h = HyperModel("G")
        with pytest.raises(ParameterError):
            IasState(x=np.zeros(1), theta=np.ones(1), nu=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="nu must be > 0"):
                IasState(x=np.zeros(1), theta=np.ones(1), nu=bad)

    def test_shape_mismatch(self):
        h = HyperModel("G")
        state = initial_state(3, h, nu=1.0)
        with pytest.raises(ParameterError):
            ias_step(np.ones((2, 2)), np.ones(2), state, h)

    # (2, 3) factors the measurement system, (3, 2) the parameter system.
    @pytest.mark.parametrize("shape, space", [((2, 3), "measurement"),
                                              ((3, 2), "parameter")])
    def test_singular_system_raises_numerical_error(self, shape, space):
        # All-ones rows with nu^2 = 1e-20 round to a singular K, which
        # cho_factor rejects too.
        L = np.ones(shape)
        K = L @ L.T if space == "measurement" else L.T @ L
        with pytest.raises(sla.LinAlgError):
            sla.cho_factor(K + 1e-20 * np.eye(len(K)))
        state = IasState(x=np.zeros(shape[1]), theta=np.ones(shape[1]),
                         nu=1e-10)
        with pytest.raises(NumericalError, match=f"{space}-space solve failed: "
                           "2-th leading minor"):
            ias_step(L, np.ones(shape[0]), state, HyperModel("G"))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["L", "y"])
    def test_non_finite_input_raises_value_error(self, shape, bad, where):
        # The error cho_factor and cho_solve raise for such input.  Positive
        # entries keep inf from meeting a zero (a warning, not the error).
        L, y = np.full(shape, 0.5), np.ones(shape[0])
        (L if where == "L" else y).flat[1] = bad
        state = initial_state(shape[1], HyperModel("G"), nu=0.5)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            ias_step(L, y, state, HyperModel("G"))

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

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("roi", [None, np.array([0, 2, 3, 5, 8, 9, 13])])
    def test_run_is_the_public_steps_bit_for_bit(self, order, roi):
        rng = np.random.default_rng(9)
        L = np.asarray(rng.normal(size=(6, 14)), order=order)
        y = rng.normal(size=6)
        h = HyperModel("IG", theta0=1e-2)
        Lr = L if roi is None else L[:, roi]
        state = initial_state(Lr.shape[1], h, 0.2)
        for _ in range(4):
            state = ias_step(Lr, y, state, h)
        x = ias_map(L, y, h, nu=0.2, n_iter=4, roi=roi)
        expect = state.x if roi is None else np.zeros(14)
        if roi is not None:
            expect[roi] = state.x
        assert x.tobytes() == expect.tobytes()

    def test_empty_roi(self):
        h = HyperModel("G")
        with pytest.raises(RoiError):
            ias_map(np.eye(3), np.ones(3), h, nu=1.0, n_iter=1,
                    roi=np.array([], dtype=int))


def multires_reference(L, y, positions, hyper, nu, n_iter, n_subsets,
                       n_decompositions, seed, map_fn=ias_map):
    """Multiresolution averaging written out subset by subset, each coarse
    problem solved by ``map_fn``."""
    rng = np.random.default_rng(seed)
    total = np.zeros(L.shape[1])
    for _ in range(n_decompositions):
        a = make_decomposition(positions, n_subsets, rng)
        members = [np.flatnonzero(a == s) for s in range(n_subsets)]
        Lr = np.stack([L[:, m].sum(axis=1) for m in members], axis=1)
        x = map_fn(Lr, y, hyper, nu, n_iter)
        for s, m in enumerate(members):
            total[m] += x[s]
    return total / n_decompositions


def reference_multires_ias(L, y, positions, hyper, nu, n_iter, n_subsets,
                           n_decompositions, seed=0):
    """Multiresolution averaging one partition at a time: a partition drawn
    and a one-hot product formed for each coarse lead field in turn."""
    L = np.asarray(L, dtype=float)
    positions = np.asarray(positions, dtype=float)
    rng = np.random.default_rng(seed)
    n = L.shape[1]
    total = np.zeros(n)
    for _ in range(int(n_decompositions)):
        a = make_decomposition(positions, n_subsets, rng)
        # Row s of the one-hot matrix sums the columns of subset s.
        onehot = sp.csr_matrix((np.ones(n), (a, np.arange(n))))
        Lr = np.ascontiguousarray((onehot @ L.T).T)
        state = initial_state(n_subsets, hyper, nu)
        for _ in range(int(n_iter)):
            state = ias_step(Lr, y, state, hyper)
        total += state.x[a]
    return total / n_decompositions


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DecompositionError:
        return "no partition"


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

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from(["random", "lattice", "coincident"]),
           family=st.sampled_from(["G", "IG"]),
           n_decompositions=st.integers(1, 6), identity=st.booleans())
    def test_bit_identical_to_per_partition_loop(self, seed, layout, family,
                                                 n_decompositions, identity):
        # Coincident DOFs leave subsets empty and exercise the re-draws;
        # more subsets than distinct positions make both raise.
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        L = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        if layout == "lattice":
            grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), -1)
            positions = rng.permutation(grid.reshape(-1, 3))[:n]
        elif layout == "coincident":
            positions = rng.uniform(-1, 1, size=(4, 3))[rng.integers(0, 4, n)]
        else:
            positions = rng.uniform(-1, 1, size=(n, 3))
        args = dict(nu=0.3, n_iter=int(rng.integers(1, 4)),
                    n_subsets=n if identity else int(rng.integers(1, n + 1)),
                    n_decompositions=n_decompositions, seed=seed)
        h = HyperModel(family, theta0=1e-2)
        x = outcome(multires_ias, L, y, positions, h, **args)
        x_ref = outcome(reference_multires_ias, L, y, positions, h, **args)
        assert np.array_equal(x, x_ref)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from(["random", "lattice", "coincident",
                                   "signed zeros"]),
           n_subsets=st.integers(1, 8), n_decompositions=st.integers(1, 6),
           pair_side=st.integers(-1, 1), entry_side=st.integers(-1, 0))
    def test_table_and_scan_draw_the_same_partitions(
            self, seed, layout, n_subsets, n_decompositions, pair_side,
            entry_side):
        # n = S * D + pair_side straddles the rule n <= S * D, and m, one
        # below or at the least m with n^2 <= D * S * m, straddles the
        # other (n^2 = D * S * m exactly when n = S * D).  Lattices tie
        # exactly, coincident DOFs force re-draws (or raise in both), and
        # signed zeros meet +0.0 - -0.0 in the distances.
        rng = np.random.default_rng(seed)
        pairs = n_subsets * n_decompositions
        n = max(n_subsets, pairs + pair_side)
        m = max(1, -(-n * n // pairs) + entry_side)
        if layout == "random":
            positions = rng.uniform(-1, 1, size=(n, 3))
        elif layout == "coincident":
            distinct = rng.uniform(-1, 1, size=(n_subsets + 1, 3))
            positions = distinct[rng.integers(0, len(distinct), n)]
        else:
            grid = np.stack(np.meshgrid(*[np.arange(-2.0, 3.0)] * 3), -1)
            positions = rng.permutation(grid.reshape(-1, 3))[:n]
            if layout == "signed zeros":
                positions *= rng.choice([-1.0, 1.0], size=positions.shape)
        tables, build = [], inverse.distance_table

        def recording(points):
            tables.append(len(points))
            return build(points)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inverse, "distance_table", recording)
            rng_table = np.random.default_rng(seed)
            parts = outcome(inverse._partitions, positions, n_subsets,
                            n_decompositions, m, rng_table)
        rng_scan = np.random.default_rng(seed)
        ref = outcome(lambda: np.array([
            make_decomposition(positions, n_subsets, rng_scan)
            for _ in range(n_decompositions)]))
        assert np.array_equal(parts, ref)
        assert (rng_table.bit_generator.state
                == rng_scan.bit_generator.state)
        assert tables == ([n] if n <= pairs and n * n <= pairs * m else [])

    def test_matches_measurement_space_at_desk_shapes(self):
        # The EIT desk inversion: 240 measurements, 600 lattice-tied DOFs,
        # 100 subsets, so every coarse step factors the 100 x 100
        # parameter system instead of the 240 x 240 measurement system.
        rng = np.random.default_rng(17)
        grid = np.stack(np.meshgrid(*[np.arange(10.0)] * 3), -1)
        positions = 0.007 * rng.permutation(grid.reshape(-1, 3))[:600]
        L, y, _ = normalize_problem(rng.normal(size=(240, 600)),
                                    rng.normal(size=240))
        h = HyperModel("IG", beta=1.5, theta0=1e-3)
        args = dict(nu=0.12, n_iter=2, n_subsets=100, n_decompositions=20,
                    seed=5)
        x = multires_ias(L, y, positions, h, **args)
        x_ref = multires_reference(L, y, positions, h, **args,
                                   map_fn=measurement_space_map)
        assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max()

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

    @pytest.mark.parametrize("shape", [(12, 2), (6, 2), (12, 4), (36,),
                                       (12, 3, 1)])
    def test_positions_not_n_by_3_raise_before_any_draw(self, shape):
        # (12, 2) positions used to fail reshaping inside nearest_center and
        # (6, 2) ones to raise DecompositionError after 50 re-draws.
        positions = np.arange(float(np.prod(shape))).reshape(shape)
        n = len(positions)
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError, match=r"\(n, 3\).*" +
                           re.escape(str(shape))):
            make_decomposition(positions, 3, rng)
        # No draw was made.
        assert rng.bit_generator.state == (
            np.random.default_rng(0).bit_generator.state)
        L, y = np.ones((4, n)), np.ones(4)
        with pytest.raises(ParameterError, match=re.escape(str(shape))):
            multires_ias(L, y, positions, HyperModel("IG"), nu=0.3, n_iter=1,
                         n_subsets=3, n_decompositions=2)

    @pytest.mark.parametrize("counts", [dict(n_iter=0, n_decompositions=3),
                                        dict(n_iter=2, n_decompositions=0),
                                        dict(n_iter=-1, n_decompositions=-1)])
    def test_degenerate_counts_raise(self, counts):
        # n_iter = 0 would return all zeros and n_decompositions = 0 would
        # divide 0 by 0; both are parameter errors, as in ias_map.
        L, y, positions = self._problem()
        with pytest.raises(ParameterError):
            multires_ias(L, y, positions, HyperModel("IG"), nu=0.3,
                         n_subsets=4, seed=0, **counts)

    def test_peak_memory_below_the_center_distances(self):
        # One partition of 4,000 DOFs into 50 subsets peaks below the 1.6 MB
        # of its 50 x 4,000 center-DOF distances (0.46 of it now); a
        # 4,000 x 4,000 table would take 128 MB.
        rng = np.random.default_rng(4)
        n, pairs = 4000, 50 * 4000 * 8
        L, y = rng.normal(size=(8, n)), rng.normal(size=8)
        positions = rng.uniform(-1, 1, size=(n, 3))
        tracemalloc.start()
        try:
            multires_ias(L, y, positions, HyperModel("IG"), nu=0.3, n_iter=2,
                         n_subsets=50, n_decompositions=1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pairs

    def test_peak_memory_at_desk_shapes(self):
        # 600 DOFs in 100 subsets, 20 partitions, 240 measurements: the
        # 2.9 MB DOF distance table is freed before the 3.8 MB stacked
        # coarse lead fields are allocated, so the call peaks no higher
        # than with per-partition scans (5.02 MiB recorded when the stacked
        # product came in, 5.00 MiB before the table).
        rng = np.random.default_rng(6)
        L, y = rng.normal(size=(240, 600)), rng.normal(size=240)
        positions = rng.uniform(-1, 1, size=(600, 3))
        args = dict(nu=0.3, n_iter=1, n_subsets=100, n_decompositions=20)
        multires_ias(L, y, positions, HyperModel("IG"), **args)
        tracemalloc.start()
        try:
            multires_ias(L, y, positions, HyperModel("IG"), **args, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.02 * 2**20

    def test_calls_ias_step_through_the_module(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return ias_step(*args)
        monkeypatch.setattr(inverse, "ias_step", counting)
        L, y, positions = self._problem(n=30, m=8, seed=2)
        multires_ias(L, y, positions, HyperModel("G"), nu=0.3, n_iter=3,
                     n_subsets=6, n_decompositions=7, seed=0)
        assert len(calls) == 3 * 7

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
    def test_single_nonzero_dof(self):
        positions = np.array([[0, 0, 0], [0.05, 0, 0]])
        x = np.zeros(6)
        x[3] = 1.0  # source 1, x-component
        pos_err, ang_err = roi_metrics(x, positions, np.array([0.04, 0, 0]),
                                       0.03, np.array([0.03, 0.0, 0.0]),
                                       np.array([1.0, 0.0, 0.0]))
        assert pos_err == pytest.approx(20.0)  # 0.02 m
        assert ang_err == pytest.approx(0.0, abs=1e-9)

    def test_two_equal_amplitudes_midpoint(self):
        positions = np.array([[0, 0, 0], [0.02, 0, 0]])
        x = np.array([0, 0, 1.0, 0, 0, 1.0])
        pos_err, _ = roi_metrics(x, positions, np.array([0.01, 0, 0]), 0.05,
                                 np.array([0.01, 0.0, 0.0]),
                                 np.array([0.0, 0.0, 1.0]))
        assert pos_err == pytest.approx(0.0, abs=1e-9)

    def test_parallel_and_antiparallel(self):
        positions = np.zeros((1, 3))
        truth = (np.zeros(3), np.array([0.0, 1.0, 0.0]))
        _, ang = roi_metrics(np.array([0, 1.0, 0]), positions, np.zeros(3),
                             0.01, *truth)
        assert ang == pytest.approx(0.0, abs=1e-9)
        _, ang = roi_metrics(np.array([0, -1.0, 0]), positions, np.zeros(3),
                             0.01, *truth)
        assert ang == pytest.approx(180.0)

    def test_constrained_mode(self):
        ori = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        positions = np.array([[0, 0, 0], [0.01, 0, 0]])
        x = np.array([2.0, 0.0])
        pos_err, ang = roi_metrics(x, positions, np.zeros(3), 0.05,
                                   np.zeros(3), np.array([0.0, 0.0, 1.0]),
                                   orientations=ori)
        assert pos_err == pytest.approx(0.0, abs=1e-9)
        assert ang == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_amplitudes(self):
        with pytest.raises(UndefinedMetricError):
            roi_metrics(np.zeros(3), np.zeros((1, 3)), np.zeros(3), 0.01,
                        np.zeros(3), np.array([1.0, 0, 0]))

    def test_zero_mean_vector_raises(self):
        # Opposite dipoles: nonzero amplitudes, so the center of mass is
        # defined, but their mean orientation vector is zero.
        positions = np.array([[0, 0, 0], [0.01, 0, 0]])
        x = np.array([1.0, 0, 0, -1.0, 0, 0])
        with pytest.raises(UndefinedMetricError):
            roi_metrics(x, positions, np.zeros(3), 0.05,
                        np.zeros(3), np.array([1.0, 0, 0]))

    def test_empty_roi(self):
        with pytest.raises(RoiError):
            roi_metrics(np.ones(3), np.array([[1.0, 0, 0]]), np.zeros(3), 0.01,
                        np.zeros(3), np.array([1.0, 0, 0]))

    @pytest.mark.parametrize("size,n", [(0, 2), (4, 2), (7, 2), (8, 2),
                                        (0, 0), (3, 0)])
    def test_components_must_be_1_or_3(self, size, n):
        with pytest.raises(ParameterError):
            roi_metrics(np.ones(size), np.zeros((n, 3)), np.zeros(3), 0.01,
                        np.zeros(3))

    def test_angle_needs_truth_and_orientations(self):
        positions = np.zeros((1, 3))
        assert roi_metrics(np.array([0, 1.0, 0]), positions, np.zeros(3),
                           0.01, np.zeros(3))[1] is None
        assert roi_metrics(np.array([2.0]), positions, np.zeros(3), 0.01,
                           np.zeros(3), np.array([1.0, 0, 0]))[1] is None


class TestRoiMetricsProperties:
    """Integer components keep every orientation sum exact, so only the
    center of mass and the scaled sums round."""

    def _case(self, seed, comp):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        positions = rng.uniform(-0.1, 0.1, size=(n, 3))
        x = rng.integers(-8, 9, size=comp * n).astype(float)
        orientations = (rng.integers(-3, 4, size=(n, 3)).astype(float)
                        if comp == 1 else None)
        ball = (positions[rng.integers(n)], rng.uniform(0.0, 0.2))
        truth = (rng.uniform(-0.1, 0.1, 3),
                 rng.integers(-3, 4, 3).astype(float))
        return x, positions, orientations, ball, truth

    def _score(self, x, positions, orientations, ball, truth):
        try:
            return roi_metrics(x, positions, *ball, *truth,
                               orientations=orientations)
        except UndefinedMetricError:
            return None

    def _assert_close(self, got, want):
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), comp=st.sampled_from([1, 3]))
    def test_dof_permutation_invariant(self, seed, comp):
        x, positions, orientations, ball, truth = self._case(seed, comp)
        want = self._score(x, positions, orientations, ball, truth)
        assume(want is not None)
        perm = np.random.default_rng(seed + 1).permutation(len(positions))
        got = self._score(x.reshape(len(positions), comp)[perm].ravel(),
                          positions[perm],
                          None if orientations is None else orientations[perm],
                          ball, truth)
        self._assert_close(got, want)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), comp=st.sampled_from([1, 3]),
           c=st.floats(1e-3, 1e3))
    def test_positive_scaling_invariant(self, seed, comp, c):
        x, positions, orientations, ball, truth = self._case(seed, comp)
        want = self._score(x, positions, orientations, ball, truth)
        # Near 0 or 180 degrees arccos turns a rounding of the scaled sum
        # into a large relative change of the angle.
        assume(want is not None and 10.0 < want[1] < 170.0)
        self._assert_close(
            self._score(c * x, positions, orientations, ball, truth), want)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), axis=st.integers(0, 2))
    def test_one_component_equals_its_embedding_on_one_axis(self, seed, axis):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        positions = rng.uniform(-0.1, 0.1, size=(n, 3))
        x = rng.normal(size=n)
        x3 = np.zeros((n, 3))
        x3[:, axis] = x
        ball = (positions[rng.integers(n)], rng.uniform(0.0, 0.2))
        truth = (rng.uniform(-0.1, 0.1, 3), rng.normal(size=3))
        one = roi_metrics(x, positions, *ball, *truth,
                          orientations=np.eye(3)[[axis] * n])
        assert roi_metrics(x3, positions, *ball, *truth) == one
        assert roi_metrics(x, positions, *ball, truth[0])[0] == one[0]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_ball_holding_every_dof_is_the_whole_center_of_mass(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        positions = rng.uniform(-0.1, 0.1, size=(n, 3))
        x = rng.normal(size=n)
        truth = rng.uniform(-0.1, 0.1, 3)
        pos_err, _ = roi_metrics(x, positions, truth, 1.0, truth)
        assert pos_err == 1e3 * float(np.linalg.norm(
            center_of_mass(np.abs(x), positions) - truth))


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
