import numpy as np
import pytest

from headfem.errors import EmptyAnomalyError, LocationError, ParameterError
from headfem.fem import ElectrodeSet, assemble_cem_system
from headfem.leadfield import (
    adjacent_pair_patterns,
    build_dof_map,
    eeg_leadfield,
    eit_forward,
    eit_leadfield,
)
from headfem.meshgen import generate_mesh, place_sources
from headfem.simulate import (
    NoiseSpec,
    Phantom,
    anomaly_signal,
    dipole_signal,
    fibonacci_sphere_points,
    layered_sphere_segmentation,
)
from headfem.solver import PcgConfig

TIGHT = PcgConfig(tolerance=1e-12)


@pytest.fixture(scope="module")
def eeg_setup():
    phantom = Phantom(radii=(0.08, 0.1), conductivities=(0.33, 0.43),
                      anomaly_center=(0.0, 0.0, 0.03),
                      anomaly_diameter=0.05, anomaly_delta=0.73)
    seg = layered_sphere_segmentation(phantom.radii, phantom.conductivities,
                                      subdivisions=2)
    mesh = generate_mesh(seg, 0.035)
    el = ElectrodeSet.from_centers(mesh, fibonacci_sphere_points(6, 0.1),
                                   radius=0.04, impedances=1e3)
    src = place_sources(mesh, seg, 8, seed=1)
    sys = assemble_cem_system(mesh, el, src)
    lf = eeg_leadfield(sys, TIGHT)
    return phantom, seg, mesh, el, sys, lf


class TestNoiseSpec:
    def test_relative_mode_std(self):
        spec = NoiseSpec(mode="relative-max", level=0.02, seed=0)
        sig = np.array([1.0, -5.0, 2.0])
        assert spec.std_for(sig) == pytest.approx(0.1)

    def test_snr_db_mode_std(self):
        spec = NoiseSpec(mode="snr-db", level=60.0, seed=0)
        sig = np.full(16, 2.0)
        assert spec.std_for(sig) == pytest.approx(2.0 * 1e-3)

    def test_monte_carlo_std_matches_nominal(self):
        # Sample std over 1e4 draws within 3% of the nominal value.
        sig = np.ones(10_000)
        spec = NoiseSpec(mode="relative-max", level=0.05, seed=42)
        n = spec.sample(sig)
        assert abs(n.std() - 0.05) / 0.05 < 0.03
        assert abs(n.mean()) < 3 * 0.05 / np.sqrt(len(sig))

    def test_same_seed_same_noise(self):
        spec = NoiseSpec(level=0.1, seed=7)
        sig = np.ones(50)
        np.testing.assert_array_equal(spec.sample(sig), spec.sample(sig))

    def test_validation(self):
        with pytest.raises(ParameterError):
            NoiseSpec(mode="uniform")
        with pytest.raises(ParameterError):
            NoiseSpec(level=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="noise level"):
                NoiseSpec(level=bad)


class TestSimulateEeg:
    def test_zero_moment_noise_only(self, eeg_setup):
        *_, lf = eeg_setup
        noise = NoiseSpec(level=0.01, seed=3)
        dip = [(lf.positions[0], np.array([0, 0, 1.0]), 0.0)]
        y0, x = dipole_signal(lf, dip)
        np.testing.assert_array_equal(x, 0.0)
        np.testing.assert_array_equal(y0, 0.0)

    def test_two_dipoles_superpose(self, eeg_setup):
        *_, lf = eeg_setup
        d1 = (lf.positions[1], np.array([1.0, 0, 0]), 1e-8)
        d2 = (lf.positions[4], np.array([0, 1.0, 0]), 1e-8)
        y1, _ = dipole_signal(lf, [d1])
        y2, _ = dipole_signal(lf, [d2])
        y12, _ = dipole_signal(lf, [d1, d2])
        np.testing.assert_allclose(y12, y1 + y2, rtol=1e-12)

    def test_snapping_uses_nearest_source(self, eeg_setup):
        *_, lf = eeg_setup
        target = 3
        pos = lf.positions[target] + 1e-4
        _, x = dipole_signal(lf, [(pos, np.array([0, 0, 1.0]), 2e-8)])
        np.testing.assert_allclose(x[3 * target:3 * target + 3],
                                   [0, 0, 2e-8], atol=1e-20)

    def test_pre_noise_data_zero_mean(self, eeg_setup):
        *_, lf = eeg_setup
        y0, _ = dipole_signal(lf, [(lf.positions[2], np.array([1.0, 0, 0]), 1e-8)])
        assert abs(y0.sum()) <= 1e-10 * np.abs(y0).max() * len(y0)

    def test_noisy_output_deterministic(self, eeg_setup):
        *_, lf = eeg_setup
        dip = [(lf.positions[0], np.array([0, 1.0, 0]), 1e-8)]
        noise = NoiseSpec(level=0.02, seed=11)
        ya, _ = dipole_signal(lf, dip)
        yb, _ = dipole_signal(lf, dip)
        np.testing.assert_array_equal(ya + noise.sample(ya),
                                      yb + noise.sample(yb))

    def test_dipole_outside_region(self, eeg_setup):
        *_, lf = eeg_setup
        with pytest.raises(LocationError):
            dipole_signal(lf, [(np.array([1.0, 1.0, 1.0]),
                                np.array([0, 0, 1.0]), 1e-8)])


class TestPhantom:
    def test_anomaly_must_fit_in_shell(self):
        with pytest.raises(ParameterError):
            Phantom(radii=(0.08, 0.1), conductivities=(0.33, 0.43),
                    anomaly_center=(0.0, 0.0, 0.07),
                    anomaly_diameter=0.03, anomaly_delta=0.73)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_diameter_must_be_finite_and_positive(self, bad):
        # NaN used to reach the shell test and fail there as a ball
        # outside every shell.
        with pytest.raises(ParameterError, match="diameter must be positive"):
            Phantom(radii=(0.08, 0.1), conductivities=(0.33, 0.43),
                    anomaly_center=(0.0, 0.0, 0.03),
                    anomaly_diameter=bad, anomaly_delta=0.73)

    def test_host_shell_identified(self):
        p = Phantom(radii=(0.08, 0.1), conductivities=(0.33, 0.43),
                    anomaly_center=(0.0, 0.0, 0.03),
                    anomaly_diameter=0.03, anomaly_delta=0.73)
        assert p.host_shell == 0

    def test_radii_must_increase(self):
        with pytest.raises(ParameterError):
            Phantom(radii=(0.1, 0.08), conductivities=(0.33, 0.43),
                    anomaly_center=(0, 0, 0.02), anomaly_diameter=0.01,
                    anomaly_delta=0.1)


@pytest.fixture(scope="module")
def eit_setup(eeg_setup):
    phantom, seg, mesh, el, sys, _ = eeg_setup
    dofs = build_dof_map(mesh, [0], n_dofs=5, seed=3)
    I = adjacent_pair_patterns(el.count)
    ball = (phantom.anomaly_center, phantom.anomaly_diameter)
    return mesh, el, dofs, I, eit_leadfield(sys, dofs, I, TIGHT), ball


class TestSimulateEit:
    def test_zero_delta_reproduces_background(self, eit_setup):
        mesh, el, _, I, lf, ball = eit_setup
        y = anomaly_signal(mesh, el, *ball, 0.0, I, TIGHT)
        y_bg = lf.background_data
        np.testing.assert_allclose(y, y_bg, rtol=1e-9,
                                   atol=1e-12 * np.abs(y_bg).max())

    def test_60db_noise_rms(self):
        spec = NoiseSpec(mode="snr-db", level=60.0, seed=1)
        sig = np.random.default_rng(2).normal(size=20_000)
        rms = np.sqrt(np.mean(sig**2))
        assert spec.std_for(sig) == pytest.approx(rms * 1e-3)
        drawn = spec.sample(sig)
        assert np.sqrt(np.mean(drawn**2)) == pytest.approx(rms * 1e-3, rel=0.03)

    def test_single_element_anomaly_matches_leadfield_column(self, eit_setup):
        # First-order check: a small delta on one DOF's support changes the
        # data by (lead-field column) * delta.
        mesh, el, dofs, I, lf, _ = eit_setup
        m = 2
        delta = 1e-4 * 0.33
        sigma = mesh.sigma.copy()
        sigma[dofs.element_sets[m]] += delta
        perturbed = assemble_cem_system(mesh.with_sigma(sigma), el)
        y_p = np.asarray(eit_forward(perturbed, I, TIGHT)).T.ravel()
        dy = y_p - lf.background_data
        np.testing.assert_allclose(dy, lf.matrix[:, m] * delta,
                                   rtol=2e-3, atol=1e-9 * np.abs(dy).max())

    def test_empty_anomaly(self, eit_setup):
        mesh, el, _, I, _, _ = eit_setup
        with pytest.raises(EmptyAnomalyError):
            anomaly_signal(mesh, el, (0.0, 0.0, 0.03), 1e-5, 0.73, I, TIGHT)

    def test_dataset_deterministic(self, eit_setup):
        mesh, el, _, I, _, ball = eit_setup
        a = anomaly_signal(mesh, el, *ball, 0.73, I, TIGHT)
        b = anomaly_signal(mesh, el, *ball, 0.73, I, TIGHT)
        assert a.shape == (el.count * I.shape[1],)
        np.testing.assert_array_equal(a, b)
