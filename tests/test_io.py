import json
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from headfem import io as hio
from headfem.fem import ElectrodeSet, assemble_cem_system, volume_stiffness
from headfem.geometry import Compartment, Segmentation, icosphere
from headfem.leadfield import eeg_leadfield
from headfem.meshgen import TetMesh, generate_mesh, place_sources, smooth_mesh
from headfem.simulate import fibonacci_sphere_points
from headfem.solver import PcgConfig


@pytest.fixture(scope="module")
def mesh():
    seg = Segmentation([Compartment(icosphere(0.1, 1), 0.33, active=True)])
    return generate_mesh(seg, 0.05)


class TestMeshFiles:
    def test_round_trip(self, mesh, tmp_path):
        prefix = str(tmp_path / "m")
        hio.save_tet_mesh(mesh, prefix)
        again = hio.load_tet_mesh(prefix)
        np.testing.assert_array_equal(again.nodes, mesh.nodes)
        np.testing.assert_array_equal(again.tetra, mesh.tetra)
        np.testing.assert_array_equal(again.labels, mesh.labels)
        np.testing.assert_array_equal(again.sigma, mesh.sigma)

    def test_tensor_sigma_round_trip(self, mesh, tmp_path):
        sig = np.zeros((mesh.n_elements, 6))
        sig[:, :3] = 0.33
        sig[:, 3] = 0.01
        t = mesh.with_sigma(sig)
        prefix = str(tmp_path / "t")
        hio.save_tet_mesh(t, prefix)
        again = hio.load_tet_mesh(prefix)
        np.testing.assert_array_equal(again.sigma, sig)

    @pytest.mark.parametrize("sigma", [[0.33], [[0.3, 0.2, 0.1, 0.01, 0.0, 0.02]]])
    def test_one_element_round_trip(self, tmp_path, sigma):
        # A single tensor row used to load as shape (6,) and fail the
        # element-count check.
        one = TetMesh(np.eye(4, 3, k=-1), [[0, 1, 2, 3]], [0], np.array(sigma))
        hio.save_tet_mesh(one, str(tmp_path / "one"))
        again = hio.load_tet_mesh(str(tmp_path / "one"))
        np.testing.assert_array_equal(again.sigma, one.sigma)

    @settings(max_examples=25, deadline=None)
    @given(h=st.floats(0.03, 0.06), keep=st.integers(1, 400),
           tensor=st.booleans(), smoothed=st.booleans(),
           seed=st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, h, keep, tensor, smoothed, seed):
        # Any element subset of a plain or smoothed two-shell mesh, with
        # random scalar or tensor sigma, reads back bit for bit.
        seg = Segmentation([Compartment(icosphere(0.05, 1), 0.33, active=True),
                            Compartment(icosphere(0.1, 1), 0.43)])
        full = generate_mesh(seg, h)
        if smoothed:
            full = smooth_mesh(full, 1, 0.3)
        used, tetra = np.unique(full.tetra[:keep], return_inverse=True)
        rng = np.random.default_rng(seed)
        m = len(tetra.reshape(-1, 4))
        sigma = rng.uniform(0.01, 2.0, (m, 6) if tensor else m)
        mesh = TetMesh(full.nodes[used], tetra.reshape(-1, 4),
                       full.labels[:keep], sigma)
        with tempfile.TemporaryDirectory() as tmp:
            hio.save_tet_mesh(mesh, f"{tmp}/m")
            again = hio.load_tet_mesh(f"{tmp}/m")
        for name in ("nodes", "tetra", "labels", "sigma"):
            a, b = getattr(again, name), getattr(mesh, name)
            assert a.shape == b.shape and a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestLeadfieldFiles:
    def _leadfield(self, mesh):
        el = ElectrodeSet.from_centers(mesh, fibonacci_sphere_points(4, 0.1),
                                       radius=0.06, impedances=100.0)
        seg = Segmentation([Compartment(icosphere(0.1, 1), 0.33, active=True)])
        src = place_sources(mesh, seg, 3, seed=0)
        sys_ = assemble_cem_system(mesh, el, src)
        return eeg_leadfield(sys_, PcgConfig(tolerance=1e-10))

    def test_binary_round_trip_column_major(self, mesh, tmp_path):
        lf = self._leadfield(mesh)
        path = str(tmp_path / "lf.bin")
        hio.save_leadfield(lf, path)
        again, side = hio.load_leadfield(path)
        np.testing.assert_array_equal(again.matrix, lf.matrix)
        np.testing.assert_allclose(again.positions, lf.positions)
        # Column-major little-endian payload, byte for byte.
        raw = np.fromfile(path, dtype="<f8")
        np.testing.assert_array_equal(raw, lf.matrix.ravel(order="F"))

    def test_csv_export(self, mesh, tmp_path):
        lf = self._leadfield(mesh)
        path = tmp_path / "lf.csv"
        hio.save_leadfield_csv(lf, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + lf.matrix.shape[0]
        first = [float(v) for v in lines[1].split(",")[1:]]
        np.testing.assert_allclose(first, lf.matrix[0])


class TestMatrixMarket:
    def test_export_reimports(self, mesh, tmp_path):
        K = volume_stiffness(mesh)
        path = tmp_path / "stiffness.mtx"
        hio.export_matrix_market(path, K)
        import scipy.io
        again = scipy.io.mmread(str(path))
        assert (sp.csr_matrix(again) - K).nnz == 0 or \
            abs(sp.csr_matrix(again) - K).max() < 1e-12 * abs(K).max()


class TestDatasets:
    def test_dataset_round_trip(self, tmp_path):
        y = np.random.default_rng(0).normal(size=12)
        path = tmp_path / "d.csv"
        hio.save_dataset(path, y, n_electrodes=4)
        np.testing.assert_array_equal(hio.load_dataset(path), y)

    def test_write_csv_rfc4180_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        hio.write_csv(path, ["a", "b"], [[1, 2.5]])
        assert path.read_bytes() == b"a,b\r\n1,2.5\r\n"

    def test_reconstruction_layouts(self, tmp_path):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        hio.save_reconstruction(tmp_path / "c.csv", pos, np.array([1.0, -2.0]),
                                "constrained")
        assert (tmp_path / "c.csv").read_text().splitlines()[0] == \
            "dof_id,x,y,z,amplitude"
        hio.save_reconstruction(tmp_path / "u.csv", pos, np.arange(6.0),
                                "unconstrained")
        assert (tmp_path / "u.csv").read_text().splitlines()[0] == \
            "dof_id,x,y,z,qx,qy,qz"

    @pytest.mark.parametrize("comp,mode", [(1, "constrained"),
                                           (3, "unconstrained")])
    def test_reconstruction_round_trip(self, tmp_path, comp, mode):
        rng = np.random.default_rng(comp)
        pos = rng.normal(scale=0.1, size=(7, 3))
        values = rng.normal(scale=1e-9, size=comp * 7)
        values[0] = -0.0
        path = tmp_path / "r.csv"
        hio.save_reconstruction(path, pos, values, mode)
        pos_back, values_back = hio.load_reconstruction(path)
        assert pos_back.tobytes() == pos.tobytes()
        assert values_back.tobytes() == values.tobytes()


class TestManifests:
    def test_manifest_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for p in (a, b):
            hio.write_manifest(p, "test", "deadbeef", seeds={"s": 1},
                               parameters={"x": 1.5})
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["kind"] == "test"
        assert data["config_sha256"] == "deadbeef"

    def test_canonical_json_sorted(self):
        assert hio.canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
