import csv
import json
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from headfem import io as hio
from headfem.errors import DataError, FormatError
from headfem.fem import ElectrodeSet, assemble_cem_system
from headfem.geometry import Compartment, Segmentation, icosphere
from headfem.leadfield import (adjacent_pair_patterns, build_dof_map,
                               eeg_leadfield, eit_leadfield)
from headfem.meshgen import TetMesh, generate_mesh, place_sources, smooth_mesh
from headfem.simulate import fibonacci_sphere_points
from headfem.solver import PcgConfig


@pytest.fixture(scope="module")
def mesh():
    seg = Segmentation([Compartment(icosphere(0.1, 1), 0.33, active=True)])
    return generate_mesh(seg, 0.05)


def _move_value(text):
    """``text`` with the first value of line 2 moved to the end of line 1."""
    first, second, rest = text.split(b"\n", 2)
    value, second = second.split(b" ", 1)
    return b"\n".join([first + b" " + value, second, rest])


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

    def test_line_endings(self, mesh, tmp_path):
        # CRLF line ends and a missing final newline read the same arrays.
        hio.save_tet_mesh(mesh, str(tmp_path / "m"))
        for part in ("nodes", "tetra", "labels", "sigma"):
            path = tmp_path / f"m_{part}.dat"
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n")[:-2])
        again = hio.load_tet_mesh(str(tmp_path / "m"))
        for name in ("nodes", "tetra", "labels", "sigma"):
            np.testing.assert_array_equal(getattr(again, name),
                                          getattr(mesh, name))

    @pytest.mark.parametrize("part, edit, reason", [
        ("nodes", lambda t: t.replace(b"\n", b" 0\n", 1), "do not fill"),
        ("tetra", lambda t: t[:t.rindex(b" ")] + b"\n", "do not fill"),
        ("sigma", lambda t: t.replace(b"\n", b" 1\n", 1), "do not fill"),
        ("labels",
         lambda t: b"99999999999999999999\n" + t[t.index(b"\n") + 1:],
         "out of range"),
        # The value count fills the rows, but line 1 holds 5 and line 2 3.
        ("tetra", _move_value, "5 values of line 1 do not fill"),
        ("nodes", lambda t: b"0 0 x\n" + t[t.index(b"\n") + 1:],
         "not a number"),
        ("tetra", lambda t: b"1 2 3 4.5\n" + t[t.index(b"\n") + 1:],
         "not an integer"),
        ("labels", lambda t: b"x\n" + t[t.index(b"\n") + 1:],
         "not an integer"),
        ("sigma", lambda t: t + b"x\n", "not a number"),
        ("sigma", lambda t: b"  \n# no values\n", "no values"),
    ])
    def test_malformed_table_raises(self, mesh, tmp_path, part, edit, reason):
        hio.save_tet_mesh(mesh, str(tmp_path / "m"))
        path = tmp_path / f"m_{part}.dat"
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(FormatError, match=f"mesh {part}: .*{reason}"):
            hio.load_tet_mesh(str(tmp_path / "m"))

    @pytest.mark.parametrize("part, head, where", [
        ("nodes", b"0 0 x\n", "line 1, column 3: 'x' is not a number"),
        ("tetra", b"1 2 3 4.5\n",
         "line 1, column 4: '4.5' is not an integer"),
        # Comment and blank lines count.
        ("labels", b"# x\n\nx # y\n",
         "line 3, column 1: 'x' is not an integer"),
        ("sigma", b"0.33\n1e\n", "line 2, column 1: '1e' is not a number"),
    ])
    def test_bad_cell_names_line_and_column(self, mesh, tmp_path, part, head,
                                            where):
        # ``head`` replaces the first line.
        hio.save_tet_mesh(mesh, str(tmp_path / "m"))
        path = tmp_path / f"m_{part}.dat"
        path.write_bytes(head + path.read_bytes().split(b"\n", 1)[1])
        with pytest.raises(FormatError, match=f"^mesh {part}: {where}$"):
            hio.load_tet_mesh(str(tmp_path / "m"))

    @settings(max_examples=25, deadline=None)
    @given(h=st.floats(0.03, 0.06), keep=st.integers(1, 400),
           tensor=st.booleans(), smoothed=st.booleans(),
           seed=st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, h, keep, tensor, smoothed, seed):
        # Any element subset of a plain or smoothed two-shell mesh, with
        # random scalar or tensor sigma, reads back bit for bit.  Tensor
        # rows get off-diagonals below half the smallest diagonal, so they
        # are positive definite as a mesh requires (Gershgorin).
        seg = Segmentation([Compartment(icosphere(0.05, 1), 0.33, active=True),
                            Compartment(icosphere(0.1, 1), 0.43)])
        full = generate_mesh(seg, h)
        if smoothed:
            full = smooth_mesh(full, 1, 0.3)
        used, tetra = np.unique(full.tetra[:keep], return_inverse=True)
        rng = np.random.default_rng(seed)
        m = len(tetra.reshape(-1, 4))
        sigma = rng.uniform(0.01, 2.0, (m, 6) if tensor else m)
        if tensor:
            sigma[:, 3:] *= 0.002
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

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["unconstrained", "constrained", "eit"]),
           n_electrodes=st.integers(2, 8), n=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_read_back_is_the_built_lead_field(self, mesh, kind,
                                               n_electrodes, n, seed):
        el = ElectrodeSet.from_centers(
            mesh, fibonacci_sphere_points(n_electrodes, 0.1), radius=0.04,
            impedances=100.0)
        cfg = PcgConfig(tolerance=1e-10)
        if kind == "eit":
            lf = eit_leadfield(assemble_cem_system(mesh, el),
                               build_dof_map(mesh, [0], n, seed=seed),
                               adjacent_pair_patterns(n_electrodes), cfg)
            assert lf.background_sigma_sha256 == hio.sha256_array(mesh.sigma)
        else:
            seg = Segmentation([Compartment(icosphere(0.1, 1), 0.33,
                                            active=True)])
            src = place_sources(mesh, seg, n, mode=kind, seed=seed)
            lf = eeg_leadfield(assemble_cem_system(mesh, el, src), cfg)
            assert lf.background_sigma_sha256 is None
        with tempfile.TemporaryDirectory() as tmp:
            written = hio.save_leadfield(lf, f"{tmp}/lf.bin")
            again, _ = hio.load_leadfield(f"{tmp}/lf.bin")
            # Saving the read-back lead field writes the same bytes.
            assert hio.save_leadfield(again, f"{tmp}/again.bin") == written
        assert again.matrix.flags.c_contiguous
        np.testing.assert_array_equal(again.matrix, lf.matrix)
        for name in ("positions", "orientations", "background_data"):
            built, read = getattr(lf, name), getattr(again, name)
            assert (read is None) == (built is None), name
            if built is not None:
                np.testing.assert_array_equal(read, built)
        for name in ("modality", "n_patterns", "background_sigma_sha256"):
            assert getattr(again, name) == getattr(lf, name), name



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
        # The value count alone sets the header.
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        hio.save_reconstruction(tmp_path / "c.csv", pos, np.array([1.0, -2.0]))
        assert (tmp_path / "c.csv").read_text().splitlines()[0] == \
            "dof_id,x,y,z,amplitude"
        hio.save_reconstruction(tmp_path / "u.csv", pos, np.arange(6.0))
        assert (tmp_path / "u.csv").read_text().splitlines()[0] == \
            "dof_id,x,y,z,qx,qy,qz"
        # A fourth argument changes nothing; "constrained" with 3 values
        # per position once failed inside numpy's reshape.
        hio.save_reconstruction(tmp_path / "q.csv", pos, np.arange(6.0),
                                "constrained")
        assert (tmp_path / "q.csv").read_bytes() == \
            (tmp_path / "u.csv").read_bytes()
        for n_values in (0, 4, 5, 7):
            with pytest.raises(DataError, match=f"{n_values} values for 2 "):
                hio.save_reconstruction(tmp_path / "bad.csv", pos,
                                        np.arange(float(n_values)))
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("comp", [1, 3],
                             ids=["1-constrained", "3-unconstrained"])
    def test_reconstruction_round_trip(self, tmp_path, comp):
        rng = np.random.default_rng(comp)
        pos = rng.normal(scale=0.1, size=(7, 3))
        values = rng.normal(scale=1e-9, size=comp * 7)
        values[0] = -0.0
        path = tmp_path / "r.csv"
        hio.save_reconstruction(path, pos, values)
        pos_back, values_back = hio.load_reconstruction(path)
        assert pos_back.tobytes() == pos.tobytes()
        assert values_back.tobytes() == values.tobytes()


    @pytest.mark.parametrize("load", [hio.load_dataset,
                                      hio.load_reconstruction])
    @pytest.mark.parametrize("text,reason", [
        ("", "empty file"),
        ("a,b,c\n0,1.0,2.0\n1,3.0\n",
         "2 values of line 3 do not fill a row of 3"),
        ("a,b,c\n0,1.0,2.0\n1,3.0,abc\n", "line 3, column 3: 'abc'"),
    ])
    def test_malformed_csv_raises_format_error(self, tmp_path, load, text,
                                               reason):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=reason) as info:
            load(path)
        assert str(path) in str(info.value)


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


# ---------------------------------------------------------------------------
# The per-cell writers that the array writers replaced, kept as the byte
# reference: every new writer must produce exactly their files.

def _fmt(x):
    return f"{x:.17g}"


def reference_save_tet_mesh(mesh, prefix):
    with open(f"{prefix}_nodes.dat", "w") as fh:
        for x, y, z in mesh.nodes:
            fh.write(f"{_fmt(x)} {_fmt(y)} {_fmt(z)}\n")
    with open(f"{prefix}_tetra.dat", "w") as fh:
        for row in mesh.tetra + 1:
            fh.write(" ".join(str(i) for i in row) + "\n")
    with open(f"{prefix}_labels.dat", "w") as fh:
        for lab in mesh.labels + 1:
            fh.write(f"{lab}\n")
    with open(f"{prefix}_sigma.dat", "w") as fh:
        if mesh.is_tensor:
            for row in mesh.sigma:
                fh.write(" ".join(_fmt(v) for v in row) + "\n")
        else:
            for v in mesh.sigma:
                fh.write(f"{_fmt(v)}\n")


def reference_write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                        else v for v in row])


def reference_save_dataset(path, data, n_electrodes):
    data = np.asarray(data, dtype=float)
    cols = data.reshape(n_electrodes, -1, order="F")
    header = ["electrode"] + [f"pattern{j}" for j in range(cols.shape[1])]
    rows = [[i] + list(cols[i]) for i in range(n_electrodes)]
    reference_write_csv(path, header, rows)


def reference_save_reconstruction(path, positions, values):
    values = np.asarray(values, dtype=float)
    if values.size == len(positions):
        header = ["dof_id", "x", "y", "z", "amplitude"]
        rows = [[i, *positions[i], values[i]] for i in range(len(positions))]
    else:
        comp = values.reshape(-1, 3)
        header = ["dof_id", "x", "y", "z", "qx", "qy", "qz"]
        rows = [[i, *positions[i], *comp[i]] for i in range(len(positions))]
    reference_write_csv(path, header, rows)


# Values at the edges of the text forms: signed zero, the smallest
# subnormal, the largest float, the 1e16 switch of repr to an exponent and
# the 1e-4 / 1e-5 one, and values that need all 17 significant digits.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16,
          9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-05,
          1.0000000000000001e-05, 0.1, 1 / 3, 2.0 ** 52 + 1, -123456.789,
          float("inf"), float("nan")]


def float_arrays(shape):
    """float64 or float32 arrays of ``shape``, the edge values that the
    dtype holds mixed in."""
    def of(dtype):
        edges = [v for v in _EDGES if v == 0 or not np.isfinite(v)
                 or abs(v) <= float(np.finfo(dtype).max) and dtype(v) != 0]
        return hnp.arrays(dtype, shape, elements=st.one_of(
            st.sampled_from(edges), st.floats(width=np.finfo(dtype).bits)))
    return st.sampled_from([np.float64, np.float32]).flatmap(of)


def same_bytes(write, reference):
    """Call ``write`` and ``reference`` with a path (or prefix) in one
    temporary directory; every file they write must match byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        write(f"{tmp}/new")
        reference(f"{tmp}/ref")
        names = sorted(n[3:] for n in os.listdir(tmp) if n.startswith("new"))
        assert names
        for name in names:
            with open(f"{tmp}/new{name}", "rb") as a, \
                    open(f"{tmp}/ref{name}", "rb") as b:
                assert a.read() == b.read(), name


rows_ = st.integers(0, 40)
array_settings = settings(max_examples=60, deadline=None)


class TestWritersMatchReference:
    @array_settings
    @given(data=st.data(), n_nodes=rows_, n_elements=rows_,
           tensor=st.booleans(), int32=st.booleans())
    def test_tet_mesh(self, data, n_nodes, n_elements, tensor, int32):
        dtype = np.int32 if int32 else np.int64
        mesh = SimpleNamespace(
            nodes=data.draw(float_arrays((n_nodes, 3))),
            tetra=data.draw(hnp.arrays(dtype, (n_elements, 4))),
            labels=data.draw(hnp.arrays(dtype, n_elements,
                                        elements=st.integers(0, 9))),
            sigma=data.draw(float_arrays((n_elements, 6) if tensor
                                         else n_elements)),
            is_tensor=tensor)
        same_bytes(lambda p: hio.save_tet_mesh(mesh, p),
                   lambda p: reference_save_tet_mesh(mesh, p))

    @array_settings
    @given(data=st.data(), n_electrodes=st.integers(1, 12),
           n_cols=st.integers(1, 6))
    def test_dataset(self, data, n_electrodes, n_cols):
        y = data.draw(float_arrays(n_electrodes * n_cols))
        same_bytes(lambda p: hio.save_dataset(p, y, n_electrodes),
                   lambda p: reference_save_dataset(p, y, n_electrodes))

    @array_settings
    @given(data=st.data(), n=rows_, comp=st.sampled_from([1, 3]))
    def test_reconstruction(self, data, n, comp):
        positions = data.draw(float_arrays((n, 3)))
        values = data.draw(float_arrays(comp * n))
        same_bytes(
            lambda p: hio.save_reconstruction(p, positions, values),
            lambda p: reference_save_reconstruction(p, positions, values))

    def test_blocks_join_without_seams(self):
        # Two full 65,536-row format blocks and a short third one.
        n = 2 * 65536 + 3
        rng = np.random.default_rng(7)
        mesh = SimpleNamespace(nodes=rng.normal(size=(n, 3)),
                               tetra=rng.integers(0, n, (n, 4)),
                               labels=rng.integers(0, 5, n),
                               sigma=rng.uniform(0.01, 2.0, n), is_tensor=False)
        same_bytes(lambda p: hio.save_tet_mesh(mesh, p),
                   lambda p: reference_save_tet_mesh(mesh, p))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(
        st.floats().map(np.float64), st.floats(width=32).map(np.float32),
        st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans(),
        st.none(), st.sampled_from(["a,b", "plain", 'say "x"']),
        st.sampled_from(_EDGES)), min_size=2, max_size=6), max_size=5))
    def test_write_csv_mixed_rows(self, rows):
        # Floats of every width print as the repr of their Python float,
        # None as an empty cell, and a cell holding a comma or a quote is
        # quoted with its quotes doubled.
        def cell(v):
            if v is None:
                return ""
            text = repr(float(v)) if isinstance(v, (float, np.floating)) \
                else str(v)
            if any(c in text for c in ',"\r\n'):
                return '"' + text.replace('"', '""') + '"'
            return text

        with tempfile.TemporaryDirectory() as tmp:
            hio.write_csv(f"{tmp}/t.csv", ["a", "b,c"], rows)
            with open(f"{tmp}/t.csv", "rb") as fh:
                got = fh.read().decode()
        assert got == "".join(",".join(map(cell, row)) + "\r\n"
                              for row in [["a", "b,c"], *rows])


def as_read(values):
    """``values`` as float64, every nan the one that the text "nan" names."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values)


class TestReadersRoundTrip:
    """The CSV readers give back bit for bit what the writers printed."""

    @array_settings
    @given(data=st.data(), n_electrodes=st.integers(1, 12),
           n_cols=st.integers(1, 6))
    def test_dataset(self, data, n_electrodes, n_cols):
        y = data.draw(float_arrays(n_electrodes * n_cols))
        with tempfile.TemporaryDirectory() as tmp:
            hio.save_dataset(f"{tmp}/d.csv", y, n_electrodes)
            back = hio.load_dataset(f"{tmp}/d.csv")
        assert back.shape == y.shape
        assert back.tobytes() == as_read(y).tobytes()

    @array_settings
    @given(data=st.data(), n=rows_, comp=st.sampled_from([1, 3]))
    def test_reconstruction(self, data, n, comp):
        positions = data.draw(float_arrays((n, 3)))
        values = data.draw(float_arrays(comp * n))
        with tempfile.TemporaryDirectory() as tmp:
            hio.save_reconstruction(f"{tmp}/r.csv", positions, values)
            pos_back, values_back = hio.load_reconstruction(f"{tmp}/r.csv")
        assert pos_back.shape == positions.shape
        assert values_back.shape == values.shape
        assert pos_back.tobytes() == as_read(positions).tobytes()
        assert values_back.tobytes() == as_read(values).tobytes()
