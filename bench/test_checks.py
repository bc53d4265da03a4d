"""Each benchmark check passes on real outputs and fails on corrupted ones.

    python3 -m pytest bench/test_checks.py -q

The model is a small two-shell sphere, so the whole file runs in seconds.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
from headfem import fem, geometry, io, leadfield, meshgen, simulate, solver  # noqa: E402

RADII = (0.07, 0.092)
H = 0.02


@pytest.fixture(scope="module")
def model():
    seg = geometry.Segmentation([
        geometry.Compartment(geometry.icosphere(r, 2), conductivity=s,
                             active=k == 0)
        for k, (r, s) in enumerate(zip(RADII, (0.33, 0.43)))])
    mesh = meshgen.generate_mesh(seg, H)
    el = fem.ElectrodeSet.from_centers(
        mesh, simulate.fibonacci_sphere_points(8, RADII[-1]), radius=0.04,
        impedances=10.0)
    src = meshgen.place_sources(mesh, seg, 30, seed=0)
    system = fem.assemble_cem_system(mesh, el, src)
    cfg = solver.PcgConfig(tolerance=1e-10)
    sag = max(checks.icosphere_sag(s.nodes, s.triangles)
              for c in seg.compartments for s in c.surfaces)
    return {"seg": seg, "mesh": mesh, "system": system, "cfg": cfg,
            "sag": sag, "lf": leadfield.eeg_leadfield(system, cfg),
            "T": solver.transfer_matrix(system.A, system.B, cfg),
            "T_direct": checks.direct_transfer(system.A, system.B)}


def test_labels(model):
    mesh = model["mesh"]

    def ok(labels):
        return checks.check_labels(mesh.nodes, mesh.tetra, labels, RADII, H,
                                   model["sag"])[0]

    assert ok(mesh.labels)
    labels = mesh.labels.copy()
    labels[int(np.argmin(np.linalg.norm(mesh.centroids(), axis=1)))] = 1
    assert not ok(labels)                   # the central element, far inside


def test_transfer(model):
    T, T_direct = model["T"], model["T_direct"]
    assert checks.check_close("T", T, T_direct)[0]
    bad = T.copy()
    bad[:, 3] *= 1.01
    assert not checks.check_close("T", bad, T_direct)[0]


def test_zero_mean(model):
    L = model["lf"].matrix
    assert checks.check_zero_mean("L", L, L.shape[0])[0]
    bad = L.copy()
    bad[:, 7] += 1e-6 * np.linalg.norm(bad[:, 7])
    assert not checks.check_zero_mean("L", bad, L.shape[0])[0]


def test_eit_leadfield(model):
    s, mesh = model["system"], model["mesh"]
    dofs = leadfield.build_dof_map(mesh, [0], 6, seed=1)
    patterns = leadfield.adjacent_pair_patterns(s.n_electrodes)
    lf = leadfield.eit_leadfield(s, dofs, patterns, model["cfg"])
    L_direct, y_bg = checks.eit_leadfield_from_transfer(
        model["T_direct"], s.A, s.B, s.C, s.R, s.ground, mesh.nodes,
        mesh.tetra, dofs.element_sets, patterns)
    assert checks.check_close("L", lf.matrix, L_direct)[0]
    assert checks.check_close("y_bg", lf.background_data, y_bg)[0]
    assert checks.check_zero_mean("y_bg", lf.background_data,
                                  s.n_electrodes)[0]
    bad = lf.matrix.copy()
    bad[:, [0, 1]] = bad[:, [1, 0]]         # two DOFs swapped
    assert not checks.check_close("L", bad, L_direct)[0]
    bad_bg = lf.background_data.copy()
    bad_bg[0] += 1e-6 * np.abs(bad_bg).max()
    assert not checks.check_zero_mean("y_bg", bad_bg, s.n_electrodes)[0]


def test_hits():
    assert checks.check_hits([3, 5, 9, 14, 2, 8, 15, 1, 4, 20], 15, 8)[0]
    assert not checks.check_hits([3, 25, 9, 16, 2, 8, 15, 1, 4, 20], 15, 8)[0]


def test_reconstruction_from_disk(model, tmp_path):
    lf = model["lf"]
    truth = lf.positions[4]
    y, x_true = simulate.dipole_signal(lf, [(truth, (1.0, 0.0, 0.0), 1e-8)])
    path = tmp_path / "reconstruction.csv"
    io.save_reconstruction(path, lf.positions, x_true, "unconstrained")
    pos, x = checks.read_reconstruction(path)
    assert np.array_equal(pos, lf.positions) and np.array_equal(x, x_true)
    assert checks.check_reconstruction(x, pos, lf.matrix, y, truth, 0.02)[0]
    # The same amplitudes on the wrong DOFs explain none of the data.
    moved = np.roll(x, 3 * 7)
    assert not checks.check_reconstruction(moved, pos, lf.matrix, y, truth,
                                           0.02)[0]
    # Nothing near the truth: the ball holds no amplitude.
    far = np.zeros_like(x)
    far[3 * int(np.argmax(np.linalg.norm(pos - truth, axis=1)))] = 1e-8
    assert not checks.check_reconstruction(far, pos, lf.matrix, y, truth,
                                           0.02)[0]
