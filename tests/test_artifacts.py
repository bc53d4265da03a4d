"""The CLI as an artifact chain: ``leadfield`` reads the mesh that ``mesh``
wrote, ``simulate`` reads the lead field (and for EIT the mesh), but only
after verifying the manifest, and otherwise builds what it needs."""

import json
import logging
import shutil

import numpy as np
import pytest

from headfem import cli
from headfem import io as hio
from test_harness import write_sphere_project


@pytest.fixture
def calls(monkeypatch):
    """Counts of mesh generations and lead-field builds inside the CLI."""
    counts = {"generate_mesh": 0, "leadfield": 0}

    def counting(name, key):
        inner = getattr(cli, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    counting("generate_mesh", "generate_mesh")
    counting("eeg_leadfield", "leadfield")
    counting("eit_leadfield", "leadfield")
    return counts


def run(path, command, *extra):
    assert cli.main([command, "--config", str(path), *extra]) == 0


def outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def lookups(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "headfem.cli"]


@pytest.fixture
def logged(caplog):
    caplog.set_level(logging.INFO, logger="headfem.cli")
    return caplog


def test_chain_generates_the_mesh_once(tmp_path, calls, logged):
    path = write_sphere_project(tmp_path)
    run(path, "mesh")
    run(path, "leadfield")
    run(path, "simulate")
    assert calls == {"generate_mesh": 1, "leadfield": 1}
    out = tmp_path / "out"
    assert lookups(logged) == [f"mesh: reused {out}", f"leadfield: reused {out}"]


def test_manifests_record_inputs_and_sidecar(tmp_path):
    path = write_sphere_project(tmp_path)
    run(path, "mesh")
    run(path, "leadfield")
    out = tmp_path / "out"
    expected = {name: hio.sha256_file(tmp_path / name)
                for name in ("head_nodes.dat", "head_tris.dat")}
    for name in ("mesh_manifest.json", "leadfield_manifest.json"):
        assert json.loads((out / name).read_text())["inputs"] == expected
    manifest = json.loads((out / "leadfield_manifest.json").read_text())
    assert manifest["outputs"]["leadfield_sidecar"] == \
        hio.sha256_file(out / "leadfield.bin.json")


def test_edited_ini_rebuilds_the_mesh(tmp_path, calls, logged):
    path = write_sphere_project(tmp_path)
    run(path, "mesh")
    path.write_text(path.read_text().replace("count = 12", "count = 11"))
    run(path, "leadfield")
    assert calls["generate_mesh"] == 2
    assert "config changed" in lookups(logged)[-1]
    lf, _ = hio.load_leadfield(str(tmp_path / "out" / "leadfield.bin"))
    assert lf.matrix.shape[1] == 3 * 11


def test_truncated_mesh_file_is_never_read(tmp_path, calls, logged,
                                           monkeypatch):
    path = write_sphere_project(tmp_path)
    run(path, "mesh")
    nodes = tmp_path / "out" / "mesh_nodes.dat"
    nodes.write_bytes(nodes.read_bytes()[:-40])

    def refuse(prefix):
        raise AssertionError(f"read {prefix}")
    monkeypatch.setattr(cli.hio, "load_tet_mesh", refuse)
    run(path, "leadfield")
    assert calls["generate_mesh"] == 2
    assert "hash mismatch" in lookups(logged)[-1]


def test_edited_surface_file_rebuilds(tmp_path, calls, logged):
    path = write_sphere_project(tmp_path)
    run(path, "mesh")
    run(path, "leadfield")
    surface = tmp_path / "head_nodes.dat"
    rows = np.loadtxt(surface)
    np.savetxt(surface, 1.05 * rows)
    run(path, "simulate")
    assert calls == {"generate_mesh": 2, "leadfield": 2}
    messages = lookups(logged)
    assert "input changed" in messages[-2] and "input changed" in messages[-1]


def test_edited_sidecar_rebuilds_the_leadfield(tmp_path, calls, logged):
    path = write_sphere_project(tmp_path)
    run(path, "mesh")
    run(path, "leadfield")
    cold = tmp_path / "cold"
    cold.mkdir()
    run(write_sphere_project(cold), "simulate")
    sidecar = tmp_path / "out" / "leadfield.bin.json"
    side = json.loads(sidecar.read_text())
    side["positions"][0][0] += 0.01
    hio.write_json(sidecar, side)
    run(path, "simulate")
    # One more lead-field build, on the reused mesh (the cold simulate
    # built one of each).
    assert calls == {"generate_mesh": 2, "leadfield": 3}
    assert lookups(logged)[-2:] == [
        f"leadfield: built ({tmp_path / 'out'}: hash mismatch)",
        f"mesh: reused {tmp_path / 'out'}"]
    assert (tmp_path / "out" / "data.csv").read_bytes() == \
        (cold / "out" / "data.csv").read_bytes()


@pytest.mark.parametrize("content", [None, "{not json", "[]", '{"outputs": 1}'])
def test_missing_or_broken_manifest_rebuilds(tmp_path, calls, logged,
                                             content):
    path = write_sphere_project(tmp_path)
    run(path, "mesh")
    manifest = tmp_path / "out" / "mesh_manifest.json"
    if content is None:
        manifest.unlink()
    else:
        manifest.write_text(content)
    run(path, "leadfield")
    assert calls["generate_mesh"] == 2
    reason = "no manifest" if content is None else "unparsable manifest"
    assert lookups(logged)[-1].endswith(f"{reason})")


def test_manifest_without_inputs_is_stale(tmp_path, calls):
    # Manifests written before input hashes were recorded are not reused.
    path = write_sphere_project(tmp_path)
    run(path, "mesh")
    manifest = tmp_path / "out" / "mesh_manifest.json"
    recorded = json.loads(manifest.read_text())
    del recorded["inputs"]
    hio.write_json(manifest, recorded)
    run(path, "leadfield")
    assert calls["generate_mesh"] == 2


def several_dipoles(path):
    # Several dipoles make the data a sum over lead-field columns, whose
    # rounding depends on the memory order of the matrix.
    path.write_text(path.read_text().replace(
        "    0.0 0.0 0.05  1 0 0  1e-8",
        "    0.0 0.0 0.05  1 0.3 0.2  1e-8\n"
        "    0.02 0.01 0.0  0.1 1 -0.4  3e-9\n"
        "    -0.03 0.0 0.02  0 0.2 1  2e-8"))
    return path


@pytest.mark.parametrize("modality", ["eeg", "eit"])
def test_reused_simulate_matches_an_empty_directory(tmp_path, calls, modality):
    chain, cold = tmp_path / "chain", tmp_path / "cold"
    chain.mkdir()
    cold.mkdir()
    path = several_dipoles(write_sphere_project(chain, modality=modality))
    run(path, "mesh")
    run(path, "leadfield")
    run(path, "simulate", "--seed", "7")
    run(path, "simulate", "--seed", "7", "--output", "data1")
    assert calls == {"generate_mesh": 1, "leadfield": 1}
    run(several_dipoles(write_sphere_project(cold, modality=modality)),
        "simulate", "--seed", "7")
    assert calls == {"generate_mesh": 2, "leadfield": 2}
    fresh = outputs(cold / "out")
    assert set(fresh) == {"data.csv", "data_manifest.json"} | (
        {"data_background.csv"} if modality == "eit" else set())
    for directory in (chain / "out", chain / "data1"):
        got = outputs(directory)
        assert {k: got[k] for k in fresh} == fresh


def test_output_dir_first_then_project_dir(tmp_path, calls, logged):
    # A stale artifact in --output does not hide a current one in the
    # project's [output] dir.
    path = write_sphere_project(tmp_path)
    run(path, "mesh")
    run(path, "leadfield")
    shutil.copytree(tmp_path / "out", tmp_path / "data0")
    (tmp_path / "data0" / "leadfield.bin").write_bytes(b"\0" * 8)
    run(path, "simulate", "--output", "data0")
    assert calls == {"generate_mesh": 1, "leadfield": 1}
    data0, out = tmp_path / "data0", tmp_path / "out"
    assert lookups(logged)[-1] == f"leadfield: reused {out}"
    # With the project directory's lead field gone, both are reported.
    (tmp_path / "out" / "leadfield_manifest.json").unlink()
    run(path, "simulate", "--output", "data0")
    assert lookups(logged)[-2] == (f"leadfield: built ({data0}: hash mismatch; "
                                   f"{out}: no manifest)")
