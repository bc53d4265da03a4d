"""The CLI as an artifact chain: ``leadfield`` reads the mesh that ``mesh``
wrote, ``simulate`` reads the lead field (and for EIT the mesh), but only
after verifying the manifest, and otherwise builds what it needs."""

import builtins
import hashlib
import io
import json
import logging
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from headfem import cli
from headfem import io as hio
from headfem.config import ProjectConfig
from headfem.fem import ElectrodeSet
from headfem.meshgen import tet_volumes
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


def test_cold_eit_simulate_builds_the_electrodes_once(tmp_path, monkeypatch):
    # With no artifact, one electrode set serves the lead field, the
    # anomaly data and the background dataset.
    path = write_sphere_project(tmp_path, modality="eit")
    built = []
    inner = ElectrodeSet.from_centers.__func__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return inner(cls, *args, **kwargs)
    monkeypatch.setattr(ElectrodeSet, "from_centers", classmethod(counting))
    run(path, "simulate")
    assert len(built) == 1


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


def test_smoothed_mesh_keeps_its_topology_and_is_reused(tmp_path, calls,
                                                        logged):
    # The outer boundary is the interface of a one-compartment head, so
    # smoothing moves boundary nodes and nothing else.
    plain, smoothed = tmp_path / "plain", tmp_path / "smoothed"
    plain.mkdir()
    smoothed.mkdir()
    run(write_sphere_project(plain), "mesh")
    path = write_sphere_project(smoothed)
    path.write_text(path.read_text().replace(
        "resolution = 0.04", "resolution = 0.04\nsmoothing_iterations = 2"))
    run(path, "mesh")
    a = hio.load_tet_mesh(plain / "out" / "mesh")
    b = hio.load_tet_mesh(smoothed / "out" / "mesh")
    np.testing.assert_array_equal(b.tetra, a.tetra)
    np.testing.assert_array_equal(b.labels, a.labels)
    moved = np.flatnonzero((b.nodes != a.nodes).any(axis=1))
    assert moved.size and np.isin(moved, a.boundary_nodes()).all()
    assert (tet_volumes(b.nodes, b.tetra) > 0).all()

    out = smoothed / "out"
    mesh_files = outputs(out)
    run(path, "leadfield")
    assert calls == {"generate_mesh": 2, "leadfield": 1}
    assert lookups(logged) == [f"mesh: reused {out}"]
    run(path, "mesh")
    assert {name: data for name, data in outputs(out).items()
            if name in mesh_files} == mesh_files


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


def assert_records_every_file(directory, manifest):
    """The manifest in ``directory`` holds the sha256 of every other file
    there, and the command wrote nothing else."""
    outputs = json.loads((directory / manifest).read_text())["outputs"]
    assert sorted(outputs.values()) == sorted(
        hio.sha256_file(p) for p in directory.iterdir() if p.name != manifest)


def test_simulate_and_metrics_record_every_file(tmp_path):
    path = write_sphere_project(tmp_path, modality="eit", extra=(
        "[truth]\nposition = 0.0 0.0 0.04\nroi_radius = 0.09\n"))
    out, data, scored = (tmp_path / name for name in ("out", "data", "scored"))
    run(path, "leadfield")
    run(path, "simulate", "--output", "data")
    assert_records_every_file(data, "data_manifest.json")
    assert (data / "data_background.csv").exists()
    run(path, "invert", "--data", str(data / "data.csv"))
    run(path, "metrics", "--output", "scored",
        "--reconstruction", str(out / "reconstruction.csv"))
    assert_records_every_file(scored, "metrics_manifest.json")
    manifest = json.loads((scored / "metrics_manifest.json").read_text())
    assert manifest["kind"] == "metrics"
    assert manifest["inputs"] == {
        "reconstruction": hio.sha256_file(out / "reconstruction.csv")}


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

    def refuse(read):
        raise AssertionError("parsed a mesh")
    monkeypatch.setattr(cli.hio, "parse_tet_mesh", refuse)
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
    cold_manifest = json.loads(fresh.pop("data_manifest.json"))
    surfaces = cold_manifest.pop("inputs")
    for directory in (chain / "out", chain / "data1"):
        got = outputs(directory)
        assert {k: got[k] for k in fresh} == fresh
        # The manifests differ only in the artifact files that the reused
        # run records beside the surface files.
        manifest = json.loads(got["data_manifest.json"])
        used = manifest.pop("inputs")
        assert manifest == cold_manifest
        assert surfaces.items() < used.items()


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


def invert(path, *extra):
    return cli.main(["invert", "--config", str(path), "--data",
                     str(path.parent / "out" / "data.csv"), *extra])


def test_invert_refuses_a_leadfield_of_an_edited_surface(tmp_path, capsys):
    path = write_sphere_project(tmp_path)
    run(path, "leadfield")
    surface = tmp_path / "head_nodes.dat"
    np.savetxt(surface, 1.1 * np.loadtxt(surface))
    run(path, "simulate")
    assert invert(path) == 2
    assert "input changed" in capsys.readouterr().err


def test_invert_accepts_an_edited_inversion_section(tmp_path):
    # The manifest's configuration hash covers [inversion] too; invert
    # compares only the inputs and the file hashes.
    path = write_sphere_project(tmp_path)
    run(path, "leadfield")
    run(path, "simulate")
    path.write_text(path.read_text().replace("iterations = 3",
                                             "iterations = 4"))
    assert invert(path) == 0


def flip_byte(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 1
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("damage, reason", [
    (lambda out: flip_byte(out / "leadfield.bin"), "hash mismatch"),
    (lambda out: flip_byte(out / "leadfield.bin.json"), "hash mismatch"),
    (lambda out: (out / "leadfield.bin.json").unlink(), "hash mismatch"),
    (lambda out: (out / "leadfield_manifest.json").unlink(), "no manifest"),
    (lambda out: (out / "leadfield_manifest.json").write_text("{"),
     "unparsable manifest"),
], ids=["bin", "sidecar", "no-sidecar", "no-manifest", "unparsable"])
def test_invert_refuses_an_unverified_leadfield(tmp_path, capsys, damage,
                                                reason):
    path = write_sphere_project(tmp_path)
    run(path, "leadfield")
    run(path, "simulate")
    damage(tmp_path / "out")
    assert invert(path) == 2
    assert f"({reason})" in capsys.readouterr().err


@pytest.mark.parametrize("command, parser, damaged, output", [
    ("leadfield", "parse_tet_mesh", "mesh_nodes.dat", "leadfield.bin"),
    ("simulate", "parse_leadfield", "leadfield.bin", "data.csv"),
    ("invert", "parse_leadfield", "leadfield.bin", "reconstruction.csv"),
])
def test_commands_use_the_bytes_they_verified(tmp_path, monkeypatch, command,
                                              parser, damaged, output):
    # Each artifact file is read once: zeros written over it after it was
    # hashed do not reach the command's output.
    path = write_sphere_project(tmp_path)
    for step in ("mesh", "leadfield", "simulate"):
        run(path, step)
    out = tmp_path / "out"
    argv = [command, "--config", str(path)]
    if command == "invert":
        argv += ["--data", str(out / "data.csv")]

    def rerun():
        (out / output).unlink(missing_ok=True)
        assert cli.main(argv) == 0
        return (out / output).read_bytes()
    expected = rerun()
    parse = getattr(hio, parser)

    def damage_then_parse(*args, **kwargs):
        (out / damaged).write_bytes(bytes((out / damaged).stat().st_size))
        return parse(*args, **kwargs)
    monkeypatch.setattr(hio, parser, damage_then_parse)
    assert rerun() == expected


def test_invert_reads_the_manifest_beside_its_leadfield(tmp_path):
    path = write_sphere_project(tmp_path)
    run(path, "leadfield")
    run(path, "simulate")
    shutil.copytree(tmp_path / "out", tmp_path / "copy")
    (tmp_path / "out" / "leadfield_manifest.json").unlink()
    assert invert(path, "--leadfield",
                  str(tmp_path / "copy" / "leadfield.bin")) == 0
    assert invert(path) == 2


def warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "headfem.cli" and r.levelno == logging.WARNING]


def test_simulate_warns_when_its_leadfield_is_not_saved(tmp_path, logged):
    path = write_sphere_project(tmp_path)
    run(path, "simulate")
    [message] = warnings(logged)
    assert "not saved" in message and "headfem leadfield" in message
    assert not (tmp_path / "out" / "leadfield.bin").exists()
    logged.clear()
    run(path, "leadfield")
    run(path, "simulate")
    assert warnings(logged) == []


@pytest.fixture
def opens(monkeypatch, tmp_path):
    """The opens (``Path.read_bytes`` and ``write_bytes`` included) of the
    files under ``tmp_path``, by path relative to it: ``reads`` counts the
    opens for reading, ``writes`` holds the files opened for writing and
    ``read_back`` the files read after they were written."""
    seen = SimpleNamespace(reads={}, writes=set(), read_back=set())
    inner = io.open

    def counting(file, mode="r", *args, **kwargs):
        path = os.path.realpath(file) if isinstance(file, (str, os.PathLike)) \
            else None
        if path and path.startswith(os.path.realpath(tmp_path)):
            name = os.path.relpath(path, os.path.realpath(tmp_path))
            if set(mode) & set("wax+"):
                seen.writes.add(name)
            else:
                seen.reads[name] = seen.reads.get(name, 0) + 1
                if name in seen.writes:
                    seen.read_back.add(name)
        return inner(file, mode, *args, **kwargs)
    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(builtins, "open", counting)
    (tmp_path / "probe").write_bytes(b"")
    (tmp_path / "probe").read_bytes()
    assert seen.reads == {"probe": 1} and seen.read_back == {"probe"}
    return seen


SURFACES = {"project.ini", "head_nodes.dat", "head_tris.dat"}
MESH = {"out/mesh_manifest.json", *(f"out/mesh_{part}.dat" for part in
                                    ("nodes", "tetra", "labels", "sigma"))}
LEADFIELD = {"out/leadfield_manifest.json", "out/leadfield.bin",
             "out/leadfield.bin.json"}


# The last column counts segmentations built: one for a mesh or EEG
# sources, none where every artifact needed is reused.
@pytest.mark.parametrize("modality, before, command, extra, inputs, built", [
    ("eeg", [], "mesh", [], SURFACES, 1),
    ("eeg", [], "leadfield", [], SURFACES, 1),
    ("eeg", ["mesh"], "leadfield", [], SURFACES | MESH, 1),
    ("eit", [], "leadfield", [], SURFACES, 1),
    ("eit", ["mesh"], "leadfield", [], SURFACES | MESH, 0),
    ("eeg", [], "simulate", [], SURFACES, 1),
    ("eeg", ["leadfield"], "simulate", [], SURFACES | LEADFIELD, 0),
    ("eit", ["mesh", "leadfield"], "simulate", [],
     SURFACES | MESH | LEADFIELD, 0),
    ("eeg", ["leadfield", "simulate"], "invert",
     ["--data", "out/data.csv"], SURFACES | LEADFIELD | {"out/data.csv"}, 0),
    ("eit", ["leadfield", "simulate"], "invert",
     ["--data", "out/data.csv"], SURFACES | LEADFIELD | {"out/data.csv"}, 0),
    ("eit", ["leadfield", "simulate", "invert"], "metrics",
     ["--reconstruction", "out/reconstruction.csv"],
     {"project.ini", "out/reconstruction.csv"}, 0),
], ids=["mesh", "leadfield-eeg", "leadfield-eeg-on-mesh", "leadfield-eit",
        "leadfield-eit-on-mesh", "simulate-eeg", "simulate-eeg-on-leadfield",
        "simulate-eit-on-artifacts", "invert-eeg", "invert-eit", "metrics"])
def test_each_input_file_is_read_once(tmp_path, opens, monkeypatch, modality,
                                      before, command, extra, inputs, built):
    # The bytes a command hashes are the bytes it parses: one read per
    # input file.  A file the command writes is hashed as it is written,
    # never read back.
    path = write_sphere_project(tmp_path, modality=modality, extra=(
        "[truth]\nposition = 0.0 0.0 0.04\nroi_radius = 0.09\n"))
    monkeypatch.chdir(tmp_path)
    for step in before:
        run(path, step, *(["--data", "out/data.csv"] if step == "invert"
                          else []))
    segmentations = []
    build = ProjectConfig.build_segmentation

    def counted(*args, **kwargs):
        segmentations.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(ProjectConfig, "build_segmentation", counted)
    for seen in (opens.reads, opens.writes, opens.read_back):
        seen.clear()
    run(path, command, *extra)
    assert inputs <= opens.reads.keys()
    assert {name: n for name, n in opens.reads.items() if n != 1} == {}
    assert opens.writes and opens.read_back == set()
    assert len(segmentations) == built


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_invert_records_the_data_it_parsed(tmp_path, monkeypatch):
    path = write_sphere_project(tmp_path)
    run(path, "leadfield")
    run(path, "simulate")
    out = tmp_path / "out"
    data = out / "data.csv"
    parsed = sha256(data)
    parse = hio.parse_dataset

    def parse_then_replace(*args, **kwargs):
        # A file replaced after the read does not reach the manifest.
        y = parse(*args, **kwargs)
        data.write_text(data.read_text().replace("e", "E"))
        return y
    monkeypatch.setattr(hio, "parse_dataset", parse_then_replace)
    run(path, "invert", "--data", str(data))
    assert sha256(data) != parsed
    recorded = json.loads((out / "leadfield_manifest.json").read_text())
    inputs = json.loads(
        (out / "reconstruction_manifest.json").read_text())["inputs"]
    assert inputs == {**recorded["inputs"], "data": parsed,
                      **recorded["outputs"]}


@pytest.mark.parametrize("modality", ["eeg", "eit"])
def test_simulate_records_the_artifacts_it_used(tmp_path, modality):
    path = write_sphere_project(tmp_path, modality=modality)
    surfaces = {name: sha256(tmp_path / name)
                for name in ("head_nodes.dat", "head_tris.dat")}
    out = tmp_path / "out"

    def recorded(manifest):
        return json.loads((out / manifest).read_text())

    run(path, "simulate")       # builds both in memory: no artifact used
    assert recorded("data_manifest.json")["inputs"] == surfaces
    run(path, "mesh")
    run(path, "leadfield")
    run(path, "simulate")
    used = {**surfaces, **recorded("leadfield_manifest.json")["outputs"]}
    if modality == "eit":
        used.update(recorded("mesh_manifest.json")["outputs"])
    assert recorded("data_manifest.json")["inputs"] == used
