import ast
import builtins
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from headfem import cli, experiments
from headfem.cli import main
from headfem.config import load_config
from headfem.errors import ConfigError, ParameterError
from headfem.experiments import EegHypermodelParams, EitHemorrhageParams
from headfem.geometry import box_surface, icosphere, save_surface_mesh
from headfem.inverse import normalize_problem
from headfem import io as hio


def write_cube_project(tmp_path, resolution=0.5, electrodes=2, extra=""):
    cube = box_surface(name="cube")
    save_surface_mesh(cube, tmp_path / "cube_nodes.dat", tmp_path / "cube_tris.dat")
    pos = {2: "0.5 0.5 1.0\n    0.5 0.5 0.0",
           0: ""}[electrodes]
    cfgtext = f"""
[compartment:cube]
surfaces = cube_nodes.dat cube_tris.dat
conductivity = 1.0
active = true

[mesh]
resolution = {resolution}

[electrodes]
radius = 0.45
impedance = 1000.0
positions = {pos}

[sources]
count = 5
seed = 1

[modality]
type = eeg

[output]
dir = out
{extra}
"""
    (tmp_path / "project.ini").write_text(cfgtext)
    return tmp_path / "project.ini"


def write_sphere_project(tmp_path, modality="eeg", mode="unconstrained",
                         n_sources=12, inversion=None, extra="",
                         n_electrodes=4, electrode_radius=0.05,
                         resolution=0.04):
    sphere = icosphere(0.1, 2, name="head")
    save_surface_mesh(sphere, tmp_path / "head_nodes.dat",
                      tmp_path / "head_tris.dat")
    from headfem.simulate import fibonacci_sphere_points
    pos_lines = "\n    ".join(
        " ".join(f"{v:.6f}" for v in p)
        for p in fibonacci_sphere_points(n_electrodes, 0.1))
    cfgtext = f"""
[compartment:head]
surfaces = head_nodes.dat head_tris.dat
conductivity = 0.33
active = true

[mesh]
resolution = {resolution}

[electrodes]
radius = {electrode_radius}
impedance = 10.0
positions = {pos_lines}

[sources]
count = {n_sources}
mode = {mode}
seed = 3

[eit]
dofs = 8
seed = 2
compartments = head

[modality]
type = {modality}

[solver]
tolerance = 1e-10

@INVERSION@

[simulation]
noise_mode = relative-max
noise_level = 0.01
seed = 5
dipoles =
    0.0 0.0 0.05  1 0 0  1e-8
anomaly = 0.0 0.0 0.04 0.05 0.5

[output]
dir = out
{extra}
"""
    default_inversion = """[inversion]
method = map
hypermodel = IG
beta = 1.5
theta0 = 1e-3
nu = 0.03
iterations = 3
seed = 0"""
    cfgtext = cfgtext.replace("@INVERSION@", inversion or default_inversion)
    (tmp_path / "project.ini").write_text(cfgtext)
    return tmp_path / "project.ini"


class TestConfig:
    def test_unknown_key_reports_line_number(self, tmp_path):
        path = write_cube_project(tmp_path, extra="[solver]\nfancy_knob = 1\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        msg = str(exc.value)
        assert "fancy_knob" in msg
        line = int(msg.split(":")[1])
        assert (path.read_text().splitlines()[line - 1].strip()
                .startswith("fancy_knob"))

    def test_config_error_reads_the_ini_once(self, tmp_path, monkeypatch):
        path = write_cube_project(tmp_path)
        path.write_text(path.read_text().replace("[mesh]\n",
                                                 "[mesh]\nfancy = 1\n"))
        line = path.read_text().splitlines().index("fancy = 1") + 1
        opened = []
        inner = builtins.open

        def counting(file, *args, **kwargs):
            opened.append(str(file))
            return inner(file, *args, **kwargs)
        monkeypatch.setattr(builtins, "open", counting)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}:{line}: [mesh] fancy: unknown key"
        assert opened.count(str(path)) == 1

    def test_unknown_section_rejected(self, tmp_path):
        path = write_cube_project(tmp_path, extra="[plotting]\nstyle = dark\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_default_section_rejected_at_its_line(self, tmp_path, capsys):
        # configparser would copy [DEFAULT] keys into every section.
        path = write_cube_project(tmp_path)
        path.write_text("[DEFAULT]\nresolution = 0.5\n" + path.read_text())
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}:1: unknown section [DEFAULT]"
        assert main(["mesh", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_compartment_order_preserved(self, tmp_path):
        path = write_sphere_project(tmp_path)
        cfg = load_config(path)
        assert [c.name for c in cfg.compartments] == ["head"]
        seg = cfg.build_segmentation()
        assert seg[0].active

    def test_named_conductivity(self, tmp_path):
        from headfem.geometry import DEFAULT_CONDUCTIVITY
        path = write_cube_project(tmp_path)
        text = path.read_text().replace("conductivity = 1.0",
                                        "conductivity = skull")
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.compartments[0].conductivity == DEFAULT_CONDUCTIVITY["skull"]

    def test_digest_stable(self, tmp_path):
        path = write_cube_project(tmp_path)
        assert load_config(path).digest == load_config(path).digest

    def test_unknown_key_line_is_found_in_its_own_section(self, tmp_path):
        # 'seed' on line 4 is a [sources] key; the one on line 6 is unknown.
        path = tmp_path / "project.ini"
        path.write_text("[mesh]\nresolution = 0.5\n[sources]\nseed = 3\n"
                        "[solver]\nseed = 1\n")
        with pytest.raises(ConfigError, match=r":6: \[solver\] seed: "):
            load_config(path)

    @pytest.mark.parametrize("section, key, value", [
        ("mesh", "resolution", "abc"),
        ("sources", "count", "1.5"),
        ("compartment:cube", "priority", "x"),
        ("electrodes", "radius", "x"),
        ("inversion", "normalize", "maybe"),
        ("inversion", "method", "lasso"),
        ("truth", "position", "1 2"),
        ("simulation", "noise_mode", "bogus"),
        ("inversion", "hypermodel", "X"),
        ("electrodes", "triangles", "99999999999999999999"),
    ])
    def test_malformed_value_exit_2(self, tmp_path, capsys, section, key,
                                    value):
        path = write_cube_project(tmp_path)
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith(f"{key} =")]
        if f"[{section}]" not in lines:
            lines.append(f"[{section}]")
        line = lines.index(f"[{section}]") + 2
        lines.insert(line - 1, f"{key} = {value}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value).startswith(f"{path}:{line}: [{section}] {key}: ")
        assert main(["mesh", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"


class TestCliMesh:
    def test_cube_fixture_writes_48_elements(self, tmp_path):
        path = write_cube_project(tmp_path, resolution=0.5)
        assert main(["mesh", "--config", str(path)]) == 0
        mesh = hio.load_tet_mesh(str(tmp_path / "out" / "mesh"))
        assert mesh.n_elements == 48
        assert np.all(mesh.volumes > 0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.33",
                                       "1 1 -1 0 0 0"])
    def test_bad_conductivity_exit_2_before_any_file(self, tmp_path, capsys,
                                                     value):
        # NaN and -0.33 used to mesh with exit 0, then fail the lead field
        # with exit 3.
        path = write_cube_project(tmp_path)
        path.write_text(path.read_text().replace(
            "conductivity = 1.0", f"conductivity = {value}"))
        assert main(["mesh", "--config", str(path)]) == 2
        assert "compartment 'cube'" in capsys.readouterr().err
        assert not list(tmp_path.glob("out/mesh*"))

    def test_missing_surface_file_exit_2(self, tmp_path, capsys):
        path = write_cube_project(tmp_path)
        os.remove(tmp_path / "cube_nodes.dat")
        assert main(["mesh", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cube_nodes.dat" in err

    def test_triangle_index_out_of_range_exit_2(self, tmp_path, capsys):
        # Used to exit 1 with a bare IndexError.
        path = write_cube_project(tmp_path)
        tris = tmp_path / "cube_tris.dat"
        lines = tris.read_text().splitlines()
        tris.write_text("\n".join(["1 2 99"] + lines[1:]) + "\n")
        assert main(["mesh", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "node 98 outside 0..7" in err and "Traceback" not in err

    def test_rerun_identical_manifest(self, tmp_path):
        path = write_cube_project(tmp_path)
        main(["mesh", "--config", str(path)])
        manifest = tmp_path / "out" / "mesh_manifest.json"
        first = manifest.read_bytes()
        main(["mesh", "--config", str(path)])
        assert manifest.read_bytes() == first


class TestCliLeadfield:
    def test_eeg_dims_cartesian(self, tmp_path):
        path = write_sphere_project(tmp_path, n_sources=7)
        assert main(["leadfield", "--config", str(path)]) == 0
        lf, side = hio.load_leadfield(str(tmp_path / "out" / "leadfield.bin"))
        assert lf.matrix.shape == (4, 3 * 7)
        assert side["modality"] == "eeg"

    def test_eit_sidecar_sigma_hash(self, tmp_path):
        path = write_sphere_project(tmp_path, modality="eit")
        assert main(["leadfield", "--config", str(path)]) == 0
        side = json.loads((tmp_path / "out" / "leadfield.bin.json").read_text())
        assert side["background_sigma_sha256"]
        assert side["n_patterns"] == 3

    def test_zero_electrodes_config_error(self, tmp_path, capsys):
        path = write_cube_project(tmp_path, electrodes=0)
        assert main(["leadfield", "--config", str(path)]) == 2
        assert "electrode" in capsys.readouterr().err.lower()

    def test_explicit_triangle_list_electrodes(self, tmp_path):
        cube = box_surface(name="cube")
        save_surface_mesh(cube, tmp_path / "n.dat", tmp_path / "t.dat")
        (tmp_path / "p.ini").write_text("""
[compartment:cube]
surfaces = n.dat t.dat
conductivity = 1.0
active = true
[mesh]
resolution = 0.5
[electrodes]
impedance = 50.0
triangles =
    1 2
    5 6
[sources]
count = 4
[modality]
type = eeg
[output]
dir = out
""")
        assert main(["leadfield", "--config", str(tmp_path / "p.ini")]) == 0
        lf, _ = hio.load_leadfield(str(tmp_path / "out" / "leadfield.bin"))
        assert lf.matrix.shape == (2, 12)


class TestCliInvertAndMetrics:
    def _pipeline(self, tmp_path, inversion=None, extra=""):
        path = write_sphere_project(tmp_path, n_sources=40,
                                    inversion=inversion, extra=extra)
        assert main(["leadfield", "--config", str(path)]) == 0
        assert main(["simulate", "--config", str(path)]) == 0
        return path

    def test_spike_recovery_and_argmax(self, tmp_path):
        truth = "[truth]\nposition = 0.0 0.0 0.05\norientation = 1 0 0\nroi_radius = 0.05\n"
        path = self._pipeline(tmp_path, extra=truth)
        out = tmp_path / "out"
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")]) == 0
        manifest = json.loads((out / "reconstruction_manifest.json").read_text())
        rec = np.loadtxt(out / "reconstruction.csv", delimiter=",", skiprows=1)
        comp = rec[:, 4:].ravel()
        assert manifest["parameters"]["argmax_dof"] == int(np.argmax(np.abs(comp)))
        metrics = json.loads((out / "metrics.json").read_text())
        assert "position_error_mm" in metrics
        assert "angle_error_deg" in metrics
        # CoM of the ROI amplitude should sit near the true dipole even on
        # this 4-electrode fixture.
        assert metrics["position_error_mm"] < 40.0

    def test_roi_with_zero_dofs_exit_2(self, tmp_path, capsys):
        # An ROI ball that holds no source is a configuration error.
        roi = ("[inversion]\nmethod = roi\nroi_center = 10 10 10\n"
               "roi_radius = 0.001")
        path = self._pipeline(tmp_path, inversion=roi)
        out = tmp_path / "out"
        capsys.readouterr()
        code = main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "roi_center" in err and "40 DOFs" in err
        assert not (out / "reconstruction.csv").exists()

    def test_nu_mode_rms_scales_nu_by_the_data_rms(self, tmp_path):
        inv = ("[inversion]\nmethod = map\nnu = 0.05\nnu_mode = rms\n"
               "iterations = 2")
        path = self._pipeline(tmp_path, inversion=inv)
        out = tmp_path / "out"
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")]) == 0
        lf, _ = hio.load_leadfield(str(out / "leadfield.bin"))
        _, y_hat, _ = normalize_problem(lf.matrix,
                                        hio.load_dataset(out / "data.csv"))
        manifest = json.loads(
            (out / "reconstruction_manifest.json").read_text())
        assert manifest["parameters"]["nu_mode"] == "rms"
        assert manifest["parameters"]["nu"] == pytest.approx(
            0.05 * np.sqrt(np.mean(y_hat**2)), rel=1e-15)
        assert np.sqrt(np.mean(y_hat**2)) < np.abs(y_hat).max()

    def test_dimension_mismatch_data_error(self, tmp_path, capsys):
        path = self._pipeline(tmp_path)
        out = tmp_path / "out"
        hio.save_dataset(out / "bad.csv", np.ones(6), 2)
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "bad.csv")]) == 2

    def test_metrics_command(self, tmp_path):
        truth = "[truth]\nposition = 0.0 0.0 0.05\norientation = 1 0 0\nroi_radius = 0.05\n"
        path = self._pipeline(tmp_path, extra=truth)
        out = tmp_path / "out"
        main(["invert", "--config", str(path), "--data", str(out / "data.csv")])
        assert main(["metrics", "--config", str(path),
                     "--reconstruction", str(out / "reconstruction.csv")]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"position_error_mm", "angle_error_deg"}

    def test_metrics_all_zero_reconstruction_exit_3(self, tmp_path, capsys):
        # The center of mass of an all-zero reconstruction is undefined: a
        # runtime failure (exit 3), not a traceback.
        path = write_sphere_project(
            tmp_path, extra="[truth]\nposition = 0.0 0.0 0.05\nroi_radius = 0.05\n")
        rec = tmp_path / "zeros.csv"
        hio.save_reconstruction(rec, np.array([[0.0, 0.0, 0.05], [0.0, 0.04, 0.0]]),
                                np.zeros(2), "constrained")
        assert main(["metrics", "--config", str(path),
                     "--reconstruction", str(rec)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_metrics_zero_mean_vector_writes_null_angle(self, tmp_path):
        # Opposite dipoles in the ROI: the position error is defined, the
        # orientation of their zero mean vector is not.
        path = write_sphere_project(
            tmp_path, extra="[truth]\nposition = 0.0 0.0 0.05\n"
                            "orientation = 1 0 0\nroi_radius = 0.05\n")
        rec = tmp_path / "opposite.csv"
        hio.save_reconstruction(rec, np.array([[0.0, 0.0, 0.05], [0.0, 0.02, 0.05]]),
                                np.array([1.0, 0, 0, -1.0, 0, 0]), "unconstrained")
        assert main(["metrics", "--config", str(path),
                     "--reconstruction", str(rec)]) == 0
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["angle_error_deg"] is None
        assert metrics["position_error_mm"] == pytest.approx(10.0)

    def test_truth_without_orientation_writes_null_angle(self, tmp_path):
        # Unconstrained EEG carries 3 values per source; without a true
        # orientation the position error is still defined.
        path = self._pipeline(tmp_path, extra=(
            "[truth]\nposition = 0.0 0.0 0.05\nroi_radius = 0.05\n"))
        out = tmp_path / "out"
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["angle_error_deg"] is None
        assert metrics["position_error_mm"] < 40.0

    @pytest.mark.parametrize("orientation", ["orientation = 1 0 0\n", ""])
    def test_empty_truth_ball_exit_3(self, tmp_path, capsys, orientation):
        # No DOF within roi_radius of the truth: no whole-head fallback.
        # The reconstruction comes from a passing invert of the same
        # project before its [truth] section was added.
        path = self._pipeline(tmp_path)
        out = tmp_path / "out"
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")]) == 0
        write_sphere_project(tmp_path, n_sources=40, extra=(
            "[truth]\nposition = 0.0 0.0 0.05\n" + orientation
            + "roi_radius = 1e-6\n"))
        capsys.readouterr()
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")]) == 3
        assert main(["metrics", "--config", str(path), "--reconstruction",
                     str(out / "reconstruction.csv")]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 2 and "Traceback" not in err
        assert not (out / "metrics.json").exists()

    def test_failed_score_writes_no_reconstruction(self, tmp_path, capsys):
        # invert scores [truth] before its first write: an exit 3 leaves
        # no reconstruction without a manifest beside it.
        path = self._pipeline(tmp_path, extra=(
            "[truth]\nposition = 0.0 0.0 0.05\nroi_radius = 1e-6\n"))
        out = tmp_path / "out"
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")]) == 3
        assert not (out / "reconstruction.csv").exists()
        assert not (out / "reconstruction_manifest.json").exists()
        assert not (out / "metrics.json").exists()

    def test_non_numeric_data_cell_exit_2(self, tmp_path, capsys):
        path = self._pipeline(tmp_path)
        out = tmp_path / "out"
        lines = (out / "data.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "abc"
        lines[2] = ",".join(cells)
        (out / "bad.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "bad.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "bad.csv" in err and "'abc'" in err

    def test_non_finite_inversion_scalars_exit_2(self, tmp_path, capsys):
        # nu = nan used to exit 1 with a traceback from the Cholesky factor.
        path = self._pipeline(tmp_path)
        out = tmp_path / "out"
        for key, message in [("nu", "nu must be > 0"),
                             ("theta0", "theta0 must be positive"),
                             ("beta", "beta > 0")]:
            for bad in ("nan", "inf"):
                write_sphere_project(tmp_path, n_sources=40, inversion=(
                    f"[inversion]\nmethod = map\n{key} = {bad}"))
                capsys.readouterr()
                assert main(["invert", "--config", str(path),
                             "--data", str(out / "data.csv")]) == 2
                err = capsys.readouterr().err
                assert message in err and "Traceback" not in err
        assert not (out / "reconstruction.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_data_cell_exit_2(self, tmp_path, capsys, bad):
        # One nan cell used to exit 1 with a traceback from the Cholesky
        # factor.
        path = self._pipeline(tmp_path)
        out = tmp_path / "out"
        lines = (out / "data.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = bad
        lines[2] = ",".join(cells)
        (out / "bad.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "bad.csv")]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "non-finite" in err
        assert not (out / "reconstruction.csv").exists()

    @pytest.mark.parametrize("old,new", [(",2.0\n", ",nan\n"),
                                         (",2.0\n", ",inf\n"),
                                         ("0.04,", "nan,")])
    def test_non_finite_reconstruction_exit_2(self, tmp_path, capsys, old,
                                              new):
        # nan amplitudes used to exit 0 and write NaN, which is not JSON.
        path = write_sphere_project(
            tmp_path, extra="[truth]\nposition = 0.0 0.0 0.05\nroi_radius = 0.05\n")
        rec = tmp_path / "bad.csv"
        hio.save_reconstruction(rec, np.array([[0.0, 0.0, 0.05], [0.0, 0.04, 0.0]]),
                                np.array([1.0, 2.0]), "constrained")
        text = rec.read_text()
        assert old in text
        rec.write_text(text.replace(old, new))
        capsys.readouterr()
        assert main(["metrics", "--config", str(path),
                     "--reconstruction", str(rec)]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "non-finite" in err
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_multires_on_three_columns_per_dof_exit_2(self, tmp_path, capsys):
        # The unconstrained EEG fixture carries 3 columns per source.
        path = self._pipeline(tmp_path, inversion=(
            "[inversion]\nmethod = multires\nsubsets = 4"))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")]) == 2
        err = capsys.readouterr().err
        assert "constrained EEG or EIT" in err and "Traceback" not in err
        assert not (out / "reconstruction.csv").exists()

    def test_non_numeric_reconstruction_cell_exit_2(self, tmp_path, capsys):
        path = write_sphere_project(
            tmp_path, extra="[truth]\nposition = 0.0 0.0 0.05\nroi_radius = 0.05\n")
        rec = tmp_path / "bad.csv"
        hio.save_reconstruction(rec, np.array([[0.0, 0.0, 0.05], [0.0, 0.04, 0.0]]),
                                np.array([1.0, 2.0]), "constrained")
        rec.write_text(rec.read_text().replace(",2.0\n", ",abc\n"))
        capsys.readouterr()
        assert main(["metrics", "--config", str(path),
                     "--reconstruction", str(rec)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "bad.csv" in err and "'abc'" in err
        assert not (tmp_path / "out" / "metrics.json").exists()

    @pytest.mark.parametrize("modality,truth", [
        ("eeg", "position = 0.0 0.0 0.05\norientation = 1 0 0\n"
                "roi_radius = 0.05\n"),
        ("eeg", "position = 0.0 0.0 0.05\nroi_radius = 0.05\n"),
        ("eit", "position = 0.0 0.0 0.04\nroi_radius = 0.09\n"),
    ])
    def test_invert_and_metrics_write_the_same_bytes(self, tmp_path,
                                                     modality, truth):
        path = write_sphere_project(tmp_path, modality=modality, n_sources=40,
                                    extra="[truth]\n" + truth)
        out = tmp_path / "out"
        for command in ("leadfield", "simulate"):
            assert main([command, "--config", str(path)]) == 0
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")]) == 0
        assert main(["metrics", "--config", str(path),
                     "--output", str(tmp_path / "scored"), "--reconstruction",
                     str(out / "reconstruction.csv")]) == 0
        assert ((tmp_path / "scored" / "metrics.json").read_bytes()
                == (out / "metrics.json").read_bytes())

    def test_eit_multires_with_more_subsets_than_dofs_exit_2(self, tmp_path,
                                                             capsys):
        # The default 100 subsets exceed the 8 DOFs of the fixture.
        path = write_sphere_project(tmp_path, modality="eit",
                                    inversion="[inversion]\nmethod = multires")
        out = tmp_path / "out"
        for command in ("leadfield", "simulate"):
            assert main([command, "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")]) == 2
        err = capsys.readouterr().err
        assert "subsets = 100" in err and "8 DOFs" in err
        assert not (out / "reconstruction.csv").exists()

    def test_eit_invert_multires(self, tmp_path, capsys):
        inv = ("[inversion]\nmethod = multires\nsubsets = 4\n"
               "decompositions = 3\nnu = 0.12\ntheta0 = 1e-3")
        path = write_sphere_project(tmp_path, modality="eit", inversion=inv)
        out = tmp_path / "out"
        assert main(["leadfield", "--config", str(path)]) == 0
        assert main(["simulate", "--config", str(path)]) == 0
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")]) == 0
        rec = (out / "reconstruction.csv").read_text().splitlines()
        assert rec[0] == "dof_id,x,y,z,amplitude"
        assert len(rec) == 1 + 8  # header + dofs
        # Zero decompositions or iterations are parameter errors.
        capsys.readouterr()
        for bad in ("decompositions = 0", "decompositions = 3\niterations = 0"):
            path.write_text(path.read_text().replace("decompositions = 3", bad))
            assert main(["invert", "--config", str(path),
                         "--data", str(out / "data.csv")]) == 2
            assert capsys.readouterr().err == (
                "error: n_iter and n_decompositions must be >= 1\n")
            path.write_text(path.read_text().replace(bad, "decompositions = 3"))


class TestCliExperiment:
    def test_eeg_hypermodel_row_count_and_determinism(self, tmp_path):
        path = write_cube_project(tmp_path, extra=(
            "[experiment]\nrealizations = 2\nresolution = 0.02\n"
            "electrodes = 12\nsources = 900\niterations = 3\n"))
        assert main(["experiment", "eeg-hypermodel", "--config", str(path),
                     "--seed", "4"]) == 0
        out = tmp_path / "out"
        rows = (out / "hypermodel_realizations.csv").read_text().splitlines()
        assert len(rows) == 1 + 4 * 2 * 2  # header + cases x sources x reals
        first = (out / "hypermodel_summary.csv").read_bytes()
        assert main(["experiment", "eeg-hypermodel", "--config", str(path),
                     "--seed", "4"]) == 0
        assert (out / "hypermodel_summary.csv").read_bytes() == first

    def test_eit_hemorrhage_emits_both_reconstructions(self, tmp_path):
        path = write_cube_project(tmp_path, extra=(
            "[experiment]\nn_seeds = 2\nresolution = 0.015\ndofs = 60\n"))
        assert main(["experiment", "eit-hemorrhage", "--config", str(path),
                     "--seed", "1"]) == 0
        out = tmp_path / "out"
        assert (out / "reconstruction_averaged.csv").exists()
        assert (out / "reconstruction_unaveraged.csv").exists()
        seeds = (out / "hemorrhage_seeds.csv").read_text().splitlines()
        assert len(seeds) == 1 + 2

    @pytest.mark.parametrize("name, key", [
        ("eeg-hypermodel", "realizations"), ("eeg-hypermodel", "sources"),
        ("eeg-hypermodel", "iterations"), ("eit-hemorrhage", "n_seeds"),
        ("eit-hemorrhage", "dofs"), ("eit-hemorrhage", "electrodes")])
    @pytest.mark.parametrize("value", [0, -1])
    def test_count_below_one_exit_2_before_any_mesh(self, tmp_path, capsys,
                                                    monkeypatch, name, key,
                                                    value):
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(experiments, "generate_mesh", no_mesh)
        path = write_cube_project(tmp_path, extra=(
            f"[experiment]\n{key} = {value}\n"))
        capsys.readouterr()
        assert main(["experiment", name, "--config", str(path)]) == 2
        field = cli._EXPERIMENT_FIELDS[key]
        assert capsys.readouterr().err == (
            f"error: {field} must be an integer >= 1, got {value}\n")
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())


class TestExperimentParams:
    @pytest.mark.parametrize("params, field", [
        *((EegHypermodelParams, f) for f in (
            "realizations", "n_electrodes", "n_sources", "n_iter")),
        *((EitHemorrhageParams, f) for f in (
            "n_seeds", "n_electrodes", "n_dofs", "n_iter", "n_subsets",
            "n_decompositions"))])
    @pytest.mark.parametrize("value", [0, -1, 2.5])
    def test_counts_are_integers_of_at_least_one(self, params, field, value):
        with pytest.raises(ParameterError) as err:
            params(**{field: value})
        assert str(err.value) == (
            f"{field} must be an integer >= 1, got {value!r}")
        with pytest.raises(ParameterError):
            replace(params(), **{field: value})
        assert getattr(replace(params(), **{field: 1}), field) == 1


def test_cli_import_skips_scipy_modules_no_pipeline_path_uses():
    # No headfem module imports scipy.spatial (which pulls in
    # scipy.special) at import time, and none uses scipy.io, so importing
    # the package and its entry points loads neither.
    src = os.path.dirname(os.path.dirname(os.path.abspath(hio.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, headfem, headfem.cli, "
         "headfem.experiments; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"headfem.cli", "headfem.experiments"} <= loaded
    assert not loaded & {"scipy.spatial", "scipy.special", "scipy.io"}


def test_no_private_module_imports():
    # A module path with a component starting with "_" (scipy.sparse.
    # _sparsetools, numpy._core) is private to its package and may move in
    # any release; headfem's own modules and __future__ are exempt.
    src = Path(hio.__file__).resolve().parent
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            private += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ("headfem", "__future__")
                        and any(c.startswith("_") for c in name.split("."))]
    assert private == []


_CHAIN = """
import sys
from headfem.cli import main
ini, out = sys.argv[1:]
for argv in (["mesh"], ["leadfield"], ["simulate", "--seed", "9"],
             ["invert", "--data", f"{out}/data.csv", "--seed", "9"],
             ["metrics", "--reconstruction", f"{out}/reconstruction.csv"]):
    assert main([*argv[:1], "--config", ini, "--output", out,
                 *argv[1:]]) == 0, argv
"""


def run_chain(project, preamble="", **env):
    """The bytes of every file that mesh, leadfield, simulate, invert and
    metrics write for a 32-electrode, 1,500-source sphere project, run in
    a fresh interpreter that first executes ``preamble``, with ``env`` added
    to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hio.__file__)))
    project.mkdir()
    path = write_sphere_project(
        project, n_sources=1500, n_electrodes=32, electrode_radius=0.012,
        resolution=0.02, extra="[truth]\nposition = 0.0 0.0 0.05\n"
                               "orientation = 1 0 0\nroi_radius = 0.05\n")
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", preamble + _CHAIN, str(path),
         str(project / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted((project / "out").iterdir())}


def test_cli_chain_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 32 electrodes and 1,500 sources: the (32, 32) by (32, 4,500) and
    # larger products are large enough for OpenBLAS to split them over
    # two threads, and a split changes their rounding.
    written = [run_chain(tmp_path / f"threads{threads}",
                         OPENBLAS_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert {"leadfield.bin", "data.csv", "reconstruction.csv",
            "metrics.json"} <= written[0].keys()
    assert written[0].keys() == written[1].keys()
    assert [name for name in written[0]
            if written[0][name] != written[1][name]] == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
def test_cli_chain_bytes_do_not_depend_on_usable_cores(tmp_path):
    # The transfer matrix splits its 32 columns into one group per usable
    # core: one block on one CPU, several threads otherwise.
    one_cpu = (f"import os\n"
               f"os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})\n")
    hashes = [{name: hashlib.sha256(data).hexdigest()
               for name, data in run_chain(tmp_path / name, pre).items()}
              for name, pre in (("one_cpu", one_cpu), ("all_cpus", ""))]
    assert {"leadfield.bin", "data.csv", "reconstruction.csv",
            "metrics.json"} <= hashes[0].keys()
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("modality", ["eeg", "eit"])
def test_invert_on_a_saved_leadfield_inverts_the_built_one(tmp_path,
                                                           monkeypatch,
                                                           modality):
    # MAP on the 32-electrode, 1,500-source EEG project of ``run_chain``
    # and multiresolution on a 16-electrode, 40-DOF EIT project: the
    # reconstruction from the saved lead field is the one cmd_invert makes
    # from the lead field the library builds in memory, bit for bit.
    if modality == "eeg":
        path = write_sphere_project(tmp_path, n_sources=1500,
                                    n_electrodes=32, electrode_radius=0.012,
                                    resolution=0.02)
    else:
        path = write_sphere_project(
            tmp_path, modality="eit", n_electrodes=16, electrode_radius=0.02,
            resolution=0.02, inversion=("[inversion]\nmethod = multires\n"
                                        "subsets = 10\ndecompositions = 3"))
        path.write_text(path.read_text().replace("dofs = 8", "dofs = 40"))
    out = tmp_path / "out"
    for command in ("mesh", "leadfield", "simulate"):
        assert main([command, "--config", str(path)]) == 0
    invert = ["invert", "--config", str(path), "--data", str(out / "data.csv")]
    assert main(invert) == 0
    _, from_disk = hio.load_reconstruction(out / "reconstruction.csv")

    cfg = load_config(str(path))
    inputs = cli._Inputs(cfg)
    mesh = cli._mesh(cfg, str(out), inputs)
    built = cli._build_leadfield(cfg, mesh, cli._build_electrodes(cfg, mesh),
                                 inputs)
    saved, _ = hio.load_leadfield(str(out / "leadfield.bin"))
    assert np.array_equal(saved.matrix, built.matrix)
    parse = hio.parse_leadfield
    monkeypatch.setattr(hio, "parse_leadfield",
                        lambda *args: (built, parse(*args)[1]))
    assert main(invert) == 0
    _, from_built = hio.load_reconstruction(out / "reconstruction.csv")
    assert np.array_equal(from_disk, from_built)
