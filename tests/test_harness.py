import json
import os
import subprocess
import sys

import numpy as np
import pytest

from headfem.cli import main
from headfem.config import load_config
from headfem.errors import ConfigError
from headfem.geometry import box_surface, icosphere, save_surface_mesh
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
                         n_sources=12, inversion=None, extra=""):
    sphere = icosphere(0.1, 2, name="head")
    save_surface_mesh(sphere, tmp_path / "head_nodes.dat",
                      tmp_path / "head_tris.dat")
    from headfem.simulate import fibonacci_sphere_points
    pos_lines = "\n    ".join(
        " ".join(f"{v:.6f}" for v in p)
        for p in fibonacci_sphere_points(4, 0.1))
    cfgtext = f"""
[compartment:head]
surfaces = head_nodes.dat head_tris.dat
conductivity = 0.33
active = true

[mesh]
resolution = 0.04

[electrodes]
radius = 0.05
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

    def test_missing_surface_file_exit_2(self, tmp_path, capsys):
        path = write_cube_project(tmp_path)
        os.remove(tmp_path / "cube_nodes.dat")
        assert main(["mesh", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cube_nodes.dat" in err

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

    def test_roi_with_zero_dofs_exit_3(self, tmp_path, capsys):
        roi = ("[inversion]\nmethod = roi\nroi_center = 10 10 10\n"
               "roi_radius = 0.001")
        path = self._pipeline(tmp_path, inversion=roi)
        out = tmp_path / "out"
        code = main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv")])
        assert code == 3

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

    def test_eit_invert_multires(self, tmp_path):
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


def test_cli_import_skips_scipy_modules_no_pipeline_path_uses():
    # scipy.spatial (which pulls in scipy.special) and scipy.io serve only
    # fem.locate_elements and io.export_matrix_market, which import them.
    src = os.path.dirname(os.path.dirname(os.path.abspath(hio.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, headfem.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "headfem.cli" in loaded
    assert not loaded & {"scipy.spatial", "scipy.special", "scipy.io"}
