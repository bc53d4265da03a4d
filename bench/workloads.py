"""The benchmark workloads: inputs, the three pipeline stages, the checks.

Each workload splits its pipeline into three stages, ``mesh`` (segmentation
to labeled mesh), ``leadfield`` (mesh to lead field) and ``invert`` (lead
field to every reconstruction, data making included); bench/run.py times
them.  ``repeats`` says how many whole passes an untraced round makes
(``wall_s``) and how often it runs each stage in all: the shorter a stage,
the more often, so that load bursts on a shared machine average out in
the median.  Layer functions are always called through
their module (``meshgen.generate_mesh``, not an imported name), so the
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import time

import numpy as np

import checks
from headfem import cli, experiments, fem, geometry, inverse, leadfield, meshgen
from headfem import simulate, solver

clock = time.perf_counter


def shell_segmentation(radii, conductivities, priorities, subdivisions):
    """Concentric icosphere compartments, innermost first; the innermost is
    the active (source) compartment."""
    return geometry.Segmentation([
        geometry.Compartment(geometry.icosphere(r, subdivisions,
                                                name=f"shell{k}"),
                             conductivity=s, priority=p, active=k == 0,
                             name=f"shell{k}")
        for k, (r, s, p) in enumerate(zip(radii, conductivities, priorities))])


def segmentation_sag(seg):
    return max(checks.icosphere_sag(s.nodes, s.triangles)
               for c in seg.compartments for s in c.surfaces)


class Ops:
    """Operations attempted and failed, and the time of each inversion."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.invert_samples = []


class EitHemorrhage:
    """The EIT hemorrhage desk protocol: 4 shells at h = 7 mm, 16 large
    electrodes, 600 conductivity DOFs in brain and CSF; a 30 mm +0.73 S/m
    anomaly simulated by a perturbed forward solve at 60 dB SNR and
    reconstructed by multiresolution averaging for each of 20 noise seeds,
    two sets of the protocol's 10."""

    repeats = {"wall_s": 1, "mesh_s": 1, "leadfield_s": 4, "invert_s": 3}

    def __init__(self, seed, workdir):
        # Over ten master seeds the median localization error spread by
        # 7.5% (quartile distance over median) with 10 noise seeds and by
        # 6.6% with 20.
        self.params = experiments.EitHemorrhageParams(master_seed=seed,
                                                      n_seeds=20)

    def setup(self, i):
        p = self.params
        seg = shell_segmentation(p.radii, p.conductivities, p.priorities,
                                 p.subdivisions)
        phantom = simulate.Phantom(
            radii=p.radii, conductivities=p.conductivities,
            anomaly_center=p.anomaly_center,
            anomaly_diameter=p.anomaly_diameter,
            anomaly_delta=p.anomaly_delta)
        return seg, phantom

    def mesh(self, inputs, ops, span):
        ops.attempted += 1
        return meshgen.generate_mesh(inputs[0], self.params.resolution)

    def leadfield(self, inputs, mesh, ops, span):
        p = self.params
        ops.attempted += 1
        cfg = solver.PcgConfig(tolerance=p.solver_tolerance)
        el = fem.ElectrodeSet.from_centers(
            mesh, simulate.fibonacci_sphere_points(p.n_electrodes, p.radii[-1]),
            radius=p.electrode_radius, impedances=p.impedance)
        system = fem.assemble_cem_system(mesh, el)
        dofs = leadfield.build_dof_map(mesh, list(p.dof_compartments),
                                       p.n_dofs, seed=p.dof_seed)
        patterns = leadfield.adjacent_pair_patterns(p.n_electrodes)
        return {"seg": inputs[0], "mesh": mesh, "system": system, "cfg": cfg,
                "dofs": dofs, "patterns": patterns,
                "lf": leadfield.eit_leadfield(system, dofs, patterns, cfg)}

    def invert(self, inputs, model, ops, span):
        p, phantom = self.params, inputs[1]
        mesh, system, lf, dofs = (model["mesh"], model["system"], model["lf"],
                                  model["dofs"])
        ops.attempted += 1
        sigma_p, _ = phantom.perturb_sigma(mesh)
        mesh_p = mesh.with_sigma(sigma_p)
        system_p = fem.CemSystem(
            mesh=mesh_p, electrodes=system.electrodes,
            A=fem.assemble_A(mesh_p, system.electrodes), B=system.B,
            C=system.C, R=system.R, ground=system.ground)
        y_pert = np.asarray(leadfield.eit_forward(
            system_p, model["patterns"], model["cfg"])).T.ravel()
        hyper = inverse.HyperModel(p.hypermodel, beta=p.beta, theta0=p.theta0)
        recs = []
        for s in range(p.n_seeds):
            noise = simulate.NoiseSpec(
                mode="snr-db", level=p.snr_db,
                seed=experiments.derive_seed(p.master_seed, 2, s))
            delta_y = y_pert + noise.sample(y_pert) - lf.background_data
            ops.attempted += 1
            ts = clock()
            L_hat, y_hat, _ = inverse.normalize_problem(lf.matrix, delta_y)
            recs.append(inverse.multires_ias(
                L_hat, y_hat, dofs.centers, hyper,
                nu=p.nu * np.abs(y_hat).max(), n_iter=p.n_iter,
                n_subsets=min(p.n_subsets, dofs.n_dofs),
                n_decompositions=p.n_decompositions,
                seed=experiments.derive_seed(p.master_seed, 3, s)))
            ops.invert_samples.append(clock() - ts)
        return {**model, "recs": recs}

    def loc_errors(self, out):
        truth = np.asarray(self.params.anomaly_center, dtype=float)
        centers = out["dofs"].centers
        return [1e3 * float(np.linalg.norm(
            checks.center_of_mass(np.abs(x), centers) - truth))
            for x in out["recs"]]

    def checks(self, out):
        p, mesh, system, lf = (self.params, out["mesh"], out["system"],
                               out["lf"])
        T = solver.transfer_matrix(system.A, system.B, out["cfg"])
        T_direct = checks.direct_transfer(system.A, system.B)
        L_direct, y_bg = checks.eit_leadfield_from_transfer(
            T_direct, system.A, system.B, system.C, system.R, system.ground,
            mesh.nodes, mesh.tetra, out["dofs"].element_sets, out["patterns"])
        n_el = system.n_electrodes
        errors = self.loc_errors(out)
        return {
            "labels": checks.check_labels(mesh.nodes, mesh.tetra, mesh.labels,
                                          p.radii, p.resolution,
                                          segmentation_sag(out["seg"])),
            "transfer": checks.check_close("T vs sparse LU", T, T_direct),
            "leadfield": checks.check_close("lead field vs direct T",
                                            lf.matrix, L_direct),
            "background": checks.check_close("background data vs direct T",
                                             lf.background_data, y_bg),
            "zero_mean": checks.check_zero_mean("EIT background data",
                                                lf.background_data, n_el),
            "zero_mean_columns": checks.check_zero_mean(
                "EIT lead-field columns", lf.matrix, n_el),
            **{f"hits{k // 10}": checks.check_hits(
                errors[k:k + 10], 1e3 * 0.5 * p.anomaly_diameter, 8)
               for k in range(0, len(errors), 10)},
        }


# name, radius (m), conductivity (S/m), priority.  The brain has the highest
# priority value, so elements that straddle the 7 mm skull at h = 12 mm go
# to the outer tissues and every source lies inside the brain sphere.
CLI_SHELLS = (("brain", 0.078, 0.33, 2), ("skull", 0.085, 0.0064, 0),
              ("scalp", 0.092, 0.43, 1))
CLI_RESOLUTION = 0.012
CLI_TRUTH = (0.0, 0.03, 0.04)
CLI_ROI_RADIUS = 0.02
CLI_DATASETS = 3
# Each dataset is inverted three times: an inversion takes about 45 ms
# against 3 s for the simulate that makes its data, so repeating it is the
# cheap way to time enough inversions for a median.
CLI_INVERTS = 3

CLI_INI = """\
[mesh]
resolution = {resolution}

[electrodes]
radius = 0.02
impedance = 1000.0
positions =
    {electrodes}

[sources]
count = 1500
mode = unconstrained
seed = 1

[modality]
type = eeg

[inversion]
method = map
hypermodel = IG
beta = 1.5
theta0 = 1e-3
nu = 0.03
iterations = 6

[simulation]
noise_mode = relative-max
noise_level = 0.02
dipoles =
    {truth}  1 0 0  1e-8

[truth]
position = {truth}
orientation = 1 0 0
roi_radius = {roi}

[output]
dir = out
"""


class CliDatasets:
    """An INI project on disk driven through ``headfem.cli.main``: ``mesh``
    and ``leadfield``, then per dataset ``simulate --seed k`` and three
    times ``invert --seed k``, each dataset in its own output directory,
    with full-width MAP inversion.  Coarse low-polygon 3-shell EEG head,
    1,500 sources."""

    repeats = {"wall_s": 3, "mesh_s": 8, "leadfield_s": 5, "invert_s": 3}

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.seeds = [experiments.derive_seed(seed, 4, k)
                      for k in range(CLI_DATASETS)]

    def setup(self, i):
        project = os.path.join(self.workdir, f"project{i}")
        shutil.rmtree(project, ignore_errors=True)
        os.makedirs(project)
        sections = []
        for name, radius, sigma, priority in CLI_SHELLS:
            surf = geometry.icosphere(radius, 2, name=name)
            geometry.save_surface_mesh(
                surf, os.path.join(project, f"{name}_nodes.dat"),
                os.path.join(project, f"{name}_tris.dat"))
            sections.append(
                f"[compartment:{name}]\n"
                f"surfaces = {name}_nodes.dat {name}_tris.dat\n"
                f"conductivity = {sigma}\npriority = {priority}\n"
                f"active = {'true' if name == 'brain' else 'false'}\n")
        electrodes = "\n    ".join(
            " ".join(f"{v:.6f}" for v in q)
            for q in simulate.fibonacci_sphere_points(32, CLI_SHELLS[-1][1]))
        ini = os.path.join(project, "project.ini")
        with open(ini, "w") as fh:
            fh.write("\n".join(sections) + "\n" + CLI_INI.format(
                resolution=CLI_RESOLUTION, electrodes=electrodes,
                truth=" ".join(str(v) for v in CLI_TRUTH), roi=CLI_ROI_RADIUS))
        return ini

    def _cli(self, ops, span, name, argv):
        ops.attempted += 1
        with span(name), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        ops.failed += rc != 0

    def _out(self, ini):
        return os.path.join(os.path.dirname(ini), "out")

    def mesh(self, ini, ops, span):
        self._cli(ops, span, "cli.mesh",
                  ["mesh", "--config", ini, "--output", self._out(ini)])

    def leadfield(self, ini, mesh, ops, span):
        self._cli(ops, span, "cli.leadfield",
                  ["leadfield", "--config", ini, "--output", self._out(ini)])

    def invert(self, ini, model, ops, span):
        data_dirs = []
        for k, seed in enumerate(self.seeds):
            d = os.path.join(os.path.dirname(ini), f"data{k}")
            data_dirs.append(d)
            base = ["--config", ini, "--seed", str(seed), "--output", d]
            self._cli(ops, span, "cli.simulate", ["simulate", *base])
            for _ in range(CLI_INVERTS):
                ts = clock()
                self._cli(ops, span, "cli.invert",
                          ["invert", *base, "--data",
                           os.path.join(d, "data.csv"), "--leadfield",
                           os.path.join(self._out(ini), "leadfield.bin")])
                ops.invert_samples.append(clock() - ts)
        return {"out": self._out(ini), "data_dirs": data_dirs}

    def _reconstructions(self, out):
        return [checks.read_reconstruction(os.path.join(d, "reconstruction.csv"))
                for d in out["data_dirs"]]

    def loc_errors(self, out):
        truth = np.asarray(CLI_TRUTH)
        return [checks.ball_error_mm(checks.amplitudes(x, len(pos)), pos, truth,
                                     CLI_ROI_RADIUS)
                for pos, x in self._reconstructions(out)]

    def checks(self, out):
        shells = [r for _, r, _, _ in CLI_SHELLS]
        sag = max(checks.icosphere_sag(s.nodes, s.triangles) for s in
                  (geometry.icosphere(r, 2) for r in shells))
        nodes, tetra, labels = checks.read_tet_mesh(
            os.path.join(out["out"], "mesh"))
        L, positions = checks.read_leadfield(
            os.path.join(out["out"], "leadfield.bin"))
        result = {
            "labels": checks.check_labels(nodes, tetra, labels, shells,
                                          CLI_RESOLUTION, sag),
            "zero_mean": checks.check_zero_mean("EEG lead-field columns",
                                                L, L.shape[0]),
        }
        truth = np.asarray(CLI_TRUTH)
        for k, (d, (pos, x)) in enumerate(zip(out["data_dirs"],
                                             self._reconstructions(out))):
            if pos.shape != positions.shape or not np.allclose(pos, positions):
                result[f"dataset{k}"] = (False, "DOF positions differ from "
                                         "the lead field's")
                continue
            y = checks.read_dataset(os.path.join(d, "data.csv"))
            result[f"dataset{k}"] = checks.check_reconstruction(
                x, pos, L, y, truth, CLI_ROI_RADIUS)
        return result


WORKLOADS = {
    "eit_hemorrhage": EitHemorrhage,
    "cli_datasets": CliDatasets,
}
