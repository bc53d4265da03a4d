"""Desk-scale experiment protocols on concentric-sphere head models.

Two reproducible pipelines mirror the published inversion studies at a
size that runs on a laptop:

* ``eeg_hypermodel``: a deep and a superficial 10 nAm dipole are localized
  from noisy EEG under the four hyperprior settings (i) G/1e-5,
  (ii) IG/1e-5, (iii) G/1e-9 and (iv) IG/1e-9, each over many noise
  realizations, and the per-case error distributions are tabulated.
* ``eit_hemorrhage``: a 30 mm conductivity anomaly (+0.73 S/m, 60 dB SNR)
  is reconstructed from linearized EIT data by serial multiresolution
  averaging, and the averaged estimate is compared against a single
  decomposition.

Both protocols derive every random stream from one master seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import ElectrodeSet, assemble_cem_system
from .inverse import (HyperModel, center_of_mass, ias_map, multires_ias,
                      normalize_problem, roi_metrics)
from .leadfield import (adjacent_pair_patterns, build_dof_map, eeg_leadfield,
                        eit_forward, eit_leadfield)
from .meshgen import generate_mesh, place_sources
from .simulate import (NoiseSpec, Phantom, dipole_signal, fibonacci_sphere_points,
                       layered_sphere_segmentation)
from .solver import PcgConfig

HYPERMODEL_CASES = (
    ("i", "G", 1e-5),
    ("ii", "IG", 1e-5),
    ("iii", "G", 1e-9),
    ("iv", "IG", 1e-9),
)


def derive_seed(master, *indices):
    """Deterministic child seed from a master seed and stream indices."""
    ss = np.random.SeedSequence([int(master), *[int(i) for i in indices]])
    return int(ss.generate_state(1)[0])


@dataclass
class EegHypermodelParams:
    """Four-layer sphere, 10 nAm dipole pair, four hyperprior cases."""

    radii: tuple = (0.079, 0.082, 0.087, 0.092)
    conductivities: tuple = (0.33, 1.79, 0.0064, 0.43)
    priorities: tuple = (2, 1, 0, 3)     # keep the thin skull/CSF layers alive
    subdivisions: int = 3
    resolution: float = 0.009
    n_electrodes: int = 32
    electrode_radius: float = 0.014
    impedance: float = 1e3
    n_sources: int = 2500
    source_seed: int = 1
    deep_position: tuple = (0.0, 0.0, 0.025)
    superficial_position: tuple = (0.0, 0.0, 0.075)
    orientation: tuple = (1.0, 0.0, 0.0)
    moment: float = 1e-8
    noise_level: float = 0.02
    realizations: int = 50
    roi_radius: float = 0.015
    nu: float = 0.02
    n_iter: int = 15
    master_seed: int = 0
    solver_tolerance: float = 1e-8
    cases: tuple = HYPERMODEL_CASES


def build_eeg_model(params):
    """Mesh, electrodes, sources and the EEG lead field for the protocol."""
    seg = layered_sphere_segmentation(params.radii, params.conductivities,
                                      params.priorities, (0,),
                                      params.subdivisions)
    mesh = generate_mesh(seg, params.resolution)
    el = ElectrodeSet.from_centers(
        mesh, fibonacci_sphere_points(params.n_electrodes, params.radii[-1]),
        radius=params.electrode_radius, impedances=params.impedance)
    src = place_sources(mesh, seg, params.n_sources, mode="unconstrained",
                        seed=params.source_seed)
    sys = assemble_cem_system(mesh, el, src)
    lf = eeg_leadfield(sys, PcgConfig(tolerance=params.solver_tolerance))
    return seg, mesh, el, src, lf


def eeg_hypermodel_experiment(params=None, progress=None):
    """Run the hypermodel comparison; returns per-realization rows and the
    per-case summary (medians and quartiles).

    Row schema: case, hypermodel, theta0, source, realization,
    position_error_mm, angle_error_deg.
    """
    params = params or EegHypermodelParams()
    seg, mesh, el, src, lf = build_eeg_model(params)

    targets = {
        "deep": np.asarray(params.deep_position, dtype=float),
        "superficial": np.asarray(params.superficial_position, dtype=float),
    }
    ori = np.asarray(params.orientation, dtype=float)
    ori = ori / np.linalg.norm(ori)
    dipoles = [(pos, ori, params.moment) for pos in targets.values()]
    y0, x_true = dipole_signal(lf, dipoles)

    # ROI: union of the two balls, restricted column set.
    in_roi = {name: np.linalg.norm(lf.positions - pos[None, :], axis=1)
              <= params.roi_radius for name, pos in targets.items()}
    union = in_roi["deep"] | in_roi["superficial"]
    roi_cols = np.flatnonzero(np.repeat(union, 3))

    L_hat, _, _ = normalize_problem(lf.matrix, y0)
    rows = []
    for r in range(params.realizations):
        noise = NoiseSpec(mode="relative-max", level=params.noise_level,
                          seed=derive_seed(params.master_seed, 1, r))
        y = y0 + noise.sample(y0)
        y_hat = y / np.abs(y).max()
        nu = params.nu * np.abs(y_hat).max()
        for case, fam, theta0 in params.cases:
            hyper = HyperModel(fam, beta=1.5, theta0=theta0)
            x = ias_map(L_hat, y_hat, hyper, nu=nu, n_iter=params.n_iter,
                        roi=roi_cols)
            for name, pos in targets.items():
                pos_err, ang_err = roi_metrics(
                    x, src.positions, pos, params.roi_radius, pos, ori)
                rows.append({
                    "case": case, "hypermodel": fam, "theta0": theta0,
                    "source": name, "realization": r,
                    "position_error_mm": pos_err,
                    "angle_error_deg": ang_err,
                })
        if progress:
            progress(r + 1, params.realizations)
    summary = summarize_hypermodel_rows(rows, params.cases)
    return rows, summary, {"x_true": x_true, "targets": targets}


def summarize_hypermodel_rows(rows, cases=HYPERMODEL_CASES):
    """Median and quartiles of the error distributions per case and source
    (the numbers behind the published box plots)."""
    summary = []
    for case, fam, theta0 in cases:
        for source in ("deep", "superficial"):
            pe = [r["position_error_mm"] for r in rows
                  if r["case"] == case and r["source"] == source]
            ae = [r["angle_error_deg"] for r in rows
                  if r["case"] == case and r["source"] == source]
            summary.append({
                "case": case, "hypermodel": fam, "theta0": theta0,
                "source": source,
                "position_error_mm_q25": float(np.percentile(pe, 25)),
                "position_error_mm_median": float(np.median(pe)),
                "position_error_mm_q75": float(np.percentile(pe, 75)),
                "angle_error_deg_q25": float(np.percentile(ae, 25)),
                "angle_error_deg_median": float(np.median(ae)),
                "angle_error_deg_q75": float(np.percentile(ae, 75)),
            })
    return summary


@dataclass
class EitHemorrhageParams:
    """Four-layer sphere with a 30 mm hemorrhage-like anomaly."""

    radii: tuple = (0.063, 0.072, 0.080, 0.092)
    conductivities: tuple = (0.33, 1.79, 0.0064, 0.43)
    priorities: tuple = (0, 0, 0, 0)
    subdivisions: int = 3
    resolution: float = 0.007
    n_electrodes: int = 16
    electrode_radius: float = 0.022
    impedance: float = 1.0
    n_dofs: int = 600
    dof_seed: int = 2
    dof_compartments: tuple = (0, 1)     # brain and CSF
    anomaly_center: tuple = (0.03, 0.0, 0.03)
    anomaly_diameter: float = 0.03
    anomaly_delta: float = 0.73
    snr_db: float = 60.0
    nu: float = 0.12
    hypermodel: str = "IG"
    beta: float = 1.5
    theta0: float = 1e-3
    n_iter: int = 2
    n_subsets: int = 100
    n_decompositions: int = 20
    n_seeds: int = 10
    master_seed: int = 0
    solver_tolerance: float = 1e-8


def build_eit_model(params):
    """Mesh, electrodes, DOF map, lead field and phantom for the protocol."""
    phantom = Phantom(radii=params.radii,
                      conductivities=params.conductivities,
                      anomaly_center=params.anomaly_center,
                      anomaly_diameter=params.anomaly_diameter,
                      anomaly_delta=params.anomaly_delta)
    seg = layered_sphere_segmentation(params.radii, params.conductivities,
                                      params.priorities, (0,),
                                      params.subdivisions)
    mesh = generate_mesh(seg, params.resolution)
    el = ElectrodeSet.from_centers(
        mesh, fibonacci_sphere_points(params.n_electrodes, params.radii[-1]),
        radius=params.electrode_radius, impedances=params.impedance)
    sys = assemble_cem_system(mesh, el)
    dofs = build_dof_map(mesh, list(params.dof_compartments), params.n_dofs,
                         seed=params.dof_seed)
    patterns = adjacent_pair_patterns(params.n_electrodes)
    cfg = PcgConfig(tolerance=params.solver_tolerance)
    lf = eit_leadfield(sys, dofs, patterns, cfg)
    return phantom, mesh, el, sys, dofs, patterns, lf


def eit_hemorrhage_experiment(params=None, progress=None):
    """Run the hemorrhage reconstruction over ``n_seeds`` noise seeds.

    Returns per-seed rows (center-of-mass error of the averaged estimate),
    the averaged and unaveraged reconstruction of the first seed, and the
    model context.
    """
    params = params or EitHemorrhageParams()
    phantom, mesh, el, sys, dofs, patterns, lf = build_eit_model(params)
    cfg = PcgConfig(tolerance=params.solver_tolerance)

    # Perturbed forward data are noise-free per seed except for the additive
    # measurement noise, so compute them once.
    sigma_p, _ = phantom.perturb_sigma(mesh)
    y_pert = np.asarray(eit_forward(sys.with_sigma(sigma_p), patterns,
                                    cfg)).T.ravel()
    y_bg = lf.background_data

    hyper = HyperModel(params.hypermodel, beta=params.beta, theta0=params.theta0)
    truth = np.asarray(params.anomaly_center, dtype=float)
    n_subsets = min(params.n_subsets, dofs.n_dofs)
    rows = []
    first = None
    for s in range(params.n_seeds):
        noise = NoiseSpec(mode="snr-db", level=params.snr_db,
                          seed=derive_seed(params.master_seed, 2, s))
        delta_y = y_pert + noise.sample(y_pert) - y_bg
        L_hat, y_hat, _ = normalize_problem(lf.matrix, delta_y)
        nu = params.nu * np.abs(y_hat).max()
        dec_seed = derive_seed(params.master_seed, 3, s)
        x_avg = multires_ias(L_hat, y_hat, dofs.centers, hyper, nu=nu,
                             n_iter=params.n_iter, n_subsets=n_subsets,
                             n_decompositions=params.n_decompositions,
                             seed=dec_seed)
        com = center_of_mass(np.abs(x_avg), dofs.centers)
        dist_mm = 1e3 * float(np.linalg.norm(com - truth))
        rows.append({
            "seed": s, "com_x": com[0], "com_y": com[1], "com_z": com[2],
            "com_error_mm": dist_mm,
            "within_radius": dist_mm <= 1e3 * phantom.anomaly_radius,
        })
        if first is None:
            x_single = multires_ias(L_hat, y_hat, dofs.centers, hyper, nu=nu,
                                    n_iter=params.n_iter,
                                    n_subsets=n_subsets,
                                    n_decompositions=1, seed=dec_seed)
            first = {"averaged": x_avg, "unaveraged": x_single}
        if progress:
            progress(s + 1, params.n_seeds)
    context = {"phantom": phantom, "dofs": dofs, "mesh": mesh,
               "leadfield": lf, "truth": truth}
    return rows, first, context
