"""Command-line pipelines: mesh, leadfield, simulate, invert, experiment,
metrics.

Every subcommand reads one INI project file, writes its artifacts plus a
replayable JSON manifest into the output directory, and exits with 0 on
success, 2 on configuration/IO problems, or 3 on runtime/numerical
failures.  All outputs are byte-deterministic for a fixed configuration
and seed.

``leadfield`` reads the mesh and ``simulate`` the lead field (EIT: and the
mesh) from ``--output`` or else the project's ``[output] dir``, and builds
them only when no artifact there is current.  An artifact is current when
its manifest records today's configuration hash, the sha256 of every
surface file the configuration names (``inputs``) and of every artifact
file, the lead-field sidecar included.  ``invert`` refuses a lead field
whose manifest does not record today's ``inputs`` and file hashes.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import io as hio
from .config import load_config
from .errors import (
    ComputationError,
    ConfigError,
    DataError,
    SetupError,
    UndefinedMetricError,
)
from .fem import ElectrodeSet, assemble_cem_system
from .inverse import (
    HyperModel,
    ias_map,
    multires_ias,
    normalize_problem,
    roi_metrics,
)
from .leadfield import (
    adjacent_pair_patterns,
    build_dof_map,
    eeg_leadfield,
    eit_forward,
    eit_leadfield,
)
from .meshgen import generate_mesh, place_sources, smooth_mesh
from .simulate import NoiseSpec, dipole_signal, perturb_sigma_ball
from .solver import PcgConfig

logger = logging.getLogger(__name__)


def _pcg_config(cfg):
    return PcgConfig(tolerance=cfg.solver["tolerance"],
                     max_iterations=cfg.solver["max_iterations"])


def _resolve(cfg, path):
    return path if os.path.isabs(path) else os.path.join(cfg.base_dir, path)


def _outdir(cfg, args):
    out = _resolve(cfg, args.output or cfg.output_dir)
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# verified artifacts
#
# The files of each reusable stage by manifest output key; the lead-field
# sidecar carries the DOF positions and the EIT background data.

_ARTIFACTS = {
    "mesh": ("mesh_manifest.json",
             {f"mesh_{part}": f"mesh_{part}.dat"
              for part in ("nodes", "tetra", "labels", "sigma")}),
    "leadfield": ("leadfield_manifest.json",
                  {"leadfield": "leadfield.bin",
                   "leadfield_sidecar": "leadfield.bin.json"}),
}


def _input_hashes(cfg):
    """sha256 of every surface file the configuration names, keyed by its
    name in the INI; ``cfg.digest`` covers the INI text only."""
    return {name: hio.sha256_file(_resolve(cfg, name))
            for spec in cfg.compartments
            for entry in spec.surfaces for name in entry}


def _output_hashes(out, stage):
    return {key: hio.sha256_file(os.path.join(out, name))
            for key, name in _ARTIFACTS[stage][1].items()}


def _stale_reason(directory, stage, inputs, digest=None, files=None):
    """Why the ``stage`` artifact in ``directory`` does not verify, or None.
    ``files`` (output key -> path) defaults to the stage's files there;
    ``digest``, when given, must be the recorded configuration hash."""
    manifest, names = _ARTIFACTS[stage]
    files = files or {key: os.path.join(directory, name)
                      for key, name in names.items()}
    try:
        with open(os.path.join(directory, manifest)) as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        return "no manifest"
    except (OSError, ValueError):
        return "unparsable manifest"
    if not (isinstance(recorded, dict)
            and isinstance(recorded.get("outputs"), dict)):
        return "unparsable manifest"
    if digest is not None and recorded.get("config_sha256") != digest:
        return "config changed"
    if recorded.get("inputs") != inputs:
        return "input changed"
    for key, path in files.items():
        if (not os.path.isfile(path)
                or recorded["outputs"].get(key) != hio.sha256_file(path)):
            return "hash mismatch"
    return None


def _find_artifact(cfg, out, stage, inputs, unsaved=None):
    """The directory of a reusable ``stage`` artifact, or None.

    Looks in the command's output directory ``out``, then in the project's
    ``[output] dir``, and logs one line: which directory was reused, or
    why each was stale (after the warning ``unsaved``, if given).
    """
    reasons = []
    for directory in dict.fromkeys(
            os.path.abspath(d) for d in (out, _resolve(cfg, cfg.output_dir))):
        reason = _stale_reason(directory, stage, inputs, cfg.digest)
        if reason is None:
            logger.info("%s: reused %s", stage, directory)
            return directory
        reasons.append(f"{directory}: {reason}")
    if unsaved:
        logger.warning(unsaved)
    logger.info("%s: built (%s)", stage, "; ".join(reasons))
    return None


# ---------------------------------------------------------------------------
# stages

def _build_mesh(cfg):
    mesh = generate_mesh(cfg.build_segmentation(), cfg.mesh["resolution"])
    if cfg.mesh["smoothing_iterations"] > 0:
        mesh = smooth_mesh(mesh, cfg.mesh["smoothing_iterations"],
                           cfg.mesh["smoothing_step"])
    return mesh


def _mesh(cfg, out, inputs):
    """The project mesh, read from a verified artifact or built."""
    found = _find_artifact(cfg, out, "mesh", inputs)
    if found is None:
        return _build_mesh(cfg)
    return hio.load_tet_mesh(os.path.join(found, "mesh"))


def _build_electrodes(cfg, mesh):
    if cfg.electrodes["triangles"]:
        return ElectrodeSet(mesh, cfg.electrodes["triangles"],
                            cfg.electrodes["impedances"])
    pos = cfg.electrodes["positions"]
    if len(pos) == 0:
        raise ConfigError(f"{cfg.path}: no electrodes defined")
    return ElectrodeSet.from_centers(mesh, pos, cfg.electrodes["radius"],
                                     cfg.electrodes["impedances"])


def _build_leadfield(cfg, mesh):
    electrodes = _build_electrodes(cfg, mesh)
    pcg = _pcg_config(cfg)
    if cfg.modality == "eeg":
        src = place_sources(mesh, cfg.build_segmentation(),
                            cfg.sources["count"], mode=cfg.sources["mode"],
                            seed=cfg.sources["seed"])
        return eeg_leadfield(assemble_cem_system(mesh, electrodes, src), pcg)
    comp_ids = [cfg.compartment_index(n) for n in cfg.eit["compartments"]] \
        or [0]
    dofs = build_dof_map(mesh, comp_ids, cfg.eit["dofs"], seed=cfg.eit["seed"])
    patterns = adjacent_pair_patterns(electrodes.count, cfg.eit["amplitude"])
    return eit_leadfield(assemble_cem_system(mesh, electrodes), dofs,
                         patterns, pcg)


def _leadfield(cfg, out, inputs, mesh=None):
    """The project lead field, read from a verified artifact or built in
    memory on ``mesh`` (by default the project mesh)."""
    found = _find_artifact(cfg, out, "leadfield", inputs, unsaved=(
        "leadfield: the lead field built now is not saved "
        "(`headfem leadfield` writes one)"))
    if found is None:
        return _build_leadfield(
            cfg, mesh if mesh is not None else _mesh(cfg, out, inputs))
    lf, _ = hio.load_leadfield(os.path.join(found, "leadfield.bin"))
    # The C order of a built lead field, so products with it round alike.
    return replace(lf, matrix=np.ascontiguousarray(lf.matrix))


def _leadfield_seeds(cfg):
    if cfg.modality == "eeg":
        return {"sources": cfg.sources["seed"]}
    return {"dofs": cfg.eit["seed"]}


def cmd_mesh(cfg, args):
    out = _outdir(cfg, args)
    inputs = _input_hashes(cfg)
    mesh = _build_mesh(cfg)
    prefix = os.path.join(out, "mesh")
    hio.save_tet_mesh(mesh, prefix)
    hio.write_manifest(
        os.path.join(out, "mesh_manifest.json"), "mesh", cfg.digest,
        seeds={}, parameters={
            "resolution": cfg.mesh["resolution"],
            "smoothing_iterations": cfg.mesh["smoothing_iterations"],
            "smoothing_step": cfg.mesh["smoothing_step"],
            "n_nodes": mesh.n_nodes,
            "n_elements": mesh.n_elements,
            "compartments": [c.name for c in cfg.compartments],
        }, outputs=_output_hashes(out, "mesh"), inputs=inputs)
    print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements -> {prefix}_*.dat")
    return 0


def cmd_leadfield(cfg, args):
    out = _outdir(cfg, args)
    inputs = _input_hashes(cfg)
    lf = _build_leadfield(cfg, _mesh(cfg, out, inputs))
    if cfg.modality == "eeg":
        extra = {"sources": cfg.sources["count"], "mode": cfg.sources["mode"]}
    else:
        extra = {"dofs": cfg.eit["dofs"], "patterns": lf.n_patterns}
    path = os.path.join(out, "leadfield.bin")
    hio.save_leadfield(lf, path)
    hio.write_manifest(
        os.path.join(out, "leadfield_manifest.json"), "leadfield", cfg.digest,
        seeds=_leadfield_seeds(cfg), parameters={
            "modality": cfg.modality, "rows": lf.matrix.shape[0],
            "cols": lf.matrix.shape[1], **extra,
        }, outputs=_output_hashes(out, "leadfield"), inputs=inputs)
    print(f"leadfield: {lf.matrix.shape[0]} x {lf.matrix.shape[1]} "
          f"({cfg.modality}) -> {path}")
    return 0


def cmd_simulate(cfg, args):
    out = _outdir(cfg, args)
    seed = args.seed if args.seed is not None else cfg.simulation["seed"]
    noise = NoiseSpec(mode=cfg.simulation["noise_mode"],
                      level=cfg.simulation["noise_level"], seed=seed)
    inputs = _input_hashes(cfg)
    truth = {}
    if cfg.modality == "eeg":
        dipoles = cfg.simulation["dipoles"]
        if not dipoles:
            raise ConfigError(f"{cfg.path}: [simulation] dipoles missing")
        lf = _leadfield(cfg, out, inputs)
        y0, _ = dipole_signal(lf, dipoles)
        y = y0 + noise.sample(y0)
        n_cols = 1
        truth["dipoles"] = [[*map(float, p), *map(float, o), float(m)]
                            for p, o, m in dipoles]
    else:
        anomaly = cfg.simulation["anomaly"]
        if anomaly is None:
            raise ConfigError(f"{cfg.path}: [simulation] anomaly missing")
        mesh = _mesh(cfg, out, inputs)
        lf = _leadfield(cfg, out, inputs, mesh)
        electrodes = _build_electrodes(cfg, mesh)
        cx, cy, cz, diameter, delta = anomaly
        sigma_p, _ = perturb_sigma_ball(mesh, (cx, cy, cz), diameter, delta)
        patterns = adjacent_pair_patterns(electrodes.count,
                                          cfg.eit["amplitude"])
        perturbed = assemble_cem_system(mesh.with_sigma(sigma_p), electrodes)
        y_pert = np.asarray(eit_forward(perturbed, patterns,
                                        _pcg_config(cfg))).T.ravel()
        y = y_pert + noise.sample(y_pert)
        n_cols = patterns.shape[1]
        bg = os.path.join(out, "data_background.csv")
        hio.save_dataset(bg, lf.background_data, electrodes.count)
        truth["anomaly"] = [float(v) for v in anomaly]

    path = os.path.join(out, "data.csv")
    hio.save_dataset(path, y, lf.n_electrodes)
    hio.write_manifest(
        os.path.join(out, "data_manifest.json"), "simulate", cfg.digest,
        seeds={**_leadfield_seeds(cfg), "noise": seed}, parameters={
            "modality": cfg.modality, "noise_mode": noise.mode,
            "noise_level": noise.level, "columns": n_cols, "truth": truth,
        }, outputs={"data": hio.sha256_file(path)})
    print(f"data: {len(y)} values -> {path}")
    return 0


def _likelihood_std(inv, y):
    if inv["nu_mode"] == "relative-max":
        return inv["nu"] * np.abs(y).max()
    return inv["nu"] * np.sqrt(np.mean(y**2))


def cmd_invert(cfg, args):
    out = _outdir(cfg, args)
    if not args.data:
        raise ConfigError("invert requires --data")
    lf_path = args.leadfield or os.path.join(out, "leadfield.bin")
    if not os.path.exists(lf_path):
        raise FileNotFoundError(f"lead field not found: {lf_path}")
    if not os.path.exists(args.data):
        raise FileNotFoundError(f"data file not found: {args.data}")
    # No configuration hash: [inversion] may change between inversions.
    reason = _stale_reason(os.path.dirname(lf_path), "leadfield",
                           _input_hashes(cfg), files={
                               "leadfield": lf_path,
                               "leadfield_sidecar": f"{lf_path}.json"})
    if reason is not None:
        raise DataError(f"lead field {lf_path} does not verify ({reason}); "
                        "`headfem leadfield` writes a current one")
    lf, side = hio.load_leadfield(lf_path)
    y = hio.load_dataset(args.data)
    if y.size != lf.matrix.shape[0]:
        raise DataError(f"data length {y.size} != lead field rows "
                        f"{lf.matrix.shape[0]}")
    if lf.modality == "eit":
        if lf.background_data is None:
            raise DataError("EIT lead field carries no background data")
        y = y - lf.background_data

    inv = cfg.inversion
    seed = args.seed if args.seed is not None else inv["seed"]
    hyper = HyperModel(inv["hypermodel"], beta=inv["beta"],
                       theta0=inv["theta0"])
    if inv["normalize"]:
        L_hat, y_hat, x_scale = normalize_problem(lf.matrix, y)
    else:
        L_hat, y_hat, x_scale = lf.matrix, y, 1.0
    nu = _likelihood_std(inv, y_hat)

    positions = lf.positions
    if inv["method"] == "roi":
        if inv["roi_center"] is None:
            raise ConfigError("[inversion] roi_center required in roi mode")
        comp = 1 if (lf.orientations is not None or lf.modality == "eit") else 3
        in_roi = np.linalg.norm(positions - inv["roi_center"][None, :],
                                axis=1) <= inv["roi_radius"]
        x = ias_map(L_hat, y_hat, hyper, nu=nu, n_iter=inv["iterations"],
                    roi=np.flatnonzero(np.repeat(in_roi, comp)))
    elif inv["method"] == "multires":
        if lf.modality == "eeg" and lf.orientations is None:
            raise DataError("multiresolution mode needs one column per DOF "
                            "(constrained EEG or EIT lead fields)")
        x = multires_ias(L_hat, y_hat, positions, hyper, nu=nu,
                         n_iter=inv["iterations"], n_subsets=inv["subsets"],
                         n_decompositions=inv["decompositions"], seed=seed)
    else:
        x = ias_map(L_hat, y_hat, hyper, nu=nu, n_iter=inv["iterations"])
    x = x * x_scale
    # Score before the first write: a failed score leaves no reconstruction
    # without a manifest.
    metrics = None
    if cfg.truth is not None and cfg.truth["position"] is not None:
        metrics = _score(cfg, positions, x, lf.orientations)

    rec_path = os.path.join(out, "reconstruction.csv")
    mode = "constrained" if (lf.orientations is not None
                             or lf.modality == "eit") else "unconstrained"
    hio.save_reconstruction(rec_path, positions, x, mode)
    outputs = {"reconstruction": hio.sha256_file(rec_path)}
    if metrics:
        outputs["metrics"] = _write_metrics(out, metrics)

    hio.write_manifest(
        os.path.join(out, "reconstruction_manifest.json"), "invert",
        cfg.digest, seeds={"inversion": seed},
        parameters={"method": inv["method"], "hypermodel": hyper.family,
                    "beta": hyper.beta, "theta0": hyper.theta0,
                    "nu": nu, "nu_mode": inv["nu_mode"],
                    "iterations": inv["iterations"],
                    "normalize": inv["normalize"],
                    "argmax_dof": int(np.argmax(np.abs(x)))},
        outputs=outputs)
    print(f"reconstruction: {x.size} values -> {rec_path} "
          f"(argmax DOF {int(np.argmax(np.abs(x)))})")
    if metrics:
        print(f"metrics: position_error_mm={metrics['position_error_mm']:.3f}")
    return 0


def _score(cfg, positions, x, orientations=None):
    """Score ``x`` against ``[truth]`` with :func:`roi_metrics`; a zero
    mean orientation vector gives a null angle."""
    truth = cfg.truth
    common = (x, positions, truth["position"], truth["roi_radius"],
              truth["position"])
    try:
        pos_err, angle = roi_metrics(*common, truth["orientation"],
                                     orientations)
    except UndefinedMetricError:
        pos_err, angle = roi_metrics(*common)   # all-zero amplitudes re-raise
    return {"position_error_mm": pos_err, "angle_error_deg": angle}


def _write_metrics(out, metrics):
    """Write ``metrics.json`` and return its sha256."""
    path = os.path.join(out, "metrics.json")
    hio.write_json(path, metrics)
    return hio.sha256_file(path)


# [experiment] key -> field of the experiment's parameter dataclass.
_EXPERIMENT_FIELDS = {"realizations": "realizations", "n_seeds": "n_seeds",
                      "resolution": "resolution", "electrodes": "n_electrodes",
                      "sources": "n_sources", "dofs": "n_dofs",
                      "iterations": "n_iter"}


def _experiment_params(cfg, params):
    """``params`` with the ``[experiment]`` keys it has a field for."""
    names = {f.name for f in fields(params)}
    return replace(params, **{
        attr: cfg.experiment[key] for key, attr in _EXPERIMENT_FIELDS.items()
        if attr in names and cfg.experiment[key] is not None})


def cmd_experiment(cfg, args):
    from . import experiments as ex

    out = _outdir(cfg, args)
    master = args.seed if args.seed is not None else cfg.experiment["master_seed"]
    if args.name == "eeg-hypermodel":
        params = _experiment_params(cfg, ex.EegHypermodelParams(
            master_seed=master))
        rows, summary, _ = ex.eeg_hypermodel_experiment(params)
        header = ["case", "hypermodel", "theta0", "source", "realization",
                  "position_error_mm", "angle_error_deg"]
        hio.write_csv(os.path.join(out, "hypermodel_realizations.csv"), header,
                      [[r[k] for k in header] for r in rows])
        sh = list(summary[0].keys())
        hio.write_csv(os.path.join(out, "hypermodel_summary.csv"), sh,
                      [[s[k] for k in sh] for s in summary])
        outputs = {n: hio.sha256_file(os.path.join(out, n)) for n in
                   ("hypermodel_realizations.csv", "hypermodel_summary.csv")}
        parameters = {"name": args.name, "realizations": params.realizations,
                      "cases": [list(c) for c in params.cases]}
    elif args.name == "eit-hemorrhage":
        params = _experiment_params(cfg, ex.EitHemorrhageParams(
            master_seed=master))
        rows, first, ctx = ex.eit_hemorrhage_experiment(params)
        header = ["seed", "com_x", "com_y", "com_z", "com_error_mm",
                  "within_radius"]
        hio.write_csv(os.path.join(out, "hemorrhage_seeds.csv"), header,
                      [[r[k] for k in header] for r in rows])
        hits = sum(r["within_radius"] for r in rows)
        hio.write_csv(os.path.join(out, "hemorrhage_summary.csv"),
                      ["n_seeds", "hits", "median_error_mm"],
                      [[params.n_seeds, hits,
                        float(np.median([r["com_error_mm"] for r in rows]))]])
        centers = ctx["dofs"].centers
        hio.save_reconstruction(os.path.join(out, "reconstruction_averaged.csv"),
                                centers, first["averaged"], "constrained")
        hio.save_reconstruction(
            os.path.join(out, "reconstruction_unaveraged.csv"),
            centers, first["unaveraged"], "constrained")
        outputs = {n: hio.sha256_file(os.path.join(out, n)) for n in
                   ("hemorrhage_seeds.csv", "hemorrhage_summary.csv",
                    "reconstruction_averaged.csv",
                    "reconstruction_unaveraged.csv")}
        parameters = {"name": args.name, "n_seeds": params.n_seeds,
                      "subsets": params.n_subsets,
                      "decompositions": params.n_decompositions}
    else:
        raise ConfigError(f"unknown experiment '{args.name}'")

    hio.write_manifest(os.path.join(out, "experiment_manifest.json"),
                       "experiment", cfg.digest, seeds={"master": master},
                       parameters=parameters, outputs=outputs)
    print(f"experiment {args.name}: artifacts in {out}")
    return 0


def cmd_metrics(cfg, args):
    out = _outdir(cfg, args)
    if not args.reconstruction:
        raise ConfigError("metrics requires --reconstruction")
    if cfg.truth is None or cfg.truth["position"] is None:
        raise ConfigError("metrics requires a [truth] section with a position")
    metrics = _score(cfg, *hio.load_reconstruction(args.reconstruction))
    _write_metrics(out, metrics)
    print(f"metrics: position_error_mm={metrics['position_error_mm']:.3f}")
    return 0


_COMMANDS = {
    "mesh": cmd_mesh,
    "leadfield": cmd_leadfield,
    "simulate": cmd_simulate,
    "invert": cmd_invert,
    "experiment": cmd_experiment,
    "metrics": cmd_metrics,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="headfem",
        description="FEM forward and inverse pipelines for EEG/EIT head imaging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "experiment":
            p.add_argument("name", choices=["eeg-hypermodel", "eit-hemorrhage"])
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", default=None)
        if name == "invert":
            p.add_argument("--data", default=None)
            p.add_argument("--leadfield", default=None)
        if name == "metrics":
            p.add_argument("--reconstruction", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
