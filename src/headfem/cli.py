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
whose manifest does not record today's ``inputs`` and file hashes.  Every
input file is read once, hashed and parsed from those bytes; ``simulate``
and ``invert`` record in ``inputs`` the surface files, the artifact files
they used and (``invert``) the ``--data`` file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import fields, replace
from functools import cached_property
from pathlib import Path

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
    eit_leadfield,
)
from .meshgen import generate_mesh, place_sources, smooth_mesh
from .simulate import NoiseSpec, anomaly_signal, dipole_signal
from .solver import PcgConfig

logger = logging.getLogger(__name__)


def _pcg_config(cfg):
    return PcgConfig(tolerance=cfg.solver["tolerance"],
                     max_iterations=cfg.solver["max_iterations"])


def _outdir(cfg, args):
    out = os.path.join(cfg.base_dir, args.output or cfg.output_dir)
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


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


class _Inputs:
    """The surface files the configuration names, read once: their sha256
    by INI name (``hashes``), the segmentation of the same bytes (built on
    first use), and ``used``: the hashes plus those of reused artifacts."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._bytes = {name: Path(cfg.base_dir, name).read_bytes()
                       for spec in cfg.compartments
                       for entry in spec.surfaces for name in entry}
        self.hashes = {name: _sha256(b) for name, b in self._bytes.items()}
        self.used = dict(self.hashes)

    @cached_property
    def segmentation(self):
        return self.cfg.build_segmentation(self._bytes.__getitem__)


def _stale_reason(directory, stage, inputs, digest=None, files=None):
    """Why the ``stage`` artifact in ``directory`` does not verify against
    the surface hashes of ``inputs`` (None if it does), and the bytes of its
    files by output key, whose sha256 go to ``inputs.used``.  ``files``
    (output key -> path) defaults to the stage's files there; ``digest``,
    when given, must be the recorded configuration hash."""
    manifest, names = _ARTIFACTS[stage]
    files = files or {key: os.path.join(directory, name)
                      for key, name in names.items()}
    try:
        with open(os.path.join(directory, manifest)) as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        return "no manifest", None
    except (OSError, ValueError):
        return "unparsable manifest", None
    if not (isinstance(recorded, dict)
            and isinstance(recorded.get("outputs"), dict)):
        return "unparsable manifest", None
    if digest is not None and recorded.get("config_sha256") != digest:
        return "config changed", None
    if recorded.get("inputs") != inputs.hashes:
        return "input changed", None
    payloads = {key: Path(path).read_bytes()
                for key, path in files.items() if os.path.isfile(path)}
    hashes = {key: _sha256(data) for key, data in payloads.items()}
    if hashes != {key: recorded["outputs"].get(key) for key in files}:
        return "hash mismatch", None
    inputs.used.update(hashes)
    return None, payloads


def _find_artifact(cfg, out, stage, inputs, unsaved=None):
    """The bytes of a reusable ``stage`` artifact's files, or None.

    Looks in the command's output directory ``out``, then in the project's
    ``[output] dir``, and logs one line: which directory was reused, or
    why each was stale (after the warning ``unsaved``, if given).
    """
    reasons = []
    project_out = os.path.join(cfg.base_dir, cfg.output_dir)
    for directory in dict.fromkeys(map(os.path.abspath, (out, project_out))):
        reason, payloads = _stale_reason(directory, stage, inputs, cfg.digest)
        if reason is None:
            logger.info("%s: reused %s", stage, directory)
            return payloads
        reasons.append(f"{directory}: {reason}")
    if unsaved:
        logger.warning(unsaved)
    logger.info("%s: built (%s)", stage, "; ".join(reasons))
    return None


# ---------------------------------------------------------------------------
# stages

def _build_mesh(cfg, inputs):
    mesh = generate_mesh(inputs.segmentation, cfg.mesh["resolution"])
    if cfg.mesh["smoothing_iterations"] > 0:
        mesh = smooth_mesh(mesh, cfg.mesh["smoothing_iterations"],
                           cfg.mesh["smoothing_step"])
    return mesh


def _mesh(cfg, out, inputs):
    """The project mesh, read from a verified artifact or built."""
    found = _find_artifact(cfg, out, "mesh", inputs)
    if found is None:
        return _build_mesh(cfg, inputs)
    return hio.parse_tet_mesh(lambda part: found[f"mesh_{part}"])


def _build_electrodes(cfg, mesh):
    if cfg.electrodes["triangles"]:
        return ElectrodeSet(mesh, cfg.electrodes["triangles"],
                            cfg.electrodes["impedances"])
    return ElectrodeSet.from_centers(mesh, cfg.electrodes["positions"],
                                     cfg.electrodes["radius"],
                                     cfg.electrodes["impedances"])


def _build_leadfield(cfg, mesh, electrodes, inputs):
    pcg = _pcg_config(cfg)
    if cfg.modality == "eeg":
        src = place_sources(mesh, inputs.segmentation,
                            cfg.sources["count"], mode=cfg.sources["mode"],
                            seed=cfg.sources["seed"])
        return eeg_leadfield(assemble_cem_system(mesh, electrodes, src), pcg)
    comp_ids = [cfg.compartment_index(n) for n in cfg.eit["compartments"]] \
        or [0]
    dofs = build_dof_map(mesh, comp_ids, cfg.eit["dofs"], seed=cfg.eit["seed"])
    patterns = adjacent_pair_patterns(electrodes.count, cfg.eit["amplitude"])
    return eit_leadfield(assemble_cem_system(mesh, electrodes), dofs,
                         patterns, pcg)


def _leadfield(cfg, out, inputs, mesh=None, electrodes=None):
    """The project lead field, read from a verified artifact or built in
    memory on ``mesh`` and its ``electrodes`` (by default the project mesh
    and the electrodes built on it)."""
    found = _find_artifact(cfg, out, "leadfield", inputs, unsaved=(
        "leadfield: the lead field built now is not saved "
        "(`headfem leadfield` writes one)"))
    if found is None:
        if mesh is None:
            mesh = _mesh(cfg, out, inputs)
            electrodes = _build_electrodes(cfg, mesh)
        return _build_leadfield(cfg, mesh, electrodes, inputs)
    return hio.parse_leadfield(found["leadfield"],
                               found["leadfield_sidecar"])[0]


def _leadfield_seeds(cfg):
    if cfg.modality == "eeg":
        return {"sources": cfg.sources["seed"]}
    return {"dofs": cfg.eit["seed"]}


def cmd_mesh(cfg, args):
    out = _outdir(cfg, args)
    inputs = _Inputs(cfg)
    mesh = _build_mesh(cfg, inputs)
    prefix = os.path.join(out, "mesh")
    hashes = hio.save_tet_mesh(mesh, prefix)
    hio.write_manifest(
        os.path.join(out, "mesh_manifest.json"), "mesh", cfg.digest,
        seeds={}, parameters={
            "resolution": cfg.mesh["resolution"],
            "smoothing_iterations": cfg.mesh["smoothing_iterations"],
            "smoothing_step": cfg.mesh["smoothing_step"],
            "n_nodes": mesh.n_nodes,
            "n_elements": mesh.n_elements,
            "compartments": [c.name for c in cfg.compartments],
        }, outputs={f"mesh_{part}": sha for part, sha in hashes.items()},
        inputs=inputs.hashes)
    print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements -> {prefix}_*.dat")
    return 0


def cmd_leadfield(cfg, args):
    out = _outdir(cfg, args)
    inputs = _Inputs(cfg)
    mesh = _mesh(cfg, out, inputs)
    lf = _build_leadfield(cfg, mesh, _build_electrodes(cfg, mesh), inputs)
    if cfg.modality == "eeg":
        extra = {"sources": cfg.sources["count"], "mode": cfg.sources["mode"]}
    else:
        extra = {"dofs": cfg.eit["dofs"], "patterns": lf.n_patterns}
    path = os.path.join(out, "leadfield.bin")
    payload, sidecar = hio.save_leadfield(lf, path)
    hio.write_manifest(
        os.path.join(out, "leadfield_manifest.json"), "leadfield", cfg.digest,
        seeds=_leadfield_seeds(cfg), parameters={
            "modality": cfg.modality, "rows": lf.matrix.shape[0],
            "cols": lf.matrix.shape[1], **extra,
        }, outputs={"leadfield": payload, "leadfield_sidecar": sidecar},
        inputs=inputs.hashes)
    print(f"leadfield: {lf.matrix.shape[0]} x {lf.matrix.shape[1]} "
          f"({cfg.modality}) -> {path}")
    return 0


def cmd_simulate(cfg, args):
    out = _outdir(cfg, args)
    seed = args.seed if args.seed is not None else cfg.simulation["seed"]
    noise = NoiseSpec(mode=cfg.simulation["noise_mode"],
                      level=cfg.simulation["noise_level"], seed=seed)
    inputs = _Inputs(cfg)
    truth, outputs = {}, {}
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
        electrodes = _build_electrodes(cfg, mesh)
        lf = _leadfield(cfg, out, inputs, mesh, electrodes)
        patterns = adjacent_pair_patterns(electrodes.count,
                                          cfg.eit["amplitude"])
        y_pert = anomaly_signal(mesh, electrodes, anomaly[:3], *anomaly[3:],
                                patterns, _pcg_config(cfg))
        y = y_pert + noise.sample(y_pert)
        n_cols = patterns.shape[1]
        bg = os.path.join(out, "data_background.csv")
        outputs["data_background"] = hio.save_dataset(
            bg, lf.background_data, electrodes.count)
        truth["anomaly"] = [float(v) for v in anomaly]

    path = os.path.join(out, "data.csv")
    outputs["data"] = hio.save_dataset(path, y, lf.n_electrodes)
    hio.write_manifest(
        os.path.join(out, "data_manifest.json"), "simulate", cfg.digest,
        seeds={**_leadfield_seeds(cfg), "noise": seed}, parameters={
            "modality": cfg.modality, "noise_mode": noise.mode,
            "noise_level": noise.level, "columns": n_cols, "truth": truth,
        }, outputs=outputs,
        inputs=inputs.used)
    print(f"data: {len(y)} values -> {path}")
    return 0


def _check_finite(path, *arrays):
    """Refuse values read from ``path`` that are NaN or infinite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise DataError(f"{path}: non-finite value (nan or inf)")


def cmd_invert(cfg, args):
    out = _outdir(cfg, args)
    if not args.data:
        raise ConfigError("invert requires --data")
    lf_path = args.leadfield or os.path.join(out, "leadfield.bin")
    if not os.path.exists(lf_path):
        raise FileNotFoundError(f"lead field not found: {lf_path}")
    inputs = _Inputs(cfg)
    # No configuration hash: [inversion] may change between inversions.
    reason, payloads = _stale_reason(
        os.path.dirname(lf_path), "leadfield", inputs, files={
            "leadfield": lf_path, "leadfield_sidecar": f"{lf_path}.json"})
    if reason is not None:
        raise DataError(f"lead field {lf_path} does not verify ({reason}); "
                        "`headfem leadfield` writes a current one")
    lf, _ = hio.parse_leadfield(payloads["leadfield"],
                                payloads["leadfield_sidecar"], lf_path)
    data = Path(args.data).read_bytes()
    y = hio.parse_dataset(data, args.data)
    _check_finite(args.data, y)
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
    nu = inv["nu"] * (np.abs(y_hat).max() if inv["nu_mode"] == "relative-max"
                      else np.sqrt(np.mean(y_hat**2)))

    positions = lf.positions
    comp = lf.matrix.shape[1] // len(positions)     # columns per DOF
    if inv["method"] == "roi":
        if inv["roi_center"] is None:
            raise ConfigError("[inversion] roi_center required in roi mode")
        in_roi = np.linalg.norm(positions - inv["roi_center"][None, :],
                                axis=1) <= inv["roi_radius"]
        if not in_roi.any():
            raise ConfigError("[inversion] roi_center and roi_radius hold "
                              f"none of the {len(positions)} DOFs")
        x = ias_map(L_hat, y_hat, hyper, nu=nu, n_iter=inv["iterations"],
                    roi=np.flatnonzero(np.repeat(in_roi, comp)))
    elif inv["method"] == "multires":
        if not 1 <= inv["subsets"] <= len(positions):
            raise ConfigError(f"[inversion] subsets = {inv['subsets']} is not "
                              f"between 1 and the {len(positions)} DOFs")
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
    outputs = {"reconstruction": hio.save_reconstruction(
        rec_path, positions, x)}
    if metrics:
        outputs["metrics"] = hio.write_json(
            os.path.join(out, "metrics.json"), metrics)

    hio.write_manifest(
        os.path.join(out, "reconstruction_manifest.json"), "invert",
        cfg.digest, seeds={"inversion": seed},
        parameters={"method": inv["method"], "hypermodel": hyper.family,
                    "beta": hyper.beta, "theta0": hyper.theta0,
                    "nu": nu, "nu_mode": inv["nu_mode"],
                    "iterations": inv["iterations"],
                    "normalize": inv["normalize"],
                    "argmax_dof": int(np.argmax(np.abs(x)))},
        outputs=outputs, inputs={**inputs.used, "data": _sha256(data)})
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


def _table(rows):
    """Header (the first row's keys) and value rows of a list of row dicts."""
    header = list(rows[0])
    return header, [[r[k] for k in header] for r in rows]


def cmd_experiment(cfg, args):
    from . import experiments as ex

    out = _outdir(cfg, args)
    master = args.seed if args.seed is not None else cfg.experiment["master_seed"]
    outputs = {}

    def save(name, write, *data):
        outputs[name] = write(os.path.join(out, name), *data)

    if args.name == "eeg-hypermodel":
        params = _experiment_params(cfg, ex.EegHypermodelParams(
            master_seed=master))
        rows, summary, _ = ex.eeg_hypermodel_experiment(params)
        save("hypermodel_realizations.csv", hio.write_csv, *_table(rows))
        save("hypermodel_summary.csv", hio.write_csv, *_table(summary))
        parameters = {"name": args.name, "realizations": params.realizations,
                      "cases": [list(c) for c in params.cases]}
    elif args.name == "eit-hemorrhage":
        params = _experiment_params(cfg, ex.EitHemorrhageParams(
            master_seed=master))
        rows, first, ctx = ex.eit_hemorrhage_experiment(params)
        save("hemorrhage_seeds.csv", hio.write_csv, *_table(rows))
        hits = sum(r["within_radius"] for r in rows)
        save("hemorrhage_summary.csv", hio.write_csv,
             ["n_seeds", "hits", "median_error_mm"],
             [[params.n_seeds, hits,
               float(np.median([r["com_error_mm"] for r in rows]))]])
        centers = ctx["dofs"].centers
        for kind in ("averaged", "unaveraged"):
            save(f"reconstruction_{kind}.csv", hio.save_reconstruction,
                 centers, first[kind])
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
    data = Path(args.reconstruction).read_bytes()
    positions, values = hio.parse_reconstruction(data, args.reconstruction)
    _check_finite(args.reconstruction, positions, values)
    metrics = _score(cfg, positions, values)
    sha = hio.write_json(os.path.join(out, "metrics.json"), metrics)
    hio.write_manifest(
        os.path.join(out, "metrics_manifest.json"), "metrics", cfg.digest,
        seeds={}, parameters={}, outputs={"metrics": sha},
        inputs={"reconstruction": _sha256(data)})
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
