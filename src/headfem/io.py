"""File formats and deterministic artifact writing.

Conventions shared by every artifact:

* ASCII mesh files carry one entity per line, indices one-based, floats
  with 17 significant digits (lossless round-trip).
* Matrices go to disk as little-endian float64 in column-major order with
  a JSON sidecar describing dimensions and DOF geometry.
* Tabular outputs are RFC-4180 CSV; floats use ``repr`` (shortest
  round-trip form), so reruns are byte-identical.
* JSON manifests are written with sorted keys and no timestamps.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import FormatError
from .meshgen import TetMesh


def _fmt(x):
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# tetrahedral meshes

def save_tet_mesh(mesh, prefix):
    """Write ``<prefix>_nodes.dat``, ``_tetra.dat``, ``_labels.dat`` and
    ``_sigma.dat`` (indices and labels one-based)."""
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


def load_tet_mesh(prefix):
    nodes = np.loadtxt(f"{prefix}_nodes.dat", ndmin=2)
    tetra = np.loadtxt(f"{prefix}_tetra.dat", dtype=np.int64, ndmin=2) - 1
    labels = np.loadtxt(f"{prefix}_labels.dat", dtype=np.int64).reshape(-1) - 1
    # One value per line and element is scalar sigma, six are a tensor row.
    sigma = np.loadtxt(f"{prefix}_sigma.dat", ndmin=2)
    if sigma.shape == (len(tetra), 1):
        sigma = sigma[:, 0]
    return TetMesh(nodes, tetra, labels, sigma)


# ---------------------------------------------------------------------------
# lead fields

def save_leadfield(lf, path):
    """Binary column-major little-endian matrix plus a ``.json`` sidecar."""
    mat = np.asarray(lf.matrix, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(mat.ravel(order="F").tobytes())
    side = {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "dtype": "float64",
        "byte_order": "little",
        "order": "column-major",
        "modality": lf.modality,
        "n_patterns": int(lf.n_patterns),
        "positions": _array_field(lf.positions),
        "orientations": _array_field(lf.orientations),
        "background_data": _array_field(lf.background_data),
        "background_sigma_sha256": (
            sha256_array(lf.background_sigma)
            if lf.background_sigma is not None else None),
    }
    write_json(str(path) + ".json", side)


def load_leadfield(path):
    from .leadfield import LeadField

    with open(str(path) + ".json") as fh:
        side = json.load(fh)
    raw = np.fromfile(path, dtype="<f8")
    if raw.size != side["rows"] * side["cols"]:
        raise FormatError(f"{path}: payload does not match sidecar dimensions")
    mat = raw.reshape((side["rows"], side["cols"]), order="F")
    return LeadField(
        matrix=mat,
        positions=_field_array(side["positions"]),
        orientations=_field_array(side["orientations"]),
        modality=side["modality"],
        n_patterns=side.get("n_patterns", 1),
        background_data=_field_array(side.get("background_data")),
    ), side


def _array_field(arr):
    return None if arr is None else np.asarray(arr).tolist()


def _field_array(field):
    return None if field is None else np.asarray(field, dtype=float)


def export_matrix_market(path, matrix):
    """Sparse matrices in Matrix Market coordinate format."""
    scipy.io.mmwrite(str(path), sp.coo_matrix(matrix))


def save_leadfield_csv(lf, path):
    """Plain-text alternative to the binary export (one row per electrode
    sample, one column per DOF)."""
    header = [f"dof{j}" for j in range(lf.matrix.shape[1])]
    write_csv(path, ["row"] + header,
              [[i] + list(row) for i, row in enumerate(lf.matrix)])


# ---------------------------------------------------------------------------
# CSV datasets and reconstructions

def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                        else v for v in row])


def save_dataset(path, data, n_electrodes, column_label="pattern"):
    """Electrode-by-column dataset (columns are patterns or time steps)."""
    data = np.asarray(data, dtype=float)
    cols = data.reshape(n_electrodes, -1, order="F")
    header = ["electrode"] + [f"{column_label}{j}" for j in range(cols.shape[1])]
    rows = [[i] + list(cols[i]) for i in range(n_electrodes)]
    write_csv(path, header, rows)


def load_dataset(path):
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        rows = list(r)
    data = np.array([[float(v) for v in row[1:]] for row in rows])
    return data.ravel(order="F")


def save_reconstruction(path, positions, values, mode):
    values = np.asarray(values, dtype=float)
    if mode == "constrained" or values.size == len(positions):
        header = ["dof_id", "x", "y", "z", "amplitude"]
        rows = [[i, *positions[i], values[i]] for i in range(len(positions))]
    else:
        comp = values.reshape(-1, 3)
        header = ["dof_id", "x", "y", "z", "qx", "qy", "qz"]
        rows = [[i, *positions[i], *comp[i]] for i in range(len(positions))]
    write_csv(path, header, rows)


def load_reconstruction(path):
    """(positions, values) of a :func:`save_reconstruction` file; the 1 or
    3 values per position come back flat, in the order they were given."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        arr = np.array([[float(v) for v in row] for row in r]).reshape(
            -1, len(header))
    return arr[:, 1:4], arr[:, 4:].ravel()


# ---------------------------------------------------------------------------
# manifests

def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_array(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, kind, config_digest, seeds, parameters, outputs=None,
                   inputs=None):
    """Replayable run manifest: configuration digest, seeds and parameters
    (never timestamps, so reruns hash identically).  ``inputs`` maps the
    input files the configuration names to their sha256; it is written
    only when given."""
    from . import __version__

    manifest = {
        "kind": kind,
        "version": __version__,
        "config_sha256": config_digest,
        "seeds": seeds,
        "parameters": parameters,
        "outputs": outputs or {},
    }
    if inputs is not None:
        manifest["inputs"] = inputs
    write_json(path, manifest)
    return manifest
