"""File formats and deterministic artifact writing.

Conventions shared by every artifact:

* ASCII mesh and surface files carry one entity per line, indices
  one-based, floats with 17 significant digits (lossless round-trip).
* Matrices go to disk as little-endian float64 in column-major order with
  a JSON sidecar describing dimensions and DOF geometry.
* Tabular outputs are RFC-4180 CSV; floats use ``repr`` (shortest
  round-trip form), so reruns are byte-identical.
* JSON manifests are written with sorted keys and no timestamps.
* Every writer returns the sha256 of the bytes it wrote (per file, where it
  writes several), so no output is read back to be hashed.
* Numeric text, CSV included, is read by :func:`_parse_table` (one row per
  line, ``#`` comments) from bytes (``parse_*``; ``load_*`` reads the file)
  and written by :func:`_write_rows`: one ``%`` row template per block of
  Python floats and ints (never numpy 2's ``np.float64(...)``).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError
from .meshgen import TetMesh


def _write_rows(fh, template, table):
    """Write each row of the array ``table`` (1-D: one cell per row)
    through the ``%`` row ``template``, one call per 65,536 rows."""
    for block in np.split(table, range(1 << 16, len(table), 1 << 16)):
        fh.write(template * len(block) % tuple(block.ravel().tolist()))


class _HashedFile:
    """A file opened for binary writing whose ``write`` takes text (written
    UTF-8 encoded) or bytes; ``sha256`` hashes all it wrote."""

    def __init__(self, path):
        self._fh, self.sha256 = open(path, "wb"), hashlib.sha256()

    def write(self, data):
        data = data.encode() if isinstance(data, str) else data
        self.sha256.update(data)
        self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


# ---------------------------------------------------------------------------
# tetrahedral meshes

def save_tet_mesh(mesh, prefix):
    """Write ``<prefix>_nodes.dat``, ``_tetra.dat``, ``_labels.dat`` and
    ``_sigma.dat`` (indices and labels one-based); the sha256 by part."""
    hashes = {}
    for part, table, cell in (("nodes", mesh.nodes, "%.17g"),
                              ("tetra", mesh.tetra + 1, "%d"),
                              ("labels", mesh.labels + 1, "%d"),
                              ("sigma", mesh.sigma, "%.17g")):
        cols = table.shape[1] if table.ndim == 2 else 1
        with _HashedFile(f"{prefix}_{part}.dat") as fh:
            _write_rows(fh, " ".join([cell] * cols) + "\n", table)
        hashes[part] = fh.sha256.hexdigest()
    return hashes


def load_tet_mesh(prefix):
    return parse_tet_mesh(lambda p: Path(f"{prefix}_{p}.dat").read_bytes())


def _uncommented(data):
    """``data`` with LF line ends and no text from a ``#`` to its line end."""
    if b"#" in data:
        return b"\n".join(ln.partition(b"#")[0] for ln in data.splitlines())
    return (data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            if b"\r" in data else data)


def _parse_table(data, dtype, widths, name):
    """The table that the bytes ``data`` hold one row per line, parsed in
    one ``np.fromstring`` pass.  Text after a ``#`` and blank lines are
    skipped; every other line holds the same number of values, one of
    ``widths``.  Any failure raises :class:`FormatError` naming ``name``."""
    data = _uncommented(data)
    # Values per line: token starts (a byte above the space after one that
    # is not) before each line end.
    ink = np.frombuffer(b" " + data, np.uint8) > 32
    starts = np.flatnonzero(ink[1:] > ink[:-1])
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == 10)
    per_line = np.diff(np.searchsorted(starts, ends), prepend=0,
                       append=len(starts))
    line = np.flatnonzero(per_line)
    if not line.size:
        raise FormatError(f"{name}: no values")
    width = per_line[line[0]]
    bad = line[per_line[line] != width] if width in widths else line
    if bad.size:
        fill = width if width in widths else " or ".join(map(str, widths))
        raise FormatError(f"{name}: the {per_line[bad[0]]} values of line "
                          f"{bad[0] + 1} do not fill a row of {fill}")
    integral = np.dtype(dtype).kind == "i"
    try:    # older numpy warns and stops at a bad token; the reshape raises
        values = np.fromstring(data, dtype, sep=" ").reshape(len(line), width)
    except ValueError:
        raise FormatError(f"{name}: " + _bad_cell(
            data, dtype, "an integer" if integral else "a number")) from None
    # fromstring saturates an integer that overflows instead of raising.
    if integral and (values.max() == np.iinfo(dtype).max
                     or values.min() == np.iinfo(dtype).min):
        raise FormatError(f"{name}: integer out of range")
    return values


def _bad_cell(data, dtype, what):
    """Where the first token of ``data`` that does not parse as ``dtype``
    stands; a token-by-token scan for the error message only."""
    for no, text in enumerate(data.split(b"\n"), start=1):
        for col, token in enumerate(text.split(), start=1):
            try:    # .item() raises unless the token is exactly one value
                np.fromstring(token, dtype, sep=" ").item()
            except ValueError:
                return (f"line {no}, column {col}: "
                        f"{token.decode(errors='replace')!r} is not {what}")
    return f"a value is not {what}"


def parse_tet_mesh(read):
    """The mesh whose ``save_tet_mesh`` file of part p holds ``read(p)``."""
    nodes = _parse_table(read("nodes"), float, (3,), "mesh nodes")
    tetra = _parse_table(read("tetra"), np.int64, (4,), "mesh tetra") - 1
    labels = _parse_table(read("labels"), np.int64, (1,), "mesh labels")
    # One value per line and element is scalar sigma, six are a tensor row.
    sigma = _parse_table(read("sigma"), float, (1, 6), "mesh sigma")
    if sigma.shape == (len(tetra), 1):
        sigma = sigma[:, 0]
    return TetMesh(nodes, tetra, labels[:, 0] - 1, sigma)


# ---------------------------------------------------------------------------
# lead fields

def save_leadfield(lf, path):
    """Binary column-major little-endian matrix plus a ``.json`` sidecar;
    the sha256 of each, matrix first."""
    mat = np.asarray(lf.matrix, dtype="<f8")
    with _HashedFile(path) as fh:
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
        "background_sigma_sha256": lf.background_sigma_sha256,
    }
    return fh.sha256.hexdigest(), write_json(str(path) + ".json", side)


def load_leadfield(path):
    return parse_leadfield(Path(path).read_bytes(),
                           Path(f"{path}.json").read_bytes(), path)


def parse_leadfield(payload, sidecar, name="lead field"):
    """The lead field and sidecar fields in the bytes of a ``.bin`` file and
    its ``.json`` sidecar: every field a builder sets, and the matrix in
    the C order a builder returns it in."""
    from .leadfield import LeadField

    side = json.loads(sidecar)
    if len(payload) != 8 * side["rows"] * side["cols"]:
        raise FormatError(f"{name}: payload does not match sidecar dimensions")
    mat = np.frombuffer(payload, dtype="<f8").reshape(
        (side["rows"], side["cols"]), order="F")
    return LeadField(
        matrix=np.ascontiguousarray(mat),
        positions=_field_array(side["positions"]),
        orientations=_field_array(side["orientations"]),
        modality=side["modality"],
        n_patterns=side.get("n_patterns", 1),
        background_sigma_sha256=side.get("background_sigma_sha256"),
        background_data=_field_array(side.get("background_data")),
    ), side


def _array_field(arr):
    return None if arr is None else np.asarray(arr).tolist()


def _field_array(field):
    return None if field is None else np.asarray(field, dtype=float)


# ---------------------------------------------------------------------------
# CSV datasets and reconstructions

def write_csv(path, header, rows):
    with _HashedFile(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                        else v for v in row])
    return fh.sha256.hexdigest()


def _write_table(path, header, table):
    """:func:`write_csv` bytes for ``header`` and the rows of ``table``, each
    behind its zero-based row index (in the table's dtype, printed by "%d")."""
    table = np.column_stack([np.arange(len(table)), table])
    with _HashedFile(path) as fh:
        csv.writer(fh).writerow(header)
        _write_rows(fh, "%d" + ",%r" * (table.shape[1] - 1) + "\r\n", table)
    return fh.sha256.hexdigest()


def save_dataset(path, data, n_electrodes):
    """Electrode-by-pattern dataset (EEG data are one pattern column)."""
    cols = np.asarray(data, dtype=float).reshape(n_electrodes, -1, order="F")
    header = ["electrode"] + [f"pattern{j}" for j in range(cols.shape[1])]
    return _write_table(path, header, cols)


def _parse_csv(data, name):
    """The numbers below the header line of the CSV bytes ``data``, parsed
    by :func:`_parse_table`: the header sets the row width, and lines count
    from the top of the file."""
    head, _, body = _uncommented(data).partition(b"\n")
    if not head.strip():
        raise FormatError(f"{name}: empty file")
    width = head.count(b",") + 1
    if not body.strip():
        return np.empty((0, width))
    return _parse_table(b"\n" + body.replace(b",", b" "), float, (width,),
                        name)


def parse_dataset(data, name="dataset"):
    """The values of the :func:`save_dataset` file that holds ``data``."""
    return _parse_csv(data, name)[:, 1:].ravel(order="F")


def load_dataset(path):
    return parse_dataset(Path(path).read_bytes(), path)


def save_reconstruction(path, positions, values, mode=None):
    """Rows of 1 (``amplitude``) or 3 (``qx, qy, qz``) values per position,
    as the value count says; ``mode`` is ignored."""
    values = np.asarray(values, dtype=float)
    n = len(positions)
    comps = {3 * n: ["qx", "qy", "qz"], n: ["amplitude"]}.get(values.size)
    if comps is None:
        raise DataError(f"{path}: {values.size} values for {n} positions")
    table = np.column_stack([positions, values.reshape(n, len(comps))])
    return _write_table(path, ["dof_id", "x", "y", "z", *comps], table)


def parse_reconstruction(data, name="reconstruction"):
    """(positions, values) of the :func:`save_reconstruction` file that
    holds ``data``; the 1 or 3 values per position come back flat, in the
    order they were given."""
    arr = _parse_csv(data, name)
    return arr[:, 1:4], arr[:, 4:].ravel()


def load_reconstruction(path):
    return parse_reconstruction(Path(path).read_bytes(), path)


# ---------------------------------------------------------------------------
# manifests

def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def write_json(path, obj):
    with _HashedFile(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return fh.sha256.hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_array(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(path, kind, config_digest, seeds, parameters, outputs=None,
                   inputs=None):
    """Replayable run manifest: configuration digest, seeds and parameters
    (never timestamps, so reruns hash identically).  ``inputs`` maps the
    input files the configuration names to their sha256; it is written
    only when given.  Returns the manifest's sha256."""
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
    return write_json(path, manifest)
