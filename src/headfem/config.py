"""Project configuration: a single INI file drives every pipeline.

Compartments are declared in ``[compartment:<name>]`` sections whose file
order runs innermost to outermost.  Every section and key is parsed from one
table, :data:`_SCHEMA`.  Unknown sections or keys and malformed values are
hard errors reported with their line number, so a configuration that parses
is fully understood.  The canonical JSON form of the parsed configuration is
hashed into every artifact manifest.
"""

from __future__ import annotations

import configparser
import copy
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import (
    DEFAULT_CONDUCTIVITY,
    Compartment,
    Segmentation,
    load_surface_mesh,
    load_surface_mesh_asc,
)
from .io import canonical_json, sha256_text

_REQUIRED_SECTIONS = ("mesh", "electrodes", "modality", "output")


def _find_line(path, section, key=None):
    """Line number of the ``[section]`` header, or of ``key`` inside it."""
    current = None
    with open(path) as fh:
        for no, line in enumerate(fh, start=1):
            text = line.strip()
            header = re.match(r"\[(.+)\]", text)   # configparser's header rule
            if header:
                current = header.group(1)
                if key is None and current == section:
                    return no
            elif (key is not None and current == section and
                  re.split(r"[=:]", text, maxsplit=1)[0].strip().lower() == key):
                return no
    return None


def _error(path, section, key, reason):
    return ConfigError(
        f"{path}:{_find_line(path, section, key)}: [{section}] {key}: {reason}")


@dataclass
class CompartmentSpec:
    name: str
    surfaces: list
    conductivity: object
    priority: int
    active: bool


@dataclass
class ProjectConfig:
    """Parsed and validated project configuration."""

    path: str
    base_dir: str
    raw: dict
    unit_scale: float
    compartments: list
    mesh: dict
    electrodes: dict
    sources: dict
    eit: dict
    modality: str
    solver: dict
    inversion: dict
    simulation: dict
    truth: dict | None
    experiment: dict
    output_dir: str

    @property
    def digest(self):
        return sha256_text(canonical_json(self.raw))

    def build_segmentation(self):
        comps = []
        for spec in self.compartments:
            surfaces = []
            for entry in spec.surfaces:
                paths = [os.path.join(self.base_dir, p) for p in entry]
                for p in paths:
                    if not os.path.exists(p):
                        raise FileNotFoundError(
                            f"surface file not found: {p}")
                if len(paths) == 1:
                    surfaces.append(load_surface_mesh_asc(
                        paths[0], name=spec.name, scale=self.unit_scale))
                else:
                    surfaces.append(load_surface_mesh(
                        paths[0], paths[1], name=spec.name,
                        scale=self.unit_scale))
            comps.append(Compartment(surfaces, spec.conductivity,
                                     priority=spec.priority,
                                     active=spec.active, name=spec.name))
        if not comps:
            raise ConfigError(f"{self.path}: no [compartment:*] sections")
        return Segmentation(comps)

    def compartment_index(self, name):
        for k, spec in enumerate(self.compartments):
            if spec.name == name:
                return k
        raise ConfigError(f"unknown compartment '{name}'")


# Value parsers: each takes the INI text and raises ValueError on bad input
# (OverflowError for an index beyond int64).

def _parse_floats(text, *counts):
    """Numbers separated by blanks or commas, as many as one of ``counts``."""
    vals = [float(t) for t in text.replace(",", " ").split()]
    if counts and len(vals) not in counts:
        raise ValueError(f"needs {' or '.join(map(str, counts))} numbers, "
                         f"got {len(vals)}: {text!r}")
    return vals


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"must be a boolean, got {text!r}")


def _choice(*options):
    """An enumeration, matched without regard to case."""
    def parse(text):
        for option in options:
            if text.strip().lower() == option.lower():
                return option
        raise ValueError(f"must be one of {', '.join(options)}, got {text!r}")
    return parse


def _optional(parse):
    """``parse``, except that a blank value reads as None."""
    return lambda text: parse(text) if text.strip() else None


def _vector(n):
    return lambda text: np.array(_parse_floats(text, n))


def _lines(parse):
    """A multi-line value, one ``parse`` result per line."""
    return lambda text: [parse(line) for line in text.strip().splitlines()]


def _surface_entry(line):
    entry = line.replace(";", " ").split()
    if len(entry) not in (1, 2):
        raise ValueError(
            f"surface entry must be 'nodes tris' or 'file.asc', got {line!r}")
    return entry


def _conductivity(text):
    if text.strip().lower() in DEFAULT_CONDUCTIVITY:
        return DEFAULT_CONDUCTIVITY[text.strip().lower()]
    vals = _parse_floats(text)
    if len(vals) == 1:
        return vals[0]
    if len(vals) == 6:
        return np.array(vals)
    raise ValueError(f"must be a scalar, a 6-entry tensor row, or one of "
                     f"{sorted(DEFAULT_CONDUCTIVITY)}")


def _dipole(line):
    vals = _parse_floats(line, 7)
    return np.array(vals[:3]), np.array(vals[3:6]), vals[6]


# section -> key -> (parser, value when absent).  ``[compartment:<name>]``
# sections share the "compartment" entry.
_SCHEMA = {
    "project": {"name": (str, None), "unit_scale": (float, 1.0)},
    "compartment": {"surfaces": (_lines(_surface_entry), None),
                    "conductivity": (_conductivity, 0.33),
                    "priority": (int, 0), "active": (_parse_bool, False)},
    "mesh": {"resolution": (float, 0.01), "smoothing_iterations": (int, 0),
             "smoothing_step": (float, 0.3)},
    "electrodes": {
        # One electrode per line: "x y z" or "x y z impedance".
        "positions": (_lines(lambda line: _parse_floats(line, 3, 4)), []),
        "radius": (float, 0.01), "impedance": (float, 1000.0),
        # Or explicit coverage: one-based boundary-triangle indices.
        "triangles": (_lines(lambda line: np.array(
            [int(t) - 1 for t in line.split()], dtype=np.int64)), [])},
    "sources": {"count": (int, 100),
                "mode": (_choice("constrained", "unconstrained"),
                         "unconstrained"), "seed": (int, 0)},
    "eit": {"dofs": (int, 200), "seed": (int, 0),
            "compartments": (str.split, []), "amplitude": (float, 1.0)},
    "modality": {"type": (_choice("eeg", "eit"), "eeg")},
    "solver": {"tolerance": (float, 1e-8),
               "max_iterations": (_optional(int), None)},
    "inversion": {
        "method": (_choice("map", "roi", "multires"), "map"),
        "hypermodel": (_choice("G", "IG"), "IG"),
        "beta": (float, 1.5), "theta0": (float, 1e-3),
        "nu_mode": (_choice("relative-max", "rms"), "relative-max"),
        "nu": (float, 0.03), "iterations": (int, 2), "subsets": (int, 100),
        "decompositions": (int, 20), "seed": (int, 0),
        "normalize": (_parse_bool, True),
        "roi_center": (_optional(_vector(3)), None),
        "roi_radius": (float, 0.015)},
    "simulation": {
        "noise_mode": (_choice("relative-max", "snr-db"), "relative-max"),
        "noise_level": (float, 0.02), "seed": (int, 0),
        "dipoles": (_lines(_dipole), []),
        "anomaly": (_optional(lambda text: _parse_floats(text, 5)), None)},
    "truth": {"position": (_vector(3), None),
              "orientation": (_vector(3), None), "roi_radius": (float, 0.015)},
    "experiment": {"realizations": (int, None), "n_seeds": (int, None),
                   "master_seed": (int, 0), "resolution": (float, None),
                   "electrodes": (int, None), "sources": (int, None),
                   "dofs": (int, None), "iterations": (int, None)},
    "output": {"dir": (str, "out")},
}


def _parse_section(path, section, schema, sec):
    """Check, parse and default the keys of one section."""
    for key in sec:
        if key not in schema:
            raise _error(path, section, key, "unknown key")
    values = {}
    for key, (parse, default) in schema.items():
        try:
            values[key] = parse(sec[key]) if key in sec else copy.copy(default)
        except (ValueError, OverflowError) as exc:
            raise _error(path, section, key, exc) from None
    return values


def load_config(path):
    """Parse and validate an INI project file."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    # No header can name "", so [DEFAULT] is an ordinary (unknown) section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")

    raw, opts, compartments = {}, {}, []
    for section in parser.sections():
        base = section.split(":", 1)[0].strip().lower()
        if base not in _SCHEMA:
            raise ConfigError(f"{path}:{_find_line(path, section)}: "
                              f"unknown section [{section}]")
        raw[section] = dict(parser.items(section))
        opts[section] = _parse_section(path, section, _SCHEMA[base],
                                       raw[section])
        if base == "compartment":
            compartments.append(_compartment_spec(path, section, opts[section]))

    for required in _REQUIRED_SECTIONS:
        if required not in raw:
            raise ConfigError(f"{path}: missing required section [{required}]")
    for name, schema in _SCHEMA.items():     # absent sections: all defaults
        if name not in opts:
            opts[name] = _parse_section(path, name, schema, {})

    return ProjectConfig(
        path=str(path), base_dir=os.path.dirname(os.path.abspath(path)),
        raw=raw, unit_scale=opts["project"]["unit_scale"],
        compartments=compartments, mesh=opts["mesh"],
        electrodes=_electrode_options(path, opts["electrodes"]),
        sources=opts["sources"], eit=opts["eit"],
        modality=opts["modality"]["type"], solver=opts["solver"],
        inversion=opts["inversion"], simulation=opts["simulation"],
        truth=opts["truth"] if "truth" in raw else None,
        experiment=opts["experiment"], output_dir=opts["output"]["dir"])


def _compartment_spec(path, section, values):
    if values["surfaces"] is None:
        raise ConfigError(f"{path}:{_find_line(path, section)}: "
                          f"[{section}] needs a surfaces key")
    name = section.split(":", 1)[1].strip() if ":" in section else section
    return CompartmentSpec(name=name, **values)


def _electrode_options(path, values):
    """Positions and triangles exclude each other, and the ``impedance``
    value fills every position line that gives none."""
    lines, triangles = values["positions"], values["triangles"]
    if lines and triangles:
        raise _error(path, "electrodes", "triangles",
                     "give either positions or triangles, not both")
    z = values["impedance"]
    return {
        "positions": np.array([v[:3] for v in lines]) if lines
            else np.zeros((0, 3)),
        "impedances": np.array([v[3] if len(v) == 4 else z for v in lines])
            if lines else np.full(len(triangles), z),
        "triangles": triangles,
        "radius": values["radius"],
    }
