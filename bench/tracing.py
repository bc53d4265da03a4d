"""Spans around headfem's public functions, for the traced benchmark run.

``Tracer.install`` replaces each traced function by a wrapper that records
one span (name, start, end, parent span, round) plus counters taken from
its arguments and result, in every headfem module that holds a reference
to it; ``Tracer.remove`` puts the originals back.  Spans stay in memory and
are written out once, when the run ends.  ``layer_metrics`` turns the spans
of one round into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager


def _size(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _csr_bytes(A):
    return int(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def _points(pts):
    return len(pts) if getattr(pts, "ndim", 1) > 1 else 1


# (module, attribute or Class.method, span name, counters before, after).
# ``before`` sees the arguments, ``after`` the result and the arguments;
# both run outside the span's interval.
TARGETS = [
    ("headfem.geometry", "Segmentation.locate", "geometry.locate",
     lambda self, pts: {"points": _points(pts)}, None),
    ("headfem.geometry", "SurfaceMesh.contains", "geometry.contains",
     lambda self, pts: {"ray_tri_tests": _points(pts) * len(self.triangles)},
     None),
    ("headfem.meshgen", "generate_mesh", "meshgen.generate_mesh", None,
     lambda mesh, *a, **k: {"elements": mesh.n_elements}),
    ("headfem.meshgen", "place_sources", "meshgen.place_sources", None, None),
    ("headfem.fem", "ElectrodeSet.from_centers", "fem.electrodes", None, None),
    ("headfem.fem", "assemble_A", "fem.assemble_A", None,
     lambda A, *a, **k: {"nnz": int(A.nnz)}),
    ("headfem.fem", "assemble_B_C_R", "fem.assemble_B_C_R", None, None),
    ("headfem.fem", "assemble_G", "fem.assemble_G", None, None),
    ("headfem.fem", "assemble_cem_system", "fem.assemble_cem_system", None,
     None),
    ("headfem.solver", "transfer_matrix", "solver.transfer_matrix", None, None),
    ("headfem.solver", "pcg_solve", "solver.pcg",
     lambda A, *a, **k: {"csr_bytes": _csr_bytes(A)},
     lambda res, *a, **k: {"iterations": int(res[1])}),
    ("headfem.leadfield", "electrode_response", "leadfield.response", None,
     None),
    ("headfem.leadfield", "eeg_leadfield", "leadfield.eeg", None, None),
    ("headfem.leadfield", "eit_leadfield", "leadfield.eit", None, None),
    ("headfem.leadfield", "build_dof_map", "leadfield.dof_map", None, None),
    ("headfem.leadfield", "eit_forward", "leadfield.eit_forward", None, None),
    ("headfem.inverse", "ias_step", "inverse.ias_step", None, None),
    ("headfem.inverse", "ias_map", "inverse.ias_map", None, None),
    ("headfem.inverse", "multires_ias", "inverse.multires", None, None),
    ("headfem.inverse", "normalize_problem", "inverse.normalize", None, None),
    ("headfem.simulate", "dipole_signal", "simulate.signal", None, None),
    ("headfem.simulate", "NoiseSpec.sample", "simulate.signal", None, None),
    ("headfem.simulate", "perturb_sigma_ball", "simulate.perturb", None, None),
    ("headfem.io", "save_tet_mesh", "io.write", None,
     lambda r, mesh, prefix: {"bytes": _size(*(f"{prefix}_{part}.dat" for part
                                               in ("nodes", "tetra", "labels",
                                                   "sigma")))}),
    ("headfem.io", "save_leadfield", "io.write", None,
     lambda r, lf, path: {"bytes": _size(path, f"{path}.json")}),
    *[("headfem.io", fn, "io.write", None,
       lambda r, path, *a, **k: {"bytes": _size(path)})
      for fn in ("save_dataset", "save_reconstruction", "write_csv",
                 "write_json", "write_manifest")],
    ("headfem.io", "load_leadfield", "io.read", None,
     lambda r, path: {"bytes": _size(path, f"{path}.json")}),
    ("headfem.io", "load_dataset", "io.read", None,
     lambda r, path: {"bytes": _size(path)}),
    *[("headfem.io", fn, "io.hash", None, None)
      for fn in ("sha256_file", "sha256_array", "sha256_text")],
    ("headfem.config", "load_config", "config.load", None, None),
    ("headfem.config", "ProjectConfig.build_segmentation",
     "config.segmentation", None, None),
]


class Tracer:
    """In-memory span recorder that patches headfem while installed."""

    def __init__(self):
        self.spans = []
        self.round = 0
        self.overhead_s = {}            # round -> seconds spent in wrappers
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name, **counters):
        rec = {"id": len(self.spans), "name": name, "round": self.round,
               "parent": self._stack[-1] if self._stack else None,
               **counters}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            counters = before(*args, **kwargs) if before else {}
            with self.span(name, **counters) as rec:
                result = fn(*args, **kwargs)
            if after:
                rec.update(after(result, *args, **kwargs))
            self.overhead_s[rec["round"]] = (
                self.overhead_s.get(rec["round"], 0.0) + rec["start"] - t_in
                + time.perf_counter() - rec["end"])
            return result
        return traced

    def install(self):
        for module_name, attr, name, before, after in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name,
                                                     before, after))
                else:
                    wrapped = self._wrap(raw, name, before, after)
                setattr(cls, meth, wrapped)
                self._patches.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, before, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "headfem" and not mod_name.startswith("headfem."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))

    def remove(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one round

PER_LAYER = {
    "geometry.locate_s": "s", "geometry.locate_points": "count",
    "geometry.ray_tri_tests": "count",
    "meshgen.generate_mesh_s": "s", "meshgen.self_s": "s",
    "meshgen.generate_mesh_calls": "count", "meshgen.elements": "count",
    "meshgen.place_sources_s": "s",
    "fem.electrodes_s": "s", "fem.assemble_A_s": "s",
    "fem.assemble_B_C_R_s": "s", "fem.assemble_G_s": "s", "fem.A_nnz": "count",
    "solver.pcg_s": "s", "solver.pcg_solves": "count",
    "solver.pcg_iterations": "count", "solver.pcg_iterations_max": "count",
    "solver.spmv_bytes": "bytes",
    "leadfield.response_s": "s", "leadfield.eeg_s": "s", "leadfield.eit_s": "s",
    "leadfield.self_s": "s", "leadfield.dof_map_s": "s",
    "leadfield.eit_forward_s": "s", "leadfield.builds": "count",
    "inverse.ias_steps": "count", "inverse.ias_step_s": "s",
    "inverse.ias_map_p50_ms": "ms", "inverse.multires_s": "s",
    "inverse.self_s": "s", "inverse.normalize_s": "s",
    "simulate.signal_s": "s", "simulate.perturb_s": "s",
    "io.write_s": "s", "io.bytes_written": "bytes", "io.read_s": "s",
    "io.bytes_read": "bytes", "io.hash_s": "s",
    "config.load_s": "s", "config.segmentation_s": "s",
    "cli.mesh_s": "s", "cli.leadfield_s": "s", "cli.simulate_s": "s",
    "cli.invert_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_pct": "%",
}


def layer_metrics(all_spans, round_id, wall_s, overhead_s):
    """Per-layer metrics of one traced round.

    ``overhead_s`` is the time the round spent in the tracer's wrappers
    outside the spans they record; ``trace.overhead_pct`` gives it as a
    share of the round's wall time without it.

    A total counts only the outermost span of a name, so nested calls of
    the same function are not counted twice.  A self time is a span's
    duration minus the part its children (or its named descendants) cover.
    """
    children = {}
    for s in all_spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    spans = [s for s in all_spans if s["round"] == round_id]

    def dur(s):
        return s["end"] - s["start"]

    def nested_in(s, names):
        p = s["parent"]
        while p is not None:
            if all_spans[p]["name"] in names:
                return True
            p = all_spans[p]["parent"]
        return False

    def outermost(names):
        return [s for s in spans if s["name"] in names
                and not nested_in(s, names)]

    def total(*names):
        return sum(dur(s) for s in outermost(names))

    def count(*names):
        return sum(1 for s in spans if s["name"] in names)

    def add(key, *names):
        return sum(s.get(key, 0) for s in outermost(names))

    def covered(s, names):
        """Time inside ``s`` spent in the outermost descendants named
        ``names``."""
        out, todo = 0.0, list(children.get(s["id"], []))
        while todo:
            c = todo.pop()
            if c["name"] in names:
                out += dur(c)
            else:
                todo.extend(children.get(c["id"], []))
        return out

    def self_time(parents, names=None):
        tops = outermost(parents)
        if names is None:
            return sum(dur(s) - sum(dur(c) for c in children.get(s["id"], []))
                       for s in tops)
        return sum(dur(s) - covered(s, names) for s in tops)

    pcg = [s for s in spans if s["name"] == "solver.pcg"]
    cli_names = ("cli.mesh", "cli.leadfield", "cli.simulate", "cli.invert")
    maps = [dur(s) for s in spans if s["name"] == "inverse.ias_map"]
    values = {
        "geometry.locate_s": total("geometry.locate"),
        "geometry.locate_points": add("points", "geometry.locate"),
        "geometry.ray_tri_tests": sum(s["ray_tri_tests"] for s in spans
                                      if s["name"] == "geometry.contains"),
        "meshgen.generate_mesh_s": total("meshgen.generate_mesh"),
        "meshgen.self_s": self_time(("meshgen.generate_mesh",)),
        "meshgen.generate_mesh_calls": count("meshgen.generate_mesh"),
        "meshgen.elements": max([s["elements"] for s in spans
                                 if s["name"] == "meshgen.generate_mesh"],
                                default=0),
        "meshgen.place_sources_s": total("meshgen.place_sources"),
        "fem.electrodes_s": total("fem.electrodes"),
        "fem.assemble_A_s": total("fem.assemble_A"),
        "fem.assemble_B_C_R_s": total("fem.assemble_B_C_R"),
        "fem.assemble_G_s": total("fem.assemble_G"),
        "fem.A_nnz": max([s["nnz"] for s in spans
                          if s["name"] == "fem.assemble_A"], default=0),
        "solver.pcg_s": total("solver.pcg"),
        "solver.pcg_solves": len(pcg),
        "solver.pcg_iterations": sum(s["iterations"] for s in pcg),
        "solver.pcg_iterations_max": max([s["iterations"] for s in pcg],
                                         default=0),
        "solver.spmv_bytes": sum(s["iterations"] * s["csr_bytes"] for s in pcg),
        "leadfield.response_s": total("leadfield.response"),
        "leadfield.eeg_s": total("leadfield.eeg"),
        "leadfield.eit_s": total("leadfield.eit"),
        "leadfield.self_s": self_time(("leadfield.eeg", "leadfield.eit"),
                                      ("solver.pcg",)),
        "leadfield.dof_map_s": total("leadfield.dof_map"),
        "leadfield.eit_forward_s": total("leadfield.eit_forward"),
        "leadfield.builds": count("leadfield.eeg", "leadfield.eit"),
        "inverse.ias_steps": count("inverse.ias_step"),
        "inverse.ias_step_s": total("inverse.ias_step"),
        "inverse.ias_map_p50_ms": 1e3 * statistics.median(maps) if maps else 0.0,
        "inverse.multires_s": total("inverse.multires"),
        "inverse.self_s": self_time(("inverse.ias_map", "inverse.multires"),
                                    ("inverse.ias_step",)),
        "inverse.normalize_s": total("inverse.normalize"),
        "simulate.signal_s": total("simulate.signal"),
        "simulate.perturb_s": total("simulate.perturb"),
        "io.write_s": total("io.write"),
        "io.bytes_written": add("bytes", "io.write"),
        "io.read_s": total("io.read"),
        "io.bytes_read": add("bytes", "io.read"),
        "io.hash_s": total("io.hash"),
        "config.load_s": total("config.load"),
        "config.segmentation_s": total("config.segmentation"),
        "cli.mesh_s": total("cli.mesh"),
        "cli.leadfield_s": total("cli.leadfield"),
        "cli.simulate_s": total("cli.simulate"),
        "cli.invert_s": total("cli.invert"),
        "cli.self_s": self_time(cli_names),
        "trace.wall_s": wall_s,
        "trace.overhead_pct": 100.0 * overhead_s / (wall_s - overhead_s),
    }
    assert set(values) == set(PER_LAYER)
    return values
