"""Drive the full pipeline through the command-line interface.

One INI file declares the head model, electrodes, sources, noise and
inversion settings; the subcommands then produce replayable artifacts:
mesh files, the binary lead field with its JSON sidecar, a simulated
dataset, the reconstruction and its metrics.  Rerunning any stage with
the same configuration and seed reproduces the artifacts byte for byte.
"""

import json
import pathlib
import tempfile

from headfem.cli import main
from headfem.geometry import icosphere, save_surface_mesh
from headfem.simulate import fibonacci_sphere_points

PROJECT = """
[compartment:head]
surfaces = head_nodes.dat head_tris.dat
conductivity = 0.33
active = true

[mesh]
resolution = 0.03

[electrodes]
radius = 0.035
impedance = 100.0
positions = {electrodes}

[sources]
count = 80
mode = unconstrained
seed = 3

[modality]
type = eeg

[inversion]
method = map
hypermodel = IG
theta0 = 1e-3
nu = 0.03
iterations = 4

[simulation]
noise_mode = relative-max
noise_level = 0.02
seed = 5
dipoles =
    0.0 0.0 0.05  1 0 0  1e-8

[truth]
position = 0.0 0.0 0.05
orientation = 1 0 0
roi_radius = 0.05

[output]
dir = out
"""

with tempfile.TemporaryDirectory(prefix="headfem_demo_") as tmp:
    work = pathlib.Path(tmp)
    print(f"working in {work}")

    save_surface_mesh(icosphere(0.1, 2, name="head"),
                      work / "head_nodes.dat", work / "head_tris.dat")
    electrode_lines = "\n    ".join(
        " ".join(f"{v:.6f}" for v in p) for p in fibonacci_sphere_points(8, 0.1))

    (work / "project.ini").write_text(PROJECT.format(electrodes=electrode_lines))

    config = str(work / "project.ini")
    for argv in (["mesh", "--config", config],
                 ["leadfield", "--config", config],
                 ["simulate", "--config", config],
                 ["invert", "--config", config,
                  "--data", str(work / "out" / "data.csv")]):
        print(f"\n$ headfem {' '.join(argv)}")
        rc = main(argv)
        assert rc == 0, f"exit code {rc}"

    metrics = json.loads((work / "out" / "metrics.json").read_text())
    print(f"\nlocalization error: {metrics['position_error_mm']:.1f} mm, "
          f"orientation error: {metrics['angle_error_deg']:.1f} deg")
    print(f"artifacts: {sorted(p.name for p in (work / 'out').iterdir())}")
