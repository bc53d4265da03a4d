"""Reconstruct a synthetic hemorrhage from EIT data by multiresolution
averaging.

A 30 mm ball inside the brain raises the conductivity by +0.73 S/m; the
measurements carry 60 dB SNR noise.  Each randomized decomposition groups
the conductivity DOFs into 100 nearest-center subsets, two alternating MAP
steps run on the summed columns, and the re-expanded estimates from 20
serial decompositions are averaged.  Averaging pulls the center of mass of
the estimate onto the anomaly; a single decomposition is visibly noisier.
"""

import numpy as np

from headfem.experiments import EitHemorrhageParams, eit_hemorrhage_experiment
from headfem.inverse import center_of_mass

params = EitHemorrhageParams(n_seeds=3)
rows, first, ctx = eit_hemorrhage_experiment(
    params, progress=lambda k, n: print(f"  seed {k}/{n} done"))

truth = ctx["truth"]
print(f"\nanomaly center: {np.round(truth, 3)} m, radius "
      f"{1e3 * ctx['phantom'].anomaly_radius:.0f} mm")
for r in rows:
    print(f"seed {r['seed']}: center-of-mass error {r['com_error_mm']:5.1f} mm "
          f"({'inside' if r['within_radius'] else 'outside'} one radius)")

centers = ctx["dofs"].centers
for tag in ("averaged", "unaveraged"):
    com = center_of_mass(np.abs(first[tag]), centers)
    err = 1e3 * np.linalg.norm(com - truth)
    peak = centers[np.argmax(np.abs(first[tag]))]
    print(f"{tag:10s}: CoM error {err:5.1f} mm, peak DOF at "
          f"{np.round(peak, 3)}")
