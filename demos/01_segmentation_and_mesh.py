"""Build a four-layer spherical head model and mesh it.

A segmentation is an ordered stack of closed triangle surfaces, innermost
compartment first.  The mesh generator covers its bounding box with a
uniform grid of cubes, splits each cube into 6 tetrahedra, labels every
element by the compartment containing its centroid, and drops elements
outside the head.  Interface smoothing then relaxes the staircase
boundaries without inverting any element.
"""

import pathlib
import tempfile

import numpy as np

from headfem import (
    Compartment,
    Segmentation,
    generate_mesh,
    icosphere,
    smooth_mesh,
)
from headfem.io import save_tet_mesh

# Brain, CSF, skull and scalp as concentric icospheres (meters).
radii = (0.063, 0.072, 0.080, 0.092)
conductivities = (0.33, 1.79, 0.0064, 0.43)
names = ("brain", "csf", "skull", "scalp")
seg = Segmentation([
    Compartment(icosphere(r, subdivisions=3, name=n), conductivity=s,
                active=(n == "brain"), name=n)
    for r, s, n in zip(radii, conductivities, names)
])

# Point queries resolve overlaps innermost-first.
for p in ([0.0, 0.0, 0.03], [0.0, 0.0, 0.076], [0.0, 0.0, 0.2]):
    k = seg.locate(np.array([p]))[0]
    print(f"point {p} -> {names[k] if k >= 0 else 'outside'}")

mesh = generate_mesh(seg, h=0.008)
print(f"\nmesh: {mesh.n_nodes} nodes, {mesh.n_elements} elements")
for k, name in enumerate(names):
    n_el = int((mesh.labels == k).sum())
    vol = mesh.volumes[mesh.labels == k].sum()
    print(f"  {name:6s}: {n_el:6d} elements, {1e6 * vol:9.1f} cm^3")

smoothed = smooth_mesh(mesh, iterations=2, step=0.3)
moved = np.linalg.norm(smoothed.nodes - mesh.nodes, axis=1)
print(f"\nsmoothing moved {np.count_nonzero(moved):d} nodes "
      f"(max {1e3 * moved.max():.2f} mm), min volume still "
      f"{smoothed.volumes.min():.2e} m^3")

with tempfile.TemporaryDirectory(prefix="headfem_demo_") as tmp:
    out = pathlib.Path(tmp) / "head"
    save_tet_mesh(smoothed, out)
    print(f"wrote {out}_nodes.dat, _tetra.dat, _labels.dat, _sigma.dat")
