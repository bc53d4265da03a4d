"""Nonlinear EIT forward solves and the linearized conductivity lead field.

Zero-sum current patterns drive the electrodes; the forward map returns
the zero-mean voltages.  Differentiating around the background
conductivity yields one lead-field column per conductivity DOF (a disjoint
group of elements), which a central finite difference of the full forward
map confirms.
"""

import numpy as np

from headfem import (
    Compartment,
    ElectrodeSet,
    PcgConfig,
    Segmentation,
    adjacent_pair_patterns,
    assemble_cem_system,
    build_dof_map,
    eit_forward,
    eit_leadfield,
    fibonacci_sphere_points,
    generate_mesh,
    icosphere,
)

cfg = PcgConfig(tolerance=1e-10)
seg = Segmentation([
    Compartment(icosphere(0.07, 2, name="brain"), 0.33, active=True),
    Compartment(icosphere(0.092, 2, name="scalp"), 0.43),
])
mesh = generate_mesh(seg, h=0.015)
electrodes = ElectrodeSet.from_centers(
    mesh, fibonacci_sphere_points(16, 0.092), radius=0.025, impedances=10.0)
system = assemble_cem_system(mesh, electrodes)

patterns = adjacent_pair_patterns(16)
y = eit_forward(system, patterns, cfg)
print(f"forward data: {y.shape[0]} electrodes x {y.shape[1]} patterns, "
      f"pattern sums <= {np.abs(y.sum(axis=0)).max():.2e}")

dofs = build_dof_map(mesh, compartments=[0], n_dofs=40, seed=3)
lf = eit_leadfield(system, dofs, patterns, cfg)
print(f"lead field: {lf.matrix.shape[0]} data x {lf.matrix.shape[1]} DOFs")

# Finite-difference spot check on one DOF.
m = 7
delta = 1e-3 * 0.33
sig_p = mesh.sigma.copy()
sig_m = mesh.sigma.copy()
sig_p[dofs.element_sets[m]] += delta
sig_m[dofs.element_sets[m]] -= delta


def forward_at(sigma):
    perturbed = assemble_cem_system(mesh.with_sigma(sigma), electrodes)
    return np.asarray(eit_forward(perturbed, patterns, cfg)).T.ravel()


fd = (forward_at(sig_p) - forward_at(sig_m)) / (2 * delta)
rel = np.abs(lf.matrix[:, m] - fd) / np.abs(fd).max()
print(f"DOF {m}: max |jacobian - finite difference| = "
      f"{rel.max():.2e} of the column scale")
