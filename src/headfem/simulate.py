"""Synthetic measurement generation for the desk-scale experiment protocols.

Noise-free EEG data are ``dipole_signal`` (point dipoles snapped to the
nearest source DOF), EIT data ``anomaly_signal`` (a ball-shaped anomaly in
the conductivity).  Callers add ``NoiseSpec.sample``: one seeded generator
per dataset, so a seed pins the dataset bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyAnomalyError, LocationError, ParameterError
from .fem import assemble_cem_system
from .geometry import Compartment, Segmentation, icosphere, nearest_center
from .leadfield import eit_forward
from .solver import PcgConfig


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean Gaussian noise with independent entries.

    ``relative-max`` mode: standard deviation = level * max |signal|.
    ``snr-db`` mode: standard deviation = rms(signal) * 10^(-level/20).
    """

    mode: str = "relative-max"
    level: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("relative-max", "snr-db"):
            raise ParameterError(f"unknown noise mode '{self.mode}'")
        if not 0 < self.level < np.inf:
            raise ParameterError("noise level must be positive")

    def std_for(self, signal):
        signal = np.asarray(signal, dtype=float)
        if self.mode == "relative-max":
            return self.level * np.abs(signal).max()
        rms = np.sqrt(np.mean(signal**2))
        return rms * 10.0 ** (-self.level / 20.0)

    def sample(self, signal):
        rng = np.random.default_rng(self.seed)
        return rng.normal(0.0, self.std_for(signal), size=np.shape(signal))


@dataclass(frozen=True)
class Phantom:
    """Concentric-sphere head with a ball-shaped conductivity anomaly.

    ``radii``/``conductivities`` run innermost to outermost.  The anomaly
    ball must sit strictly inside one spherical shell.
    """

    radii: tuple
    conductivities: tuple
    anomaly_center: np.ndarray
    anomaly_diameter: float
    anomaly_delta: float

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if list(radii) != sorted(radii):
            raise ParameterError("radii must increase from the innermost shell")
        if len(radii) != len(self.conductivities):
            raise ParameterError("one conductivity per shell required")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "conductivities",
                           tuple(float(c) for c in self.conductivities))
        object.__setattr__(self, "anomaly_center",
                           np.asarray(self.anomaly_center, dtype=float))
        if not 0 < self.anomaly_diameter < np.inf:
            raise ParameterError("anomaly diameter must be positive")
        c = np.linalg.norm(self.anomaly_center)
        r = 0.5 * self.anomaly_diameter
        host = None
        inner = 0.0
        for k, outer in enumerate(radii):
            if c - r > inner - 1e-12 and c + r < outer:
                host = k
                break
            inner = outer
        if host is None:
            raise ParameterError(
                "anomaly ball must lie strictly inside one spherical shell")
        object.__setattr__(self, "host_shell", host)

    @property
    def anomaly_radius(self):
        return 0.5 * self.anomaly_diameter

    def perturb_sigma(self, mesh):
        """Mesh conductivity with the anomaly offset added on the elements
        whose centroids fall inside the ball."""
        return perturb_sigma_ball(mesh, self.anomaly_center,
                                  self.anomaly_diameter, self.anomaly_delta)


def layered_sphere_segmentation(radii, conductivities, priorities=None,
                                active_shells=(0,), subdivisions=3):
    """Concentric icosphere head model, innermost shell first."""
    comps = []
    for k, (r, s) in enumerate(zip(radii, conductivities)):
        comps.append(Compartment(
            icosphere(r, subdivisions, name=f"shell{k}"),
            conductivity=s,
            priority=priorities[k] if priorities is not None else 0,
            active=k in active_shells,
            name=f"shell{k}"))
    return Segmentation(comps)


def perturb_sigma_ball(mesh, center, diameter, delta):
    """Add ``delta`` to the conductivity of every element whose centroid
    lies in the given ball; returns (sigma, element indices)."""
    center = np.asarray(center, dtype=float)
    inside = np.linalg.norm(mesh.centroids() - center[None, :],
                            axis=1) <= 0.5 * diameter
    if not inside.any():
        raise EmptyAnomalyError(
            "anomaly ball does not contain any element centroid")
    sigma = mesh.sigma.copy()
    if sigma.ndim == 2:
        sigma[inside, :3] += delta
    else:
        sigma[inside] += delta
    return sigma, np.flatnonzero(inside)


def dipole_signal(leadfield, dipoles):
    """Noise-free electrode signal of point dipoles snapped to the nearest
    source DOF.

    Each dipole is (position [m], orientation unit vector, moment [A m]).
    Unconstrained lead fields receive the moment vector on the xyz columns
    of the snapped source; constrained lead fields the moment projected on
    the stored source normal.

    Returns (y, x_true).
    """
    positions = np.asarray(leadfield.positions, dtype=float)
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    margin = 0.1 * np.linalg.norm(hi - lo)
    x = np.zeros(leadfield.matrix.shape[1])
    constrained = leadfield.orientations is not None
    for pos, ori, moment in dipoles:
        pos = np.asarray(pos, dtype=float)
        if np.any(pos < lo - margin) or np.any(pos > hi + margin):
            raise LocationError(
                f"dipole at {pos} outside the source-space bounding region")
        ori = np.asarray(ori, dtype=float)
        ori = ori / np.linalg.norm(ori)
        s = int(nearest_center(pos, positions)[0][0])
        if constrained:
            x[s] += moment * float(ori @ leadfield.orientations[s])
        else:
            x[3 * s:3 * s + 3] += moment * ori
    return leadfield.matrix @ x, x


def anomaly_signal(mesh, electrodes, center, diameter, delta, patterns,
                   cfg=PcgConfig()):
    """Noise-free EIT data at the mesh conductivity plus ``delta`` in the
    given ball (:func:`perturb_sigma_ball`), stacked pattern by pattern."""
    sigma, _ = perturb_sigma_ball(mesh, center, diameter, delta)
    system = assemble_cem_system(mesh.with_sigma(sigma), electrodes)
    return np.asarray(eit_forward(system, patterns, cfg)).T.ravel()


def fibonacci_sphere_points(n, radius=1.0, center=(0.0, 0.0, 0.0)):
    """Quasi-uniform electrode sites on a sphere (golden-angle spiral)."""
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + 5.0**0.5) * i
    pts = np.column_stack([np.sin(phi) * np.cos(theta),
                           np.sin(phi) * np.sin(theta),
                           np.cos(phi)])
    return radius * pts + np.asarray(center, dtype=float)
