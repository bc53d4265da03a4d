import numpy as np
import pytest

from headfem.geometry import (
    Compartment,
    Segmentation,
    SurfaceMesh,
    box_surface,
    icosphere,
)


def reference_locate(seg, points):
    """Per-point labels: each compartment's sub-surfaces are tested with
    ``SurfaceMesh.contains``, innermost compartment first, -1 outside every
    one.  The reference for the line labeler ``Segmentation.locate``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.full(len(pts), -1, dtype=np.int64)
    open_ = np.arange(len(pts))
    for k, comp in enumerate(seg.compartments):
        if open_.size == 0:
            break
        hit = np.zeros(open_.size, dtype=bool)
        for s in comp.surfaces:
            rest = ~hit
            if not rest.any():
                break
            hit[rest] = s.contains(pts[open_[rest]])
        labels[open_[hit]] = k
        open_ = open_[~hit]
    return labels


# Regular tetrahedron: the smallest closed surface.
TET_NODES = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
])
# Outward-oriented faces.
TET_TRIS = np.array([
    [0, 1, 2],
    [0, 3, 1],
    [0, 2, 3],
    [1, 3, 2],
])


@pytest.fixture
def tet_surface():
    return SurfaceMesh(TET_NODES, TET_TRIS, name="tet")


@pytest.fixture
def cube_surface():
    return box_surface(name="cube")


@pytest.fixture
def unit_cube_segmentation():
    return Segmentation([
        Compartment(box_surface(name="cube"), conductivity=1.0, priority=0,
                    active=True),
    ])


@pytest.fixture
def nested_sphere_segmentation():
    inner = icosphere(radius=0.5, subdivisions=2, name="inner")
    outer = icosphere(radius=1.0, subdivisions=2, name="outer")
    return Segmentation([
        Compartment(inner, conductivity=0.33, priority=0, active=True),
        Compartment(outer, conductivity=0.43, priority=0),
    ])
