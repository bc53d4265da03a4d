"""Finite element forward and inverse modeling for EEG and EIT head imaging.

The package builds multi-compartment tetrahedral head models from surface
segmentations, assembles complete-electrode-model systems, computes EEG
and linearized EIT lead fields through a preconditioned-CG transfer-matrix
solver, and reconstructs sources or conductivity perturbations with
hierarchical-Bayesian MAP estimation (gamma / inverse-gamma hyperpriors,
optional ROI restriction and randomized multiresolution averaging).
"""

__version__ = "0.1.0"

from .geometry import (
    DEFAULT_CONDUCTIVITY,
    Compartment,
    Segmentation,
    SurfaceMesh,
    box_surface,
    icosphere,
    load_surface_mesh,
    load_surface_mesh_asc,
    nearest_center,
    save_surface_mesh,
)
from .meshgen import SourceSpace, TetMesh, generate_mesh, place_sources, smooth_mesh
from .fem import (
    CemSystem,
    ElectrodeSet,
    assemble_A,
    assemble_B_C_R,
    assemble_G,
    assemble_cem_system,
)
from .solver import PcgConfig, ldp, pcg_solve, transfer_matrix
from .leadfield import (
    EitDofMap,
    LeadField,
    adjacent_pair_patterns,
    build_dof_map,
    eeg_leadfield,
    eit_forward,
    eit_leadfield,
    electrode_response,
)
from .inverse import (
    HyperModel,
    IasState,
    ias_map,
    ias_step,
    multires_ias,
    normalize_problem,
    roi_metrics,
)
from .simulate import (
    NoiseSpec,
    Phantom,
    anomaly_signal,
    dipole_signal,
    fibonacci_sphere_points,
)

__all__ = [name for name in dir() if not name.startswith("_")]
