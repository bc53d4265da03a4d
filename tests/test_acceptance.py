"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The desk-scale experiment criteria (6 and 7) run the full protocols and
take a few minutes combined; everything else is fast.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from headfem.fem import (
    ElectrodeSet,
    assemble_A,
    assemble_B_C_R,
    assemble_cem_system,
)
from headfem.geometry import Compartment, Segmentation, box_surface, icosphere
from headfem.inverse import HyperModel, IasState, ias_step, initial_state
from headfem.leadfield import (
    adjacent_pair_patterns,
    build_dof_map,
    eeg_leadfield,
    eit_forward,
    eit_leadfield,
)
from headfem.meshgen import generate_mesh, place_sources
from headfem.simulate import fibonacci_sphere_points
from headfem.solver import PcgConfig, pcg_solve

from conftest import reference_locate


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:2d}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def small_eeg_system(h=0.06, n_electrodes=5, n_sources=4):
    seg = Segmentation([Compartment(icosphere(0.1, 2), 0.33, active=True)])
    mesh = generate_mesh(seg, h)
    el = ElectrodeSet.from_centers(mesh, fibonacci_sphere_points(n_electrodes, 0.1),
                                   radius=0.05, impedances=1e3)
    src = place_sources(mesh, seg, n_sources, seed=0)
    return mesh, el, assemble_cem_system(mesh, el, src)


def test_criterion_1_fem_oracle_equivalence():
    t0 = time.perf_counter()
    mesh, el, sys_ = small_eeg_system()
    assert mesh.n_nodes <= 500
    lf = eeg_leadfield(sys_, PcgConfig(tolerance=1e-12))
    Ainv = np.linalg.inv(sys_.A.toarray())
    B = sys_.B.toarray()
    L_ref = sys_.R @ np.linalg.solve(
        B.T @ Ainv @ B - sys_.C.toarray(), B.T @ Ainv @ sys_.G.toarray())
    err = np.linalg.norm(lf.matrix - L_ref) / np.linalg.norm(L_ref)
    elapsed = time.perf_counter() - t0
    report(1, err <= 1e-8 and elapsed < 10.0,
           f"PCG vs dense lead field: rel Frobenius {err:.2e} "
           f"(<=1e-8), {elapsed:.1f}s (<10s)")


def test_criterion_2_zero_mean_constraint():
    mesh, el, sys_ = small_eeg_system(n_electrodes=6)
    lf = eeg_leadfield(sys_, PcgConfig(tolerance=1e-12))
    col_norms = np.linalg.norm(lf.matrix, axis=0)
    eeg_rel = np.abs(lf.matrix.sum(axis=0)) / np.maximum(col_norms, 1e-300)
    I = adjacent_pair_patterns(6)
    y = eit_forward(sys_, I, PcgConfig(tolerance=1e-12))
    eit_rel = np.abs(y.sum(axis=0)) / np.maximum(np.linalg.norm(y, axis=0),
                                                 1e-300)
    worst = max(eeg_rel.max(), eit_rel.max())
    report(2, worst <= 1e-10,
           f"EEG columns / EIT data zero electrode mean: worst {worst:.2e} "
           "(<=1e-10)")


def _direct_forward(mesh, electrodes, sigma, I):
    m2 = mesh.with_sigma(sigma)
    A = assemble_A(m2, electrodes)
    B, C, R = assemble_B_C_R(m2, electrodes)
    AinvB = spla.splu(A.tocsc()).solve(B.toarray())
    M = C.toarray() - B.T @ AinvB
    return R @ sla.solve(M, I)


def test_criterion_3_eit_linearization():
    t0 = time.perf_counter()
    seg = Segmentation([
        Compartment(icosphere(0.07, 2, name="inner"), 0.33, active=True),
        Compartment(icosphere(0.092, 2, name="outer"), 0.43),
    ])
    mesh = generate_mesh(seg, 0.02)
    assert mesh.n_elements <= 5000
    el = ElectrodeSet.from_centers(mesh, fibonacci_sphere_points(16, 0.092),
                                   radius=0.03, impedances=10.0)
    sys_ = assemble_cem_system(mesh, el)
    dofs = build_dof_map(mesh, [0], n_dofs=12, seed=4)
    I = adjacent_pair_patterns(16)
    lf = eit_leadfield(sys_, dofs, I, PcgConfig(tolerance=1e-12))

    def fd_matrix(rel_step):
        cols = []
        for m in range(dofs.n_dofs):
            delta = rel_step * 0.33
            sp_ = mesh.sigma.copy()
            sm_ = mesh.sigma.copy()
            sp_[dofs.element_sets[m]] += delta
            sm_[dofs.element_sets[m]] -= delta
            fd = (_direct_forward(mesh, el, sp_, I)
                  - _direct_forward(mesh, el, sm_, I)) / (2 * delta)
            cols.append(fd.T.ravel())
        return np.stack(cols, axis=1)

    fd1 = fd_matrix(2e-3)
    fd2 = fd_matrix(1e-3)
    rel1 = np.abs(lf.matrix - fd1) / np.abs(fd1)
    rel2 = np.abs(lf.matrix - fd2) / np.abs(fd2)
    mis1 = np.linalg.norm(lf.matrix - fd1)
    mis2 = np.linalg.norm(lf.matrix - fd2)
    elapsed = time.perf_counter() - t0
    report(3, rel1.max() <= 1e-3 and mis2 < mis1 and elapsed < 60.0,
           f"FD check: worst entry rel {rel1.max():.2e} (<=1e-3), halving "
           f"step reduces mismatch {mis1:.3e}->{mis2:.3e}, {elapsed:.0f}s (<60s)")


def test_criterion_4_ias_closed_forms():
    h = HyperModel("G", beta=1.5, theta0=1.0)
    state = initial_state(1, h, nu=1.0)
    out = ias_step(np.array([[1.0]]), np.array([2.0]), state, h)
    e1 = abs(out.x[0] - 1.0)

    e2 = abs(HyperModel("G", beta=1.5, theta0=2.0)
             .update_theta(np.array([3.0]))[0] - 3.0)
    e3 = abs(HyperModel("IG", beta=1.5, theta0=1.0)
             .update_theta(np.array([2.0]))[0] - 1.0)
    worst = max(e1, e2, e3)
    report(4, worst <= 1e-12,
           f"scalar step / G update / IG update closed forms: worst abs "
           f"error {worst:.2e} (<=1e-12)")


def test_criterion_5_dual_form_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(5, 51))
        n = int(rng.integers(10, 201))
        L = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        theta = rng.uniform(0.05, 3.0, size=n)
        nu = float(rng.uniform(0.1, 1.0))
        state = IasState(x=np.zeros(n), theta=theta, nu=nu)
        out = ias_step(L, y, state, HyperModel("IG"))
        x_ref = np.linalg.solve(L.T @ L / nu**2 + np.diag(1.0 / theta),
                                L.T @ y / nu**2)
        worst = max(worst, np.linalg.norm(out.x - x_ref)
                    / max(np.linalg.norm(x_ref), 1e-300))
    report(5, worst <= 1e-8,
           f"measurement-space step vs normal equations on 20 instances: "
           f"worst rel {worst:.2e} (<=1e-8)")


def test_criterion_6_eit_hemorrhage():
    from headfem.experiments import EitHemorrhageParams, eit_hemorrhage_experiment

    t0 = time.perf_counter()
    params = EitHemorrhageParams()  # 16 electrodes, 30mm/+0.73 S/m, 60 dB,
    rows, first, ctx = eit_hemorrhage_experiment(params)  # S=100, D=20, 2 steps
    hits = sum(r["within_radius"] for r in rows)
    elapsed = time.perf_counter() - t0
    errs = ", ".join(f"{r['com_error_mm']:.1f}" for r in rows)
    report(6, hits >= 8 and elapsed < 600.0,
           f"averaged reconstruction within 15mm for {hits}/10 seeds (>=8) "
           f"[errors mm: {errs}], {elapsed:.0f}s (<600s)")


def test_criterion_7_hypermodel_trend():
    from headfem.experiments import EegHypermodelParams, eeg_hypermodel_experiment

    params = EegHypermodelParams(realizations=20)
    rows, summary, _ = eeg_hypermodel_experiment(params)
    med = {(s["case"], s["source"]): s["position_error_mm_median"]
           for s in summary}
    deep_ok = med[("iv", "deep")] < med[("iii", "deep")]
    sup_order = sorted(["i", "ii", "iii", "iv"],
                       key=lambda c: med[(c, "superficial")])
    sup_ok = "i" in sup_order[:2]
    report(7, deep_ok and sup_ok,
           f"deep median (iv) {med[('iv', 'deep')]:.2f}mm < (iii) "
           f"{med[('iii', 'deep')]:.2f}mm: {deep_ok}; superficial (i) in "
           f"best two {sup_order}: {sup_ok}")


def test_criterion_8_mesh_generation():
    seg = Segmentation([Compartment(box_surface(name="cube"), 1.0,
                                    active=True)])
    ok = True
    details = []
    for h in (1.0, 0.5, 0.25):
        mesh = generate_mesh(seg, h)
        expected = round(6 / h**3)
        all_pos = bool(np.all(mesh.volumes > 0))
        oracle = reference_locate(seg, mesh.centroids())
        agree = bool(np.all(oracle == mesh.labels))
        ok = ok and mesh.n_elements == expected and all_pos and agree
        details.append(f"h={h}: {mesh.n_elements}/{expected}")
    report(8, ok, "cube element counts " + ", ".join(details)
           + "; positive volumes and 100% oracle agreement")


def test_criterion_9_solver_oracle():
    rng_master = np.random.default_rng(99)
    worst_err, worst_it = 0.0, 0
    ok = True
    for n in (50, 120, 200):
        seed = int(rng_master.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = Q @ np.diag(np.geomspace(1.0, 10.0, n)) @ Q.T
        b = rng.normal(size=n)
        x_ref = np.linalg.solve(A, b)
        x, it, _ = pcg_solve(sp.csr_matrix(A), b, PcgConfig(tolerance=1e-12))
        err = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
        worst_err = max(worst_err, err)
        worst_it = max(worst_it, it - n)
        ok = ok and err <= 1e-8 and it <= n + 5
    report(9, ok, f"LDP-PCG vs dense solves: worst rel {worst_err:.2e} "
           f"(<=1e-8), iteration excess over n: {worst_it} (<=5)")


def test_criterion_10_determinism(tmp_path):
    from test_harness import write_sphere_project
    from headfem.cli import main

    outputs = {}
    for run in ("a", "b"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        truth = ("[truth]\nposition = 0.0 0.0 0.05\norientation = 1 0 0\n"
                 "roi_radius = 0.06\n")
        path = write_sphere_project(run_dir, n_sources=40, extra=truth)
        out = run_dir / "out"
        assert main(["mesh", "--config", str(path)]) == 0
        assert main(["leadfield", "--config", str(path)]) == 0
        assert main(["simulate", "--config", str(path), "--seed", "9"]) == 0
        assert main(["invert", "--config", str(path),
                     "--data", str(out / "data.csv"), "--seed", "9"]) == 0
        outputs[run] = {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.suffix in (".csv", ".json")
        }
    same = set(outputs["a"]) == set(outputs["b"]) and all(
        outputs["a"][k] == outputs["b"][k] for k in outputs["a"])
    report(10, same, f"pipeline rerun reproduces {len(outputs['a'])} "
           "CSV/JSON artifacts byte-identically")
