"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 compare against tabulated reference dispersion values; the triangle
k = 1 rows reproduce exactly, since that grid is stabilization-free (VEM = P1),
so the conventions are not the gap.  Every other row depends on the dofi-dofj
stabilization.  Its stiffness coefficient is 2 mu, so e_S does not depend on
the speed ratio, as in the table (quad k = 1: -5.049e-2 at r = 2, 5 and 10), yet
the values miss: the recipe hybridises the physical S mode on quad (plane-wave
overlap 0.845, 0.568 and 0.575 at k = 2, 3 and 5), and no diagonal recipe tried
reaches the rows either (quad k = 3 e_S: +8.7e-2 here, -7.8e-3 under the
diagonal of Beirao da Veiga-Dassi-Russo and -1.1e-2 under its mu-only variant,
against 5.1e-4).  Those assertions are stated faithfully and allowed to fail."""
import time
from pathlib import Path

import numpy as np
import pytest

from test_assembly import exact_forms_from_dofs, local_mass, p1_mass, p1_stiffness
from test_projectors import reproduction_errors

from vemwave import timestep as ts
from vemwave.assembly import Material, assemble_global, local_stiffness
from vemwave.dispersion import (
    DispersionConfig,
    bloch_reduce,
    cfl_parameter,
    dissipation_check,
    reference_system,
    semidiscrete_dispersion,
)
from vemwave.harness import run_convergence, run_p_refinement
from vemwave.mesh import PERIODIC_GRIDS, PolygonalMesh, generate_family
from vemwave.projectors import ElementOperators
import scipy.linalg as la


_REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
_report_started = False


def report(criterion: str, ok: bool, detail: str, timing: str = "") -> bool:
    """Print the criterion verdict and mirror it to acceptance_report.txt, since
    pytest swallows stdout of passing tests.  The wall-clock ``timing`` is only
    printed: the tracked report holds the numbers alone, so a run that moves
    none of them leaves it unchanged."""
    global _report_started
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(f"{line}; {timing}" if timing else line)
    mode = "a" if _report_started else "w"
    _report_started = True
    with open(_REPORT_PATH, mode, encoding="ascii") as f:
        f.write(line + "\n")
    return ok


# --------------------------------------------------------------------------
# criterion 1: dispersion table reproduction

TABLE_ROWS = [
    # grid, degree, tolerance, |e_P|, |e_S|
    ("quad", 1, 0.01, 6.0577e-04, 1.0492e-02),
    ("quad", 2, 0.02, 3.9826e-04, 5.4411e-03),
    ("quad", 3, 0.02, 2.7291e-05, 5.1136e-04),
    ("tria", 1, 0.02, 8.2437e-03, 3.3135e-02),
    ("tria", 2, 0.02, 1.5669e-06, 2.3285e-04),
]


def test_criterion_1_dispersion_table():
    failures = []
    details = []
    timings = []
    for grid, degree, tol, t_p, t_s in TABLE_ROWS:
        t0 = time.perf_counter()
        matched = []
        measured = {}
        for convention in ("scaled", "shared"):
            cfg = DispersionConfig(grid, degree, 0.2, np.pi / 4, 2.0,
                                   p_convention=convention)
            res = semidiscrete_dispersion(cfg)
            measured[convention] = (abs(res.e_p), abs(res.e_s))
            if (abs(abs(res.e_p) - t_p) <= tol * t_p
                    and abs(abs(res.e_s) - t_s) <= tol * t_s):
                matched.append(convention)
        elapsed = time.perf_counter() - t0
        ok = len(matched) == 1 and elapsed < 10.0
        line = (f"{grid} k={degree}: conventions matched {matched or 'none'}; "
                f"scaled gave e_P={measured['scaled'][0]:.4e} (target {t_p:.4e}), "
                f"e_S={measured['scaled'][1]:.4e} (target {t_s:.4e})")
        details.append(line)
        timings.append(f"{grid} k={degree} {elapsed:.1f}s")
        if not ok:
            failures.append(f"{line}; {elapsed:.1f}s")
    ok = not failures
    report("1 (dispersion table)", ok, " | ".join(details), ", ".join(timings))
    assert ok, "rows outside tolerance:\n" + "\n".join(failures)


def test_criterion_2_dispersion_k_decay():
    failures = []
    for grid in ("quad", "tria"):
        for degree in (5, 6):
            cfg = DispersionConfig(grid, degree, 0.2, np.pi / 4, 2.0)
            res = semidiscrete_dispersion(cfg)
            if abs(res.e_s) >= 1e-6:
                failures.append(f"{grid} k={degree}: |e_S| = {abs(res.e_s):.3e}")
    ok = not failures
    report("2 (|e_S| < 1e-6 for k >= 5)", ok, "; ".join(failures) or "all below 1e-6")
    assert ok, "\n".join(failures)


def test_criterion_3_dispersion_delta_order():
    deltas = np.array([0.4, 0.2, 0.1])
    failures = []
    details = []
    for degree in (2, 3):
        errs = []
        for delta in deltas:
            cfg = DispersionConfig("quad", degree, float(delta), np.pi / 4, 2.0)
            errs.append(abs(semidiscrete_dispersion(cfg).e_s))
        slope = float(np.polyfit(np.log(deltas), np.log(errs), 1)[0])
        target = 2 * degree if degree % 2 else 2 * degree - 1
        details.append(f"k={degree}: slope {slope:.2f} (target {target} +- 0.7)")
        if abs(slope - target) > 0.7:
            failures.append(details[-1])
    ok = not failures
    report("3 (|e_S| delta-order)", ok, "; ".join(details))
    assert ok, "\n".join(failures)


def test_criterion_4_cfl_trend():
    degrees = np.arange(2, 7)
    failures = []
    details = []
    for grid in ("quad", "tria"):
        qs = [cfl_parameter(grid, int(k), 0.2, 2.0) for k in degrees]
        slope = float(np.polyfit(np.log(degrees), np.log(qs), 1)[0])
        details.append(f"{grid}: slope {slope:.3f}")
        if not -1.9 <= slope <= -1.1:
            failures.append(details[-1])
    ok = not failures
    report("4 (q_CFL ~ k^-3/2 trend)", ok, "; ".join(details))
    assert ok, "\n".join(failures)


def test_criterion_5_non_dissipative():
    worst = 0.0
    for grid in PERIODIC_GRIDS:
        for degree in (1, 2, 3, 4):
            cfg = DispersionConfig(grid, degree, 0.2, np.pi / 4, 2.0)
            worst = max(worst, dissipation_check(cfg))
    ok = worst <= 1e-10
    report("5 (non-dissipativity)", ok, f"max relative |Im(omega)| = {worst:.2e}")
    assert ok


# --------------------------------------------------------------------------
# criterion 6: h-convergence rates at desk scale


def test_criterion_6_h_convergence():
    t0 = time.perf_counter()
    failures = []
    details = []
    for family in ("random_quad", "hexagonal", "nonconvex_octagon"):
        study = run_convergence(family, [1, 2, 3], range(4), 5e-4, 0.1, seed=0)
        for degree in (1, 2, 3):
            s_h1 = study.slope(degree, "h1")
            s_l2 = study.slope(degree, "l2")
            details.append(f"{family} k={degree}: H1 {s_h1:.2f} L2 {s_l2:.2f}")
            if abs(s_h1 - degree) > 0.3:
                failures.append(f"{family} k={degree}: H1 slope {s_h1:.2f}")
            if abs(s_l2 - (degree + 1)) > 0.3:
                failures.append(f"{family} k={degree}: L2 slope {s_l2:.2f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 15 * 60:
        failures.append(f"runtime {elapsed:.0f}s exceeds 15 min")
    ok = not failures
    report("6 (h-convergence rates)", ok, "; ".join(details), f"runtime {elapsed:.0f}s")
    assert ok, "\n".join(failures)


def test_criterion_7_p_refinement():
    records = run_p_refinement(range(1, 7), 5e-4, 0.1,
                               basis_kinds=("orthonormal",), seed=0)
    errs = [r.err_l2 for r in sorted(records, key=lambda r: r.degree)]
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    total = errs[0] / errs[-1]
    ok = monotone and total >= 10.0
    report("7 (p-refinement)", ok,
           f"L2 errors {['%.2e' % e for e in errs]}, total reduction {total:.1f}x")
    assert ok


# --------------------------------------------------------------------------
# criterion 8: property suites


def test_criterion_8a_polynomial_reproduction():
    mesh = generate_family("nonconvex_octagon", 0)
    worst = 0.0
    for degree in range(1, 9):
        # the 1e-11 reproduction bound is stated for the orthonormalized basis
        # beyond moderate degrees; raw monomials are exercised up to k = 3
        kind = "monomial" if degree <= 3 else "orthonormal"
        errs = reproduction_errors(mesh, 12, degree, kind)
        worst = max(worst, max(errs.values()))
    ok = worst <= 1e-11
    report("8a (projector reproduction k <= 8)", ok, f"worst {worst:.2e}")
    assert ok


def test_criterion_8b_k_consistency():
    mat = Material(1.1, 1.4, 0.8)
    worst = 0.0
    rng = np.random.default_rng(10)
    for family in ("random_quad", "hexagonal", "nonconvex_octagon"):
        mesh = generate_family(family, 0, seed=6)
        for degree in (1, 2, 3):
            ops = ElementOperators(mesh, 4, degree)
            m_loc = local_mass(ops, mat)
            k_loc = local_stiffness(ops, mat)
            n = ops.layout.n_total
            dofs = rng.standard_normal(2 * n)
            m_exact, a_exact = exact_forms_from_dofs(ops, mat, dofs)
            d = ops.dof_matrix
            for comp in range(2):
                for alpha in range(ops.n_k):
                    q_dofs = np.zeros(2 * n)
                    q_dofs[comp * n:(comp + 1) * n] = d[:, alpha]
                    row = comp * ops.n_k + alpha
                    m_err = abs(q_dofs @ (m_loc @ dofs) - m_exact[row]) \
                        / max(abs(m_exact[row]), np.abs(m_loc).max())
                    a_err = abs(q_dofs @ (k_loc @ dofs) - a_exact[row]) \
                        / max(abs(a_exact[row]), np.abs(k_loc).max())
                    worst = max(worst, m_err, a_err)
    ok = worst <= 1e-10
    report("8b (k-consistency patch)", ok, f"worst relative defect {worst:.2e}")
    assert ok


def test_criterion_8c_rigid_body_kernel():
    mat = Material(1.0, 2.0, 0.7)
    worst_resid = 0.0
    for family in ("random_quad", "hexagonal", "nonconvex_octagon"):
        mesh = generate_family(family, 0, seed=4)
        ops = ElementOperators(mesh, 3, 2)
        k_loc = local_stiffness(ops, mat)
        scale = np.abs(k_loc).max()
        ev = np.linalg.eigvalsh(k_loc)
        assert ev[2] < 1e-11 * scale and ev[3] > 1e-6 * scale
        n = ops.layout.n_total
        rot = np.concatenate([ops.dof_functionals(lambda p: -p[:, 1]),
                              ops.dof_functionals(lambda p: p[:, 0])])
        worst_resid = max(worst_resid, np.abs(k_loc @ rot).max() / scale)
    ok = worst_resid <= 1e-11
    report("8c (rigid-body kernel of 3)", ok, f"worst residual {worst_resid:.2e}")
    assert ok


def test_criterion_8d_fem_on_simplex():
    verts = np.array([[0.2, 0.1], [1.1, 0.4], [0.3, 0.9]])
    mesh = PolygonalMesh(verts, [[0, 1, 2]])
    ops = ElementOperators(mesh, 0, 1)
    mat = Material(1.7, 0.9, 1.3)
    m_err = np.abs(local_mass(ops, mat)[:3, :3] - p1_mass(verts, mat.rho)).max()
    k_err = np.abs(local_stiffness(ops, mat) - p1_stiffness(verts, mat.lam, mat.mu)).max()
    ok = m_err <= 1e-12 and k_err <= 1e-12
    report("8d (FEM-on-simplex oracle)", ok, f"mass {m_err:.2e}, stiffness {k_err:.2e}")
    assert ok


def _small_quad_system(n=3, degree=2):
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = [[x, y] for x in xs for y in xs]
    cells = []
    for i in range(n):
        for j in range(n):
            v00 = i * (n + 1) + j
            cells.append([v00, v00 + n + 1, v00 + n + 2, v00 + 1])
    return assemble_global(PolygonalMesh(verts, cells), degree, Material(1, 1, 1))


def test_criterion_8e_energy_drift():
    system = _small_quad_system()
    est = ts.cfl_timestep(system, safety=0.9)
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(system.n_free)
    v0 = rng.standard_normal(system.n_free)
    solver = ts.make_solver(system)
    u1 = ts.initial_step(system, u0, v0, np.zeros(system.n_free), est.dt, solver)
    state = ts.SimulationState(u0, u1, 1, est.dt)
    e0 = ts.discrete_energy(state, system)
    for _ in range(10_000):
        state = ts.step(state, system, np.zeros(system.n_free), solver)
    drift = abs(ts.discrete_energy(state, system) - e0) / abs(e0)
    ok = drift <= 1e-10
    report("8e (energy drift over 1e4 steps)", ok, f"relative drift {drift:.2e}")
    assert ok


def test_criterion_8f_time_reversibility():
    system = _small_quad_system(degree=1)
    est = ts.cfl_timestep(system, safety=0.9)
    rng = np.random.default_rng(6)
    u0 = rng.standard_normal(system.n_free)
    u1 = rng.standard_normal(system.n_free)
    solver = ts.make_solver(system)
    state = ts.SimulationState(u0.copy(), u1.copy(), 1, est.dt)
    for _ in range(1000):
        state = ts.step(state, system, np.zeros(system.n_free), solver)
    back = ts.SimulationState(state.u_curr.copy(), state.u_prev.copy(), 1, est.dt)
    for _ in range(1000):
        back = ts.step(back, system, np.zeros(system.n_free), solver)
    scale = max(np.abs(u0).max(), np.abs(u1).max())
    err = max(np.abs(back.u_curr - u0).max(), np.abs(back.u_prev - u1).max())
    ok = err <= 1e-10 * scale
    report("8f (time reversibility)", ok, f"relative return error {err / scale:.2e}")
    assert ok


def test_criterion_8g_bloch_hermitian_definite():
    worst_herm = 0.0
    worst_neg = 0.0
    mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
    for grid in PERIODIC_GRIDS:
        system = reference_system(grid, 2, mat)
        red = bloch_reduce(system, np.array([0.9, 1.3]))
        for m in (red.mass, red.stiffness):
            worst_herm = max(worst_herm,
                             np.abs(m - m.conj().T).max() / np.abs(m).max())
        assert la.eigvalsh(red.mass).min() > 0
        lam = la.eigh(red.stiffness, red.mass, eigvals_only=True)
        worst_neg = max(worst_neg, -min(lam.min(), 0.0) / lam.max())
    ok = worst_herm <= 1e-14 and worst_neg <= 1e-10
    report("8g (Bloch Hermitian-definite)", ok,
           f"hermiticity {worst_herm:.2e}, negativity {worst_neg:.2e}")
    assert ok


def test_criterion_8h_square_lattice_symmetry():
    theta = 0.4
    worst = 0.0
    for degree in (1, 2):
        base = semidiscrete_dispersion(
            DispersionConfig("quad", degree, 0.15, theta, 2.0))
        for other in (theta + np.pi, np.pi / 2 - theta):
            res = semidiscrete_dispersion(
                DispersionConfig("quad", degree, 0.15, other, 2.0))
            worst = max(worst, abs(res.c_s_h - base.c_s_h), abs(res.c_p_h - base.c_p_h))
    ok = worst <= 1e-10
    report("8h (square-lattice symmetry)", ok, f"worst mismatch {worst:.2e}")
    assert ok
