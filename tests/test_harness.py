import numpy as np
import pytest

from vemwave import harness
from vemwave import timestep as ts
from vemwave.assembly import Material, assemble_global, interpolate
from vemwave.cli import main
from vemwave.harness import (
    ConvergenceStudy,
    error_norms,
    run_convergence,
    run_p_refinement,
    solve_benchmark,
    standing_wave_benchmark,
)
from vemwave.mesh import generate_family
from vemwave.projectors import build_element_operators


class TestBenchmarkProblem:
    def test_body_force_finite_difference_oracle(self):
        """rho u_tt - div sigma(u) must equal the hard-coded body force; checked
        against second-order finite differences of the exact displacement."""
        mat = Material(1.3, 0.8, 1.7)
        problem = standing_wave_benchmark(mat, final_time=1.0)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.1, 0.9, (20, 2))
        t = 0.37
        h = 1e-5

        def u(p, tt=t):
            return problem.displacement(p, tt)

        u_tt = (problem.displacement(pts, t + h) - 2 * problem.displacement(pts, t)
                + problem.displacement(pts, t - h)) / h ** 2

        def second(fun, i, j):
            ei = np.zeros(2)
            ei[i] = h
            ej = np.zeros(2)
            ej[j] = h
            if i == j:
                return (fun(pts + ei) - 2 * fun(pts) + fun(pts - ei)) / h ** 2
            return (fun(pts + ei + ej) - fun(pts + ei - ej)
                    - fun(pts - ei + ej) + fun(pts - ei - ej)) / (4 * h ** 2)

        uxx = second(u, 0, 0)
        uyy = second(u, 1, 1)
        uxy = second(u, 0, 1)
        div_sigma = np.empty_like(uxx)
        div_sigma[:, 0] = ((2 * mat.mu + mat.lam) * uxx[:, 0] + mat.mu * uyy[:, 0]
                           + (mat.lam + mat.mu) * uxy[:, 1])
        div_sigma[:, 1] = ((2 * mat.mu + mat.lam) * uyy[:, 1] + mat.mu * uxx[:, 1]
                           + (mat.lam + mat.mu) * uxy[:, 0])
        f_fd = mat.rho * u_tt - div_sigma
        f = problem.body_force(pts, t)
        assert np.abs(f - f_fd).max() < 1e-4 * max(np.abs(f).max(), 1.0)

    def test_gradient_finite_difference(self):
        problem = standing_wave_benchmark()
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.1, 0.9, (10, 2))
        h = 1e-6
        g = problem.gradient(pts, 0.2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (problem.displacement(pts + e, 0.2)
                  - problem.displacement(pts - e, 0.2)) / (2 * h)
            assert np.abs(g[:, :, j] - fd).max() < 1e-8

    def test_vanishes_on_boundary(self):
        problem = standing_wave_benchmark()
        edge = np.linspace(0, 1, 17)
        for pts in (np.column_stack([edge, np.zeros_like(edge)]),
                    np.column_stack([edge, np.ones_like(edge)]),
                    np.column_stack([np.zeros_like(edge), edge]),
                    np.column_stack([np.ones_like(edge), edge])):
            assert np.abs(problem.displacement(pts, 0.123)).max() < 1e-14

    def test_initial_velocity_zero(self):
        problem = standing_wave_benchmark()
        pts = np.array([[0.3, 0.4]])
        assert np.abs(problem.velocity(pts, 0.0)).max() == 0.0


class TestErrorNorms:
    def test_polynomial_reproduction(self, material):
        mesh = generate_family("hexagonal", 0)
        system = assemble_global(mesh, 2, material, eliminate_dirichlet=False)

        def field(p):
            return np.column_stack([1 + p[:, 0] - 2 * p[:, 1] + p[:, 0] ** 2,
                                    p[:, 0] * p[:, 1] + p[:, 1] ** 2])

        def grad(p, t=0.0):
            g = np.empty((len(p), 2, 2))
            g[:, 0, 0] = 1 + 2 * p[:, 0]
            g[:, 0, 1] = -2.0
            g[:, 1, 0] = p[:, 1]
            g[:, 1, 1] = p[:, 0] + 2 * p[:, 1]
            return g

        full = interpolate(system, field)
        errs = error_norms(system, full, lambda p, t: field(p), grad)
        assert errs.relative
        assert errs.l2 <= 1e-11
        assert errs.h1 <= 1e-11

    def test_zero_solution_gives_unit_relative_error(self, material):
        mesh = generate_family("random_quad", 0)
        system = assemble_global(mesh, 1, material)
        problem = standing_wave_benchmark()
        zero = np.zeros(system.dofmap.n_vector)
        errs = error_norms(system, zero, problem.displacement, problem.gradient, 0.0)
        assert errs.relative
        assert abs(errs.l2 - 1.0) < 1e-12
        assert abs(errs.h1 - 1.0) < 1e-12

    def test_zero_exact_flagged_absolute(self, material):
        mesh = generate_family("random_quad", 0)
        system = assemble_global(mesh, 1, material)
        field = np.zeros(system.dofmap.n_vector)
        errs = error_norms(system, field,
                           lambda p, t: np.zeros((len(p), 2)),
                           lambda p, t: np.zeros((len(p), 2, 2)))
        assert not errs.relative
        assert errs.l2 == 0.0

    def test_deterministic(self, material):
        mesh = generate_family("hexagonal", 0)
        system = assemble_global(mesh, 2, material)
        problem = standing_wave_benchmark()
        full = interpolate(system, lambda p: problem.displacement(p, 0.0))
        a = error_norms(system, full, problem.displacement, problem.gradient, 0.0)
        b = error_norms(system, full, problem.displacement, problem.gradient, 0.0)
        assert a.l2 == b.l2 and a.h1 == b.h1


class TestInterpolationRates:
    def test_l2_interpolation_rate(self):
        """Interpolate (not solve) the benchmark at t = 0; the L2 interpolation
        error must decay at order k + 1 (with preasymptotic slack)."""
        problem = standing_wave_benchmark()
        k = 2
        errs, hs = [], []
        for level in range(3):
            mesh = generate_family("random_quad", level, seed=0)
            system = assemble_global(mesh, k, problem.material,
                                     eliminate_dirichlet=False)
            full = interpolate(system, lambda p: problem.displacement(p, 0.0))
            e = error_norms(system, full, problem.displacement, problem.gradient, 0.0)
            errs.append(e.l2)
            hs.append(mesh.max_diameter())
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= k + 0.8


class TestConvergenceDriver:
    def test_cfl_guard(self, material):
        mesh = generate_family("random_quad", 0)
        system = assemble_global(mesh, 1, material)
        problem = standing_wave_benchmark(material)
        with pytest.raises(ValueError, match="CFL"):
            solve_benchmark(system, problem, dt=0.5, final_time=1.0)

    def test_instability_names_the_cfl_estimate(self, monkeypatch, material):
        """Only solve_benchmark knows the CFL estimate: it re-raises the
        simulation's InstabilityError with that estimate as suggested_dt."""
        estimates, check_cfl = [], ts.check_cfl

        def recording_check(system, dt, solver):
            estimates.append(check_cfl(system, dt, solver))
            return estimates[-1]

        def diverge(*args, **kwargs):
            raise ts.InstabilityError(7)

        monkeypatch.setattr(ts, "check_cfl", recording_check)
        monkeypatch.setattr(ts, "simulate", diverge)
        system = assemble_global(generate_family("random_quad", 0), 1, material)
        with pytest.raises(ts.InstabilityError) as info:
            solve_benchmark(system, standing_wave_benchmark(material), 5e-4, 0.01)
        est, = estimates
        assert info.value.step_index == 7
        assert info.value.suggested_dt == est.dt
        assert str(info.value) == (f"leap-frog iteration diverged at step 7; "
                                   f"the CFL estimate suggests dt <= {est.dt:.6e}")

    def test_errors_decrease_with_level(self):
        study = run_convergence("random_quad", [1], range(2), 1e-3, 0.02, seed=0)
        errs = [r.err_l2 for r in study.records]
        assert errs[1] < errs[0]

    def test_slope_helpers(self):
        study = ConvergenceStudy()
        from vemwave.harness import ConvergenceRecord
        for level, h, e in [(0, 0.2, 1e-2), (1, 0.1, 2.5e-3), (2, 0.05, 6.25e-4)]:
            study.records.append(ConvergenceRecord("random_quad", 1, level, h, 10,
                                                   e, e, 0.0))
        assert abs(study.slope(1, "l2") - 2.0) < 1e-12
        incs = study.incremental_slopes(1, "l2")
        assert len(incs) == 2
        assert all(abs(s - 2.0) < 1e-12 for s in incs)

    def test_csv(self, tmp_path):
        """The study's CSV, as `vemwave convergence` writes it."""
        assert main(["convergence", "--family", "quad", "--k", "1", "--levels", "1",
                     "--dt", "1e-3", "--T", "0.01", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "family,k,level,h,ndofs,err_l2,err_h1,seconds"
        assert len(lines) == 2
        r = run_convergence("random_quad", [1], range(1), 1e-3, 0.01, seed=0).records[0]
        assert lines[1].split(",")[:-1] == [
            "random_quad", "1", "0", f"{r.h:.12e}", str(r.n_dofs),
            f"{r.err_l2:.12e}", f"{r.err_h1:.12e}"]

    @pytest.mark.parametrize("dt", [-5e-4, 0.0])
    def test_non_positive_dt_rejected(self, material, dt):
        system = assemble_global(generate_family("random_quad", 0), 1, material)
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            solve_benchmark(system, standing_wave_benchmark(material), dt, 0.1)
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            run_convergence("random_quad", [1], range(1), dt, 0.1)

    @pytest.mark.parametrize("dt, final_time, message", [
        (0.0, 0.1, "dt must be finite and > 0"),
        (-5e-4, 0.1, "dt must be finite and > 0"),
        (3e-4, 0.1, "not an integer multiple"),
    ])
    def test_bad_step_rejected_before_any_mesh(self, monkeypatch, dt, final_time,
                                               message):
        def no_mesh(*args):
            raise AssertionError("a mesh was built before dt was checked")

        monkeypatch.setattr(harness, "generate_family", no_mesh)
        with pytest.raises(ValueError, match=message):
            run_convergence("random_quad", [1], range(1), dt, final_time)
        with pytest.raises(ValueError, match=message):
            run_p_refinement([1], dt, final_time)


class TestPRefinement:
    def test_k1_identical_between_bases(self):
        recs = run_p_refinement([1], 1e-3, 0.01, basis_kinds=("monomial", "orthonormal"))
        mono = next(r for r in recs if r.basis_kind == "monomial")
        ortho = next(r for r in recs if r.basis_kind == "orthonormal")
        assert abs(mono.err_l2 - ortho.err_l2) < 1e-12
        assert abs(mono.err_h1 - ortho.err_h1) < 1e-12

    def test_max_condition_is_worst_cell(self):
        """Read from the groups: the largest condition over the per-cell views."""
        r, = run_p_refinement([3], 1e-3, 0.01, basis_kinds=("monomial",), seed=2)
        ops = build_element_operators(generate_family("random_quad", 0, 2), 3)
        assert type(r.max_condition) is float
        assert r.max_condition == max(op.projector_condition for op in ops)

    def test_monomial_conditioning_penalty_high_degree(self):
        """At k = 7 the raw monomial basis pays for its conditioning: its error
        sits above the orthonormal one and its local systems are ~1e6x worse."""
        recs = run_p_refinement([7], 5e-4, 0.1, basis_kinds=("monomial", "orthonormal"))
        mono = next(r for r in recs if r.basis_kind == "monomial")
        ortho = next(r for r in recs if r.basis_kind == "orthonormal")
        assert mono.err_l2 >= ortho.err_l2
        assert mono.max_condition > 1e3 * ortho.max_condition

    def test_singular_monomial_projector_recorded(self):
        """At k = 10 on the seed-1 mesh the monomial elliptic projector system
        is singular (ProjectorError, cond ~ 1.7e15): a recorded failure, not an
        abort of the study."""
        recs = run_p_refinement([10], 1e-3, 0.001, basis_kinds=("monomial",), seed=1)
        assert len(recs) == 1
        r = recs[0]
        assert r.conditioning_failure and r.degree == 10 and r.n_dofs == 0
        assert np.isnan(r.err_l2) and np.isinf(r.max_condition)
