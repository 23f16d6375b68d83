import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from vemwave.assembly import Material, assemble_global
from vemwave.harness import solve_benchmark, standing_wave_benchmark
from vemwave.mesh import PolygonalMesh, generate_family, reference_periodic_cell
from vemwave import timestep as ts


def oscillator(omega: float):
    """1-DOF system M = 1, K = omega^2 quacking like a GlobalSystem."""
    mass = sp.csr_matrix(np.array([[1.0]]))
    return SimpleNamespace(mass=mass, scalar_mass=mass,
                           stiffness=sp.csr_matrix(np.array([[omega ** 2]])),
                           n_free=1)


def dense_lambda_max(system) -> float:
    return la.eigh(system.stiffness.toarray(), system.mass.toarray(),
                   eigvals_only=True)[-1]


def quad_grid_system(n, degree, material=None):
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = [[x, y] for x in xs for y in xs]
    cells = []
    for i in range(n):
        for j in range(n):
            v00 = i * (n + 1) + j
            cells.append([v00, v00 + n + 1, v00 + n + 2, v00 + 1])
    mesh = PolygonalMesh(verts, cells)
    return assemble_global(mesh, degree, material or Material(1.0, 1.0, 1.0))


class TestOscillator:
    def test_zero_data_stays_zero(self):
        system = oscillator(2.0)
        solver = ts.make_solver(system)
        zero = np.zeros(1)
        u1 = ts.initial_step(system, zero, zero, zero, 0.1, solver)
        assert u1[0] == 0.0
        state = ts.SimulationState(zero, u1, 1, 0.1)
        state = ts.step(state, system, zero, solver)
        assert np.all(state.u_curr == 0.0)

    def test_free_flight(self):
        system = oscillator(0.0)
        solver = ts.make_solver(system)
        u1 = ts.initial_step(system, np.array([1.0]), np.array([2.0]),
                             np.zeros(1), 0.25, solver)
        assert abs(u1[0] - 1.5) < 1e-15

    def test_initial_step_taylor(self):
        omega, dt = 3.0, 0.02
        system = oscillator(omega)
        u1 = ts.initial_step(system, np.array([1.0]), np.zeros(1), np.zeros(1), dt)
        assert abs(u1[0] - (1.0 - (dt * omega) ** 2 / 2.0)) < 1e-15

    def test_cosine_tracking(self):
        """The discrete solution equals cos(omega_h t) exactly, with the leap-frog
        frequency omega_h = (2/dt) asin(omega dt / 2); the physical cosine is then
        tracked within the phase-drift bound |omega_h - omega| t."""
        omega = 1.0
        dt = 0.1 / omega
        omega_h = 2.0 / dt * np.arcsin(omega * dt / 2.0)
        system = oscillator(omega)
        solver = ts.make_solver(system)
        u1 = ts.initial_step(system, np.array([1.0]), np.zeros(1), np.zeros(1), dt)
        state = ts.SimulationState(np.array([1.0]), u1, 1, dt)
        worst_discrete = worst_physical = 0.0
        for _ in range(999):
            state = ts.step(state, system, np.zeros(1), solver)
            worst_discrete = max(worst_discrete,
                                 abs(state.u_curr[0] - np.cos(omega_h * state.time)))
            if state.step_index <= 100:
                worst_physical = max(worst_physical,
                                     abs(state.u_curr[0] - np.cos(omega * state.time)))
        assert worst_discrete <= 1e-10
        assert worst_physical <= 5e-3
        # long-horizon error stays within the analytic phase-drift bound
        assert abs(state.u_curr[0] - np.cos(omega * state.time)) \
            <= 1.05 * (omega_h - omega) * state.time

    def test_instability_detected(self):
        omega = 1.0
        dt = 2.5  # omega*dt = 2.5 > 2
        system = oscillator(omega)
        solver = ts.make_solver(system)
        u1 = ts.initial_step(system, np.array([1.0]), np.zeros(1), np.zeros(1), dt)
        state = ts.SimulationState(np.array([1.0]), u1, 1, dt)
        with pytest.raises(ts.InstabilityError):
            for _ in range(200):
                state = ts.step(state, system, np.zeros(1), solver)

    # u^2 = dt^2 f with u^0 = u^1 = 0 and K = 0: NaN, +inf, -inf and 1e13
    @pytest.mark.parametrize("f", [np.nan, np.inf, -np.inf, 1e15])
    def test_non_finite_or_huge_step_raises(self, f):
        system = oscillator(0.0)
        zero = np.zeros(1)
        state = ts.SimulationState(zero, zero, 1, 0.1)
        with pytest.raises(ts.InstabilityError, match="step 2"):
            ts.step(state, system, np.array([f]), ts.make_solver(system))

    def test_energy_identity_constant(self):
        omega, dt = 2.0, 0.05
        system = oscillator(omega)
        solver = ts.make_solver(system)
        u1 = ts.initial_step(system, np.array([1.0]), np.zeros(1), np.zeros(1), dt)
        state = ts.SimulationState(np.array([1.0]), u1, 1, dt)
        e0 = ts.discrete_energy(state, system)
        for _ in range(200):
            state = ts.step(state, system, np.zeros(1), solver)
        e1 = ts.discrete_energy(state, system)
        assert abs(e1 - e0) <= 1e-13 * abs(e0)

    def test_second_order_phase_accuracy(self):
        omega, horizon = 1.0, 10.0
        errors = []
        for dt in (0.05, 0.0125):
            system = oscillator(omega)
            solver = ts.make_solver(system)
            u1 = ts.initial_step(system, np.array([1.0]), np.zeros(1), np.zeros(1), dt)
            state = ts.SimulationState(np.array([1.0]), u1, 1, dt)
            while state.step_index * dt < horizon - 1e-12:
                state = ts.step(state, system, np.zeros(1), solver)
            errors.append(abs(state.u_curr[0] - np.cos(omega * state.time)))
        order = np.log(errors[0] / errors[1]) / np.log(4.0)
        assert abs(order - 2.0) < 0.2


class TestCfl:
    def test_diagonal_system(self):
        system = SimpleNamespace(mass=sp.identity(2, format="csr"),
                                 scalar_mass=sp.identity(1, format="csr"),
                                 stiffness=sp.csr_matrix(np.diag([1.0, 4.0])),
                                 n_free=2)
        est = ts.cfl_timestep(system, safety=0.5)
        assert abs(est.dt - 0.5 * 2.0 / 2.0) < 1e-6

    def test_matches_dense_eigensolve(self):
        system = quad_grid_system(2, 2)
        est = ts.cfl_timestep(system, safety=1.0)
        lam = dense_lambda_max(system)
        assert abs(est.lambda_max - lam) < 0.01 * lam

    @pytest.mark.parametrize("family, level, degree", [("random_quad", 1, 2),
                                                       ("nonconvex_octagon", 0, 2)])
    def test_lambda_max_exact(self, family, level, degree):
        system = assemble_global(generate_family(family, level, seed=0), degree,
                                 Material(1.0, 1.0, 1.0))
        lam = dense_lambda_max(system)
        est = ts.cfl_timestep(system, safety=1.0)
        assert abs(est.lambda_max - lam) <= 1e-8 * lam
        assert est.dt == pytest.approx(2.0 / np.sqrt(lam), rel=1e-8)
        coarse = ts.cfl_timestep(system, safety=1.0, tol=1e-3, max_iter=300)
        assert abs(coarse.lambda_max - lam) <= 1e-4 * lam

    def test_check_cfl_refuses_super_cfl_dt(self):
        system = assemble_global(generate_family("random_quad", 1, seed=0), 2,
                                 Material(1.0, 1.0, 1.0))
        dt = 1.03 * 2.0 / np.sqrt(dense_lambda_max(system))
        with pytest.raises(ValueError, match="CFL"):
            ts.check_cfl(system, dt, ts.make_solver(system))

    def test_check_cfl_refuses_one_percent_above_limit(self):
        """No slack above the exact limit: 1.01x is refused, 0.99x admitted."""
        system = assemble_global(generate_family("random_quad", 1, seed=0), 2,
                                 Material(1.0, 1.0, 1.0))
        limit = 2.0 / np.sqrt(dense_lambda_max(system))
        solver = ts.make_solver(system)
        with pytest.raises(ValueError, match="CFL"):
            ts.check_cfl(system, 1.01 * limit, solver)
        assert ts.check_cfl(system, 0.99 * limit, solver).dt >= 0.99 * limit

    def test_stability_bracketing(self):
        system = quad_grid_system(3, 2)
        est = ts.cfl_timestep(system, safety=1.0)
        rng = np.random.default_rng(0)
        u0 = 1e-3 * rng.standard_normal(system.n_free)
        v0 = np.zeros(system.n_free)
        with pytest.raises(ts.InstabilityError):
            ts.simulate(system, u0, v0, est.dt * 1.01, 10_000)
        state, _ = ts.simulate(system, u0, v0, est.dt * 0.99, 10_000)
        assert np.all(np.isfinite(state.u_curr))


class TestStepCount:
    @pytest.mark.parametrize("final_time, dt, n", [(0.01, 1e-3, 10), (0.0, 1e-3, 0),
                                                   (0.1, 5e-4, 200)])
    def test_integer_multiple(self, final_time, dt, n):
        assert ts.step_count(final_time, dt) == n

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            ts.step_count(0.0105, 1e-3)

    @pytest.mark.parametrize("dt", [-5e-4, 0.0, float("nan"), float("inf")])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            ts.step_count(0.1, dt)

    @pytest.mark.parametrize("final_time", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_final_time(self, final_time):
        with pytest.raises(ValueError, match="final time must be finite and >= 0"):
            ts.step_count(final_time, 1e-3)


class TestConservation:
    def test_energy_drift(self):
        system = quad_grid_system(3, 2)
        est = ts.cfl_timestep(system, safety=0.9)
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal(system.n_free)
        v0 = rng.standard_normal(system.n_free)
        solver = ts.make_solver(system)
        u1 = ts.initial_step(system, u0, v0, np.zeros(system.n_free), est.dt, solver)
        state = ts.SimulationState(u0, u1, 1, est.dt)
        e0 = ts.discrete_energy(state, system)
        for _ in range(10_000):
            state = ts.step(state, system, np.zeros(system.n_free), solver)
        drift = abs(ts.discrete_energy(state, system) - e0) / abs(e0)
        assert drift <= 1e-10

    def test_time_reversibility(self):
        system = quad_grid_system(3, 1)
        est = ts.cfl_timestep(system, safety=0.9)
        rng = np.random.default_rng(2)
        u0 = rng.standard_normal(system.n_free)
        u1 = rng.standard_normal(system.n_free)
        solver = ts.make_solver(system)
        state = ts.SimulationState(u0.copy(), u1.copy(), 1, est.dt)
        for _ in range(500):
            state = ts.step(state, system, np.zeros(system.n_free), solver)
        back = ts.SimulationState(state.u_curr.copy(), state.u_prev.copy(), 1, est.dt)
        for _ in range(500):
            back = ts.step(back, system, np.zeros(system.n_free), solver)
        scale = max(np.abs(u0).max(), np.abs(u1).max())
        assert np.abs(back.u_curr - u0).max() <= 1e-10 * scale
        assert np.abs(back.u_prev - u1).max() <= 1e-10 * scale


class TestMassSolver:
    @pytest.mark.parametrize("constrained", [True, False],
                             ids=["dirichlet", "periodic"])
    def test_matches_dense_solve(self, constrained):
        if constrained:
            system = quad_grid_system(3, 2)
        else:
            system = assemble_global(reference_periodic_cell("c3", 1.0), 2,
                                     Material(1.0, 1.0, 1.0),
                                     eliminate_dirichlet=False)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(system.n_free)
        b_copy = b.copy()
        x = ts.make_solver(system)(b)
        x_dense = np.linalg.solve(system.mass.toarray(), b)
        assert x.shape == b.shape
        assert np.array_equal(b, b_copy)
        assert np.abs(x - x_dense).max() <= 1e-12 * np.abs(x_dense).max()


class TestMassProduct:
    """The solve path applies the scalar mass per component and never builds the
    block matrix ``system.mass``."""

    @pytest.mark.parametrize("constrained", [True, False],
                             ids=["dirichlet", "periodic"])
    def test_matches_block_mass_bytes(self, constrained):
        mesh = generate_family("hexagonal", 1) if constrained else \
            reference_periodic_cell("c3", 1.0)
        system = assemble_global(mesh, 3, Material(1.0, 1.0, 1.0),
                                 eliminate_dirichlet=constrained)
        v = np.random.default_rng(5).standard_normal(system.n_free)
        got = ts.mass_product(system, v)
        assert "mass" not in vars(system)
        assert got.tobytes() == (system.mass @ v).tobytes()

    def test_solve_path_leaves_block_mass_unbuilt(self):
        material = Material(1.0, 1.0, 1.0)
        system = assemble_global(generate_family("hexagonal", 0), 2, material)
        state = solve_benchmark(system, standing_wave_benchmark(material), 1e-3, 0.01)
        energy = ts.discrete_energy(state, system)
        est = ts.cfl_timestep(system)
        assert "mass" not in vars(system)
        v = (state.u_curr - state.u_prev) / state.dt
        assert energy == float(0.5 * v @ (system.mass @ v) + 0.5 * state.u_curr
                               @ (system.stiffness @ state.u_prev))
        assert abs(est.lambda_max - dense_lambda_max(system)) <= 1e-5 * est.lambda_max


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        state = ts.SimulationState(np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                                   17, 0.125)
        path = tmp_path / "state.ckpt"
        ts.save_checkpoint(state, path)
        back = ts.load_checkpoint(path)
        assert back.step_index == 17
        assert back.dt == 0.125
        assert np.array_equal(back.u_prev, state.u_prev)
        assert np.array_equal(back.u_curr, state.u_curr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\0" * 32)
        with pytest.raises(ValueError, match="not a checkpoint"):
            ts.load_checkpoint(path)

    @pytest.mark.parametrize("step_index, dt", [(-1, 0.125), (3, np.nan), (3, 0.0)])
    def test_corrupt_header_rejected(self, tmp_path, step_index, dt):
        """A header that save_checkpoint never writes: a negative step index,
        or a dt that is not finite and > 0."""
        path = tmp_path / "state.ckpt"
        path.write_bytes(ts._CKPT_MAGIC + ts._CKPT_HEADER.pack(step_index, dt, 1)
                         + np.zeros(2).tobytes())
        with pytest.raises(ValueError, match="state.ckpt: corrupt checkpoint header"):
            ts.load_checkpoint(path)

    @settings(max_examples=30, deadline=None)
    @given(u=st.lists(st.floats(allow_nan=False), min_size=0, max_size=10),
           step_index=st.integers(0, 2 ** 62), dt=st.floats(1e-9, 1.0),
           tail=st.binary(min_size=1, max_size=24))
    def test_truncated_or_padded_file_rejected(self, u, step_index, dt, tail):
        n = len(u) // 2
        state = ts.SimulationState(np.array(u[:n]), np.array(u[n:2 * n]),
                                   step_index, dt)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.ckpt"
            ts.save_checkpoint(state, path)
            data = path.read_bytes()
            back = ts.load_checkpoint(path)
            assert (back.step_index, back.dt) == (step_index, dt)
            assert back.u_prev.tobytes() == state.u_prev.tobytes()
            assert back.u_curr.tobytes() == state.u_curr.tobytes()
            for cut in range(len(data)):
                path.write_bytes(data[:cut])
                with pytest.raises(ValueError, match="state.ckpt"):
                    ts.load_checkpoint(path)
            path.write_bytes(data + tail)
            with pytest.raises(ValueError, match="state.ckpt"):
                ts.load_checkpoint(path)
