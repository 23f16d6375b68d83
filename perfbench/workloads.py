"""The four benchmark workloads.

Each workload makes its inputs from the seed, does its set-up (everything before
the first timed operation), and then runs a fixed pass of operations that the
runner repeats.  An operation is a study point, a sweep row, a dispersion row or
a leap-frog step; it fails if it raises, returns a non-finite value or fails its
physics check.  vemwave is reached only through its public module functions.
"""
from __future__ import annotations

import math
import os
import time

import numpy as np

import vemwave.assembly as assembly
import vemwave.dispersion as dispersion
import vemwave.harness as harness
import vemwave.mesh as mesh
import vemwave.timestep as timestep

PERIODIC_GRIDS = ("quad", "tria", "c1", "c2", "c3", "c4")
DELTA, SPEED_RATIO = 0.2, 2.0
IM_OMEGA_LIMIT = 1e-10   # acceptance criterion 5


class PassRecord:
    """Timings, outcomes and output values of one pass."""

    def __init__(self, tracer=None, inject_failure=False):
        self.latencies_ms: list[tuple[str, float]] = []   # (operation kind, ms)
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[str, float] = {}
        self.errors: list[str] = []
        self.tracer = tracer
        self._inject = inject_failure

    def injected(self) -> None:
        """Raise once, when the self-test asked for a forced failure."""
        if self._inject:
            self._inject = False
            raise RuntimeError("injected failure")

    def fail(self, key: str, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(f"{key}: {why}")

    def run(self, key: str, call, check):
        """Time ``call()``, then ``check(result)`` outside the timed region.

        ``check`` returns (outputs, problem) with the values to keep and an error
        message, or None when the physics check holds."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = key
        start = time.perf_counter()
        try:
            self.injected()
            result = call()
        except Exception as exc:  # an operation failure is counted, not fatal
            self.fail(key, f"{type(exc).__name__}: {exc}")
            return None
        self.latencies_ms.append((key, (time.perf_counter() - start) * 1e3))
        outputs, problem = check(result)
        for name, value in outputs.items():
            self.outputs[f"{key}/{name}"] = value
        if problem is None and not all(math.isfinite(v) for v in outputs.values()):
            problem = "non-finite output"
        if problem is not None:
            self.fail(key, problem)
        return result


def _under(values: dict, ceilings: dict, prefix: str):
    """Message naming each value above its ceiling, or None."""
    over = []
    for name, value in values.items():
        limit = ceilings.get(f"{prefix}{name}")
        if limit is not None and not value <= limit:
            over.append(f"{name} = {value:.3e} > {limit:.3e}")
    return "; ".join(over) or None


# -- hconv -------------------------------------------------------------------------


class HConv:
    """Criterion-6 h-convergence study points, one run_convergence call each."""

    name = "hconv"
    min_passes = 3

    def __init__(self, scale: str, seed: int, workdir: str, ceilings: dict):
        if scale == "tiny":
            self.points = [("random_quad", 0, 1), ("hexagonal", 0, 1)]
            self.dt, self.final_time = 5e-4, 0.01
        else:
            self.points = [(f, lev, k) for f in mesh.FAMILIES for lev in (0, 1)
                           for k in (1, 2, 3)]
            self.dt, self.final_time = 5e-4, 0.1
        self.seed = seed          # mesh jitter of random_quad
        self.ceilings = ceilings
        self.ops_per_pass = len(self.points)

    def setup(self) -> None:
        pass

    def run_pass(self, rec: PassRecord) -> None:
        for family, level, degree in self.points:
            key = f"{family}/L{level}/k{degree}"

            def check(study, key=key):
                r = study.records[0]
                values = {"err_l2": r.err_l2, "err_h1": r.err_h1}
                return values, _under(values, self.ceilings, key + "/")

            rec.run(key, lambda f=family, lev=level, k=degree: harness.run_convergence(
                f, [k], [lev], self.dt, self.final_time, seed=self.seed), check)


# -- wave_long ---------------------------------------------------------------------


def jittered_hexagonal(level: int, seed: int, amplitude: float = 0.1):
    """Hexagonal family mesh with interior vertices moved by a seeded random
    fraction of their shortest incident edge."""
    base = mesh.generate_family("hexagonal", level)
    verts = base.vertices.copy()
    edges = np.asarray(base.edges)
    lengths = np.linalg.norm(verts[edges[:, 0]] - verts[edges[:, 1]], axis=1)
    shortest = np.full(len(verts), np.inf)
    np.minimum.at(shortest, edges[:, 0], lengths)
    np.minimum.at(shortest, edges[:, 1], lengths)
    interior = np.ones(len(verts), dtype=bool)
    interior[edges[base.boundary_edges()].ravel()] = False
    rng = np.random.default_rng([seed, 3])
    shift = rng.uniform(-amplitude, amplitude, size=verts.shape) * shortest[:, None]
    verts[interior] += shift[interior]
    return mesh.PolygonalMesh(verts, [list(c) for c in base.cells])


class WaveLong:
    """The `vemwave solve` path: read a mesh file, assemble, then leap-frog steps
    with energy and checkpoints every 100 steps, error norms and a checkpoint
    round-trip.  The full size is hexagonal level 3 at k = 3 (22,822 DOFs)."""

    name = "wave_long"
    min_passes = 2

    def __init__(self, scale: str, seed: int, workdir: str, ceilings: dict):
        if scale == "tiny":
            self.level, self.degree, self.n_steps, self.every = 0, 1, 20, 10
        else:
            self.level, self.degree, self.n_steps, self.every = 3, 3, 200, 100
        self.dt, self.period = 5e-4, 0.1
        self.seed = seed
        self.workdir = workdir
        self.ceilings = ceilings
        self.ops_per_pass = self.n_steps - 1

    def setup(self) -> None:
        path = os.path.join(self.workdir, "input.mesh")
        mesh.write_mesh(jittered_hexagonal(self.level, self.seed), path)
        material = assembly.Material(1.0, 1.0, 1.0)
        self.problem = problem = harness.standing_wave_benchmark(material, self.period)
        self.system = system = assembly.assemble_global(mesh.read_mesh(path),
                                                        self.degree, material)
        self.solver = timestep.make_solver(system)
        # the go/no-go tolerance that harness.solve_benchmark uses
        self.cfl = timestep.cfl_timestep(system, safety=1.0, tol=1e-3, max_iter=300,
                                         solver=self.solver)
        if self.dt > self.cfl.dt:
            raise ValueError(f"dt {self.dt} exceeds the CFL estimate {self.cfl.dt}")
        self.u0 = system.restrict(assembly.interpolate(
            system, lambda p: problem.displacement(p, 0.0)))
        self.v0 = system.restrict(assembly.interpolate(
            system, lambda p: problem.velocity(p, 0.0)))
        self.f_spatial = assembly.assemble_load(
            system, lambda p, t: problem.spatial_load(p), t=0.0)

    def run_pass(self, rec: PassRecord) -> None:
        problem, system, dt = self.problem, self.system, self.dt
        energies: dict[str, float] = {}
        ckpt = os.path.join(self.workdir, "state_{:08d}.ckpt")
        last = [None]

        def on_step(state):
            now = time.perf_counter()
            if last[0] is not None:       # the interval since the previous callback
                rec.latencies_ms.append(("step", (now - last[0]) * 1e3))
            n = state.step_index
            if rec.tracer is not None:
                rec.tracer.op = f"step{n}"
            if n % self.every == 0:
                energies[f"energy{n}"] = timestep.discrete_energy(state, system)
                timestep.save_checkpoint(state, ckpt.format(n))
            last[0] = time.perf_counter()

        f_spatial = self.f_spatial
        steps = self.n_steps - 1          # leap-frog steps after the initial one
        rec.attempted += steps + 2        # + error norms + checkpoint round-trip
        try:
            rec.injected()
            state, _ = timestep.simulate(
                system, self.u0, self.v0, dt, self.n_steps,
                lambda n: problem.time_factor(n * dt) * f_spatial,
                solver=self.solver, on_step=on_step)
        except Exception as exc:
            done = len(rec.latencies_ms)
            rec.fail("simulate", f"{type(exc).__name__}: {exc}", steps - done + 2)
            return
        rec.outputs.update(energies)
        bad = [k for k, v in energies.items() if not math.isfinite(v)]
        if bad:
            rec.fail("energy", f"non-finite at {bad}", len(bad))

        t_end = state.time
        errs = harness.error_norms(system, system.expand(state.u_curr),
                                   problem.displacement, problem.gradient, t_end)
        values = {"final/err_l2": errs.l2, "final/err_h1": errs.h1}
        rec.outputs.update(values)
        problem_msg = _under(values, self.ceilings, "")
        if problem_msg or not all(math.isfinite(v) for v in values.values()):
            rec.fail("error_norms", problem_msg or "non-finite error norm")

        back = timestep.load_checkpoint(ckpt.format(state.step_index))
        same = (back.step_index == state.step_index and back.dt == state.dt
                and back.u_prev.tobytes() == np.asarray(state.u_prev).tobytes()
                and back.u_curr.tobytes() == np.asarray(state.u_curr).tobytes())
        if not same:
            rec.fail("checkpoint", "round-trip is not bit-identical")


# -- cfl_sweep ---------------------------------------------------------------------


def _material():
    return assembly.Material.from_wave_speeds(1.0, float(np.sqrt(2.0)), SPEED_RATIO)


class CflSweep:
    """q_CFL over a sweep of propagation angles, one cfl_parameter row per
    (grid, k)."""

    name = "cfl_sweep"
    min_passes = 3

    def __init__(self, scale: str, seed: int, workdir: str, ceilings: dict):
        if scale == "tiny":
            self.rows = [("quad", 1), ("tria", 1)]
            self.n_angles = 4
        else:
            self.rows = ([(g, k) for g in PERIODIC_GRIDS for k in (1, 2, 3)]
                         + [(g, k) for g in ("quad", "tria") for k in (4, 5, 6)])
            self.n_angles = 16
        self.ops_per_pass = len(self.rows)

    def setup(self) -> None:
        material = _material()
        for grid, degree in self.rows:
            dispersion.reference_system(grid, degree, material)

    def run_pass(self, rec: PassRecord) -> None:
        def check(q):
            q = float(q)
            return {"q_cfl": q}, None if q > 0 else f"q_CFL = {q} is not positive"

        for grid, degree in self.rows:
            rec.run(f"{grid}/k{degree}", lambda g=grid, k=degree: dispersion.cfl_parameter(
                g, k, DELTA, SPEED_RATIO, n_angles=self.n_angles), check)


# -- disp_rows ---------------------------------------------------------------------


class DispRows:
    """Semi-discrete dispersion rows at seeded angles, the criterion-1 rows in
    both P conventions, and the criterion-5 dissipation checks."""

    name = "disp_rows"
    min_passes = 3

    def __init__(self, scale: str, seed: int, workdir: str, ceilings: dict):
        if scale == "tiny":
            self.rows = [("quad", 1), ("quad", 2)]
            self.table = [("quad", 1)]
            self.dissipation = [("quad", 1)]
        else:
            self.rows = [(g, k) for g in PERIODIC_GRIDS for k in range(1, 7)]
            self.table = [("quad", 1), ("quad", 2), ("quad", 3), ("tria", 1), ("tria", 2)]
            self.dissipation = [(g, k) for g in PERIODIC_GRIDS for k in range(1, 5)]
        rng = np.random.default_rng([seed, 2])
        self.theta = {row: float(rng.uniform(0.0, 2.0 * np.pi)) for row in self.rows}
        self.ops_per_pass = len(self.rows) + 2 * len(self.table) + len(self.dissipation)

    def setup(self) -> None:
        material = _material()
        for grid, degree in sorted(set(self.rows + self.table + self.dissipation)):
            dispersion.reference_system(grid, degree, material)

    @staticmethod
    def _check_row(res):
        values = {"e_p": res.e_p, "e_s": res.e_s}
        problem = None
        if not res.im_omega_max <= IM_OMEGA_LIMIT:
            problem = f"im_omega_max = {res.im_omega_max:.3e} > {IM_OMEGA_LIMIT:g}"
        return values, problem

    def run_pass(self, rec: PassRecord) -> None:
        cfg = dispersion.DispersionConfig
        for grid, degree in self.rows:
            c = cfg(grid, degree, DELTA, self.theta[(grid, degree)], SPEED_RATIO)
            rec.run(f"row/{grid}/k{degree}",
                    lambda c=c: dispersion.semidiscrete_dispersion(c), self._check_row)
        for grid, degree in self.table:
            for convention in ("scaled", "shared"):
                c = cfg(grid, degree, DELTA, np.pi / 4, SPEED_RATIO,
                        p_convention=convention)
                rec.run(f"table/{grid}/k{degree}/{convention}",
                        lambda c=c: dispersion.semidiscrete_dispersion(c),
                        self._check_row)

        def check_dissipation(value):
            value = float(value)
            # round-off sized, so checked against the limit and not compared
            problem = None if value <= IM_OMEGA_LIMIT else (
                f"relative Im(omega) = {value:.3e} > {IM_OMEGA_LIMIT:g}")
            return {}, problem

        for grid, degree in self.dissipation:
            c = cfg(grid, degree, DELTA, np.pi / 4, SPEED_RATIO)
            rec.run(f"dissipation/{grid}/k{degree}",
                    lambda c=c: dispersion.dissipation_check(c), check_dissipation)


WORKLOADS = {w.name: w for w in (HConv, WaveLong, CflSweep, DispRows)}
