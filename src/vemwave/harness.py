"""Error norms, the manufactured standing-wave benchmark, and h/p refinement
convergence studies."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import GlobalSystem, Material, assemble_global, assemble_load, interpolate
from .mesh import ParameterError, check_family, check_level, generate_family
from .polybasis import BasisConditioningError
from .projectors import ProjectorError, check_basis_kind, check_degree
from . import timestep as ts


@dataclass(frozen=True)
class BenchmarkProblem:
    """Manufactured elastodynamics problem with a separable-in-time exact solution
    u(x, t) = time_factor(t) * shape(x); the body force is hard-coded analytically
    and cross-checked against finite differences in the test suite."""

    material: Material
    final_time: float

    def time_factor(self, t: float) -> float:
        return float(np.cos(2.0 * np.pi * t / self.final_time))

    def time_factor_dt(self, t: float) -> float:
        w = 2.0 * np.pi / self.final_time
        return float(-w * np.sin(w * t))

    def shape(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        x, y = p[:, 0], p[:, 1]
        sx = np.sin(np.pi * x)
        sy = np.sin(np.pi * y)
        return np.column_stack([sx * sx * np.sin(2.0 * np.pi * y),
                                np.sin(2.0 * np.pi * x) * sy * sy])

    def displacement(self, points: np.ndarray, t: float) -> np.ndarray:
        return self.time_factor(t) * self.shape(points)

    def velocity(self, points: np.ndarray, t: float) -> np.ndarray:
        return self.time_factor_dt(t) * self.shape(points)

    def gradient(self, points: np.ndarray, t: float) -> np.ndarray:
        """Displacement gradient, shape (n, 2, 2): out[:, i, j] = d u_i / d x_j."""
        p = np.atleast_2d(points)
        x, y = p[:, 0], p[:, 1]
        pi = np.pi
        g = np.empty((len(p), 2, 2))
        g[:, 0, 0] = pi * np.sin(2 * pi * x) * np.sin(2 * pi * y)
        g[:, 0, 1] = 2 * pi * np.sin(pi * x) ** 2 * np.cos(2 * pi * y)
        g[:, 1, 0] = 2 * pi * np.cos(2 * pi * x) * np.sin(pi * y) ** 2
        g[:, 1, 1] = pi * np.sin(2 * pi * x) * np.sin(2 * pi * y)
        return self.time_factor(t) * g

    def spatial_load(self, points: np.ndarray) -> np.ndarray:
        """f / time_factor(t): rho u_tt - div sigma(u) shares the time factor."""
        mat = self.material
        p = np.atleast_2d(points)
        x, y = p[:, 0], p[:, 1]
        pi = np.pi
        w2 = (2.0 * pi / self.final_time) ** 2
        mix = 2.0 * pi * pi * (3.0 * mat.mu + 2.0 * mat.lam)
        bulge = 4.0 * pi * pi * mat.mu
        f1 = (-mat.rho * w2 * np.sin(pi * x) ** 2 * np.sin(2 * pi * y)
              - mix * np.cos(2 * pi * x) * np.sin(2 * pi * y)
              + bulge * np.sin(pi * x) ** 2 * np.sin(2 * pi * y))
        f2 = (-mat.rho * w2 * np.sin(pi * y) ** 2 * np.sin(2 * pi * x)
              - mix * np.cos(2 * pi * y) * np.sin(2 * pi * x)
              + bulge * np.sin(pi * y) ** 2 * np.sin(2 * pi * x))
        return np.column_stack([f1, f2])

    def body_force(self, points: np.ndarray, t: float) -> np.ndarray:
        return self.time_factor(t) * self.spatial_load(points)


def standing_wave_benchmark(material: Material | None = None,
                            final_time: float = 1.0) -> BenchmarkProblem:
    return BenchmarkProblem(material or Material(1.0, 1.0, 1.0), final_time)


@dataclass
class ErrorNorms:
    l2: float
    h1: float
    relative: bool


def error_norms(system: GlobalSystem, u_full: np.ndarray, exact, exact_gradient,
                t: float = 0.0) -> ErrorNorms:
    """Relative L2 and broken H1 seminorm errors of a discrete state.

    The discrete field enters through its computable projections: Pi0_k u_h for the
    L2 norm and (Pi0x, Pi0y) per component for the gradient.  When the exact norm
    is below 1e-14 the absolute errors are returned with relative=False."""
    err_l2 = err_h1 = norm_l2 = norm_h1 = 0.0
    for group, dofs in zip(system.groups, system.dofs):
        u = u_full[dofs]
        pts, w = group.rule.points, group.rule.weights
        basis_vals = group.basis.eval(pts)
        uh = basis_vals @ (group.pi_zero @ u)
        ue = np.asarray(exact(pts.reshape(-1, 2), t)).reshape(uh.shape)
        err_l2 += np.sum(w * ((uh - ue) ** 2).sum(axis=-1))
        norm_l2 += np.sum(w * (ue ** 2).sum(axis=-1))

        # gh[..., i, j] = d u_i / d x_j of the projected field
        vals_km1 = basis_vals[..., :group.n_km1]
        gh = np.stack([vals_km1 @ (group.pi_zero_x @ u),
                       vals_km1 @ (group.pi_zero_y @ u)], axis=-1)
        ge = np.asarray(exact_gradient(pts.reshape(-1, 2), t)).reshape(gh.shape)
        err_h1 += np.sum(w * ((gh - ge) ** 2).sum(axis=(-2, -1)))
        norm_h1 += np.sum(w * (ge ** 2).sum(axis=(-2, -1)))
    err_l2, err_h1 = np.sqrt(err_l2), np.sqrt(err_h1)
    norm_l2, norm_h1 = np.sqrt(norm_l2), np.sqrt(norm_h1)
    if norm_l2 < 1e-14 or norm_h1 < 1e-14:
        return ErrorNorms(float(err_l2), float(err_h1), relative=False)
    return ErrorNorms(float(err_l2 / norm_l2), float(err_h1 / norm_h1), relative=True)


@dataclass
class ConvergenceRecord:
    family: str
    degree: int
    level: int
    h: float
    n_dofs: int
    err_l2: float
    err_h1: float
    seconds: float


@dataclass
class ConvergenceStudy:
    records: list[ConvergenceRecord] = field(default_factory=list)

    def slope(self, degree: int, norm: str = "l2") -> float:
        """Least-squares log-log slope of the error versus h for one degree."""
        recs = [r for r in self.records if r.degree == degree]
        if len(recs) < 2:
            raise ValueError("slope needs at least two refinement levels")
        hs = np.log([r.h for r in recs])
        errs = np.log([getattr(r, f"err_{norm}") for r in recs])
        return float(np.polyfit(hs, errs, 1)[0])

    def incremental_slopes(self, degree: int, norm: str = "l2") -> list[float]:
        recs = sorted((r for r in self.records if r.degree == degree),
                      key=lambda r: -r.h)
        out = []
        for a, b in zip(recs, recs[1:]):
            ea, eb = getattr(a, f"err_{norm}"), getattr(b, f"err_{norm}")
            out.append(float(np.log(eb / ea) / np.log(b.h / a.h)))
        return out


def solve_benchmark(system: GlobalSystem, problem: BenchmarkProblem, dt: float,
                    final_time: float, on_step=None) -> ts.SimulationState:
    """Integrate the benchmark to final_time and return the final state (free DOFs).

    Refuses to run when dt exceeds the CFL limit, reporting the admissible step,
    and a diverging run raises InstabilityError with the CFL estimate as
    ``suggested_dt``.  The separable load is assembled once and rescaled each
    step; ``on_step`` is passed to ``timestep.simulate``."""
    n_steps = ts.step_count(final_time, dt)
    solver = ts.make_solver(system)
    est = ts.check_cfl(system, dt, solver)
    u0 = system.restrict(interpolate(system, lambda p: problem.displacement(p, 0.0)))
    v0 = system.restrict(interpolate(system, lambda p: problem.velocity(p, 0.0)))
    f_spatial = assemble_load(system, lambda p, t: problem.spatial_load(p), t=0.0)
    load = lambda n: problem.time_factor(n * dt) * f_spatial
    try:
        state, _ = ts.simulate(system, u0, v0, dt, n_steps, load, solver=solver,
                               on_step=on_step)
    except ts.InstabilityError as err:
        raise ts.InstabilityError(err.step_index, est.dt) from err
    return state


def _checked(values, name: str, check) -> list:
    """``values`` as a list, each passed through ``check``; none is an error, and
    so is a string, whose characters are not the values it names."""
    if isinstance(values, (str, bytes)):
        raise ParameterError(name, f"{name}s must be a sequence of values, "
                                   f"not the string {values!r}")
    values = list(values)
    if not values:
        raise ParameterError(name, f"{name} list must not be empty")
    for value in values:
        check(value)
    return values


def _study_point(mesh, degree: int, basis_kind: str, problem: BenchmarkProblem,
                 dt: float, final_time: float) -> tuple[GlobalSystem, ErrorNorms]:
    """Assemble on ``mesh``, integrate the benchmark to final_time, and measure
    the errors of the final state: one point of an h- or p-refinement study."""
    system = assemble_global(mesh, degree, problem.material, basis_kind=basis_kind)
    state = solve_benchmark(system, problem, dt, final_time)
    return system, error_norms(system, system.expand(state.u_curr),
                               problem.displacement, problem.gradient, final_time)


def run_convergence(family: str, degrees, levels, dt: float, final_time: float,
                    *, seed: int = 0) -> ConvergenceStudy:
    """Assemble, integrate, and measure errors for each (level, degree) pair of
    the standing-wave benchmark, in the monomial basis."""
    check_family(family)
    ts.step_count(final_time, dt)
    degrees = _checked(degrees, "degree", check_degree)
    levels = _checked(levels, "level", check_level)
    problem = standing_wave_benchmark()
    study = ConvergenceStudy()
    for level in levels:
        mesh = generate_family(family, level, seed)
        for degree in degrees:
            start = time.perf_counter()
            system, errs = _study_point(mesh, degree, "monomial", problem, dt,
                                        final_time)
            study.records.append(ConvergenceRecord(
                family, degree, level, mesh.max_diameter(), system.n_free,
                errs.l2, errs.h1, time.perf_counter() - start))
    return study


@dataclass
class PRefinementRecord:
    degree: int
    basis_kind: str
    n_dofs: int
    err_l2: float
    err_h1: float
    max_condition: float
    conditioning_failure: bool


def run_p_refinement(degrees, dt: float, final_time: float, *,
                     basis_kinds=("monomial", "orthonormal"),
                     seed: int = 0) -> list[PRefinementRecord]:
    """p-refinement study on the fixed 5x5 randomized quadrilateral mesh.

    An ill-conditioned build is recorded as a conditioning failure, not raised:
    the orthonormalization of the basis (BasisConditioningError) or the elliptic
    projector system (ProjectorError, the monomial basis at high degree)."""
    ts.step_count(final_time, dt)
    degrees = _checked(degrees, "degree", check_degree)
    basis_kinds = _checked(basis_kinds, "basis_kind", check_basis_kind)
    mesh = generate_family("random_quad", 0, seed)
    problem = standing_wave_benchmark()
    records = []
    for basis_kind in basis_kinds:
        for degree in degrees:
            try:
                system, errs = _study_point(mesh, degree, basis_kind, problem, dt,
                                            final_time)
            except (BasisConditioningError, ProjectorError):
                records.append(PRefinementRecord(
                    degree, basis_kind, 0, np.nan, np.nan, np.inf, True))
                continue
            cond = float(max(g.projector_condition.max() for g in system.groups))
            records.append(PRefinementRecord(
                degree, basis_kind, system.n_free, errs.l2, errs.h1, cond, False))
    return records
