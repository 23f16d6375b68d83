"""Leap-frog time integration: special initial step, CFL limit from ARPACK Lanczos
on the generalised pencil (K, M) with the existing mass factorisation, conserved
discrete energy, and binary state checkpoints."""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import GlobalSystem
from .mesh import ParameterError, check_integer

_CKPT_MAGIC = b"VEMCKPT1"
_CKPT_HEADER = struct.Struct("<qdq")  # step index, dt, DOF count


class InstabilityError(RuntimeError):
    def __init__(self, step_index: int, suggested_dt: float | None = None):
        msg = f"leap-frog iteration diverged at step {step_index}"
        if suggested_dt is not None:
            msg += f"; the CFL estimate suggests dt <= {suggested_dt:.6e}"
        super().__init__(msg)
        self.step_index = step_index
        self.suggested_dt = suggested_dt


@dataclass
class SimulationState:
    u_prev: np.ndarray
    u_curr: np.ndarray
    step_index: int
    dt: float

    @property
    def time(self) -> float:
        return self.step_index * self.dt


def make_solver(system: GlobalSystem):
    """Reusable solver for the constant mass matrix M = blockdiag(Ms, Ms).

    Only the scalar mass ``Ms = system.scalar_mass`` is factored, once, by
    SuperLU.  A solve reads ``b = [x-free | y-free]`` as the two columns of one
    right-hand side and returns the same flat layout.  Ms is symmetric positive
    definite, so elimination without pivoting is stable: every pivot is taken
    from the diagonal (``diag_pivot_thresh=0``), in a minimum-degree ordering
    of the symmetric pattern of Ms."""
    ms = system.scalar_mass.tocsc()
    lu = spla.splu(ms, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    n = ms.shape[0]
    return lambda b: lu.solve(b.reshape(-1, n).T).T.ravel()


def mass_product(system: GlobalSystem, v: np.ndarray) -> np.ndarray:
    """M v for M = blockdiag(Ms, Ms), applying ``system.scalar_mass`` to each
    component block of v: row for row the same sums as ``system.mass @ v``, so
    the same bytes, without building the block matrix."""
    ms = system.scalar_mass
    return np.concatenate([ms @ part for part in v.reshape(-1, ms.shape[0])])


def initial_step(system: GlobalSystem, u0: np.ndarray, v0: np.ndarray,
                 f0: np.ndarray, dt: float, solver=None) -> np.ndarray:
    """u^1 = u^0 + dt v^0 + dt^2/2 M^{-1} (F^0 - K u^0)."""
    solver = solver or make_solver(system)
    return u0 + dt * v0 + 0.5 * dt * dt * solver(f0 - system.stiffness @ u0)


def step(state: SimulationState, system: GlobalSystem, f_n: np.ndarray,
         solver) -> SimulationState:
    """One leap-frog update: M u^{n+1} = 2M u^n - M u^{n-1} + dt^2 (F^n - K u^n)."""
    dt = state.dt
    u_next = (2.0 * state.u_curr - state.u_prev
              + dt * dt * solver(f_n - system.stiffness @ state.u_curr))
    # NaN propagates through max, so one pass also catches non-finite values
    if not np.abs(u_next).max() <= 1e12:
        raise InstabilityError(state.step_index + 1)
    return SimulationState(state.u_curr, u_next, state.step_index + 1, dt)


@dataclass(frozen=True)
class CflEstimate:
    dt: float
    lambda_max: float


def cfl_timestep(system: GlobalSystem, safety: float = 0.9,
                 tol: float = 1e-6, max_iter: int = 500,
                 solver=None) -> CflEstimate:
    """dt = safety * 2 / sqrt(lambda_max(K, M)), with lambda_max from ARPACK Lanczos
    on the pencil (K, M) in M^{-1} K form, applying M through ``mass_product`` and
    M^{-1} through ``solver``.

    ``tol`` and ``max_iter`` are ARPACK's relative accuracy and restart limit; a
    run that does not converge raises ArpackNoConvergence, a RuntimeError."""
    if not 0 < safety <= 1:
        raise ParameterError("safety", "safety must be in (0, 1]")
    solver = solver or make_solver(system)
    n = system.n_free
    operator = lambda matvec: spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    lam = spla.eigsh(system.stiffness, k=1,
                     M=operator(lambda v: mass_product(system, v)), Minv=operator(solver),
                     which="LA", tol=tol, maxiter=max_iter,
                     v0=np.random.default_rng(1234).standard_normal(n),
                     return_eigenvectors=False)[0]
    return CflEstimate(float(safety * 2.0 / np.sqrt(lam)), float(lam))


def check_cfl(system: GlobalSystem, dt: float, solver) -> CflEstimate:
    """Go/no-go CFL check: refuse any dt that fails ``check_dt`` (ParameterError)
    or lies above the stability limit (ValueError), and return the estimate
    otherwise."""
    check_dt(dt)
    # at tol 1e-3 ARPACK still finds lambda_max to <= 1e-5 relative on every
    # h-convergence system, and it costs less than at the default tol; its Ritz
    # value is at or below lambda_max, so est.dt is at most that much above the
    # exact limit and no slack is added
    est = cfl_timestep(system, safety=1.0, tol=1e-3, max_iter=300, solver=solver)
    if dt > est.dt:
        raise ValueError(
            f"dt = {dt:g} violates the CFL limit; admissible dt <= {est.dt:.6e}")
    return est


def check_dt(dt: float) -> None:
    """The one rule of a time step: ParameterError unless dt is finite and > 0."""
    if not (np.isfinite(dt) and dt > 0):
        raise ParameterError("dt", f"dt must be finite and > 0 (got {dt:g})")


def step_count(final_time: float, dt: float) -> int:
    """Number of steps of size dt that reach final_time; ParameterError unless
    dt passes ``check_dt``, final_time is finite and >= 0, and final_time is an
    integer multiple of dt (to 1e-10 relative)."""
    check_dt(dt)
    if not (np.isfinite(final_time) and final_time >= 0):
        raise ParameterError("final_time",
                             f"final time must be finite and >= 0 (got {final_time:g})")
    n_steps = int(round(final_time / dt))
    if abs(n_steps * dt - final_time) > 1e-10 * final_time:
        raise ParameterError("final_time", f"final time {final_time:g} is not an integer "
                                           f"multiple of dt = {dt:g}")
    return n_steps


def discrete_energy(state: SimulationState, system: GlobalSystem) -> float:
    """Leap-frog conserved quadratic form at the half step:
    E = 1/2 v^T M v + 1/2 u^n^T K u^{n-1} with v = (u^n - u^{n-1}) / dt."""
    v = (state.u_curr - state.u_prev) / state.dt
    return float(0.5 * v @ mass_product(system, v)
                 + 0.5 * state.u_curr @ (system.stiffness @ state.u_prev))


def save_checkpoint(state: SimulationState, path) -> None:
    """Binary checkpoint: magic, step index, dt, size, then u_prev and u_curr as
    little-endian float64."""
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(_CKPT_HEADER.pack(state.step_index, state.dt, len(state.u_curr)))
        f.write(np.asarray(state.u_prev, dtype="<f8").tobytes())
        f.write(np.asarray(state.u_curr, dtype="<f8").tobytes())


def load_checkpoint(path) -> SimulationState:
    """Read a checkpoint written by save_checkpoint.  A file that is not one, is
    truncated, carries trailing bytes, or whose header holds a negative step
    index or a dt that is not finite and > 0 raises ValueError naming the file."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(_CKPT_MAGIC):
        raise ValueError(f"{path}: not a checkpoint file")
    head = len(_CKPT_MAGIC) + _CKPT_HEADER.size
    if len(data) < head:
        raise ValueError(f"{path}: truncated checkpoint header "
                         f"({len(data)} of {head} bytes)")
    step_index, dt, n = _CKPT_HEADER.unpack_from(data, len(_CKPT_MAGIC))
    if step_index < 0 or not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"{path}: corrupt checkpoint header (step index "
                         f"{step_index}, dt {dt:g})")
    if n < 0 or len(data) != head + 16 * n:
        raise ValueError(f"{path}: a checkpoint of {n} DOFs has {head + 16 * n} "
                         f"bytes, the file has {len(data)}")
    u = np.frombuffer(data, dtype="<f8", offset=head).reshape(2, n)
    return SimulationState(u[0].copy(), u[1].copy(), step_index, dt)


def simulate(system: GlobalSystem, u0: np.ndarray, v0: np.ndarray, dt: float,
             n_steps: int, load=None, *, solver=None,
             energy_every: int = 0, on_step=None):
    """Integrate n_steps of leap-frog from interpolated initial data (free DOFs).

    ``load(step_index) -> F`` returns the free-DOF load at t_n (defaults to zero).
    Returns (state, energies) where energies holds (step, E) samples.  dt must
    pass ``check_dt`` and n_steps be an integer >= 0, else ParameterError; a
    diverging run raises InstabilityError."""
    check_dt(dt)
    check_integer("n_steps", n_steps, 0)
    if n_steps == 0:
        return SimulationState(u0.copy(), u0.copy(), 0, dt), []
    solver = solver or make_solver(system)
    zero = np.zeros(system.n_free)
    f_of = load or (lambda n: zero)
    u1 = initial_step(system, u0, v0, f_of(0), dt, solver)
    state = SimulationState(u0, u1, 1, dt)
    energies = []
    if energy_every:
        energies.append((1, discrete_energy(state, system)))
    if on_step is not None:
        on_step(state)
    for n in range(1, n_steps):
        state = step(state, system, f_of(n), solver)
        if energy_every and state.step_index % energy_every == 0:
            energies.append((state.step_index, discrete_energy(state, system)))
        if on_step is not None:
            on_step(state)
    return state, energies
