"""Plane-wave (von Neumann) analysis on periodic reference cells: Bloch reduction
of (M, K), physical mode extraction, semi- and fully-discrete dispersion errors,
dissipation check, CFL parameter, and parameter sweeps."""
from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .assembly import GlobalSystem, Material, assemble_global
from .mesh import ParameterError, check_grid, check_integer, reference_periodic_cell
from .projectors import check_degree
from .timestep import check_dt


class UnstableTimestepError(RuntimeError):
    """The fully discrete frequency map is not invertible for this time step."""


class ModeIdentificationError(RuntimeError):
    """Two candidate eigenvalues are indistinguishably close to a physical mode."""


@dataclass(frozen=True)
class DispersionConfig:
    """Parameters of one plane-wave analysis.

    delta is the sampling ratio h/(kL) of the shortest (shear) wavelength; the
    wavevector magnitude is 2 pi k delta / h, with h = 1 the side of the unit
    periodic cell that ``reference_system`` builds.  Under the default 'scaled'
    P-wave convention the compressional mode is analyzed at its own, r times
    longer, wavelength (wavevector magnitude divided by r); 'shared' evaluates
    both modes at the shear wavevector.  q_rel is the Courant fraction used by
    the fully discrete analysis.

    The material is the fixed reference one, ``material``: rho = 1,
    c_P = sqrt(2) and c_S = c_P / r.  The results (e = c_h/c - 1, q_CFL) are
    dimensionless and do not depend on the material scale, so only the speed
    ratio r is a parameter.
    """

    grid: str
    degree: int
    delta: float
    theta: float
    speed_ratio: float
    q_rel: float = 1.0
    p_convention: str = "scaled"

    def __post_init__(self):
        check_grid(self.grid)
        check_degree(self.degree)
        if not self.delta > 0:
            raise ParameterError("delta", "delta must be > 0")
        if not np.isfinite(self.delta):
            raise ParameterError("delta", f"delta must be finite (got {self.delta:g})")
        self.material  # validates the speed ratio
        if not 0.0 <= self.theta < 2.0 * np.pi:
            raise ParameterError("theta", "theta must lie in [0, 2 pi)")
        if not 0.0 < self.q_rel <= 1.0:
            raise ParameterError("q_rel", "q_rel must lie in (0, 1]")
        if self.p_convention not in ("scaled", "shared"):
            raise ParameterError("p_convention", "p_convention must be 'scaled' or 'shared'")

    @property
    def material(self) -> Material:
        return Material.from_wave_speeds(1.0, float(np.sqrt(2.0)), self.speed_ratio)

    def wavenumber(self) -> float:
        return 2.0 * np.pi * self.degree * self.delta

    def wavevector(self) -> np.ndarray:
        return self.wavenumber() * np.array([np.cos(self.theta), np.sin(self.theta)])

    def p_wavevector(self) -> np.ndarray:
        if self.p_convention == "scaled":
            return self.wavevector() / self.speed_ratio
        return self.wavevector()


@dataclass(frozen=True)
class BlochReduction:
    """The reduced pencil at one wavevector.  ``mass`` and ``stiffness`` are
    exactly Hermitian complex arrays in column-major (Fortran) order, LAPACK's
    layout, so the eigensolvers take them without a copy; a solve overwrites
    them."""

    mass: np.ndarray
    stiffness: np.ndarray


@dataclass
class DispersionResult:
    """One plane-wave analysis.

    ``im_omega_max`` is computed from the spectrum of the shear pencil, the one
    at ``config.wavevector()``: the square root of minus its most negative
    eigenvalue, 0 when none is negative.  ``dt`` is the time step of the fully
    discrete analysis and is None for the semi-discrete one."""

    config: DispersionConfig
    c_p_h: float
    c_s_h: float
    e_p: float
    e_s: float
    im_omega_max: float
    dt: float | None = None
    ambiguous: bool = False


@functools.lru_cache(maxsize=64)
def reference_system(grid: str, degree: int, material: Material) -> GlobalSystem:
    """Unconstrained (no Dirichlet elimination) system on the periodic cell.
    Cached per (grid, degree, material) since sweeps reuse the same matrices."""
    mesh = reference_periodic_cell(grid, 1.0)
    return assemble_global(mesh, degree, material, eliminate_dirichlet=False)


# side of the square blocks of the in-place Hermitian average (256 KiB each)
_BLOCK = 128


def _hermitian_average(a: np.ndarray) -> None:
    """a <- 0.5 (a + a^H) in place, by square blocks, so that no n x n temporary
    is made.  Both blocks of a pair are computed from the unmodified entries,
    with the same operations as the whole-array expression (an addition
    commutes exactly), so the result is byte-identical to it, signed zeros
    included."""
    n = a.shape[0]
    for i in range(0, n, _BLOCK):
        rows = slice(i, i + _BLOCK)
        for j in range(i, n, _BLOCK):
            cols = slice(j, j + _BLOCK)
            upper = a[cols, rows].conj().T
            upper += a[rows, cols]
            upper *= 0.5
            if j > i:
                lower = a[rows, cols].conj().T
                lower += a[cols, rows]
                lower *= 0.5
                a[cols, rows] = lower
            a[rows, cols] = upper


class _BlochPlan:
    """The wavevector-independent half of the Bloch reduction of one system.

    Every scalar DOF is a master or the phased copy of one, at a translation
    ``offset``: a vertex DOF as its vertex in ``mesh.periodic``, an edge moment
    as its edge, and a slave (a DOF whose master is not itself) of a slave is
    a ValueError.  ``col`` gives the reduced column of each vector DOF, the y
    components' m = n/2 columns after the x components'.  The distinct offsets
    are few (at most 4 on a periodic cell), so the offset difference of a
    matrix entry is one of a small table of classes.  The plan keeps the COO
    entries of the scalar mass and of K with their flat column-major reduced
    index ``col[c] * n + col[r]`` (int32 when n^2 fits) and their class.  The
    vector mass is blockdiag(Ms, Ms), so its reduction is the scalar mass's in
    both diagonal m x m blocks: the block matrix ``system.mass`` is not read."""

    def __init__(self, system: GlobalSystem):
        mesh, dofmap = system.mesh, system.dofmap
        if mesh.periodic is None:
            raise ValueError("mesh carries no periodic pairing")
        pairing, n_s, n_v = mesh.periodic, dofmap.n_scalar, mesh.n_vertices
        master, offset = np.arange(n_s), np.zeros((n_s, 2))
        master[:n_v], offset[:n_v] = pairing.vertex_master, pairing.vertex_offset
        m = dofmap.edge_moment_dofs(np.arange(mesh.n_edges))
        master[m] = m[pairing.edge_master]
        offset[m] = pairing.edge_offset[:, None]
        is_slave = master != np.arange(n_s)
        chained = np.flatnonzero(is_slave & is_slave[master])
        if len(chained):
            s = chained[0]
            raise ValueError(f"slave dof {s} chained to another slave {master[s]}")
        masters = np.flatnonzero(~is_slave)
        n_m = len(masters)
        self.n = n = 2 * n_m
        index = np.int32 if n * n <= np.iinfo(np.int32).max else np.intp
        col = np.empty(n_s, dtype=index)
        col[masters] = np.arange(n_m)
        col = col[master]
        self.col = np.concatenate([col, col + n_m])
        self.offset = np.concatenate([offset, offset])
        offsets, cls = np.unique(offset, axis=0, return_inverse=True)
        cls = cls.ravel().astype(np.uint8)
        n_off = len(offsets)
        # class a * n_off + b holds the entries from offset a (row) to b (column)
        self.diff = (offsets[None, :, :] - offsets[:, None, :]).reshape(-1, 2)
        self.entries = []
        for a, a_col, a_cls in ((system.scalar_mass, col, cls),
                                (system.stiffness, self.col, np.tile(cls, 2))):
            a = a.tocoo()
            self.entries.append((a.data, a_col[a.col] * n + a_col[a.row],
                                 a_cls[a.row] * n_off + a_cls[a.col]))

    def reduce(self, kvec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P^H M P, P^H K P) at the wavevector ``kvec``, in column-major order:
        one phase per offset class, exactly 1 for a zero difference, then per
        matrix the real and imaginary weights are summed in entry order, as
        ``np.bincount`` would but with no n^2 temporary, straight into the parts
        of one zeroed complex array, which is made Hermitian in place.  The
        scalar mass is scattered once, into the upper-left m x m block, which is
        averaged in place and copied to the lower-right block; the other two
        blocks stay zero.  A real weight can differ from the real part of the
        complex product only in the sign of a zero, which no sum started at
        +0.0 can show."""
        phase = np.exp(1j * (kvec[0] * self.diff[:, 0] + kvec[1] * self.diff[:, 1]))
        out = []
        for data, idx, cls in self.entries:
            flat = np.zeros(self.n * self.n, dtype=complex)
            np.add.at(flat.real, idx, data * phase.real[cls])
            np.add.at(flat.imag, idx, data * phase.imag[cls])
            out.append(flat.reshape(self.n, self.n, order="F"))
        mass, stiffness = out
        m = self.n // 2
        xx = mass[:m, :m]
        _hermitian_average(xx)
        mass[m:, m:] = xx
        _hermitian_average(stiffness)
        return mass, stiffness


# one plan per live system; an entry goes when its system is collected
_PLANS = weakref.WeakKeyDictionary()


def bloch_reduce(system: GlobalSystem, wavevector: np.ndarray) -> BlochReduction:
    """Reduced Hermitian pencil (P^H K P, P^H M P) of the complex projection P
    with P[slave, master] = exp(i k . offset).

    Each row r of P holds one entry, in column col[r], so P^H A P is a scatter
    of the sparse entries A[r, c] exp(i k . (offset[c] - offset[r])) into
    (col[r], col[c]): O(nnz) work with no dense product.  The master/slave map,
    the COO entries, their reduced indices and offset classes are built once
    per system (on the first call) and cached while the system lives; each call
    then evaluates one phase per offset class, exactly 1 when both DOFs carry
    the same offset, and scatters the scalar mass once and K.  M is reduced
    from ``system.scalar_mass``; the block matrix ``system.mass`` is built
    only on an explicit read, by neither this path nor the solve path, and P
    itself is never formed.
    ``wavevector`` must be two finite numbers (ParameterError otherwise)."""
    try:
        kvec = np.array(wavevector, dtype=float)
    except (TypeError, ValueError):
        kvec = None
    if kvec is None or kvec.shape != (2,) or not np.isfinite(kvec).all():
        raise ParameterError("wavevector",
                             f"wavevector must be two finite numbers (got {wavevector!r})")
    plan = _PLANS.get(system)
    if plan is None:
        plan = _PLANS[system] = _BlochPlan(system)
    mass, stiffness = plan.reduce(kvec)
    return BlochReduction(mass, stiffness)


def _pencil_eigvals(red: BlochReduction, largest_only: bool = False) -> np.ndarray:
    """Ascending eigenvalues of the reduced pencil (K, M), or its largest alone.

    The solve consumes the pencil: LAPACK overwrites ``red.mass`` and
    ``red.stiffness`` in place, which the column-major layout allows without a
    copy.  The full spectrum uses LAPACK's ``hegv``: SciPy queries its
    workspace size, while its default ``hegvd`` gets no workspace query, runs
    with the minimal workspace and so falls back to the unblocked tridiagonal
    reduction.  The largest eigenvalue alone goes through SciPy's subset driver
    ``hegvx``."""
    if largest_only:
        n = red.mass.shape[0]
        return la.eigh(red.stiffness, red.mass, eigvals_only=True,
                       subset_by_index=[n - 1, n - 1],
                       overwrite_a=True, overwrite_b=True)
    return la.eigh(red.stiffness, red.mass, eigvals_only=True, driver="gv",
                   overwrite_a=True, overwrite_b=True)


def _identify_modes(eigenvalues: np.ndarray, omega_exact: float,
                    taken: int | None = None) -> tuple[int, bool]:
    """Index of the eigenvalue whose sqrt is closest to the exact frequency.

    Tie break: smaller |Lambda - omega^2|, then smaller index.  Returns the index
    and an ambiguity flag when two distinct candidates remain equally close."""
    omegas = np.sqrt(np.maximum(eigenvalues, 0.0))
    dist = np.abs(omegas - omega_exact)
    if taken is not None:
        dist = dist.copy()
        dist[taken] = np.inf
    tol = 1e-12 * max(omega_exact, 1e-300)
    tied = np.flatnonzero(dist <= dist.min() + tol)
    if len(tied) == 1:
        return int(tied[0]), False
    d2 = np.abs(eigenvalues[tied] - omega_exact ** 2)
    order = np.argsort(d2, kind="stable")
    ambiguous = len(order) > 1 and (d2[order[1]] - d2[order[0]]
                                    <= 1e-12 * max(d2[order[1]], 1e-300))
    return int(tied[order[0]]), bool(ambiguous)


def _mode_pick(eigenvalues: np.ndarray, material: Material, knorm: float,
               which: str) -> tuple[float, bool]:
    """Eigenvalue of the physical mode at this wavevector, with ambiguity flag.

    The complementary physical frequency is located first and excluded, so the
    two physical picks never collide."""
    c = material.c_p if which == "P" else material.c_s
    other = material.c_s if which == "P" else material.c_p
    i_other, _ = _identify_modes(eigenvalues, knorm * other)
    i, ambiguous = _identify_modes(eigenvalues, knorm * c, taken=i_other)
    return float(eigenvalues[i]), ambiguous


def _pencil_dispersion(config: DispersionConfig, to_omega,
                       dt: float | None = None) -> DispersionResult:
    """The pencil path shared by the semi- and fully discrete analyses.

    Solves the reduced Hermitian pencil at the shear wavevector, and under the
    'scaled' convention a second one at the compressional wavevector, picks the
    physical eigenvalues and maps them to frequencies with ``to_omega``."""
    material = config.material
    system = reference_system(config.grid, config.degree, material)
    kv_s = config.wavevector()
    eig_s = _pencil_eigvals(bloch_reduce(system, kv_s))
    kn_s = float(np.hypot(*kv_s))
    lam_s, amb_s = _mode_pick(eig_s, material, kn_s, "S")
    if config.p_convention == "shared":
        eig_p, kn_p = eig_s, kn_s
    else:
        kv_p = config.p_wavevector()
        eig_p = _pencil_eigvals(bloch_reduce(system, kv_p))
        kn_p = float(np.hypot(*kv_p))
    lam_p, amb_p = _mode_pick(eig_p, material, kn_p, "P")
    c_p_h = to_omega(lam_p) / kn_p
    c_s_h = to_omega(lam_s) / kn_s
    neg = eig_s[eig_s < 0]
    im_max = float(np.sqrt(-neg.min())) if len(neg) else 0.0
    return DispersionResult(config, c_p_h, c_s_h,
                            c_p_h / material.c_p - 1.0, c_s_h / material.c_s - 1.0,
                            im_max, dt=dt, ambiguous=amb_s or amb_p)


def semidiscrete_dispersion(config: DispersionConfig, *,
                            strict: bool = False) -> DispersionResult:
    """Dispersion errors of the spatial discretization (exact time integration).

    Solves the reduced Hermitian pencil, identifies the physical eigenvalues by
    closeness of sqrt(Lambda) to the exact frequencies, and reports
    e_X = c_{X,h}/c_X - 1.  Under the 'scaled' convention the P mode is taken
    from a second pencil at the r-times-smaller compressional wavevector."""
    result = _pencil_dispersion(config, lambda lam: float(np.sqrt(max(lam, 0.0))))
    if strict and result.ambiguous:
        raise ModeIdentificationError(
            "two eigenvalues are equally close to a physical frequency")
    return result


def fullydiscrete_dispersion(config: DispersionConfig,
                             dt: float | None = None) -> DispersionResult:
    """Dispersion errors of the leap-frog discretization in time and space.

    The eigenvalues of the same reduced pencils are mapped through
    Lambda = (4/dt^2) sin^2(omega dt / 2); dt defaults to
    q_rel * q_CFL * h / c_P with q_CFL computed for this grid; dt must pass
    ``check_dt``."""
    if dt is None:
        q_cfl = cfl_parameter(config.grid, config.degree, config.delta,
                              config.speed_ratio)
        dt = config.q_rel * q_cfl / config.material.c_p
    check_dt(dt)

    def to_omega(lam: float) -> float:
        arg = 0.5 * dt * np.sqrt(max(lam, 0.0))
        if arg > 1.0 + 1e-14:
            raise UnstableTimestepError(
                f"dt = {dt:.6e} is unstable for this mode (sin^2 argument {arg:.6f} > 1)")
        return float(2.0 / dt * np.arcsin(min(arg, 1.0)))

    return _pencil_dispersion(config, to_omega, dt)


def cfl_parameter(grid: str, degree: int, delta: float, speed_ratio: float,
                  n_angles: int = 64) -> float:
    """q_CFL = 2 c_P / (h sqrt(Lambda_max)) with Lambda_max the largest reduced
    eigenvalue over ``n_angles`` uniformly spaced propagation angles; each
    pencil is asked for its largest eigenvalue only.

    M and K are real, so the reduced pencil at -k is the complex conjugate of
    the one at k and has the same spectrum: for an even ``n_angles`` only the
    first half-circle is solved, as theta + pi is in the set.  The parameters
    are validated by ``DispersionConfig``."""
    check_integer("n_angles", n_angles, 1)
    config = DispersionConfig(grid, degree, delta, 0.0, speed_ratio)
    material = config.material
    system = reference_system(grid, degree, material)
    knorm = config.wavenumber()
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    if n_angles % 2 == 0:
        thetas = thetas[:n_angles // 2]
    lam_max = 0.0
    for theta in thetas:
        kvec = knorm * np.array([np.cos(theta), np.sin(theta)])
        lam = _pencil_eigvals(bloch_reduce(system, kvec), largest_only=True)
        lam_max = max(lam_max, float(lam[0]))
    return 2.0 * material.c_p / np.sqrt(lam_max)


def anisotropy_sweep(grid: str, degree: int, delta: float, speed_ratio: float,
                     n_angles: int = 32) -> list[dict]:
    """Velocity ratios c_{X,h}/c_X per propagation angle (CSV-ready rows)."""
    check_integer("n_angles", n_angles, 8)
    rows = []
    for theta in np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False):
        cfg = DispersionConfig(grid, degree, delta, float(theta), speed_ratio)
        res = semidiscrete_dispersion(cfg)
        rows.append({"theta": float(theta),
                     "ratio_s": res.c_s_h / cfg.material.c_s,
                     "ratio_p": res.c_p_h / cfg.material.c_p})
    return rows


def dissipation_check(config: DispersionConfig) -> float:
    """Maximal relative imaginary part of the computed frequencies, from the
    general (non-Hermitian) eigenvalue solver; <= 1e-10 means non-dissipative.

    The QZ solve is LAPACK's ``ggev`` called directly, without eigenvectors,
    and it consumes the reduced pencil in place.  ``la.eig`` would make the
    same solve, but its workspace query allocates both n x n eigenvector
    matrices and copies K and M: about six pencils at its peak, against under
    three here."""
    material = config.material
    system = reference_system(config.grid, config.degree, material)
    red = bloch_reduce(system, config.wavevector())
    args = dict(compute_vl=0, compute_vr=0, overwrite_a=1, overwrite_b=1)
    work = la.lapack.zggev(red.stiffness, red.mass, lwork=-1, **args)[-2]
    alpha, beta, *_, info = la.lapack.zggev(red.stiffness, red.mass,
                                            lwork=int(work[0].real), **args)
    if info:
        raise la.LinAlgError(f"generalized eig algorithm (ggev) failed (info = {info})")
    omegas = np.sqrt(alpha / beta)
    mags = np.abs(omegas)
    mags[mags == 0.0] = 1.0
    return float(np.max(np.abs(omegas.imag) / mags))
