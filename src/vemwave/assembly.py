"""Vector VEM mass/stiffness assembly (consistency + stabilization), load vectors,
and Dirichlet elimination."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import NEUMANN, PolygonalMesh
from .projectors import DofMap, ElementOperators, build_element_operators


@dataclass(frozen=True)
class Material:
    """Homogeneous isotropic material: density and Lame coefficients."""

    rho: float
    lam: float
    mu: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("density must be positive")
        if self.mu < 0 or self.lam < 0:
            raise ValueError("Lame coefficients must be nonnegative")

    @property
    def c_p(self) -> float:
        return float(np.sqrt((self.lam + 2.0 * self.mu) / self.rho))

    @property
    def c_s(self) -> float:
        return float(np.sqrt(self.mu / self.rho))

    @classmethod
    def from_wave_speeds(cls, rho: float, c_p: float, speed_ratio: float) -> "Material":
        """Material with given P-wave speed and ratio r = c_p/c_s (requires r > sqrt(2))."""
        if speed_ratio <= np.sqrt(2.0):
            raise ValueError("speed ratio c_p/c_s must exceed sqrt(2) for lambda >= 0")
        c_s = c_p / speed_ratio
        mu = rho * c_s ** 2
        lam = rho * (c_p ** 2 - 2.0 * c_s ** 2)
        return cls(rho, lam, mu)


def local_scalar_mass(ops: ElementOperators, material: Material) -> np.ndarray:
    """Local scalar mass matrix: consistency Pi0^T Q Pi0 plus the dofi-dofj
    stabilization rho * h_P^2 (I - Pi0)^T (I - Pi0).  Both displacement
    components share it."""
    rho = material.rho
    consistency = rho * (ops.pi_zero.T @ ops.grams.mass @ ops.pi_zero)
    s = np.eye(ops.layout.n_total) - ops.dof_projector_l2()
    scalar = consistency + rho * ops.geometry.diameter ** 2 * (s.T @ s)
    return 0.5 * (scalar + scalar.T)


def local_mass(ops: ElementOperators, material: Material) -> np.ndarray:
    """Local vector mass matrix: the scalar mass on each component block."""
    scalar = local_scalar_mass(ops, material)
    zero = np.zeros_like(scalar)
    return np.block([[scalar, zero], [zero, scalar]])


def local_stiffness(ops: ElementOperators, material: Material, *,
                    stabilization: str = "nabla") -> np.ndarray:
    """Local vector stiffness: the four consistency blocks built from the projected
    derivatives Pi0x/Pi0y paired through the degree k-1 Gram matrix, plus
    max(2 mu, lambda) (I - Pi)^T (I - Pi) per component (Pi elliptic by default)."""
    mu, lam = material.mu, material.lam
    h = ops.grams.mass[:ops.n_km1, :ops.n_km1]
    px, py = ops.pi_zero_x, ops.pi_zero_y
    xx = px.T @ h @ px
    yy = py.T @ h @ py
    xy = px.T @ h @ py  # xy[i, j] = int (Pi0x phi_i)(Pi0y phi_j)
    k_upup = (2.0 * mu + lam) * xx + mu * yy
    k_dndn = mu * xx + (2.0 * mu + lam) * yy
    k_updn = mu * xy.T + lam * xy

    if stabilization == "nabla":
        s = np.eye(ops.layout.n_total) - ops.dof_projector_elliptic()
    elif stabilization == "l2":
        s = np.eye(ops.layout.n_total) - ops.dof_projector_l2()
    else:
        raise ValueError("stabilization must be 'nabla' or 'l2'")
    k_stab = max(2.0 * mu, lam) * (s.T @ s)

    n = ops.layout.n_total
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = k_upup + k_stab
    out[n:, n:] = k_dndn + k_stab
    out[:n, n:] = k_updn
    out[n:, :n] = k_updn.T
    return 0.5 * (out + out.T)


class GlobalSystem:
    """Assembled sparse mass/stiffness over the free (non-Dirichlet) vector DOFs,
    with the per-element operators retained for loads, interpolation and errors.

    Free vector DOFs are ordered [x-free | y-free], and both components keep the
    same scalar DOFs, so the vector mass is ``blockdiag(scalar_mass,
    scalar_mass)``; ``mass`` stores only those two blocks."""

    def __init__(self, mesh: PolygonalMesh, degree: int, material: Material,
                 dofmap: DofMap, ops: list[ElementOperators],
                 scalar_mass: sp.csr_matrix, stiffness: sp.csr_matrix,
                 free: np.ndarray):
        self.mesh = mesh
        self.degree = degree
        self.material = material
        self.dofmap = dofmap
        self.ops = ops
        self.scalar_mass = scalar_mass
        self.mass = sp.block_diag((scalar_mass, scalar_mass), format="csr")
        self.stiffness = stiffness
        self.free = free
        self.full_to_free = np.full(dofmap.n_vector, -1, dtype=int)
        self.full_to_free[free] = np.arange(len(free))

    @property
    def n_free(self) -> int:
        return len(self.free)

    def restrict(self, full: np.ndarray) -> np.ndarray:
        return full[self.free]

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        full = np.zeros(self.dofmap.n_vector, dtype=reduced.dtype)
        full[self.free] = reduced
        return full


def assemble_global(mesh: PolygonalMesh, degree: int, material: Material, *,
                    eliminate_dirichlet: bool = True,
                    basis_kind: str = "monomial",
                    stabilization: str = "nabla",
                    ops: list[ElementOperators] | None = None) -> GlobalSystem:
    dofmap = DofMap(mesh, degree)
    if ops is None:
        ops = build_element_operators(mesh, degree, basis_kind=basis_kind)
    rows, cols, k_vals, s_rows, s_cols, m_vals = [], [], [], [], [], []
    for ci in range(mesh.n_cells):
        sdofs = dofmap.cell_scalar_dofs(ci)
        gdofs = dofmap.cell_vector_dofs(ci)
        m_loc = local_scalar_mass(ops[ci], material)
        k_loc = local_stiffness(ops[ci], material, stabilization=stabilization)
        grid = np.meshgrid(gdofs, gdofs, indexing="ij")
        rows.append(grid[0].ravel())
        cols.append(grid[1].ravel())
        k_vals.append(k_loc.ravel())
        grid = np.meshgrid(sdofs, sdofs, indexing="ij")
        s_rows.append(grid[0].ravel())
        s_cols.append(grid[1].ravel())
        m_vals.append(m_loc.ravel())
    n, n_s = dofmap.n_vector, dofmap.n_scalar
    stiff = sp.coo_matrix((np.concatenate(k_vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n)).tocsr()
    mass = sp.coo_matrix((np.concatenate(m_vals),
                          (np.concatenate(s_rows), np.concatenate(s_cols))),
                         shape=(n_s, n_s)).tocsr()

    if eliminate_dirichlet:
        fixed_scalar = dofmap.dirichlet_scalar_dofs()
        if len(fixed_scalar) == 0:
            raise ValueError(
                "well-posedness requires a nonempty Dirichlet boundary; "
                "no edges are tagged dirichlet")
        keep = np.ones(n_s, dtype=bool)
        keep[fixed_scalar] = False
        free_scalar = np.where(keep)[0]
        free = np.concatenate([free_scalar, free_scalar + n_s])
        mass = mass[free_scalar][:, free_scalar].tocsr()
        stiff = stiff[free][:, free].tocsr()
    else:
        free = np.arange(n)
    return GlobalSystem(mesh, degree, material, dofmap, ops, mass, stiff, free)


def interpolate(system: GlobalSystem, field) -> np.ndarray:
    """Full vector DOF array of the virtual element interpolant of a vector field.

    ``field(points) -> (n, 2)`` values; the result has the Dirichlet DOFs included
    (use system.restrict for the free part)."""
    dofmap = system.dofmap
    out = np.zeros(dofmap.n_vector)
    for ci, ops in enumerate(system.ops):
        sdofs = dofmap.cell_scalar_dofs(ci)
        dofs = ops.dof_functionals(field)
        out[sdofs] = dofs[:, 0]
        out[sdofs + dofmap.n_scalar] = dofs[:, 1]
    return out


def assemble_load(system: GlobalSystem, body_force=None, neumann=None,
                  t: float = 0.0) -> np.ndarray:
    """Free-DOF load vector: int f . (Pi0 phi_i) plus the Neumann edge term.

    The volume term pairs f with the computable degree-k projection Pi0_k phi_i,
    which keeps the L2 convergence at order k + 1."""
    dofmap = system.dofmap
    full = np.zeros(dofmap.n_vector)
    if body_force is not None:
        for ci, ops in enumerate(system.ops):
            sdofs = dofmap.cell_scalar_dofs(ci)
            vals = np.asarray(body_force(ops.rule.points, t))
            qb = ops.basis.eval(ops.rule.points)
            b = (ops.rule.weights[:, None] * qb).T @ vals  # int f p_alpha
            contrib = ops.pi_zero.T @ b
            full[sdofs] += contrib[:, 0]
            full[sdofs + dofmap.n_scalar] += contrib[:, 1]
    if neumann is not None:
        neumann_edges = {e for e in system.mesh.boundary_edges()
                         if system.mesh.edge_tags[e] == NEUMANN}
        if neumann_edges:
            for ci, ops in enumerate(system.ops):
                sdofs = dofmap.cell_scalar_dofs(ci)
                edges = ops.edges
                for loc, e in enumerate(system.mesh.cell_edges[ci]):
                    if int(e) not in neumann_edges:
                        continue
                    g = np.asarray(neumann(edges.points[loc], t))
                    contrib = (edges.weights[loc] * g.T) @ edges.trace[loc]
                    full[sdofs] += contrib[0]
                    full[sdofs + dofmap.n_scalar] += contrib[1]
    return system.restrict(full)
