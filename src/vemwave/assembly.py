"""Vector VEM mass/stiffness assembly (consistency + stabilization), load vectors,
and Dirichlet elimination."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import NEUMANN, ParameterError, PolygonalMesh
from .polybasis import mT
from .projectors import DofMap, ElementGroup, ElementOperators, build_element_operators


@dataclass(frozen=True)
class Material:
    """Homogeneous isotropic material: density and Lame coefficients.

    The one validation site of the material: rho and mu finite and > 0, lam
    finite and >= 0; an error names the field."""

    rho: float
    lam: float
    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ParameterError("rho", f"rho must be finite and > 0 (got {self.rho:g})")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ParameterError("mu", f"mu must be finite and > 0 (got {self.mu:g})")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ParameterError("lam", f"lam must be finite and >= 0 (got {self.lam:g})")

    @property
    def c_p(self) -> float:
        return float(np.sqrt((self.lam + 2.0 * self.mu) / self.rho))

    @property
    def c_s(self) -> float:
        return float(np.sqrt(self.mu / self.rho))

    @classmethod
    def from_wave_speeds(cls, rho: float, c_p: float, speed_ratio: float) -> "Material":
        """Material with given P-wave speed and ratio r = c_p/c_s: the one check of
        both, c_p finite and > 0, r finite and > sqrt(2) (so that lambda >= 0)."""
        if not (math.isfinite(c_p) and c_p > 0):
            raise ParameterError("c_p", f"c_p must be finite and > 0 (got {c_p:g})")
        if not (math.isfinite(speed_ratio) and speed_ratio > np.sqrt(2.0)):
            raise ParameterError("speed_ratio", f"speed ratio c_p/c_s must be finite and exceed "
                                                f"sqrt(2) for lambda >= 0 (got {speed_ratio:g})")
        c_s = c_p / speed_ratio
        mu = rho * c_s ** 2
        lam = rho * (c_p ** 2 - 2.0 * c_s ** 2)
        return cls(rho, lam, mu)


def stabilization(ops: ElementOperators | ElementGroup, material: Material,
                  term: str) -> np.ndarray:
    """The one site of the dofi-dofj stabilization, coefficient * s^T s with
    s = I - D Pi: Pi0 and rho h_P^2 for the scalar mass (``term`` "mass"), PiNabla
    and 2 mu for each stiffness component ("stiffness").  The stiffness coefficient
    leaves lambda out, so the scheme does not lock as lambda grows: the
    consistency's lambda-term vanishes on a divergence-free field, and so does
    the stabilization's (Beirao da Veiga-Brezzi-Marini, SINUM 2013).  One cell's
    matrix for a view, (G, n, n) for a group."""
    if term == "mass":
        projector = ops.pi_zero
        coefficient = material.rho * np.asarray(ops.geometry.diameter)[..., None, None] ** 2
    else:
        projector = ops.pi_nabla
        coefficient = 2.0 * material.mu
    s = np.eye(ops.layout.n_total) - ops.dof_matrix @ projector
    return coefficient * (mT(s) @ s)


def local_scalar_mass(ops: ElementOperators | ElementGroup,
                      material: Material) -> np.ndarray:
    """Local scalar mass matrix: consistency Pi0^T Q Pi0 plus the mass
    ``stabilization``.  Both displacement components share it.  One cell's
    matrix for a view, (G, n, n) for a group."""
    consistency = material.rho * (mT(ops.pi_zero) @ ops.grams.mass @ ops.pi_zero)
    scalar = consistency + stabilization(ops, material, "mass")
    return 0.5 * (scalar + mT(scalar))


def local_stiffness(ops: ElementOperators | ElementGroup, material: Material) -> np.ndarray:
    """Local vector stiffness: the four consistency blocks built from the projected
    derivatives Pi0x/Pi0y paired through the degree k-1 Gram matrix, plus the
    stiffness ``stabilization`` on each component.
    One cell's matrix for a view, (G, 2n, 2n) for a group."""
    mu, lam = material.mu, material.lam
    h = ops.grams.mass[..., :ops.n_km1, :ops.n_km1]
    px, py = ops.pi_zero_x, ops.pi_zero_y
    xx = mT(px) @ h @ px
    yy = mT(py) @ h @ py
    xy = mT(px) @ h @ py  # xy[i, j] = int (Pi0x phi_i)(Pi0y phi_j)
    k_upup = (2.0 * mu + lam) * xx + mu * yy
    k_dndn = mu * xx + (2.0 * mu + lam) * yy
    k_updn = mu * mT(xy) + lam * xy
    k_stab = stabilization(ops, material, "stiffness")

    n = ops.layout.n_total
    out = np.empty(k_stab.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = k_upup + k_stab
    out[..., n:, n:] = k_dndn + k_stab
    out[..., :n, n:] = k_updn
    out[..., n:, :n] = mT(k_updn)
    return 0.5 * (out + mT(out))


class GlobalSystem:
    """Assembled sparse mass/stiffness over the free (non-Dirichlet) vector DOFs,
    with the element groups (``groups``, the batches of ``build_element_groups``)
    and their global vector DOFs (``dofs``, one (G, n_total, 2) array of
    ``DofMap.group_vector_dofs`` per group) retained for loads, interpolation
    and errors.

    Free vector DOFs are ordered [x-free | y-free], and both components keep the
    same scalar DOFs, so the vector mass is ``blockdiag(scalar_mass,
    scalar_mass)``.  The solve path applies ``scalar_mass`` per component and the
    Bloch reduction of ``dispersion`` scatters it once per plan; the block
    matrix ``mass`` stores only those two blocks and is built only on an
    explicit read, by neither path."""

    def __init__(self, mesh: PolygonalMesh, dofmap: DofMap, groups: list[ElementGroup],
                 dofs: list[np.ndarray], scalar_mass: sp.csr_matrix,
                 stiffness: sp.csr_matrix, free: np.ndarray):
        self.mesh = mesh
        self.dofmap = dofmap
        self.groups = groups
        self.dofs = dofs
        self.scalar_mass = scalar_mass
        self.stiffness = stiffness
        self.free = free

    @cached_property
    def mass(self) -> sp.csr_matrix:
        return sp.block_diag((self.scalar_mass, self.scalar_mass), format="csr")

    @property
    def n_free(self) -> int:
        return len(self.free)

    def restrict(self, full: np.ndarray) -> np.ndarray:
        return full[self.free]

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        full = np.zeros(self.dofmap.n_vector, dtype=reduced.dtype)
        full[self.free] = reduced
        return full


def _scatter(groups, dofs, local, size: int, free: np.ndarray) -> sp.csr_matrix:
    """Sum of the local matrices ``local(group)`` (G, m, m) placed at the DOFs
    ``dofs`` (G, m) of each group, restricted to the sorted DOFs ``free``, as a
    (len(free), len(free)) CSR matrix.

    The COO arrays hold only the rows of ``free``: they are filled in place, one
    group at a time and in cell order, with the other rows dropped before the
    CSR conversion, and the free columns are selected once on the CSR.  Every
    kept row thus has the entry sequence of the unrestricted COO, so the sort
    and sum of its duplicates, and the result, are byte for byte those of
    ``full[free][:, free]``.  Dropping columns first would change that sequence."""
    index = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    row_of = np.full(size, -1, dtype=index)
    row_of[free] = np.arange(len(free))
    kept = [row_of[d] >= 0 for d in dofs]
    total = sum(int(k.sum()) * d.shape[1] for k, d in zip(kept, dofs))
    rows = np.empty(total, dtype=index)
    cols = np.empty(total, dtype=index)
    vals = np.empty(total)
    start = 0
    for group, d, k in zip(groups, dofs, kept):
        r, m = int(k.sum()), d.shape[1]
        block = slice(start, start + r * m)
        rows[block].reshape(r, m)[...] = row_of[d[k]][:, None]
        cols[block].reshape(r, m)[...] = np.broadcast_to(d[:, None, :], k.shape + (m,))[k]
        vals[block].reshape(r, m)[...] = local(group)[k]
        start = block.stop
    kept_rows = sp.coo_matrix((vals, (rows, cols)), shape=(len(free), size)).tocsr()
    del rows, cols, vals  # the column selection copies the CSR
    return kept_rows if len(free) == size else kept_rows[:, free]


def assemble_global(mesh: PolygonalMesh, degree: int, material: Material, *,
                    eliminate_dirichlet: bool = True,
                    basis_kind: str = "monomial") -> GlobalSystem:
    """The GlobalSystem of ``mesh`` at ``degree``: element groups built and
    scattered one batch at a time, with the Dirichlet DOFs eliminated exactly
    unless ``eliminate_dirichlet`` is False."""
    dofmap = DofMap(mesh, degree)
    # the batches in build order: by vertex count, then by first cell
    groups = sorted({op.group: None for op in
                     build_element_operators(mesh, degree, basis_kind=basis_kind)},
                    key=lambda g: (g.layout.n_vertices, g.cells.index[0]))
    n, n_s = dofmap.n_vector, dofmap.n_scalar
    if eliminate_dirichlet:
        fixed_scalar = dofmap.dirichlet_scalar_dofs()
        if len(fixed_scalar) == 0:
            raise ValueError(
                "well-posedness requires a nonempty Dirichlet boundary; "
                "no edges are tagged dirichlet")
        keep = np.ones(n_s, dtype=bool)
        keep[fixed_scalar] = False
        free_scalar = np.flatnonzero(keep)
    else:
        free_scalar = np.arange(n_s)
    free = np.concatenate([free_scalar, free_scalar + n_s])
    dofs = [dofmap.group_vector_dofs(group.cells) for group in groups]
    stiff = _scatter(groups, [mT(d).reshape(len(d), -1) for d in dofs],
                     lambda group: local_stiffness(group, material), n, free)
    mass = _scatter(groups, [d[..., 0] for d in dofs],
                    lambda group: local_scalar_mass(group, material), n_s, free_scalar)
    return GlobalSystem(mesh, dofmap, groups, dofs, mass, stiff, free)


def interpolate(system: GlobalSystem, field) -> np.ndarray:
    """Full vector DOF array of the virtual element interpolant of a vector field.

    ``field(points) -> (n, 2)`` values, called once per point set of each batch
    of ``system.groups``; the result has the Dirichlet DOFs included (use
    system.restrict for the free part)."""
    out = np.zeros(system.dofmap.n_vector)
    for group, dofs in zip(system.groups, system.dofs):
        out[dofs] = group.dof_functionals(field)
    return out


def assemble_load(system: GlobalSystem, body_force=None, neumann=None,
                  t: float = 0.0) -> np.ndarray:
    """Free-DOF load vector: int f . (Pi0 phi_i) plus the Neumann edge term.

    The volume term pairs f with the computable degree-k projection Pi0_k phi_i,
    which keeps the L2 convergence at order k + 1.  Each callback is called once
    per batch of ``system.groups`` with all its points."""
    full = np.zeros(system.dofmap.n_vector)
    for group, dofs in zip(system.groups, system.dofs):
        if body_force is not None:
            rule = group.rule
            vals = np.asarray(body_force(rule.points.reshape(-1, 2), t)).reshape(
                rule.weights.shape + (2,))
            wqb = group.basis.eval(rule.points)
            wqb *= rule.weights[..., None]
            b = mT(wqb) @ vals  # int f p_alpha
            np.add.at(full, dofs, mT(group.pi_zero) @ b)
        if neumann is not None:
            slot, loc = np.nonzero(system.mesh.edge_tags[group.cells.edges] == NEUMANN)
            if len(slot):
                edges = group.edges
                pts = edges.points[slot, loc]
                g = np.asarray(neumann(pts.reshape(-1, 2), t)).reshape(pts.shape)
                contrib = mT(edges.weights[slot, loc, :, None] * g) @ edges.trace[slot, loc]
                np.add.at(full, dofs[slot], mT(contrib))
    return system.restrict(full)
