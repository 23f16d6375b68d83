"""Scalar virtual element DOF layout and the computable projection matrices.

Per element the degrees of freedom are: vertex values, edge moments against scaled
edge monomials of degree <= k-2, and interior moments against the element polynomial
basis of degree <= k-2.  All projectors are returned as matrices acting on the local
scalar DOF vector and expressed in the element polynomial basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from .mesh import DIRICHLET, PolygonalMesh
from .polybasis import (
    QuadratureRule,
    basis_dimension,
    monomial_derivative_map,
    monomial_grams,
    monomial_laplacian_map,
    orthonormalize,
    polygon_quadrature,
    scaled_monomials,
)


class ProjectorError(RuntimeError):
    """Raised when a local projector system is numerically singular."""


@dataclass(frozen=True)
class ScalarDofLayout:
    degree: int
    n_vertices: int
    moments_per_edge: int
    n_interior: int

    @property
    def n_total(self) -> int:
        return self.n_vertices * (1 + self.moments_per_edge) + self.n_interior

    def edge_dofs(self, local_edge: int) -> np.ndarray:
        start = self.n_vertices + local_edge * self.moments_per_edge
        return np.arange(start, start + self.moments_per_edge)

    @property
    def interior_dofs(self) -> np.ndarray:
        start = self.n_vertices * (1 + self.moments_per_edge)
        return np.arange(start, start + self.n_interior)


def scalar_layout(degree: int, n_vertices: int) -> ScalarDofLayout:
    return ScalarDofLayout(degree, n_vertices, degree - 1, basis_dimension(degree - 2))


class DofMap:
    """Global enumeration of scalar DOFs: all vertex values, then edge moments in
    mesh edge order (moment degree ascending), then interior moments in cell order.
    Vector DOFs are two stacked scalar blocks (x component first)."""

    def __init__(self, mesh: PolygonalMesh, degree: int):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.mesh = mesh
        self.degree = degree
        self.per_edge = degree - 1
        self.per_cell = basis_dimension(degree - 2)
        self.edge_offset = mesh.n_vertices
        self.cell_offset = self.edge_offset + mesh.n_edges * self.per_edge
        self.n_scalar = self.cell_offset + mesh.n_cells * self.per_cell
        self._cell_cache: dict[int, np.ndarray] = {}

    @property
    def n_vector(self) -> int:
        return 2 * self.n_scalar

    def edge_dofs(self, e: int) -> np.ndarray:
        start = self.edge_offset + e * self.per_edge
        return np.arange(start, start + self.per_edge)

    def cell_scalar_dofs(self, ci: int) -> np.ndarray:
        cached = self._cell_cache.get(ci)
        if cached is not None:
            return cached
        cell = self.mesh.cells[ci]
        parts = [cell]
        for e in self.mesh.cell_edges[ci]:
            parts.append(self.edge_dofs(int(e)))
        start = self.cell_offset + ci * self.per_cell
        parts.append(np.arange(start, start + self.per_cell))
        dofs = np.concatenate(parts).astype(int)
        self._cell_cache[ci] = dofs
        return dofs

    def cell_vector_dofs(self, ci: int) -> np.ndarray:
        s = self.cell_scalar_dofs(ci)
        return np.concatenate([s, s + self.n_scalar])

    def dirichlet_scalar_dofs(self) -> np.ndarray:
        fixed = set()
        for e in self.mesh.boundary_edges():
            if self.mesh.edge_tags[e] != DIRICHLET:
                continue
            a, b = self.mesh.edges[e]
            fixed.add(int(a))
            fixed.add(int(b))
            fixed.update(map(int, self.edge_dofs(int(e))))
        return np.array(sorted(fixed), dtype=int)


@lru_cache(maxsize=None)
def _edge_reference(degree: int, npts: int):
    """Edge data shared by every edge of every element of one degree.

    Returns the Gauss coordinates t in [-1/2, 1/2], the weights of the unit edge,
    ``trace_coeff`` (npts, k+1) mapping (start value, end value, moments) to point
    values, and ``moment_weights`` (npts, k-1) with 1/|E| int_E v t^l ds =
    moment_weights[:, l] @ v (the 1/|E| cancels the |E| of the weights).  The
    arrays are read-only because every element shares them."""
    k = degree
    gx, gw = np.polynomial.legendre.leggauss(npts)
    t = 0.5 * gx
    unit_weights = gw * 0.5

    # edge polynomials are represented internally in shifted Legendre for
    # conditioning; the DOFs themselves stay monomial moments
    vander = npleg.legvander(2.0 * t, k)
    a_sys = np.zeros((k + 1, k + 1))
    a_sys[0] = npleg.legvander(np.array([-1.0]), k)[0]
    a_sys[1] = npleg.legvander(np.array([1.0]), k)[0]
    if k >= 2:
        mx, mw = np.polynomial.legendre.leggauss(k + 1)
        mt = 0.5 * mx
        mvander = npleg.legvander(2.0 * mt, k)
        for ell in range(k - 1):
            a_sys[2 + ell] = (0.5 * mw * mt ** ell) @ mvander
    trace_coeff = np.linalg.solve(a_sys.T, vander.T).T
    moment_weights = unit_weights[:, None] * t[:, None] ** np.arange(k - 1)
    out = (t, unit_weights, trace_coeff, moment_weights)
    for arr in out:
        arr.flags.writeable = False
    return out


@dataclass(frozen=True)
class EdgeTrace:
    """The element boundary as one stacked edge rule, edges in loop order.

    ``points`` (n_e, q, 2) and ``weights`` (n_e, q) are the Gauss rule of each
    edge; ``trace`` (n_e, q, n_total) maps the local scalar DOF vector to
    function values at those points; ``param`` (q,) holds the edge coordinates
    t in [-1/2, 1/2] measured along the global edge orientation, the same for
    every edge.  ``normal`` (n_e, 2) holds the outward unit normals and
    ``length`` (n_e,) the edge lengths.
    """

    points: np.ndarray
    weights: np.ndarray
    param: np.ndarray
    trace: np.ndarray
    normal: np.ndarray
    length: np.ndarray


class ElementOperators:
    """All per-element VEM machinery: basis, quadrature, Grams, DOF matrix D,
    and the projectors PiNabla (elliptic), Pi0 (enhanced L2), Pi0x/Pi0y."""

    def __init__(self, mesh: PolygonalMesh, cell_index: int, degree: int, *,
                 basis_kind: str = "monomial", quad_boost: int = 0):
        if basis_kind not in ("monomial", "orthonormal"):
            raise ValueError("basis_kind must be 'monomial' or 'orthonormal'")
        self.cell_index = cell_index
        self.degree = degree
        self.mesh = mesh
        cell = mesh.cells[cell_index]
        self.vertex_coords = mesh.vertices[cell]
        self.geometry = mesh.cell_geometry(cell_index)
        self.layout = scalar_layout(degree, len(cell))

        self.rule: QuadratureRule = polygon_quadrature(
            self.vertex_coords, 2 * degree + 2 + quad_boost,
            centroid=self.geometry.centroid, name=f"cell {cell_index}")
        basis = scaled_monomials(self.geometry.centroid, self.geometry.diameter, degree)
        if basis_kind == "orthonormal":
            basis = orthonormalize(basis, self.rule)
        self.basis = basis
        self.grams = monomial_grams(basis, self.rule)

        self.n_k = basis_dimension(degree)
        self.n_km1 = basis_dimension(degree - 1)
        self.n_km2 = basis_dimension(degree - 2)

        self._build_edges(quad_boost)
        self.dof_matrix = self.dof_functionals(self.basis.eval)

        # the basis on all edge points at once, and int_dP g phi_i ds as
        # g @ weighted_trace; only the projector right-hand sides use them
        points = self.edges.points.reshape(-1, 2)
        on_boundary = self.basis.eval(points)
        dx, dy = self.basis.eval_gradient(points)
        normal = np.repeat(self.edges.normal, len(self.edges.param), axis=0)
        weighted_trace = (self.edges.weights[..., None] * self.edges.trace).reshape(
            len(points), -1)
        self._build_elliptic_projector(dx * normal[:, :1] + dy * normal[:, 1:],
                                       on_boundary, weighted_trace)
        self._build_l2_projectors(on_boundary[:, :self.n_km1], normal, weighted_trace)

    # -- edge traces --------------------------------------------------------

    def _build_edges(self, quad_boost: int):
        lay = self.layout
        n, m = lay.n_vertices, lay.moments_per_edge
        t, unit_weights, trace_coeff, self._moment_weights = _edge_reference(
            self.degree, self.degree + 1 + quad_boost)
        loc = np.arange(n)
        nxt = np.roll(loc, -1)
        forward = self.mesh.cell_edge_signs[self.cell_index] > 0
        start_loc = np.where(forward, loc, nxt)
        end_loc = np.where(forward, nxt, loc)
        start = self.vertex_coords[start_loc]
        end = self.vertex_coords[end_loc]
        mid = 0.5 * (start + end)
        points = mid[:, None, :] + t[None, :, None] * (end - start)[:, None, :]
        length = self.geometry.edge_lengths
        weights = unit_weights[None, :] * length[:, None]

        cols = np.column_stack([start_loc, end_loc, n + np.arange(n * m).reshape(n, m)])
        trace = np.zeros((n, len(t), lay.n_total))
        trace[loc[:, None, None], np.arange(len(t))[None, :, None],
              cols[:, None, :]] = trace_coeff
        self.edges = EdgeTrace(points, weights, t, trace,
                               self.geometry.edge_normals, length)

    # -- elliptic projector --------------------------------------------------

    def _expand_in_interior_basis(self, mono_coeffs: np.ndarray) -> np.ndarray:
        """Re-express degree <= k-2 monomial expansions in the element basis used for
        the interior moments (identity for the monomial basis)."""
        if self.basis.coeffs is None:
            return mono_coeffs
        c22 = self.basis.coeffs[:self.n_km2, :self.n_km2]
        return np.linalg.solve(c22, mono_coeffs)

    def _build_elliptic_projector(self, normal_derivative, on_boundary, weighted_trace):
        lay = self.layout
        area = self.geometry.area
        g = self.grams.stiffness().copy()
        b = normal_derivative.T @ weighted_trace
        if self.n_km2:
            lap = monomial_laplacian_map(self.degree, self.geometry.diameter)
            if self.basis.coeffs is not None:
                lap = lap @ self.basis.coeffs
            lap = self._expand_in_interior_basis(lap)
            b[:, lay.interior_dofs] -= area * lap.T

        # mean-value constraint replaces the constant-monomial row
        if self.degree == 1:
            perimeter = self.edges.length.sum()
            g[0] = self.edges.weights.ravel() @ on_boundary / perimeter
            b[0] = weighted_trace.sum(axis=0) / perimeter
        else:
            # row: (1/|P|) int p_b . x_b = first interior moment of phi; basis function 0
            # is constant so the scale factors cancel on both sides
            g[0] = self.grams.mass[0] / area
            row = np.zeros(lay.n_total)
            row[lay.interior_dofs[0]] = 1.0
            b[0] = row

        cond = np.linalg.cond(g)
        if not np.isfinite(cond) or cond > 1e15:
            raise ProjectorError(
                f"cell {self.cell_index}: elliptic projector system is singular "
                f"(cond ~ {cond:.2e})")
        self.projector_condition = float(cond)
        self.pi_nabla = np.linalg.solve(g, b)

    # -- L2 projectors -------------------------------------------------------

    def _build_l2_projectors(self, on_boundary_km1, normal, weighted_trace):
        lay = self.layout
        area = self.geometry.area
        mass = self.grams.mass

        c = mass @ self.pi_nabla
        if self.n_km2:
            c[:self.n_km2] = 0.0
            c[np.arange(self.n_km2)[:, None], lay.interior_dofs[None, :]] = \
                area * np.eye(self.n_km2)
        self.pi_zero = np.linalg.solve(mass, c)

        bx = on_boundary_km1.T @ (normal[:, :1] * weighted_trace)
        by = on_boundary_km1.T @ (normal[:, 1:] * weighted_trace)
        if self.n_km2:
            dxm = monomial_derivative_map(self.degree - 1, 0, self.geometry.diameter)
            dym = monomial_derivative_map(self.degree - 1, 1, self.geometry.diameter)
            if self.basis.coeffs is not None:
                c11 = self.basis.coeffs[:self.n_km1, :self.n_km1]
                dxm = dxm @ c11
                dym = dym @ c11
            dxm = self._expand_in_interior_basis(dxm)
            dym = self._expand_in_interior_basis(dym)
            bx[:, lay.interior_dofs] -= area * dxm.T
            by[:, lay.interior_dofs] -= area * dym.T
        mass_km1 = mass[:self.n_km1, :self.n_km1]
        self.pi_zero_x = np.linalg.solve(mass_km1, bx)
        self.pi_zero_y = np.linalg.solve(mass_km1, by)

    # -- DOF functionals ------------------------------------------------------

    def dof_functionals(self, fn) -> np.ndarray:
        """DOFs of a pointwise-evaluable function: vertex values, normalized edge
        moments, normalized interior moments.  ``fn(points)`` returns values of shape
        (npts,) or (npts, m), and the result has shape (n_total,) or (n_total, m).
        The interpolation entry point, and D = dof_functionals(basis.eval)."""
        lay = self.layout
        at_vertices = np.asarray(fn(self.vertex_coords))
        tail = at_vertices.shape[1:]
        out = np.empty((lay.n_total,) + tail)
        out[:lay.n_vertices] = at_vertices
        on_edges = np.asarray(fn(self.edges.points.reshape(-1, 2))).reshape(
            self.edges.weights.shape + tail)
        moments = np.einsum("ql,eq...->el...", self._moment_weights, on_edges)
        out[lay.n_vertices:lay.n_total - lay.n_interior] = moments.reshape((-1,) + tail)
        if lay.n_interior:
            vals = np.asarray(fn(self.rule.points))
            qb = self.basis.restrict(self.degree - 2).eval(self.rule.points)
            out[lay.interior_dofs] = \
                (self.rule.weights[:, None] * qb).T @ vals / self.geometry.area
        return out

    # DOF-space projector matrices used by the stabilization terms

    def dof_projector_elliptic(self) -> np.ndarray:
        return self.dof_matrix @ self.pi_nabla

    def dof_projector_l2(self) -> np.ndarray:
        return self.dof_matrix @ self.pi_zero


def build_element_operators(mesh: PolygonalMesh, degree: int, *,
                            basis_kind: str = "monomial") -> list[ElementOperators]:
    return [ElementOperators(mesh, ci, degree, basis_kind=basis_kind)
            for ci in range(mesh.n_cells)]
