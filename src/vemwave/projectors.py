"""Scalar virtual element DOF layout and the computable projection matrices.

Per element the degrees of freedom are: vertex values, edge moments against scaled
edge monomials of degree <= k-2, and interior moments against the element polynomial
basis of degree <= k-2.  All projectors are returned as matrices acting on the local
scalar DOF vector and expressed in the element polynomial basis.

The machinery is built once per batch of cells that share a vertex count
(``ElementGroup``, see ``build_element_groups``), stacked along a leading cell
axis; ``ElementOperators`` is a per-cell view of one slot of a group.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from .mesh import (DIRICHLET, CellGroup, ParameterError, PolygonalMesh, check_integer,
                   polygon_geometry)
from .polybasis import (
    QuadratureRule,
    basis_dimension,
    monomial_derivative_map,
    monomial_grams,
    monomial_laplacian_map,
    mT,
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

    def edge_dofs(self, local_edge) -> np.ndarray:
        """Local DOFs of the moments on ``local_edge``, an int or an array of
        local edges: shape (..., moments_per_edge)."""
        start = self.n_vertices + np.asarray(local_edge)[..., None] * self.moments_per_edge
        return start + np.arange(self.moments_per_edge)

    @property
    def interior_dofs(self) -> np.ndarray:
        start = self.n_vertices * (1 + self.moments_per_edge)
        return np.arange(start, start + self.n_interior)


def check_degree(degree: int, name: str = "degree") -> None:
    """ParameterError ``name`` unless degree is an integer >= 1; a caller whose
    parameter sets a degree under another name passes that name."""
    check_integer(name, degree, 1)


def check_basis_kind(basis_kind: str) -> None:
    """ParameterError unless basis_kind is 'monomial' or 'orthonormal'."""
    if basis_kind not in ("monomial", "orthonormal"):
        raise ParameterError("basis_kind", f"basis_kind must be 'monomial' or "
                                           f"'orthonormal' (got {basis_kind!r})")


def scalar_layout(degree: int, n_vertices: int) -> ScalarDofLayout:
    return ScalarDofLayout(degree, n_vertices, degree - 1, basis_dimension(degree - 2))


class DofMap:
    """Global enumeration of scalar DOFs: all vertex values, then edge moments in
    mesh edge order (moment degree ascending), then interior moments in cell order.
    Vector DOFs are two stacked scalar blocks (x component first)."""

    def __init__(self, mesh: PolygonalMesh, degree: int):
        check_degree(degree)
        self.mesh = mesh
        self.degree = degree
        self.per_edge = degree - 1
        self.per_cell = basis_dimension(degree - 2)
        self.edge_offset = mesh.n_vertices
        self.cell_offset = self.edge_offset + mesh.n_edges * self.per_edge
        self.n_scalar = self.cell_offset + mesh.n_cells * self.per_cell

    @property
    def n_vector(self) -> int:
        return 2 * self.n_scalar

    def edge_moment_dofs(self, edges) -> np.ndarray:
        """Global scalar DOFs (..., per_edge) of the moments on the mesh edges
        ``edges``, moment degree ascending."""
        return (self.edge_offset + np.asarray(edges)[..., None] * self.per_edge
                + np.arange(self.per_edge))

    def group_scalar_dofs(self, cells: CellGroup) -> np.ndarray:
        """Global scalar DOFs (G, n_total) of a group, in local layout order."""
        edge = self.edge_moment_dofs(cells.edges).reshape(len(cells.index), -1)
        interior = (self.cell_offset + cells.index[:, None] * self.per_cell
                    + np.arange(self.per_cell))
        return np.concatenate([cells.vertices, edge, interior], axis=1)

    def group_vector_dofs(self, cells: CellGroup) -> np.ndarray:
        """Global vector DOFs (G, n_total, 2) of a group, in local layout order:
        the x DOFs in ``[..., 0]``, the y DOFs in ``[..., 1]``."""
        s = self.group_scalar_dofs(cells)
        return np.stack([s, s + self.n_scalar], axis=-1)

    def cell_scalar_dofs(self, ci: int) -> np.ndarray:
        return self.group_scalar_dofs(self.mesh.cell_group([ci]))[0]

    def cell_vector_dofs(self, ci: int) -> np.ndarray:
        """The x DOFs of cell ``ci``, then its y DOFs."""
        return self.group_vector_dofs(self.mesh.cell_group([ci]))[0].T.ravel()

    def dirichlet_scalar_dofs(self) -> np.ndarray:
        """Sorted scalar DOFs on Dirichlet edges: their vertices and edge moments."""
        edges = np.flatnonzero(self.mesh.edge_tags == DIRICHLET)
        return np.unique(np.concatenate([self.mesh.edges[edges].ravel(),
                                         self.edge_moment_dofs(edges).ravel()]))


@lru_cache(maxsize=None)
def _edge_reference(degree: int):
    """Edge data shared by every edge of every element of one degree, on the
    (k + 1)-point Gauss rule.

    Returns the Gauss coordinates t in [-1/2, 1/2], the weights of the unit edge,
    ``trace_coeff`` (k+1, k+1) mapping (start value, end value, moments) to point
    values, and ``moment_weights`` (k+1, k-1) with 1/|E| int_E v t^l ds =
    moment_weights[:, l] @ v (the 1/|E| cancels the |E| of the weights).  The
    arrays are read-only because every element shares them."""
    k = degree
    gx, gw = np.polynomial.legendre.leggauss(k + 1)
    t = 0.5 * gx
    unit_weights = gw * 0.5

    # edge polynomials are represented internally in shifted Legendre for
    # conditioning; the DOFs themselves stay monomial moments
    vander = npleg.legvander(2.0 * t, k)
    a_sys = np.zeros((k + 1, k + 1))
    a_sys[0] = npleg.legvander(np.array([-1.0]), k)[0]
    a_sys[1] = npleg.legvander(np.array([1.0]), k)[0]
    for ell in range(k - 1):
        a_sys[2 + ell] = (0.5 * gw * t ** ell) @ vander
    trace_coeff = np.linalg.solve(a_sys.T, vander.T).T
    moment_weights = unit_weights[:, None] * t[:, None] ** np.arange(k - 1)
    out = (t, unit_weights, trace_coeff, moment_weights)
    for arr in out:
        arr.flags.writeable = False
    return out


@dataclass(frozen=True)
class EdgeTrace:
    """The element boundary as one stacked edge rule, edges in loop order, with
    the leading cell axes (``...``) of its group.

    ``points`` (..., n_e, q, 2) and ``weights`` (..., n_e, q) are the Gauss rule
    of each edge; ``trace`` (..., n_e, q, n_total) maps the local scalar DOF
    vector to function values at those points; ``param`` (q,) holds the edge
    coordinates t in [-1/2, 1/2] measured along the global edge orientation, the
    same for every edge.  The edge normals and lengths are those of the
    element's ``geometry``.
    """

    points: np.ndarray
    weights: np.ndarray
    param: np.ndarray
    trace: np.ndarray

    def __getitem__(self, i) -> "EdgeTrace":
        """The edges of cell ``i`` of a stack."""
        return EdgeTrace(self.points[i], self.weights[i], self.param, self.trace[i])


class ElementGroup:
    """All VEM element machinery for a group of cells that share one vertex count,
    stacked along a leading cell axis of length G: geometry, quadrature rule,
    basis, Grams, edge traces, the DOF matrix D, and the projectors PiNabla
    (elliptic), Pi0 (enhanced L2), Pi0x/Pi0y, each (G, ...)."""

    def __init__(self, mesh: PolygonalMesh, cells: CellGroup, degree: int, *,
                 basis_kind: str = "monomial"):
        check_basis_kind(basis_kind)
        check_degree(degree)
        self.cells = cells
        self.degree = degree
        self.vertex_coords = mesh.vertices[cells.vertices]
        self.geometry = polygon_geometry(self.vertex_coords)
        self.layout = scalar_layout(degree, cells.vertices.shape[1])
        names = np.char.add("cell ", cells.index.astype(str))

        self.rule: QuadratureRule = polygon_quadrature(
            self.vertex_coords, 2 * degree + 2, name=names)
        basis = scaled_monomials(self.geometry.centroid, self.geometry.diameter, degree)
        if basis_kind == "orthonormal":
            basis = orthonormalize(basis, self.rule, name=names)
        self.basis = basis
        self.grams = monomial_grams(basis, self.rule)

        self.n_k = basis_dimension(degree)
        self.n_km1 = basis_dimension(degree - 1)
        self.n_km2 = basis_dimension(degree - 2)

        self._build_edges()
        # the basis on all edge points at once, and int_dP g phi_i ds as
        # g @ weighted_trace; only D and the projector right-hand sides use them
        g = len(cells.index)
        points = self.edges.points.reshape(g, -1, 2)
        on_boundary = self.basis.eval(points)
        self.dof_matrix = self._functionals(
            self.basis.eval(self.vertex_coords), on_boundary,
            self.basis.eval(self.rule.points) if self.layout.n_interior else None)
        dx, dy = self.basis.eval_gradient(points)
        normal = np.repeat(self.geometry.edge_normals, len(self.edges.param), axis=1)
        weighted_trace = (self.edges.weights[..., None] * self.edges.trace).reshape(
            g, points.shape[1], -1)
        self._build_elliptic_projector(dx * normal[..., :1] + dy * normal[..., 1:],
                                       on_boundary, weighted_trace)
        self._build_l2_projectors(on_boundary[..., :self.n_km1], normal, weighted_trace)

    # -- edge traces --------------------------------------------------------

    def _build_edges(self):
        lay = self.layout
        n, m = lay.n_vertices, lay.moments_per_edge
        t, unit_weights, trace_coeff, self._moment_weights = _edge_reference(
            self.degree)
        loc = np.arange(n)
        nxt = np.roll(loc, -1)
        forward = self.cells.edge_signs > 0
        start_loc = np.where(forward, loc, nxt)
        end_loc = np.where(forward, nxt, loc)
        start = np.take_along_axis(self.vertex_coords, start_loc[..., None], axis=1)
        end = np.take_along_axis(self.vertex_coords, end_loc[..., None], axis=1)
        mid = 0.5 * (start + end)
        points = mid[..., None, :] + t[:, None] * (end - start)[..., None, :]
        weights = unit_weights * self.geometry.edge_lengths[..., None]

        g = len(self.cells.index)
        moments = np.broadcast_to(lay.edge_dofs(loc), (g, n, m))
        cols = np.concatenate([start_loc[..., None], end_loc[..., None], moments], axis=2)
        trace = np.zeros((g, n, len(t), lay.n_total))
        trace[np.arange(g)[:, None, None, None], loc[:, None, None],
              np.arange(len(t))[:, None], cols[:, :, None, :]] = trace_coeff
        self.edges = EdgeTrace(points, weights, t, trace)

    # -- elliptic projector --------------------------------------------------

    def _expand_in_interior_basis(self, mono_coeffs: np.ndarray) -> np.ndarray:
        """Re-express degree <= k-2 monomial expansions in the element basis used for
        the interior moments (identity for the monomial basis)."""
        if self.basis.coeffs is None:
            return mono_coeffs
        c22 = self.basis.coeffs[:, :self.n_km2, :self.n_km2]
        return np.linalg.solve(c22, mono_coeffs)

    def _build_elliptic_projector(self, normal_derivative, on_boundary, weighted_trace):
        lay = self.layout
        area = self.geometry.area[:, None, None]
        g = self.grams.stiffness.copy()
        b = mT(normal_derivative) @ weighted_trace
        if self.n_km2:
            lap = monomial_laplacian_map(self.degree, self.geometry.diameter)
            if self.basis.coeffs is not None:
                lap = lap @ self.basis.coeffs
            lap = self._expand_in_interior_basis(lap)
            b[..., lay.interior_dofs] -= area * mT(lap)

        # mean-value constraint replaces the constant-monomial row
        if self.degree == 1:
            perimeter = self.geometry.edge_lengths.sum(axis=-1)[:, None]
            g[:, 0] = (self.edges.weights.reshape(len(g), 1, -1) @ on_boundary)[:, 0] \
                / perimeter
            b[:, 0] = weighted_trace.sum(axis=1) / perimeter
        else:
            # row: (1/|P|) int p_b . x_b = first interior moment of phi; basis function 0
            # is constant so the scale factors cancel on both sides
            g[:, 0] = self.grams.mass[:, 0] / area[:, 0]
            b[:, 0] = 0.0
            b[:, 0, lay.interior_dofs[0]] = 1.0

        cond = np.linalg.cond(g)
        bad = ~(cond <= 1e15)
        if bad.any():
            i = int(np.argmax(bad))
            raise ProjectorError(
                f"cell {self.cells.index[i]}: elliptic projector system is singular "
                f"(cond ~ {cond[i]:.2e})")
        self.projector_condition = cond
        self.pi_nabla = np.linalg.solve(g, b)

    # -- L2 projectors -------------------------------------------------------

    def _build_l2_projectors(self, on_boundary_km1, normal, weighted_trace):
        lay = self.layout
        area = self.geometry.area[:, None, None]
        mass = self.grams.mass

        c = mass @ self.pi_nabla
        if self.n_km2:
            c[:, :self.n_km2] = 0.0
            c[:, np.arange(self.n_km2)[:, None], lay.interior_dofs[None, :]] = \
                area * np.eye(self.n_km2)
        self.pi_zero = np.linalg.solve(mass, c)

        # Pi0 of the derivative along each axis (0: x, 1: y), degree k-1
        mass_km1 = mass[:, :self.n_km1, :self.n_km1]
        derivative = []
        for axis in (0, 1):
            b = mT(on_boundary_km1) @ (normal[..., axis:axis + 1] * weighted_trace)
            if self.n_km2:
                dm = monomial_derivative_map(self.degree - 1, axis, self.geometry.diameter)
                if self.basis.coeffs is not None:
                    dm = dm @ self.basis.coeffs[:, :self.n_km1, :self.n_km1]
                b[..., lay.interior_dofs] -= area * mT(self._expand_in_interior_basis(dm))
            derivative.append(np.linalg.solve(mass_km1, b))
        self.pi_zero_x, self.pi_zero_y = derivative

    # -- DOF functionals ------------------------------------------------------

    def _functionals(self, at_vertices, on_edges, at_interior):
        """DOFs from values (G, npts, m) at the vertices, at all edge points and
        at the interior rule points (None for k = 1) of the group's cells."""
        lay = self.layout
        lead, tail = at_vertices.shape[:-2], at_vertices.shape[-1:]
        out = np.empty(lead + (lay.n_total,) + tail)
        out[..., :lay.n_vertices, :] = at_vertices
        on_edges = on_edges.reshape(self.edges.weights.shape + tail)
        moments = np.einsum("ql,...eqm->...elm", self._moment_weights, on_edges)
        out[..., lay.n_vertices:lay.n_total - lay.n_interior, :] = \
            moments.reshape(lead + (-1,) + tail)
        if lay.n_interior:
            qb = self.basis.restrict(self.degree - 2).eval(self.rule.points)
            area = self.geometry.area[:, None, None]
            out[..., lay.interior_dofs, :] = \
                mT(self.rule.weights[..., None] * qb) @ at_interior / area
        return out

    def dof_functionals(self, fn) -> np.ndarray:
        """DOFs of a pointwise-evaluable function on the cells of the group:
        vertex values, normalized edge moments, normalized interior moments.
        ``fn(points)`` takes points (npts, 2) and returns values (npts,) or
        (npts, m); it is called once per point set, and the result has shape
        (G, n_total) or (G, n_total, m).  The interpolation entry point; D
        applies the same ``_functionals`` to the basis."""
        def values(points):
            vals = np.asarray(fn(points.reshape(-1, 2)))
            return vals.reshape(points.shape[:-1] + (-1,)), vals.ndim == 1

        at_vertices, scalar = values(self.vertex_coords)
        out = self._functionals(
            at_vertices, values(self.edges.points)[0],
            values(self.rule.points)[0] if self.layout.n_interior else None)
        return out[..., 0] if scalar else out


# the ElementGroup attributes stacked along its leading cell axis
_PER_CELL = frozenset({"vertex_coords", "geometry", "rule", "basis", "grams", "edges",
                       "dof_matrix", "pi_nabla", "pi_zero", "pi_zero_x", "pi_zero_y",
                       "projector_condition"})


class ElementOperators:
    """One cell's element machinery: a view of one slot of an ElementGroup.  It
    stores only ``group`` and ``slot`` and reads every other public name from the
    group, a ``_PER_CELL`` name at the slot (per-cell, 2-D arrays).

    ``ElementOperators(mesh, ci, degree)`` builds a group of one cell."""

    def __init__(self, mesh: PolygonalMesh, cell_index: int, degree: int, *,
                 basis_kind: str = "monomial"):
        self.group = ElementGroup(mesh, mesh.cell_group([cell_index]), degree,
                                  basis_kind=basis_kind)
        self.slot = 0

    @classmethod
    def view(cls, group: ElementGroup, slot: int) -> "ElementOperators":
        ops = cls.__new__(cls)
        ops.group = group
        ops.slot = slot
        return ops

    @property
    def cell_index(self) -> int:
        return int(self.group.cells.index[self.slot])

    def __getattr__(self, name):
        # private and special names are not the group's: copy and pickle look
        # them up before ``group`` is set
        if name.startswith("_"):
            raise AttributeError(name)
        value = getattr(self.group, name)
        return value[self.slot] if name in _PER_CELL else value

    def dof_functionals(self, fn) -> np.ndarray:
        """DOFs of ``fn`` on this cell: shape (n_total,) or (n_total, m)."""
        return self.group.dof_functionals(fn)[self.slot]


# cells per ElementGroup: a vertex-count group is built in batches of at most
# this many cells, which bounds the stacked temporaries of the build and of
# each batch's local matrices; the family meshes up to level 1 (at most 100
# cells per group) stay one batch per group
_BATCH = 128


def build_element_groups(mesh: PolygonalMesh, degree: int, *,
                         basis_kind: str = "monomial") -> list[ElementGroup]:
    """The cells of each vertex-count group of ``mesh.cell_groups()``, in that
    order, split into consecutive batches of at most ``_BATCH`` cells; one
    ElementGroup per batch, built one after the other."""
    return [ElementGroup(mesh, mesh.cell_group(cells.index[start:start + _BATCH]),
                         degree, basis_kind=basis_kind)
            for cells in mesh.cell_groups()
            for start in range(0, len(cells.index), _BATCH)]


def build_element_operators(mesh: PolygonalMesh, degree: int, *,
                            basis_kind: str = "monomial") -> list[ElementOperators]:
    """One ElementOperators view per cell, in cell order, over the groups of
    ``build_element_groups``."""
    ops: list[ElementOperators] = [None] * mesh.n_cells
    for group in build_element_groups(mesh, degree, basis_kind=basis_kind):
        for slot, ci in enumerate(group.cells.index):
            ops[ci] = ElementOperators.view(group, slot)
    return ops
