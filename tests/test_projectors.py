import copy
import dataclasses
import pickle

import numpy as np
import pytest

from vemwave.assembly import Material, local_scalar_mass, local_stiffness
from vemwave.mesh import PolygonalMesh, generate_family
from vemwave.polybasis import (
    BasisConditioningError,
    QuadratureError,
    basis_dimension,
    monomial_derivative_map,
)
from vemwave.projectors import (
    DofMap,
    ElementGroup,
    ElementOperators,
    _PER_CELL,
    ProjectorError,
    build_element_groups,
    build_element_operators,
    scalar_layout,
)


def reproduction_errors(mesh, ci, degree, basis_kind="monomial"):
    """Worst coefficient error of each projector over all basis polynomials."""
    ops = ElementOperators(mesh, ci, degree, basis_kind=basis_kind)
    basis = ops.basis
    n_km1 = basis_dimension(degree - 1)
    dx = monomial_derivative_map(degree, 0, basis.diameter)
    dy = monomial_derivative_map(degree, 1, basis.diameter)
    if basis.coeffs is not None:
        c11 = basis.coeffs[:n_km1, :n_km1]
        dx = np.linalg.solve(c11, dx @ basis.coeffs)
        dy = np.linalg.solve(c11, dy @ basis.coeffs)
    worst = dict(pi_nabla=0.0, pi_zero=0.0, pi_x=0.0, pi_y=0.0)
    for alpha in range(basis.dim):
        dofs = ops.dof_functionals(lambda p, a=alpha: basis.eval(p)[:, a])
        target = np.zeros(basis.dim)
        target[alpha] = 1.0
        worst["pi_nabla"] = max(worst["pi_nabla"],
                                np.abs(ops.pi_nabla @ dofs - target).max())
        worst["pi_zero"] = max(worst["pi_zero"],
                               np.abs(ops.pi_zero @ dofs - target).max())
        worst["pi_x"] = max(worst["pi_x"], np.abs(ops.pi_zero_x @ dofs - dx[:, alpha]).max())
        worst["pi_y"] = max(worst["pi_y"], np.abs(ops.pi_zero_y @ dofs - dy[:, alpha]).max())
    return worst


class TestDofLayout:
    def test_counts(self):
        lay = scalar_layout(3, 5)
        assert lay.n_total == 5 + 5 * 2 + 3

    def test_dofmap_global_counts(self):
        mesh = generate_family("random_quad", 0)
        dm = DofMap(mesh, 2)
        expected = mesh.n_vertices + mesh.n_edges + mesh.n_cells
        assert dm.n_scalar == expected
        assert dm.n_vector == 2 * expected

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_edge_dofs_of_an_edge_array(self, degree):
        lay = scalar_layout(degree, 5)
        rows = lay.edge_dofs(np.arange(5))
        assert rows.shape == (5, degree - 1)
        for loc in range(5):
            assert np.array_equal(rows[loc], lay.edge_dofs(loc))

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_edge_moment_dofs_are_the_edge_block(self, hexagonal_mesh, degree):
        """Mesh edge order, moment degree ascending, between the vertex and the
        interior DOFs; each group's edge block, read through the local layout."""
        dofmap = DofMap(hexagonal_mesh, degree)
        every = dofmap.edge_moment_dofs(np.arange(hexagonal_mesh.n_edges))
        assert np.array_equal(every.ravel(),
                              np.arange(hexagonal_mesh.n_vertices, dofmap.cell_offset))
        for cells in hexagonal_mesh.cell_groups():
            n = cells.vertices.shape[1]
            local = scalar_layout(degree, n).edge_dofs(np.arange(n))
            assert np.array_equal(dofmap.group_scalar_dofs(cells)[:, local],
                                  dofmap.edge_moment_dofs(cells.edges))

    def test_dirichlet_dofs(self):
        mesh = generate_family("random_quad", 0)
        dm = DofMap(mesh, 2)
        fixed = dm.dirichlet_scalar_dofs()
        n_bedges = len(mesh.boundary_edges())
        assert len(fixed) == n_bedges + n_bedges  # boundary vertices + 1 moment each


class TestDofFunctionals:
    def test_constant_function(self, octagon_mesh):
        ops = ElementOperators(octagon_mesh, 0, 2)
        dofs = ops.dof_functionals(lambda p: np.ones(len(p)))
        lay = ops.layout
        assert np.allclose(dofs[:lay.n_vertices], 1.0)
        for loc in range(lay.n_vertices):
            assert abs(dofs[lay.edge_dofs(loc)[0]] - 1.0) < 1e-13
        assert abs(dofs[lay.interior_dofs[0]] - 1.0) < 1e-13

    def test_sine_cell_moment(self, unit_square_mesh):
        # x^2 y^2 has degree 4 <= 2k + 2, so the cell rule integrates it exactly:
        # its mean over the unit square is 1/9
        ops = ElementOperators(unit_square_mesh, 0, 2)
        dofs = ops.dof_functionals(lambda p: p[:, 0] ** 2 * p[:, 1] ** 2)
        assert abs(dofs[ops.layout.interior_dofs[0]] - 1.0 / 9.0) < 1e-14


    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_vector_values_match_each_component(self, octagon_mesh, degree):
        ops = ElementOperators(octagon_mesh, 4, degree)

        def field(p):
            return np.column_stack([np.sin(3 * p[:, 0]) * p[:, 1],
                                    np.exp(p[:, 0] - p[:, 1])])

        both = ops.dof_functionals(field)
        assert both.shape == (ops.layout.n_total, 2)
        for j in range(2):
            one = ops.dof_functionals(lambda p: field(p)[:, j])
            assert np.abs(both[:, j] - one).max() <= 1e-15 * np.abs(one).max()


class TestReproduction:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_square(self, unit_square_mesh, degree):
        worst = reproduction_errors(unit_square_mesh, 0, degree)
        assert max(worst.values()) < (1e-12 if degree <= 3 else 1e-11)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_octagon(self, octagon_mesh, degree):
        worst = reproduction_errors(octagon_mesh, 7, degree)
        assert max(worst.values()) < 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_hexagon_cell(self, hexagonal_mesh, degree):
        worst = reproduction_errors(hexagonal_mesh, 8, degree)
        assert max(worst.values()) < 1e-12

    @pytest.mark.parametrize("degree", [5, 6, 7, 8])
    def test_high_order_orthonormal(self, octagon_mesh, degree):
        worst = reproduction_errors(octagon_mesh, 12, degree, "orthonormal")
        assert max(worst.values()) < 1e-11

    def test_constant_maps_to_constant(self, octagon_mesh):
        ops = ElementOperators(octagon_mesh, 0, 3)
        dofs = ops.dof_functionals(lambda p: np.full(len(p), 4.25))
        rec = ops.pi_nabla @ dofs
        vals = ops.basis.eval(ops.rule.points) @ rec
        assert np.abs(vals - 4.25).max() < 1e-12
        scale = np.abs(ops.pi_zero_x).max()
        assert np.abs(ops.pi_zero_x @ dofs).max() < 1e-13 * scale
        assert np.abs(ops.pi_zero_y @ dofs).max() < 1e-13 * scale


class TestIdentities:
    def test_k1_gradient_is_boundary_average(self, octagon_mesh):
        """For k = 1, grad(PiNabla v) = (1/|P|) contour integral of v n ds."""
        ops = ElementOperators(octagon_mesh, 5, 1)
        rng = np.random.default_rng(0)
        dofs = rng.standard_normal(ops.layout.n_total)
        coeffs = ops.pi_nabla @ dofs
        grad = coeffs[1:3] / ops.basis.diameter  # gradient of the scaled monomials
        bnd = np.zeros(2)
        for trace, weights, normal in zip(ops.edges.trace, ops.edges.weights,
                                          ops.geometry.edge_normals):
            vals = trace @ dofs
            bnd += normal * (weights @ vals)
        assert np.abs(grad - bnd / ops.geometry.area).max() < 1e-13

    def test_idempotence(self, octagon_mesh):
        ops = ElementOperators(octagon_mesh, 2, 3)
        rng = np.random.default_rng(1)
        dofs = rng.standard_normal(ops.layout.n_total)
        once = ops.pi_nabla @ dofs
        again = ops.pi_nabla @ (ops.dof_matrix @ once)
        assert np.abs(once - again).max() < 1e-11

    def test_cyclic_relabel_invariance(self, octagon_mesh):
        ci = 3
        mesh = octagon_mesh
        cell = list(mesh.cells[ci])
        rolled_cells = [list(c) for c in mesh.cells]
        rolled_cells[ci] = cell[2:] + cell[:2]
        rolled = PolygonalMesh(mesh.vertices, rolled_cells)
        rng = np.random.default_rng(2)
        w_coef = rng.standard_normal(3)

        def w(p):
            return w_coef[0] + w_coef[1] * np.sin(p[:, 0]) + w_coef[2] * p[:, 1] ** 2

        pts = rng.uniform(0.2, 0.3, (6, 2))
        out = []
        for m in (mesh, rolled):
            ops = ElementOperators(m, ci, 2)
            coeffs = ops.pi_nabla @ ops.dof_functionals(w)
            out.append(ops.basis.eval(pts) @ coeffs)
        assert np.abs(out[0] - out[1]).max() < 1e-12

    def test_enhancement_moments(self, octagon_mesh):
        """(v - Pi0 v, m) = 0 for monomials up to degree k, via the bookkeeping:
        low moments from interior DOFs, high moments from the elliptic projection."""
        k = 3
        ops = ElementOperators(octagon_mesh, 0, k)
        n_km2 = ops.n_km2
        area = ops.geometry.area
        mass = ops.grams.mass
        for i in range(ops.layout.n_total):
            e = np.zeros(ops.layout.n_total)
            e[i] = 1.0
            moments = np.empty(ops.n_k)
            moments[:n_km2] = area * e[ops.layout.interior_dofs]
            moments[n_km2:] = (mass @ (ops.pi_nabla @ e))[n_km2:]
            proj_moments = mass @ (ops.pi_zero @ e)
            assert np.abs(proj_moments - moments).max() < 1e-11

    def test_triangle_k1_fem_gradients(self, unit_triangle_mesh):
        ops = ElementOperators(unit_triangle_mesh, 0, 1)
        # P1 gradients on the unit right triangle, vertex order (0,0),(1,0),(0,1)
        fem_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            gx = float((ops.pi_zero_x @ e)[0])
            gy = float((ops.pi_zero_y @ e)[0])
            assert abs(gx - fem_grads[i, 0]) < 1e-13
            assert abs(gy - fem_grads[i, 1]) < 1e-13
        assert np.abs(ops.pi_zero - ops.pi_nabla).max() < 1e-13

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_entries_bounded(self, degree):
        for family in ("random_quad", "hexagonal", "nonconvex_octagon"):
            mesh = generate_family(family, 0, seed=5)
            for ci in (0, mesh.n_cells // 2):
                ops = ElementOperators(mesh, ci, degree)
                # gradient-projector entries scale like 1/h_P, so the smoke
                # bound is taken relative to the cell diameter
                bound = 1e6 / min(ops.geometry.diameter, 1.0)
                for mat in (ops.pi_nabla, ops.pi_zero, ops.pi_zero_x, ops.pi_zero_y):
                    assert np.isfinite(mat).all()
                    assert np.abs(mat).max() < bound


class TestElementGroups:
    """The stacked group build against groups of one cell (``ElementOperators``)."""

    @pytest.mark.parametrize("basis_kind", ["monomial", "orthonormal"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("family", ["random_quad", "hexagonal", "nonconvex_octagon"])
    def test_group_slot_matches_single_cell(self, family, level, degree, basis_kind):
        mesh = generate_family(family, level, seed=3)
        mat = Material(1.0, 2.0, 0.5)
        groups = build_element_groups(mesh, degree, basis_kind=basis_kind)
        assert sorted(np.concatenate([g.cells.index for g in groups])) == \
            list(range(mesh.n_cells))
        for group in groups:
            stacked = {name: getattr(group, name) for name in
                       ("pi_nabla", "pi_zero", "pi_zero_x", "pi_zero_y", "dof_matrix")}
            stacked["mass"] = local_scalar_mass(group, mat)
            stacked["stiffness"] = local_stiffness(group, mat)
            for slot, ci in enumerate(group.cells.index):
                one = ElementOperators(mesh, ci, degree, basis_kind=basis_kind)
                single = {name: getattr(one, name) for name in
                          ("pi_nabla", "pi_zero", "pi_zero_x", "pi_zero_y", "dof_matrix")}
                single["mass"] = local_scalar_mass(one, mat)
                single["stiffness"] = local_stiffness(one, mat)
                for name, ref in single.items():
                    got = stacked[name][slot]
                    assert got.shape == ref.shape
                    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), \
                        (name, ci)

    def test_views_in_cell_order(self, hexagonal_mesh):
        ops = build_element_operators(hexagonal_mesh, 2)
        assert [op.cell_index for op in ops] == list(range(hexagonal_mesh.n_cells))
        for ci, op in enumerate(ops):
            assert op.group.cells.index[op.slot] == ci
            assert len(op.vertex_coords) == len(hexagonal_mesh.cells[ci])
            assert isinstance(op.projector_condition, float)

    def test_view_is_group_and_slot(self, hexagonal_mesh):
        """A view stores its group and slot alone: each ``_PER_CELL`` name reads
        the group's value at the slot, any other name the group's own value."""
        def same(a, b):
            if dataclasses.is_dataclass(a):
                return type(a) is type(b) and all(
                    same(getattr(a, f.name), getattr(b, f.name))
                    for f in dataclasses.fields(a))
            return np.array_equal(a, b)

        group = build_element_groups(hexagonal_mesh, 2, basis_kind="orthonormal")[-1]
        slot = len(group.cells.index) - 1
        view = ElementOperators.view(group, slot)
        assert vars(view).keys() == {"group", "slot"}
        for name in _PER_CELL:
            assert same(getattr(view, name), getattr(group, name)[slot]), name
        for name in ("degree", "layout", "n_k", "n_km1", "n_km2", "cells"):
            assert getattr(view, name) is getattr(group, name)
        assert view.cell_index == group.cells.index[slot]
        with pytest.raises(AttributeError):
            view._moment_weights
        for other in (copy.copy(view), pickle.loads(pickle.dumps(view))):
            assert vars(other).keys() == {"group", "slot"}
            assert other.cell_index == view.cell_index
            assert np.array_equal(other.pi_nabla, view.pi_nabla)

    def test_group_dofs_match_cell_dofs(self, hexagonal_mesh):
        dofmap = DofMap(hexagonal_mesh, 3)
        for cells in hexagonal_mesh.cell_groups():
            dofs = dofmap.group_scalar_dofs(cells)
            for slot, ci in enumerate(cells.index):
                assert (dofs[slot] == dofmap.cell_scalar_dofs(ci)).all()


def _two_cell_mesh(second):
    """A unit square (cell 0) and ``second`` (cell 1, same vertex count), apart."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    second = np.asarray(second, dtype=float)
    first = square if len(second) == 4 else np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.3, 0.6], [0.5, 1.0], [-0.3, 0.6]])
    verts = np.vstack([first, second + [10.0, 0.0]])
    n = len(first)
    return PolygonalMesh(verts, [list(range(n)), list(range(n, 2 * n))])


class TestGroupErrorsNameCell:
    """Errors of a stacked build name the offending cell, not the group's first."""

    def test_quadrature_error(self):
        mesh = _two_cell_mesh([[0, 0], [4, 0], [4, 4], [2.0, 0.4], [0, 4.0]])
        assert len(mesh.cell_groups()) == 1
        with pytest.raises(QuadratureError, match=r"cell 1: .*fan triangle 2"):
            build_element_operators(mesh, 1)

    def test_basis_conditioning_error(self):
        mesh = _two_cell_mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 2e-9], [0.0, 1e-9]])
        with pytest.raises(BasisConditioningError, match="cell 1:"):
            build_element_operators(mesh, 12, basis_kind="orthonormal")

    def test_projector_error(self):
        mesh = _two_cell_mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 2e-9], [0.0, 1e-9]])
        with pytest.raises(ProjectorError, match="cell 1:"):
            ElementGroup(mesh, mesh.cell_groups()[0], 2)
