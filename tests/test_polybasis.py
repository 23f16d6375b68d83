import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pentagon_vertices
from vemwave.polybasis import (
    BasisConditioningError,
    QuadratureError,
    basis_dimension,
    monomial_derivative_map,
    monomial_exponents,
    monomial_grams,
    orthonormalize,
    polygon_area_centroid,
    polygon_diameter,
    polygon_quadrature,
    scaled_monomials,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def regular_polygon(n, radius=1.0):
    ang = 2 * np.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(ang), np.sin(ang)])


class TestQuadrature:
    def test_square_moment(self):
        rule = polygon_quadrature(SQUARE, 2)
        assert abs(rule.weights @ rule.points[:, 0] ** 2 - 1.0 / 3.0) < 1e-13

    def test_hexagon_area(self):
        s = 0.7
        hexagon = regular_polygon(6, s)
        rule = polygon_quadrature(hexagon, 1)
        assert abs(rule.weights.sum() - 1.5 * np.sqrt(3.0) * s * s) < 1e-13

    def test_weights_sum_to_area(self):
        poly = pentagon_vertices()
        area, _ = polygon_area_centroid(poly)
        rule = polygon_quadrature(poly, 7)
        assert abs(rule.weights.sum() - area) < 1e-13 * area

    def test_self_convergence_oracle(self):
        poly = pentagon_vertices()
        _, c = polygon_area_centroid(poly)
        basis = scaled_monomials(c, polygon_diameter(poly), 3)
        lo = polygon_quadrature(poly, 6)
        hi = polygon_quadrature(poly, 12)
        vlo = basis.eval(lo.points)
        vhi = basis.eval(hi.points)
        ref = vhi.T @ (hi.weights[:, None] * vhi)
        got = vlo.T @ (lo.weights[:, None] * vlo)
        assert np.abs(got - ref).max() < 1e-11

    @settings(max_examples=20, deadline=None)
    @given(a=st.integers(0, 6), b=st.integers(0, 6))
    def test_monomial_exactness(self, a, b):
        rule = polygon_quadrature(SQUARE, a + b)
        got = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
        exact = 1.0 / ((a + 1) * (b + 1))
        assert abs(got - exact) < 1e-12 * max(abs(exact), 1.0)

    def test_non_star_shaped_rejected(self):
        # centroid of this "pac-man" with a deep slit falls outside the kernel
        bad = np.array([[0, 0], [4, 0], [4, 4], [2.0, 0.4], [0, 4.0]])
        with pytest.raises(QuadratureError):
            polygon_quadrature(bad, 2, name="cell 5")


class TestMonomials:
    def test_dimension_and_order(self):
        assert basis_dimension(3) == 10
        exps = monomial_exponents(2)
        assert [tuple(e) for e in exps] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_constant_is_one(self):
        basis = scaled_monomials(np.array([0.3, 0.4]), 2.0, 3)
        pts = np.random.default_rng(0).uniform(-1, 1, (5, 2))
        assert np.allclose(basis.eval(pts)[:, 0], 1.0)

    def test_gradient_matches_fd(self):
        basis = scaled_monomials(np.array([0.5, 0.5]), np.sqrt(2), 4)
        pts = np.array([[0.2, 0.7], [0.9, 0.1]])
        dx, dy = basis.eval_gradient(pts)
        h = 1e-6
        fdx = (basis.eval(pts + [h, 0]) - basis.eval(pts - [h, 0])) / (2 * h)
        fdy = (basis.eval(pts + [0, h]) - basis.eval(pts - [0, h])) / (2 * h)
        assert np.abs(dx - fdx).max() < 1e-8
        assert np.abs(dy - fdy).max() < 1e-8

    def test_derivative_map_exact(self):
        h = 1.7
        basis = scaled_monomials(np.array([0.1, -0.2]), h, 3)
        dmap = monomial_derivative_map(3, 0, h)
        pts = np.random.default_rng(1).uniform(-1, 1, (7, 2))
        dx, _ = basis.eval_gradient(pts)
        lower = basis.restrict(2).eval(pts)
        assert np.abs(dx - lower @ dmap).max() < 1e-13


class TestGrams:
    def test_unit_square_k1(self):
        basis = scaled_monomials(np.array([0.5, 0.5]), np.sqrt(2.0), 1)
        rule = polygon_quadrature(SQUARE, 4)
        g = monomial_grams(basis, rule)
        expected = np.diag([1.0, 1.0 / 24.0, 1.0 / 24.0])
        assert np.abs(g.mass - expected).max() < 1e-14

    def test_constant_row_zero(self):
        basis = scaled_monomials(np.array([0.5, 0.5]), np.sqrt(2.0), 2)
        g = monomial_grams(basis, polygon_quadrature(SQUARE, 6))
        assert np.abs(g.stiffness[0]).max() == 0.0
        assert np.abs(g.stiffness[:, 0]).max() == 0.0

    def test_derivative_target_identity(self):
        """The stiffness Gram is the reduced mass Gram paired through the exact
        derivative maps -- ties the stiffness assembly route to the
        derivative-pairing route."""
        poly = pentagon_vertices()
        _, c = polygon_area_centroid(poly)
        k = 3
        h = polygon_diameter(poly)
        basis = scaled_monomials(c, h, k)
        g = monomial_grams(basis, polygon_quadrature(poly, 2 * k + 2))
        n_lo = basis_dimension(k - 1)
        mass_lo = g.mass[:n_lo, :n_lo]
        # ex, ey: degree-k coefficients -> coefficients of the x-, y-derivative
        ex = monomial_derivative_map(k, 0, h)
        ey = monomial_derivative_map(k, 1, h)
        expected = ex.T @ mass_lo @ ex + ey.T @ mass_lo @ ey
        assert np.abs(g.stiffness - expected).max() < 1e-12 * np.abs(expected).max()

    def test_cyclic_relabel_invariance(self):
        poly = pentagon_vertices()
        _, c = polygon_area_centroid(poly)
        basis = scaled_monomials(c, polygon_diameter(poly), 2)
        g1 = monomial_grams(basis, polygon_quadrature(poly, 6))
        rolled = np.roll(poly, 2, axis=0)
        g2 = monomial_grams(basis, polygon_quadrature(rolled, 6))
        assert np.abs(g1.mass - g2.mass).max() < 1e-13


class TestOrthonormalize:
    def test_degree_zero_normalization(self):
        poly = pentagon_vertices()
        area, c = polygon_area_centroid(poly)
        basis = scaled_monomials(c, polygon_diameter(poly), 0)
        rule = polygon_quadrature(poly, 2)
        ob = orthonormalize(basis, rule)
        assert abs(ob.coeffs[0, 0] - 1.0 / np.sqrt(area)) < 1e-13

    def test_gram_becomes_identity(self):
        poly = pentagon_vertices(distort=0.4)
        _, c = polygon_area_centroid(poly)
        basis = scaled_monomials(c, polygon_diameter(poly), 6)
        rule = polygon_quadrature(poly, 14)
        ob = orthonormalize(basis, rule)
        g = monomial_grams(ob, rule)
        assert np.abs(g.mass - np.eye(ob.dim)).max() < 1e-10

    def test_identity_conditioning_high_degree_builtin_cells(self):
        from vemwave.mesh import generate_family
        for family in ("random_quad", "hexagonal", "nonconvex_octagon"):
            mesh = generate_family(family, 0, seed=2)
            ci = mesh.n_cells // 2
            verts = mesh.vertices[mesh.cells[ci]]
            area, c = polygon_area_centroid(verts)
            basis = scaled_monomials(c, polygon_diameter(verts), 8)
            rule = polygon_quadrature(verts, 18)
            ob = orthonormalize(basis, rule)
            g = monomial_grams(ob, rule)
            cond = np.linalg.cond(g.mass)
            assert cond < 1.0 + 1e-9

    def test_upper_triangular_positive(self):
        poly = pentagon_vertices()
        _, c = polygon_area_centroid(poly)
        basis = scaled_monomials(c, polygon_diameter(poly), 4)
        ob = orthonormalize(basis, polygon_quadrature(poly, 10))
        t = ob.coeffs
        assert np.abs(np.tril(t, -1)).max() == 0.0
        assert (np.diag(t) > 0).all()

    def test_conditioning_error(self):
        sliver = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2e-9], [0.0, 1e-9]])
        _, c = polygon_area_centroid(sliver)
        basis = scaled_monomials(c, polygon_diameter(sliver), 12)
        with pytest.raises(BasisConditioningError):
            orthonormalize(basis, polygon_quadrature(sliver, 26))
