"""Scaled monomial bases on polygons, polygon quadrature, and monomial Gram matrices."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi


class QuadratureError(ValueError):
    """Raised when a quadrature rule cannot be built on a cell."""


class BasisConditioningError(ValueError):
    """Raised when the element Gram matrix is numerically singular."""


def basis_dimension(degree: int) -> int:
    """Dimension of the space of 2D polynomials of total degree <= degree (0 for degree < 0)."""
    if degree < 0:
        return 0
    return (degree + 1) * (degree + 2) // 2


def monomial_exponents(degree: int) -> np.ndarray:
    """Multi-indices (a1, a2) ordered by total degree, then descending a1: 1, x, y, x^2, xy, y^2, ..."""
    exps = [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]
    return np.array(exps, dtype=int).reshape(-1, 2)


@dataclass(frozen=True)
class PolynomialBasis:
    """Basis of P_k on an element, expressed in scaled monomials m_a(x) = ((x - x_P)/h_P)^a,
    ordered as ``monomial_exponents(degree)``.

    Every array field may carry leading cell axes (``...``): ``centroid`` (..., 2),
    ``diameter`` (...) and ``coeffs`` (..., nk, nk), so one object describes one
    cell or a stack of cells and is evaluated at points (..., npts, 2).
    ``coeffs`` is an optional upper-triangular change of basis: basis function j is
    sum_a coeffs[a, j] * m_a.  ``coeffs is None`` means the raw scaled monomials.
    """

    centroid: np.ndarray
    diameter: float | np.ndarray
    degree: int
    exponents: np.ndarray
    coeffs: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.exponents.shape[0]

    def __getitem__(self, i) -> "PolynomialBasis":
        """The basis of cell ``i`` of a stack."""
        return PolynomialBasis(self.centroid[i], self.diameter[i], self.degree,
                               self.exponents,
                               None if self.coeffs is None else self.coeffs[i])

    def _powers(self, points: np.ndarray) -> np.ndarray:
        """x^j and y^j of the scaled coordinates, j = 0..degree, built by repeated
        multiplication: shape (..., npts, 2, degree + 1)."""
        pts = np.atleast_2d(points)
        h = np.asarray(self.diameter)[..., None, None]
        scaled = (pts - self.centroid[..., None, :]) / h
        table = np.empty(scaled.shape + (self.degree + 1,))
        table[..., 0] = 1.0
        for j in range(1, self.degree + 1):
            table[..., j] = table[..., j - 1] * scaled
        return table

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values of all basis functions at ``points``; shape (..., npts, dim)."""
        table = self._powers(points)
        px, py = table[..., 0, :], table[..., 1, :]
        vals = np.empty(px.shape[:-1] + (self.dim,))
        for d in range(self.degree + 1):
            # the degree-d monomials x^(d-j) y^j, j = 0..d, written in place
            s = d * (d + 1) // 2
            np.multiply(px[..., d::-1], py[..., :d + 1], out=vals[..., s:s + d + 1])
        return vals if self.coeffs is None else vals @ self.coeffs

    def eval_gradient(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x and y derivatives of all basis functions at ``points``; each of
        shape (..., npts, dim)."""
        table = self._powers(points)
        px, py = table[..., 0, :], table[..., 1, :]
        h = np.asarray(self.diameter)[..., None, None]
        dx = np.zeros(px.shape[:-1] + (self.dim,))
        dy = np.zeros_like(dx)
        for d in range(1, self.degree + 1):
            s = d * (d + 1) // 2
            a = np.arange(d, 0, -1)
            # d/dx x^a y^j = a x^(a-1) y^j for the block's j = 0..d-1 (a = d - j)
            blk = dx[..., s:s + d]
            np.multiply(px[..., d - 1::-1], a, out=blk)
            blk *= py[..., :d]
            blk /= h
            # d/dy x^(d-j) y^j = j x^(d-j) y^(j-1) for j = 1..d
            blk = dy[..., s + 1:s + d + 1]
            np.multiply(px[..., d - 1::-1], a[::-1], out=blk)
            blk *= py[..., :d]
            blk /= h
        if self.coeffs is not None:
            dx = dx @ self.coeffs
            dy = dy @ self.coeffs
        return dx, dy

    def restrict(self, degree: int) -> "PolynomialBasis":
        """Sub-basis of degree <= degree (valid because ``coeffs`` is upper triangular)."""
        n = basis_dimension(degree)
        coeffs = None if self.coeffs is None else np.ascontiguousarray(
            self.coeffs[..., :n, :n])
        return PolynomialBasis(self.centroid, self.diameter, degree,
                               self.exponents[:n], coeffs)


def scaled_monomials(centroid: np.ndarray, diameter, degree: int) -> PolynomialBasis:
    """Scaled monomial basis of one cell, or of a stack of cells when ``centroid``
    is (..., 2) and ``diameter`` (...)."""
    diameter = np.asarray(diameter, dtype=float)
    return PolynomialBasis(np.asarray(centroid, dtype=float),
                           diameter[()] if diameter.ndim == 0 else diameter,
                           degree, monomial_exponents(degree))


@lru_cache(maxsize=None)
def _unit_derivative_map(degree: int, axis: int) -> np.ndarray:
    hi = monomial_exponents(degree)
    lo_index = {(int(a), int(b)): i for i, (a, b) in enumerate(monomial_exponents(degree - 1))}
    d = np.zeros((basis_dimension(degree - 1), basis_dimension(degree)))
    for b, (a1, a2) in enumerate(hi):
        e = (a1, a2)
        if e[axis] > 0:
            tgt = (a1 - 1, a2) if axis == 0 else (a1, a2 - 1)
            d[lo_index[tgt], b] = e[axis]
    d.flags.writeable = False
    return d


@lru_cache(maxsize=None)
def _unit_laplacian_map(degree: int) -> np.ndarray:
    hi = monomial_exponents(degree)
    lo_index = {(int(a), int(b)): i for i, (a, b) in enumerate(monomial_exponents(degree - 2))}
    lap = np.zeros((basis_dimension(degree - 2), basis_dimension(degree)))
    for b, (a1, a2) in enumerate(hi):
        if a1 >= 2:
            lap[lo_index[(a1 - 2, a2)], b] += a1 * (a1 - 1)
        if a2 >= 2:
            lap[lo_index[(a1, a2 - 2)], b] += a2 * (a2 - 1)
    lap.flags.writeable = False
    return lap


def monomial_derivative_map(degree: int, axis: int, diameter) -> np.ndarray:
    """Matrix D with d_axis m_b = sum_g D[g, b] m_g, mapping degree-k monomial coefficients
    to degree-(k-1) ones; (..., n_{k-1}, n_k) for ``diameter`` of shape (...).
    Exact: derivatives of scaled monomials are scaled monomials."""
    return _unit_derivative_map(degree, axis) / np.asarray(diameter)[..., None, None]


def monomial_laplacian_map(degree: int, diameter) -> np.ndarray:
    """Matrix L with Lap m_b = sum_g L[g, b] m_g over the degree-(k-2) monomials;
    (..., n_{k-2}, n_k) for ``diameter`` of shape (...)."""
    h = np.asarray(diameter)[..., None, None]
    return _unit_laplacian_map(degree) / (h * h)


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Points (..., npts, 2) and weights (..., npts), with optional leading cell axes."""

    points: np.ndarray
    weights: np.ndarray

    def __getitem__(self, i) -> "QuadratureRule":
        """The rule of cell ``i`` of a stack."""
        return QuadratureRule(self.points[i], self.weights[i])


@lru_cache(maxsize=64)
def _reference_triangle_rule(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed tensor rule on the triangle (0,0),(1,0),(0,1), exact to total degree
    ``exactness``: Gauss-Legendre in the collapsed direction, Gauss-Jacobi (alpha=1)
    absorbing the Duffy Jacobian in the other."""
    n = max(1, (exactness + 2) // 2)
    gx, gw = np.polynomial.legendre.leggauss(n)
    xi = 0.5 * (gx + 1.0)
    wxi = 0.5 * gw
    jx, jw = roots_jacobi(n, 1.0, 0.0)
    eta = 0.5 * (jx + 1.0)
    weta = jw / 4.0  # includes the (1 - eta) factor
    X = np.outer(1.0 - eta, xi).ravel()
    Y = np.repeat(eta, n)
    W = np.outer(weta, wxi).ravel()
    return np.column_stack([X, Y]), W


def _label(name, lead_shape, index) -> str:
    """``name``, or its entry for the polygon at ``index`` of the leading axes."""
    if isinstance(name, str):
        return name
    return name[int(np.ravel_multi_index(index, lead_shape)) if lead_shape else 0]


def polygon_area_centroid(vertices: np.ndarray):
    """Signed area (...) and area centroid (..., 2) of polygons given as CCW vertex
    loops (..., n, 2)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[..., 0], v[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum(axis=-1)
    if (np.abs(area) < 1e-300).any():
        raise QuadratureError("polygon has zero area")
    cx = ((x + xn) * cross).sum(axis=-1) / (6.0 * area)
    cy = ((y + yn) * cross).sum(axis=-1) / (6.0 * area)
    return area, np.stack([cx, cy], axis=-1)


def polygon_diameter(vertices: np.ndarray):
    """Largest vertex-to-vertex distance of polygons (..., n, 2); shape (...)."""
    v = np.asarray(vertices, dtype=float)
    d2 = ((v[..., :, None, :] - v[..., None, :, :]) ** 2).sum(axis=-1)
    return np.sqrt(d2.max(axis=(-2, -1)))


def polygon_quadrature(vertices: np.ndarray, exactness: int, *,
                       name="polygon") -> QuadratureRule:
    """Quadrature on polygons star-shaped w.r.t. their area centroid, by fan triangulation.

    ``vertices`` is (..., n, 2) for one polygon or a stack of polygons with the same
    vertex count, and the rule is (..., n * m, 2) points and (..., n * m) weights.
    A collinear fan triangle carries no area and keeps its points with weight 0,
    so every polygon of a stack has a rule of the same size.  ``name`` labels the
    polygon in errors: one string, or one string per polygon of the stack.

    Raises QuadratureError when a fan triangle is inverted, which means the cell is
    not star-shaped with respect to the centroid.
    """
    v = np.asarray(vertices, dtype=float)
    lead = v.shape[:-2]
    area, c = polygon_area_centroid(v)
    area = np.asarray(area)
    if (area <= 0).any():
        bad = np.unravel_index(np.argmax(area <= 0), lead) if lead else ()
        raise QuadratureError(f"{_label(name, lead, bad)}: vertex loop is not counterclockwise")
    ref_pts, ref_w = _reference_triangle_rule(max(exactness, 0))
    da = v - c[..., None, :]
    db = np.roll(v, -1, axis=-2) - c[..., None, :]
    det = da[..., 0] * db[..., 1] - da[..., 1] * db[..., 0]
    tol = 1e-14 * area[..., None]
    inverted = det < -tol
    if inverted.any():
        *cell, tri = np.argwhere(inverted)[0]
        raise QuadratureError(
            f"{_label(name, lead, tuple(cell))}: not star-shaped w.r.t. centroid "
            f"(fan triangle {tri} inverted)")
    det = np.where(np.abs(det) <= tol, 0.0, det)
    pts = (c[..., None, None, :] + ref_pts[:, 0:1] * da[..., :, None, :]
           + ref_pts[:, 1:2] * db[..., :, None, :])
    weights = ref_w * det[..., None]
    return QuadratureRule(pts.reshape(lead + (-1, 2)), weights.reshape(lead + (-1,)))


# ---------------------------------------------------------------------------
# Gram matrices


def mT(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack (the last two axes)."""
    return np.swapaxes(a, -1, -2)


@dataclass(frozen=True)
class MonomialGrams:
    """Element Gram matrices of a polynomial basis p, with the leading cell axes
    of the basis.

    mass[i, j]      = int_P p_j p_i
    stiffness[i, j] = int_P grad p_j . grad p_i
    """

    mass: np.ndarray
    stiffness: np.ndarray

    def __getitem__(self, i) -> "MonomialGrams":
        """The Grams of cell ``i`` of a stack."""
        return MonomialGrams(self.mass[i], self.stiffness[i])


def monomial_grams(basis: PolynomialBasis, rule: QuadratureRule) -> MonomialGrams:
    vals = basis.eval(rule.points)
    dx, dy = basis.eval_gradient(rule.points)
    w = rule.weights[..., None]
    mass = mT(vals) @ (w * vals)
    dxdx = mT(dx) @ (w * dx)
    dydy = mT(dy) @ (w * dy)
    mass = 0.5 * (mass + mT(mass))
    dxdx = 0.5 * (dxdx + mT(dxdx))
    dydy = 0.5 * (dydy + mT(dydy))
    return MonomialGrams(mass, dxdx + dydy)


def orthonormalize(basis: PolynomialBasis, rule: QuadratureRule, *,
                   name="polygon") -> PolynomialBasis:
    """Upper-triangular change of basis T with T^T Q T = I in the element L2 product,
    per cell of a stacked basis and rule; BasisConditioningError when the
    triangular factor of a cell has a diagonal ratio above 1e16.

    Computed stably from a QR factorization of the weighted Vandermonde rather than
    from the assembled Gram matrix.  ``name`` labels the cells as in
    ``polygon_quadrature``; the error names the worst-conditioned one.
    """
    vals = basis.eval(rule.points)
    wts = np.sqrt(rule.weights)[..., None]
    r = np.linalg.qr(wts * vals, mode="r")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    lo, hi = np.abs(diag).min(axis=-1), np.abs(diag).max(axis=-1)
    cond = hi / np.maximum(lo, 1e-300)
    bad = (lo == 0.0) | (cond > 1e16)
    if bad.any():
        lead = np.shape(lo)
        worst = np.unravel_index(np.argmax(np.where(bad, cond, -1.0)), lead)
        raise BasisConditioningError(
            f"{_label(name, lead, worst)}: element basis Gram matrix is numerically "
            f"singular (condition ~ {cond[worst]:.2e}); reduce the degree")
    sign = np.where(diag < 0, -1.0, 1.0)
    r = sign[..., :, None] * r
    t = np.linalg.solve(r, np.broadcast_to(np.eye(r.shape[-1]), r.shape))
    coeffs = t if basis.coeffs is None else basis.coeffs @ t
    return PolynomialBasis(basis.centroid, basis.diameter, basis.degree,
                           basis.exponents, coeffs)
