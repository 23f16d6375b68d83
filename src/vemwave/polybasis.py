"""Scaled monomial bases on polygons, polygon/edge quadrature, and monomial Gram matrices."""
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
    """Basis of P_k on an element, expressed in scaled monomials m_a(x) = ((x - x_P)/h_P)^a.

    ``coeffs`` is an optional upper-triangular change of basis: basis function j is
    sum_a coeffs[a, j] * m_a.  ``coeffs is None`` means the raw scaled monomials.
    """

    centroid: np.ndarray
    diameter: float
    degree: int
    exponents: np.ndarray
    coeffs: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.exponents.shape[0]

    def monomial_eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        scaled = (pts - self.centroid) / self.diameter
        return np.prod(scaled[:, None, :] ** self.exponents[None, :, :], axis=2)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values of all basis functions at ``points``; shape (npts, dim)."""
        vals = self.monomial_eval(points)
        if self.coeffs is not None:
            vals = vals @ self.coeffs
        return vals

    def monomial_gradient(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.atleast_2d(points)
        scaled = (pts - self.centroid) / self.diameter
        e1 = self.exponents[:, 0]
        e2 = self.exponents[:, 1]
        # x^(e-1) with the e == 0 term masked to zero
        p1 = scaled[:, None, 0] ** np.maximum(e1 - 1, 0)
        p2 = scaled[:, None, 1] ** np.maximum(e2 - 1, 0)
        f1 = scaled[:, None, 0] ** e1
        f2 = scaled[:, None, 1] ** e2
        dx = np.where(e1 > 0, e1 * p1 * f2 / self.diameter, 0.0)
        dy = np.where(e2 > 0, e2 * f1 * p2 / self.diameter, 0.0)
        return dx, dy

    def eval_gradient(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dx, dy = self.monomial_gradient(points)
        if self.coeffs is not None:
            dx = dx @ self.coeffs
            dy = dy @ self.coeffs
        return dx, dy

    def restrict(self, degree: int) -> "PolynomialBasis":
        """Sub-basis of degree <= degree (valid because ``coeffs`` is upper triangular)."""
        n = basis_dimension(degree)
        coeffs = None if self.coeffs is None else np.ascontiguousarray(self.coeffs[:n, :n])
        return PolynomialBasis(self.centroid, self.diameter, degree,
                               self.exponents[:n], coeffs)


def scaled_monomials(centroid: np.ndarray, diameter: float, degree: int) -> PolynomialBasis:
    return PolynomialBasis(np.asarray(centroid, dtype=float), float(diameter),
                           degree, monomial_exponents(degree))


def monomial_derivative_map(degree: int, axis: int, diameter: float) -> np.ndarray:
    """Matrix D with d_axis m_b = sum_g D[g, b] m_g, mapping degree-k monomial coefficients
    to degree-(k-1) ones.  Exact: derivatives of scaled monomials are scaled monomials."""
    hi = monomial_exponents(degree)
    lo_index = {(int(a), int(b)): i for i, (a, b) in enumerate(monomial_exponents(degree - 1))}
    d = np.zeros((basis_dimension(degree - 1), basis_dimension(degree)))
    for b, (a1, a2) in enumerate(hi):
        e = (a1, a2)
        if e[axis] > 0:
            tgt = (a1 - 1, a2) if axis == 0 else (a1, a2 - 1)
            d[lo_index[tgt], b] = e[axis] / diameter
    return d


def monomial_laplacian_map(degree: int, diameter: float) -> np.ndarray:
    """Matrix L with Lap m_b = sum_g L[g, b] m_g over the degree-(k-2) monomials."""
    hi = monomial_exponents(degree)
    lo_index = {(int(a), int(b)): i for i, (a, b) in enumerate(monomial_exponents(degree - 2))}
    lap = np.zeros((basis_dimension(degree - 2), basis_dimension(degree)))
    h2 = diameter * diameter
    for b, (a1, a2) in enumerate(hi):
        if a1 >= 2:
            lap[lo_index[(a1 - 2, a2)], b] += a1 * (a1 - 1) / h2
        if a2 >= 2:
            lap[lo_index[(a1, a2 - 2)], b] += a2 * (a2 - 1) / h2
    return lap


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray
    weights: np.ndarray


def gauss_segment(p0: np.ndarray, p1: np.ndarray, n: int) -> QuadratureRule:
    """Gauss-Legendre rule on the segment p0 -> p1 (weights sum to the length)."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (x + 1.0)
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    length = float(np.hypot(*(p1 - p0)))
    return QuadratureRule(pts, 0.5 * w * length)


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


def polygon_area_centroid(vertices: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed area and area centroid of a polygon given as a CCW vertex loop."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    if abs(area) < 1e-300:
        raise QuadratureError("polygon has zero area")
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    return float(area), np.array([cx, cy])


def polygon_diameter(vertices: np.ndarray) -> float:
    v = np.asarray(vertices, dtype=float)
    d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.max()))


def polygon_quadrature(vertices: np.ndarray, exactness: int, *,
                       centroid: np.ndarray | None = None,
                       name: str = "polygon") -> QuadratureRule:
    """Quadrature on a polygon star-shaped w.r.t. its centroid, by fan triangulation.

    Raises QuadratureError when a fan triangle is degenerate or inverted, which means
    the cell is not star-shaped with respect to the centroid.
    """
    v = np.asarray(vertices, dtype=float)
    area, c = polygon_area_centroid(v)
    if area <= 0:
        raise QuadratureError(f"{name}: vertex loop is not counterclockwise")
    if centroid is not None:
        c = np.asarray(centroid, dtype=float)
    ref_pts, ref_w = _reference_triangle_rule(max(exactness, 0))
    pts_parts = []
    w_parts = []
    n = len(v)
    for i in range(n):
        a = v[i]
        b = v[(i + 1) % n]
        det = (a[0] - c[0]) * (b[1] - c[1]) - (a[1] - c[1]) * (b[0] - c[0])
        if det <= 1e-14 * area:
            if abs(det) <= 1e-14 * area:
                continue  # collinear fan triangle carries no area
            raise QuadratureError(
                f"{name}: not star-shaped w.r.t. centroid (fan triangle {i} inverted)")
        pts = c[None, :] + ref_pts[:, 0:1] * (a - c)[None, :] + ref_pts[:, 1:2] * (b - c)[None, :]
        pts_parts.append(pts)
        w_parts.append(ref_w * det)
    return QuadratureRule(np.vstack(pts_parts), np.concatenate(w_parts))


# ---------------------------------------------------------------------------
# Gram matrices


@dataclass(frozen=True)
class MonomialGrams:
    """Element Gram matrices of a polynomial basis p and of its first derivatives.

    mass[i, j]  = int_P p_j p_i
    dxdx[i, j]  = int_P dx p_j dx p_i,  dxdy[i, j] = int_P dx p_j dy p_i, etc.
    (dydx is the transpose of dxdy; dydy pairs the y-derivatives on both sides.)
    """

    basis: PolynomialBasis
    mass: np.ndarray
    dxdx: np.ndarray
    dxdy: np.ndarray
    dydx: np.ndarray
    dydy: np.ndarray

    def stiffness(self) -> np.ndarray:
        return self.dxdx + self.dydy


def monomial_grams(basis: PolynomialBasis, rule: QuadratureRule) -> MonomialGrams:
    vals = basis.eval(rule.points)
    dx, dy = basis.eval_gradient(rule.points)
    w = rule.weights[:, None]
    mass = vals.T @ (w * vals)
    dxdx = dx.T @ (w * dx)
    dydy = dy.T @ (w * dy)
    dydx = dx.T @ (w * dy)   # rows pair dx, columns dy: int dy p_j dx p_i
    mass = 0.5 * (mass + mass.T)
    dxdx = 0.5 * (dxdx + dxdx.T)
    dydy = 0.5 * (dydy + dydy.T)
    return MonomialGrams(basis, mass, dxdx, dydx.T, dydx, dydy)


def orthonormalize(basis: PolynomialBasis, rule: QuadratureRule,
                   cond_limit: float = 1e16) -> PolynomialBasis:
    """Upper-triangular change of basis T with T^T Q T = I in the element L2 product.

    Computed stably from a QR factorization of the weighted Vandermonde rather than
    from the assembled Gram matrix.
    """
    vals = basis.eval(rule.points)
    wts = np.sqrt(rule.weights)[:, None]
    q, r = np.linalg.qr(wts * vals)
    diag = np.abs(np.diag(r))
    if diag.min() == 0.0 or diag.max() / diag.min() > cond_limit:
        raise BasisConditioningError(
            "element basis Gram matrix is numerically singular "
            f"(condition ~ {(diag.max() / max(diag.min(), 1e-300)):.2e}); reduce the degree")
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    r = sign[:, None] * r
    t = np.linalg.solve(r, np.eye(r.shape[0]))
    coeffs = t if basis.coeffs is None else basis.coeffs @ t
    return PolynomialBasis(basis.centroid, basis.diameter, basis.degree,
                           basis.exponents, coeffs)
