"""Polygonal meshes: structure, regularity validation, built-in families, periodic
reference cells, and a plain-text file format."""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .polybasis import polygon_area_centroid, polygon_diameter

INTERIOR = "interior"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"
PERIODIC_MASTER = "periodic-master"
PERIODIC_SLAVE = "periodic-slave"

FAMILIES = ("random_quad", "hexagonal", "nonconvex_octagon")
PERIODIC_GRIDS = ("quad", "tria", "c1", "c2", "c3", "c4")


class MeshError(Exception):
    """Invalid mesh topology or geometry.  ``cell`` is the index of the offending
    cell, ``edge`` the sorted vertex pair of an offending boundary tag, if any."""

    def __init__(self, message, *, cell: int | None = None,
                 edge: tuple[int, int] | None = None):
        super().__init__(message)
        self.cell = cell
        self.edge = edge


class ParameterError(ValueError):
    """An invalid value that the caller passed for the parameter ``name``."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def check_integer(name: str, value, minimum: int) -> None:
    """ParameterError ``name`` unless value is an integer (a Python or numpy
    integer, not a bool) >= minimum."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= minimum):
        raise ParameterError(name, f"{name} must be >= {minimum} and an integer "
                                   f"(got {value!r})")


def check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ParameterError("family", f"unknown family {family!r}; choose from {FAMILIES}")


def check_level(level: int) -> None:
    check_integer("level", level, 0)


def check_grid(grid: str) -> None:
    if grid not in PERIODIC_GRIDS:
        raise ParameterError("grid", f"unknown periodic grid {grid!r}; "
                                     f"choose from {PERIODIC_GRIDS}")


class MeshParseError(MeshError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ElementGeometry:
    """Geometry of one cell, or of a stack of cells along leading axes (``...``)."""

    centroid: np.ndarray          # (..., 2)
    diameter: float | np.ndarray  # (...)
    area: float | np.ndarray      # (...)
    edge_lengths: np.ndarray      # (..., n)
    edge_normals: np.ndarray      # (..., n, 2) outward unit normals, one per loop edge

    def __getitem__(self, i) -> "ElementGeometry":
        """The geometry of cell ``i`` of a stack."""
        return ElementGeometry(self.centroid[i], self.diameter[i], self.area[i],
                               self.edge_lengths[i], self.edge_normals[i])


def polygon_geometry(vertices: np.ndarray) -> ElementGeometry:
    """Geometry of CCW vertex loops (..., n, 2)."""
    v = np.asarray(vertices, dtype=float)
    area, centroid = polygon_area_centroid(v)
    tang = np.roll(v, -1, axis=-2) - v
    lengths = np.hypot(tang[..., 0], tang[..., 1])
    normals = np.stack([tang[..., 1], -tang[..., 0]], axis=-1) / lengths[..., None]
    return ElementGeometry(centroid, polygon_diameter(v), area, lengths, normals)


@dataclass(frozen=True)
class CellGroup:
    """Cells that share one vertex count, as stacked arrays: cell indices
    ``index`` (G,) in ascending order, and per cell its vertex loop ``vertices``
    (G, n), loop edges ``edges`` (G, n) and their orientation signs
    ``edge_signs`` (G, n)."""

    index: np.ndarray
    vertices: np.ndarray
    edges: np.ndarray
    edge_signs: np.ndarray


@dataclass(eq=False)
class PeriodicPairing:
    """Vertex v is the copy of ``vertex_master[v]`` translated by ``vertex_offset[v]``,
    edge e that of ``edge_master[e]`` by ``edge_offset[e]``; a master maps to itself
    at a zero offset.  A slave lies at x or y = ``period``, the side of the cell."""

    period: float
    vertex_master: np.ndarray
    vertex_offset: np.ndarray
    edge_master: np.ndarray
    edge_offset: np.ndarray


class PolygonalMesh:
    """Immutable planar mesh of simple polygons with a global, fixed edge orientation.

    Edges are numbered by first appearance along the cell loops and oriented from
    their lexicographically smaller endpoint (by coordinate), which is translation
    invariant and therefore consistent across periodic images.  The loops, their
    edges and their orientation signs are stored once, as flat arrays over all loop
    positions: cell ``c`` owns positions ``cell_offsets[c]:cell_offsets[c + 1]``.
    """

    def __init__(self, vertices, cells, boundary_tags=None):
        self.vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            raise MeshError(f"vertex {int(np.argmin(finite))} is not finite")
        cells = list(cells)
        counts = np.fromiter(map(len, cells), dtype=int, count=len(cells))
        self.cell_offsets = np.concatenate([[0], np.cumsum(counts)])
        try:
            self.loop_vertices = np.fromiter(itertools.chain.from_iterable(cells), dtype=int,
                                             count=self.cell_offsets[-1])
        except OverflowError:  # an id beyond int64 names no vertex either: mark it missing
            nv = len(self.vertices)
            self.loop_vertices = np.array([v if 0 <= v < nv else -1 for c in cells for v in c])
        self.periodic: PeriodicPairing | None = None
        self._cell_groups: tuple[CellGroup, ...] | None = None
        self._validate_cells(counts)
        self._apply_boundary_tags(boundary_tags, *self._number_edges())

    # -- construction ------------------------------------------------------

    def _positions(self, index: np.ndarray) -> np.ndarray:
        """Loop positions (G, n) of the cells ``index``, which share one vertex count n."""
        start = self.cell_offsets[index]
        return start[:, None] + np.arange(self.cell_offsets[index[0] + 1] - start[0])

    def _validate_cells(self, counts: np.ndarray):
        """Raise for the lowest invalid cell, naming the first check it fails."""
        nv = len(self.vertices)
        missing, repeats = np.zeros((2, len(counts)), dtype=bool)
        area = np.zeros(len(counts))
        for n in np.unique(counts):
            index = np.flatnonzero(counts == n)
            ids = self.loop_vertices[self._positions(index)]
            ids_sorted = np.sort(ids, axis=1)
            missing[index] = ((ids < 0) | (ids >= nv)).any(axis=1)
            repeats[index] = (ids_sorted[:, 1:] == ids_sorted[:, :-1]).any(axis=1)
            ok = ~missing[index]
            area[index[ok]] = _signed_area(self.vertices[ids[ok]])
        checks = (counts < 3, missing, repeats, area <= 0)
        bad = np.logical_or.reduce(checks)
        if not bad.any():
            return
        ci = int(np.argmax(bad))
        messages = ("has fewer than 3 vertices", "references a missing vertex",
                    "repeats a vertex",
                    f"is not counterclockwise (signed area {area[ci]:g})")
        message = next(m for check, m in zip(checks, messages) if check[ci])
        raise MeshError(f"cell {ci} {message}", cell=ci)

    def _number_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Number the edges by first appearance along the loops and set ``edges``,
        ``edge_cells``, ``loop_edges`` and ``loop_signs``; returns the sorted
        edge keys min·n_v + max, the k-th of which names edge ``key_edge[k]``."""
        nv = len(self.vertices)
        a = self.loop_vertices
        offsets = self.cell_offsets
        nxt = np.arange(1, len(a) + 1)
        nxt[offsets[1:] - 1] = offsets[:-1]
        b = a[nxt]
        keys, first, inverse, count = np.unique(
            np.minimum(a, b) * nv + np.maximum(a, b),
            return_index=True, return_inverse=True, return_counts=True)
        by_first = np.argsort(first)
        key_edge = np.empty(len(keys), dtype=int)
        key_edge[by_first] = np.arange(len(keys))
        edge = key_edge[inverse]

        # orientation from the lexicographically smaller endpoint of the first loop edge
        start = first[by_first]
        pa, pb = self.vertices[a[start]], self.vertices[b[start]]
        less = (pa[:, 0] < pb[:, 0]) | ((pa[:, 0] == pb[:, 0]) & (pa[:, 1] < pb[:, 1]))
        first_ab = np.stack([a[start], b[start]], axis=1)
        self.edges = np.where(less[:, None], first_ab, first_ab[:, ::-1])
        self.loop_edges = edge
        self.loop_signs = np.where(self.edges[edge, 0] == a, 1, -1)

        # the j-th appearance of an edge along the loops is its owner j
        cell_of = np.repeat(np.arange(self.n_cells), np.diff(offsets))
        by_edge = np.argsort(edge, kind="stable")
        count = count[by_first]
        head = np.cumsum(count) - count
        owner = np.arange(len(a)) - np.repeat(head, count)
        extra = by_edge[owner >= 2]
        if len(extra):
            third = extra.min()
            pair = cell_of[by_edge[head[edge[third]] + np.arange(2)]].tolist()
            key = tuple(sorted((int(a[third]), int(b[third]))))
            ci = int(cell_of[third])
            raise MeshError(f"edge {key} is shared by more than two cells ({pair + [ci]})",
                            cell=ci)
        self.edge_cells = np.full((len(keys), 2), -1, dtype=int)
        self.edge_cells[edge[by_edge], owner] = cell_of[by_edge]
        return keys, key_edge

    def _apply_boundary_tags(self, boundary_tags, keys, key_edge):
        self.edge_tags = np.where(self.edge_cells[:, 1] >= 0,
                                  INTERIOR, DIRICHLET).astype(object)
        if not boundary_tags:
            return
        nv = len(self.vertices)
        lookup = {tuple(sorted(map(int, k))): v for k, v in boundary_tags.items()}
        tagged = np.array([a * nv + b if 0 <= a < b < nv else -1 for a, b in lookup],
                          dtype=np.int64)
        found = np.isin(tagged, keys)
        if not found.all():
            key = list(lookup)[int(np.argmin(found))]
            raise MeshError(f"boundary tag names no mesh edge {key}", edge=key)
        edges = key_edge[np.searchsorted(keys, tagged)]
        interior = self.edge_cells[edges, 1] >= 0
        if interior.any():
            e = edges[interior].min()
            key = tuple(sorted(map(int, self.edges[e])))
            raise MeshError(f"edge {key} is interior but was given a boundary tag", edge=key)
        self.edge_tags[edges] = list(lookup.values())

    # -- queries -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_cells(self) -> int:
        return len(self.cell_offsets) - 1

    @functools.cached_property
    def cells(self) -> list[np.ndarray]:
        """The vertex loop of each cell, as views into ``loop_vertices``."""
        bounds = self.cell_offsets
        return [self.loop_vertices[i:j] for i, j in zip(bounds[:-1], bounds[1:])]

    def boundary_edges(self) -> np.ndarray:
        return np.where(self.edge_cells[:, 1] < 0)[0]

    def cell_group(self, index) -> CellGroup:
        """The cells ``index``, a nonempty list of integers in [0, n_cells) that
        share one vertex count, as a CellGroup; ParameterError ``cell_index``
        otherwise."""
        index = np.asarray(index)
        if not (index.ndim == 1 and index.size and index.dtype.kind in "iu"):
            raise ParameterError("cell_index", f"cell indices must be a nonempty list of "
                                               f"integers (got {index.tolist()!r})")
        index = index.astype(int, copy=False)
        outside = (index < 0) | (index >= self.n_cells)
        if outside.any():
            raise ParameterError("cell_index", f"cell index {index[outside][0]} is "
                                               f"outside [0, {self.n_cells})")
        counts = self.cell_offsets[index + 1] - self.cell_offsets[index]
        if (counts != counts[:1]).any():
            raise ParameterError("cell_index", f"cells {index.tolist()} do not share one "
                                               f"vertex count ({counts.tolist()})")
        pos = self._positions(index)
        return CellGroup(index, self.loop_vertices[pos], self.loop_edges[pos],
                         self.loop_signs[pos])

    def cell_groups(self) -> tuple[CellGroup, ...]:
        """All cells, one CellGroup per vertex count, by ascending vertex count."""
        if self._cell_groups is None:
            counts = np.diff(self.cell_offsets)
            self._cell_groups = tuple(self.cell_group(np.flatnonzero(counts == n))
                                      for n in np.unique(counts))
        return self._cell_groups

    def max_diameter(self) -> float:
        return float(max(polygon_diameter(self.vertices[g.vertices]).max()
                         for g in self.cell_groups()))


def _signed_area(loop: np.ndarray):
    """Signed area of vertex loops (..., n, 2)."""
    x, y = loop[..., 0], loop[..., 1]
    return 0.5 * (x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y).sum(axis=-1)


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z-component of u x v for vectors (..., 2)."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _self_crossing(loops: np.ndarray) -> np.ndarray:
    """True for each loop (G, n, 2) in which two non-adjacent edges cross properly."""
    n = loops.shape[1]
    i, j = np.triu_indices(n, 2)
    i, j = i[j - i < n - 1], j[j - i < n - 1]
    p, q, r, s = loops[:, i], loops[:, (i + 1) % n], loops[:, j], loops[:, (j + 1) % n]
    return ((_cross(q - p, r - p) * _cross(q - p, s - p) < 0)
            & (_cross(s - r, p - r) * _cross(s - r, q - r) < 0)).any(axis=1)


@dataclass
class RegularityReport:
    star_shaped_ok: bool
    edge_ratio_min: float
    inradius_ratio_min: float
    smallest_ratio_cell: int
    violations: list


def validate_regularity(mesh: PolygonalMesh, rho_star: float) -> RegularityReport:
    """Check the mesh against the shape-regularity assumptions.

    Star-shapedness is verified with respect to the cell centroid (a sufficient
    condition); the reported inradius is the largest disk about the centroid that
    fits in the cell.  Edges are flagged when h_E < rho_star * h_P.  The lowest
    cell with a zero-length edge, or else two crossing edges, raises MeshError.
    Violations are listed by cell, and within a cell by edge, the edge ratio last.
    """
    if not 0.0 < rho_star < 1.0:
        raise ParameterError("rho_star", "rho_star must be in (0, 1)")
    groups = mesh.cell_groups()
    loops = [mesh.vertices[g.vertices] for g in groups]
    fault = np.zeros(mesh.n_cells, dtype=int)  # 1: degenerate edge, 2: not simple
    for g, loop in zip(groups, loops):
        diff = loop - np.roll(loop, -1, axis=1)
        dists = np.hypot(diff[..., 0], diff[..., 1])
        degenerate = dists.min(axis=1) < 1e-14 * np.maximum(dists.max(axis=1), 1.0)
        fault[g.index] = np.where(degenerate, 1, 2 * _self_crossing(loop))
    if fault.any():
        ci = int(np.argmax(fault > 0))
        message = ("has a degenerate (zero-length) edge" if fault[ci] == 1
                   else "is not a simple polygon")
        raise MeshError(f"cell {ci} {message}", cell=ci)

    ratio_min, inradius_ratio = np.empty((2, mesh.n_cells))
    blind, short = [], []  # (cell, edge, message); a short edge takes edge n, last
    for g, loop in zip(groups, loops):
        geo = polygon_geometry(loop)
        ab = np.roll(loop, -1, axis=1) - loop
        ac = geo.centroid[:, None, :] - loop
        t = np.clip((ac * ab).sum(axis=-1) / (ab * ab).sum(axis=-1), 0.0, 1.0)
        gap = ac - t[..., None] * ab
        inradius_ratio[g.index] = np.hypot(gap[..., 0], gap[..., 1]).min(axis=1) / geo.diameter
        ratio_min[g.index] = (geo.edge_lengths / geo.diameter[:, None]).min(axis=1)
        rows, edges = np.nonzero(_cross(ab, ac) <= 0)
        blind += [(int(g.index[r]), int(k), f"centroid does not see edge {k}")
                  for r, k in zip(rows, edges)]
        short += [(int(ci), loop.shape[1], f"edge ratio {ratio_min[ci]:.4g} < rho_star")
                  for ci in g.index[ratio_min[g.index] < rho_star]]
    violations = [(ci, message) for ci, _, message in sorted(blind + short)]
    worst = int(np.argmin(ratio_min)) if mesh.n_cells else -1
    return RegularityReport(not blind, float(ratio_min.min(initial=np.inf)),
                            float(inradius_ratio.min(initial=np.inf)), worst, violations)


# ---------------------------------------------------------------------------
# built-in mesh families on (0, 1)^2


def generate_family(family: str, level: int, seed: int = 0) -> PolygonalMesh:
    """Built-in test families on the unit square; each level halves the mesh size.

    random_quad        n x n quadrilaterals, nodes randomly displaced (seeded)
    hexagonal          mainly hexagonal cells, smoothly distorted
    nonconvex_octagon  indented-square octagons, all nonconvex
    """
    check_family(family)
    check_level(level)
    check_integer("seed", seed, 0)
    if family == "random_quad":
        return _random_quad_mesh(5 * 2 ** level, seed)
    if family == "hexagonal":
        return _hexagonal_mesh(2 * 2 ** level)
    return _octagon_mesh(5 * 2 ** level)


def _random_quad_mesh(n: int, seed: int) -> PolygonalMesh:
    rng = np.random.default_rng([seed, n, 1])
    h = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel()])
    shift = rng.uniform(-0.2 * h, 0.2 * h, size=verts.shape)
    interior_x = (verts[:, 0] > 0) & (verts[:, 0] < 1)
    interior_y = (verts[:, 1] > 0) & (verts[:, 1] < 1)
    # interior nodes move freely; boundary nodes slide along their side only
    verts[:, 0] += np.where(interior_x, shift[:, 0], 0.0)
    verts[:, 1] += np.where(interior_y, shift[:, 1], 0.0)
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    return PolygonalMesh(verts, np.stack([v00, v00 + n + 1, v00 + n + 2, v00 + 1], axis=1))


def _snap_loops(loops, snap: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Vertices and counterclockwise cells of loops given by coordinates, each loop
    (n, 2) with n >= 1.

    Clockwise loops are reversed.  Points whose coordinates round to the same
    multiples of ``snap`` are one vertex, placed at the first of them; vertices are
    numbered by first appearance along the loops.  Each loop then drops a vertex
    that repeats the one before it, and a last vertex that repeats the first; a
    loop left with fewer than 3 vertices is dropped (its vertices stay)."""
    counts = np.fromiter(map(len, loops), dtype=int, count=len(loops))
    start = np.cumsum(counts) - counts
    points = np.concatenate(loops)
    order = np.arange(len(points))
    for n in np.unique(counts):
        pos = start[counts == n, None] + np.arange(n)
        cw = _signed_area(points[pos]) < 0
        order[pos[cw]] = pos[cw, ::-1]
    points = points[order]

    keys = np.rint(points / snap).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    number = np.empty_like(by_first)
    number[by_first] = np.arange(len(first))
    ids = number[inverse.ravel()]

    prev = np.roll(ids, 1)
    prev[start] = -1
    keep = ids != prev
    last = np.maximum.reduceat(np.where(keep, np.arange(len(ids)), -1), start)
    closing = last[(ids[last] == ids[start]) & (last != start)]
    keep[closing] = False
    size = np.add.reduceat(keep.astype(int), start)
    keep &= np.repeat(size >= 3, counts)
    return points[first[by_first]], np.split(ids[keep], np.cumsum(size[size >= 3]))[:-1]


# the unit square as half-planes normal . x <= offset
_UNIT_SQUARE = (((-1.0, 0.0), 0.0), ((1.0, 0.0), 1.0), ((0.0, -1.0), 0.0), ((0.0, 1.0), 1.0))


def _excess(points, normal, offset):
    """normal . x - offset at points (..., 2); the clip keeps values <= 1e-13."""
    return normal[0] * points[..., 0] + normal[1] * points[..., 1] - offset


def _clip_halfplane(loop, normal, offset):
    """Sutherland-Hodgman clip of ``loop`` against normal . x <= offset."""
    out = []
    n = len(loop)
    dist = _excess(loop, normal, offset)
    for i in range(n):
        a, b = loop[i], loop[(i + 1) % n]
        da, db = dist[i], dist[(i + 1) % n]
        if da <= 1e-13:
            out.append(a)
            if db > 1e-13 and da < -1e-13:
                t = da / (da - db)
                out.append(a + t * (b - a))
        elif db < -1e-13:
            t = da / (da - db)
            out.append(a + t * (b - a))
    return np.asarray(out)


def _clip_to_unit_square(loop):
    for normal, offset in _UNIT_SQUARE:
        if len(loop) == 0:
            return loop
        loop = _clip_halfplane(np.asarray(loop, dtype=float), normal, offset)
    return loop


def _honeycomb_cells(m: int):
    """Pointy-top honeycomb with 4 hexagons per 1/m-period, clipped to the unit square.

    Hexagon centers sit on the lattice p*(1/(2m), 0) + q*(1/(4m), 1/(2m)); the window
    corner coincides with a hexagon center so boundary pieces are quads/pentagons.
    Only the hexagons that cross the square's sides are clipped: the clip returns a
    hexagon inside every side unchanged, and its area 1/(4m^2) passes the filter.
    """
    w = 1.0 / (4 * m)
    a = 3.0 / (8 * m)
    b = 1.0 / (8 * m)
    p, q = np.meshgrid(np.arange(-(m + 2), 2 * m + 2), np.arange(-1, 2 * m + 2),
                       indexing="ij")
    cx = (p / (2.0 * m) + q / (4.0 * m)).ravel()
    cy = (q / (2.0 * m)).ravel()
    near = ~((cx < -2 * w) | (cx > 1 + 2 * w) | (cy < -a) | (cy > 1 + a))
    hexagons = np.stack([cx[near, None] + [0.0, -w, -w, 0.0, w, w],
                         cy[near, None] + [a, b, -b, -a, -b, b]], axis=-1)
    # kept as they are when inside every side, else clipped and filtered
    keep = np.logical_and.reduce([(_excess(hexagons, *side) <= 1e-13).all(axis=1)
                                  for side in _UNIT_SQUARE])
    pieces = list(hexagons)
    for i in np.flatnonzero(~keep):
        pieces[i] = piece = _clip_to_unit_square(hexagons[i])
        keep[i] = len(piece) >= 3 and abs(_signed_area(piece)) > 1e-13 / (m * m)
    return [piece for piece, k in zip(pieces, keep) if k]


def _hexagonal_mesh(m: int) -> PolygonalMesh:
    verts, cells = _snap_loops(_honeycomb_cells(m), 1e-9 / m)
    bump = 0.1 * np.sin(2 * np.pi * verts[:, 0]) * np.sin(2 * np.pi * verts[:, 1])
    verts[:, 0] += bump
    verts[:, 1] += bump
    return PolygonalMesh(verts, cells)


def _octagon_mesh(n: int) -> PolygonalMesh:
    """Indented-square octagons: every cell carries at least one reflex vertex."""
    h = 1.0 / n
    d = 0.1 * h
    i, k = np.arange(n)[:, None], np.arange(n + 1)
    # hmid[i, k]: midpoint of the horizontal edge at y = k h in column i, moved up
    # by d, or down into cell (n-1, 0), except on the boundary
    dy = np.where((k == 0) | (k == n), 0.0, np.where((i == n - 1) & (k == 1), -d, d))
    hmid = np.stack(np.broadcast_arrays((i + 0.5) * h, k * h + dy), axis=-1)
    # vmid[k, j]: midpoint of the vertical edge at x = k h in row j, moved right by
    # d, or left in the bottom row, except on the boundary
    k, j = k[:, None], i.T
    dx = np.where((k == 0) | (k == n), 0.0, np.where(j == 0, -d, d))
    vmid = np.stack(np.broadcast_arrays(k * h + dx, (j + 0.5) * h), axis=-1)
    # cell (i, j), in the row-major order of its index i n + j
    x0, y0 = np.broadcast_arrays(i * h, j * h)
    x1, y1 = x0 + h, y0 + h
    loops = np.stack([np.stack([x0, y0], axis=-1), hmid[:, :-1],
                      np.stack([x1, y0], axis=-1), vmid[1:],
                      np.stack([x1, y1], axis=-1), hmid[:, 1:],
                      np.stack([x0, y1], axis=-1), vmid[:-1]], axis=2)
    return PolygonalMesh(*_snap_loops(loops.reshape(-1, 8, 2), 1e-9 * h))


def is_convex(loop: np.ndarray) -> bool:
    """True when no vertex of the CCW loop is strictly reflex."""
    v = np.asarray(loop, dtype=float)
    prev = v - np.roll(v, 1, axis=0)
    nxt = np.roll(v, -1, axis=0) - v
    cross = prev[:, 0] * nxt[:, 1] - prev[:, 1] * nxt[:, 0]
    scale = max(abs(cross).max(), 1e-300)
    return bool((cross > -1e-12 * scale).all())


# ---------------------------------------------------------------------------
# periodic reference cells


def reference_periodic_cell(grid: str, h: float = 1.0) -> PolygonalMesh:
    """Square periodic cell of side h tiled by the requested pattern, with
    master/slave pairing attached (mesh.periodic) and periodic edge tags."""
    check_grid(grid)
    if not 0 < h < np.inf:
        raise ParameterError("h", f"h must be positive and finite (got {h!r})")
    builder = {
        "quad": _cell_quad, "tria": _cell_tria, "c1": _cell_c1,
        "c2": _cell_c2, "c3": _cell_c3, "c4": _cell_c4,
    }[grid]
    loops = [np.asarray(loop, dtype=float) * h for loop in builder()]
    mesh = PolygonalMesh(*_snap_loops(loops, 1e-9 * h))
    _attach_periodic_pairing(mesh, h)
    return mesh


def _cell_quad():
    return [[(0, 0), (1, 0), (1, 1), (0, 1)]]


def _cell_tria():
    # split along the (1,0)-(0,1) diagonal: a wave at theta = pi/4 then travels
    # along the pattern's mirror-symmetry direction
    return [[(0, 0), (1, 0), (0, 1)], [(1, 0), (1, 1), (0, 1)]]


def _cell_c1():
    """Honeycomb composite: two hexagons, two pentagons, four corner quads."""
    return _honeycomb_cells(1)


def _cell_c2():
    """One rotated square and four pentagons."""
    return [
        [(0.5, 0.25), (0.75, 0.5), (0.5, 0.75), (0.25, 0.5)],
        [(0, 0), (0.5, 0), (0.5, 0.25), (0.25, 0.5), (0, 0.5)],
        [(0.5, 0), (1, 0), (1, 0.5), (0.75, 0.5), (0.5, 0.25)],
        [(0.75, 0.5), (1, 0.5), (1, 1), (0.5, 1), (0.5, 0.75)],
        [(0, 0.5), (0.25, 0.5), (0.5, 0.75), (0.5, 1), (0, 1)],
    ]


def _cell_c3():
    """Four regular octagons; the gaps induce one rotated square, four edge
    triangles and four corner triangles."""
    t = 1.0 / (2.0 * (2.0 + np.sqrt(2.0)))
    oct0 = [(t, 0), (0.5 - t, 0), (0.5, t), (0.5, 0.5 - t),
            (0.5 - t, 0.5), (t, 0.5), (0, 0.5 - t), (0, t)]
    cells = []
    for sx in (0.0, 0.5):
        for sy in (0.0, 0.5):
            cells.append([(x + sx, y + sy) for x, y in oct0])
    cells += [
        [(0.5, 0.5 - t), (0.5 + t, 0.5), (0.5, 0.5 + t), (0.5 - t, 0.5)],  # center square
        [(0.5 - t, 0), (0.5 + t, 0), (0.5, t)],       # bottom edge triangle
        [(0.5 - t, 1), (0.5, 1 - t), (0.5 + t, 1)],   # top edge triangle
        [(0, 0.5 - t), (t, 0.5), (0, 0.5 + t)],       # left edge triangle
        [(1, 0.5 - t), (1, 0.5 + t), (1 - t, 0.5)],   # right edge triangle
        [(0, 0), (t, 0), (0, t)],
        [(1 - t, 0), (1, 0), (1, t)],
        [(1, 1 - t), (1, 1), (1 - t, 1)],
        [(0, 1 - t), (t, 1), (0, 1)],
    ]
    return cells


def _cell_c4():
    """One hexagon and four corner triangles."""
    return [
        [(0.5, 0), (1, 0.25), (1, 0.75), (0.5, 1), (0, 0.75), (0, 0.25)],
        [(0, 0), (0.5, 0), (0, 0.25)],
        [(0.5, 0), (1, 0), (1, 0.25)],
        [(1, 0.75), (1, 1), (0.5, 1)],
        [(0, 0.75), (0.5, 1), (0, 1)],
    ]


def _attach_periodic_pairing(mesh: PolygonalMesh, h: float):
    tol = 1e-12 * h
    boundary = mesh.boundary_edges()
    verts = np.unique(mesh.edges[boundary])
    p = mesh.vertices[verts]
    vertex_master, vertex_offset = _periodic_images(
        mesh.n_vertices, verts, p, np.where(np.abs(p - h) < tol, p, 0.0), tol, "vertex")
    ends = mesh.vertices[mesh.edges[boundary]]
    far = (np.abs(ends - h) < tol).all(axis=1)  # both ends at x = h, at y = h
    edge_master, edge_offset = _periodic_images(
        mesh.n_edges, boundary, ends.mean(axis=1), np.where(far, h, 0.0), tol, "edge")
    mesh.edge_tags[boundary] = np.where(far.any(axis=1), PERIODIC_SLAVE, PERIODIC_MASTER)
    mesh.periodic = PeriodicPairing(h, vertex_master, vertex_offset, edge_master, edge_offset)


def _periodic_images(n: int, ids: np.ndarray, points: np.ndarray, offset: np.ndarray,
                     tol: float, entity: str) -> tuple[np.ndarray, np.ndarray]:
    """Master (n,) and offset (n, 2) of n vertices or edges: each of the ascending
    ``ids`` at ``points`` with a nonzero ``offset`` is the copy of the one found at
    points - offset, by the coordinates rounded to ``tol``; the rest map to itself."""
    slave = offset.any(axis=1)
    keys = np.rint(np.concatenate([points, points[slave] - offset[slave]]) / tol)
    inverse = np.unique(keys.astype(np.int64), axis=0, return_inverse=True)[1].ravel()
    owner = np.full(len(keys), -1)
    owner[inverse[:len(ids)]] = ids
    image = owner[inverse[len(ids):]]
    if (image < 0).any():
        j = np.flatnonzero(slave)[np.argmax(image < 0)]
        raise MeshError(f"periodic pairing: {entity} {ids[j]} at {tuple(points[j].tolist())} "
                        f"has no master image")
    master, full_offset = np.arange(n), np.zeros((n, 2))
    master[ids[slave]], full_offset[ids[slave]] = image, offset[slave]
    return master, full_offset


# ---------------------------------------------------------------------------
# text file format


def write_mesh(mesh: PolygonalMesh, path) -> None:
    """polymesh 1 text format; boundary section lists tagged boundary edges only."""
    with open(path, "w", encoding="ascii") as f:
        f.write("polymesh 1\n")
        f.write(f"vertices {mesh.n_vertices}\n")
        for x, y in mesh.vertices:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        f.write(f"cells {mesh.n_cells}\n")
        for cell in mesh.cells:
            f.write(str(len(cell)) + " " + " ".join(str(int(v)) for v in cell) + "\n")
        boundary = [e for e in mesh.boundary_edges()
                    if mesh.edge_tags[e] in (DIRICHLET, NEUMANN)]
        f.write(f"boundary {len(boundary)}\n")
        for e in boundary:
            a, b = mesh.edges[e]
            f.write(f"{a} {b} {mesh.edge_tags[e]}\n")


def read_mesh(path) -> PolygonalMesh:
    """Read the polymesh 1 text format; any malformed content raises MeshParseError
    naming the line."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        lines = raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise MeshParseError(path, raw[:exc.start].count(b"\n") + 1,
                             "non-ASCII byte") from None

    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines):
            line = lines[pos].strip()
            pos += 1
            if line:
                return line, pos
        raise MeshParseError(path, pos if pos else 1, "unexpected end of file")

    def section(word):
        line, ln = next_line()
        parts = line.split()
        if len(parts) != 2 or parts[0] != word:
            raise MeshParseError(path, ln, f"expected '{word} N'")
        if not parts[1].isdigit():
            raise MeshParseError(path, ln, f"{word} count must be a nonnegative integer, "
                                           f"got {parts[1]!r}")
        return int(parts[1]), ln

    line, ln = next_line()
    if line != "polymesh 1":
        raise MeshParseError(path, ln, f"expected header 'polymesh 1', got {line!r}")

    n_vertices, ln = section("vertices")
    verts = []
    for _ in range(n_vertices):
        line, ln = next_line()
        try:
            x, y = map(float, line.split())
        except ValueError:
            raise MeshParseError(path, ln, f"bad vertex line {line!r}") from None
        if not (np.isfinite(x) and np.isfinite(y)):
            raise MeshParseError(path, ln, f"non-finite vertex {line!r}")
        verts.append((x, y))

    n_cells, ln = section("cells")
    cells, cell_lines = [], []
    for _ in range(n_cells):
        line, ln = next_line()
        nums = line.split()
        try:
            count = int(nums[0])
            ids = [int(v) for v in nums[1:]]
        except (ValueError, IndexError):
            raise MeshParseError(path, ln, f"bad cell line {line!r}") from None
        if len(ids) != count:
            raise MeshParseError(path, ln, f"cell declares {count} vertices, lists {len(ids)}")
        cells.append(ids)
        cell_lines.append(ln)

    n_tags, ln = section("boundary")
    tags, tag_lines = {}, {}
    for _ in range(n_tags):
        line, ln = next_line()
        parts = line.split()
        if len(parts) != 3 or parts[2] not in (DIRICHLET, NEUMANN):
            raise MeshParseError(path, ln, f"bad boundary line {line!r}")
        try:
            key = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise MeshParseError(path, ln, f"bad boundary line {line!r}") from None
        tags[key] = parts[2]
        tag_lines[tuple(sorted(key))] = ln

    try:
        return PolygonalMesh(np.array(verts).reshape(-1, 2), cells, boundary_tags=tags)
    except MeshError as exc:
        if exc.cell is not None:
            ln = cell_lines[exc.cell]
        elif exc.edge is not None:
            ln = tag_lines[exc.edge]
        raise MeshParseError(path, ln, str(exc)) from exc
