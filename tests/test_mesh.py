import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vemwave import mesh as mesh_module
from vemwave.mesh import (
    DIRICHLET,
    FAMILIES,
    INTERIOR,
    NEUMANN,
    PERIODIC_GRIDS,
    PERIODIC_MASTER,
    PERIODIC_SLAVE,
    MeshError,
    MeshParseError,
    PolygonalMesh,
    generate_family,
    is_convex,
    polygon_geometry,
    read_mesh,
    reference_periodic_cell,
    validate_regularity,
    write_mesh,
)
from vemwave.mesh import _attach_periodic_pairing, _clip_to_unit_square, _snap_loops


def total_area(mesh):
    return sum(polygon_geometry(mesh.vertices[cell]).area for cell in mesh.cells)


def reference_topology(mesh, boundary_tags=None):
    """Edge numbering by a per-edge dict walk over the loops: edges by first
    appearance, oriented from the lexicographically smaller endpoint."""
    index, edges, owners, cell_edges, cell_signs = {}, [], [], [], []
    for ci, cell in enumerate(mesh.cells):
        eids, signs = [], []
        for a, b in zip(map(int, cell), map(int, np.roll(cell, -1))):
            key = (min(a, b), max(a, b))
            if key not in index:
                index[key] = len(edges)
                lex_less = tuple(mesh.vertices[a]) < tuple(mesh.vertices[b])
                edges.append((a, b) if lex_less else (b, a))
                owners.append([])
            e = index[key]
            owners[e].append(ci)
            eids.append(e)
            signs.append(1 if edges[e][0] == a else -1)
        cell_edges.append(eids)
        cell_signs.append(signs)
    edge_cells = np.array([o + [-1] * (2 - len(o)) for o in owners])
    tags = [INTERIOR if o[1] >= 0 else DIRICHLET for o in edge_cells]
    for (a, b), tag in (boundary_tags or {}).items():
        tags[index[(min(a, b), max(a, b))]] = tag
    return np.array(edges), cell_edges, cell_signs, edge_cells, tags


def reference_pairing(mesh, edges, edge_cells, h):
    """Periodic masters and offsets of all vertices and edges, found by translating
    coordinates one boundary vertex or edge at a time."""
    tol = 1e-12 * h
    boundary = np.flatnonzero(edge_cells[:, 1] < 0)
    verts = np.unique(edges[boundary])
    mids = mesh.vertices[edges[boundary]].mean(axis=1)

    def image(points, p):
        return int(np.argmin(np.abs(points - p).max(axis=1)))

    vertex_master, vertex_offset = np.arange(mesh.n_vertices), np.zeros((mesh.n_vertices, 2))
    for v in verts:
        p = mesh.vertices[v]
        off = np.where(np.abs(p - h) < tol, p, 0.0)
        if off.any():
            vertex_master[v] = verts[image(mesh.vertices[verts], p - off)]
            vertex_offset[v] = off
    edge_master, edge_offset = np.arange(len(edges)), np.zeros((len(edges), 2))
    for e, mid in zip(boundary, mids):
        off = np.where((np.abs(mesh.vertices[edges[e]] - h) < tol).all(axis=0), h, 0.0)
        if off.any():
            edge_master[e] = boundary[image(mids, mid - off)]
            edge_offset[e] = off
    return vertex_master, vertex_offset, edge_master, edge_offset


PAIRING_FIELDS = ("vertex_master", "vertex_offset", "edge_master", "edge_offset")


def assert_same_pairing(pairing, arrays):
    for name, b in zip(PAIRING_FIELDS, arrays):
        a = getattr(pairing, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def periodic_tiling(grid, n):
    """n x n copies of the unit periodic cell as one periodic cell of side n."""
    cell = reference_periodic_cell(grid, 1.0)
    loops = [cell.vertices[c] + (i, j) for i in range(n) for j in range(n)
             for c in cell.cells]
    mesh = PolygonalMesh(*_snap_loops(loops, 1e-9))
    _attach_periodic_pairing(mesh, float(n))
    return mesh


def shoelace(loop):
    x, y = loop[:, 0], loop[:, 1]
    return 0.5 * (x * np.roll(y, -1) - np.roll(x, -1) * y).sum()


def reference_snap(loops, snap):
    """Vertices and cells by a per-point dict walk over coordinate loops: shared
    points snapped, numbered by first appearance, repeats and short loops dropped."""
    index, vertices, cells = {}, [], []
    for loop in loops:
        loop = np.asarray(loop, dtype=float)
        if shoelace(loop) < 0:
            loop = loop[::-1]
        ids = []
        for x, y in loop:
            i = index.setdefault((round(x / snap), round(y / snap)), len(vertices))
            if i == len(vertices):
                vertices.append((x, y))
            if not ids or ids[-1] != i:
                ids.append(i)
        if len(ids) > 1 and ids[0] == ids[-1]:
            ids.pop()
        if len(ids) >= 3:
            cells.append(ids)
    return np.array(vertices), cells


def reference_honeycomb(m):
    """The honeycomb pieces, every hexagon clipped one at a time."""
    w, a, b = 1.0 / (4 * m), 3.0 / (8 * m), 1.0 / (8 * m)
    pieces = []
    for p in range(-(m + 2), 2 * m + 2):
        for q in range(-1, 2 * m + 2):
            cx, cy = p / (2.0 * m) + q / (4.0 * m), q / (2.0 * m)
            if cx < -2 * w or cx > 1 + 2 * w or cy < -a or cy > 1 + a:
                continue
            piece = _clip_to_unit_square(np.array([
                [cx, cy + a], [cx - w, cy + b], [cx - w, cy - b],
                [cx, cy - a], [cx + w, cy - b], [cx + w, cy + b]]))
            if len(piece) >= 3 and abs(shoelace(piece)) > 1e-13 / (m * m):
                pieces.append(piece)
    return pieces


def reference_octagons(n):
    """The indented-square octagon loops, cell by cell."""
    h = 1.0 / n
    d = 0.1 * h

    def hmid(i, j):
        x, y = (i + 0.5) * h, j * h
        if j == 0 or j == n:
            return (x, y)
        return (x, y - d) if (i, j) == (n - 1, 1) else (x, y + d)

    def vmid(i, j):
        x, y = i * h, (j + 0.5) * h
        if i == 0 or i == n:
            return (x, y)
        return (x - d, y) if j == 0 else (x + d, y)

    loops = []
    for i in range(n):
        for j in range(n):
            x0, y0 = i * h, j * h
            x1, y1 = x0 + h, y0 + h
            loops.append([(x0, y0), hmid(i, j), (x1, y0), vmid(i + 1, j),
                          (x1, y1), hmid(i, j + 1), (x0, y1), vmid(i, j)])
    return loops


def reference_regularity(mesh, rho_star):
    """The regularity checks cell by cell and edge by edge: the violations, the
    smallest edge ratio and its first cell, and the smallest inradius ratio."""
    violations, ratios, inradii = [], [], []
    for ci, cell in enumerate(mesh.cells):
        loop = mesh.vertices[cell]
        geo = polygon_geometry(loop)
        inradius = np.inf
        for k, (a, b) in enumerate(zip(loop, np.roll(loop, -1, axis=0))):
            ab, ac = b - a, geo.centroid - a
            if ab[0] * ac[1] - ab[1] * ac[0] <= 0:
                violations.append((ci, f"centroid does not see edge {k}"))
            t = np.clip(np.dot(ac, ab) / np.dot(ab, ab), 0.0, 1.0)
            inradius = min(inradius, np.hypot(*(ac - t * ab)))
        ratios.append((geo.edge_lengths / geo.diameter).min())
        if ratios[-1] < rho_star:
            violations.append((ci, f"edge ratio {ratios[-1]:.4g} < rho_star"))
        inradii.append(inradius / geo.diameter)
    return violations, min(ratios), int(np.argmin(ratios)), min(inradii)


def assert_same_mesh(mesh, ref):
    for name in ("vertices", "loop_vertices", "cell_offsets", "edges"):
        a, b = getattr(mesh, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    if ref.periodic is not None:
        assert mesh.periodic.period == ref.periodic.period
        assert_same_pairing(mesh.periodic, [getattr(ref.periodic, f) for f in PAIRING_FIELDS])


def assert_reference_topology(mesh, boundary_tags=None):
    edges, cell_edges, cell_signs, edge_cells, tags = reference_topology(mesh, boundary_tags)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.edge_cells, edge_cells)
    for group in mesh.cell_groups():
        assert np.array_equal(group.edges, [cell_edges[c] for c in group.index])
        assert np.array_equal(group.edge_signs, [cell_signs[c] for c in group.index])
    if mesh.periodic is None:
        assert list(mesh.edge_tags) == tags
        return
    pairing = reference_pairing(mesh, edges, edge_cells, mesh.periodic.period)
    assert_same_pairing(mesh.periodic, pairing)
    edge_master = pairing[2]
    assert list(mesh.edge_tags) == [
        INTERIOR if c[1] >= 0 else PERIODIC_SLAVE if edge_master[e] != e else PERIODIC_MASTER
        for e, c in enumerate(edge_cells)]


class TestValidation:
    def test_unit_square_edge_ratio(self):
        mesh = PolygonalMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])
        report = validate_regularity(mesh, 0.1)
        assert report.star_shaped_ok
        assert abs(report.edge_ratio_min - 1.0 / np.sqrt(2.0)) < 1e-14

    def test_regular_hexagon_ratio(self):
        ang = 2 * np.pi * np.arange(6) / 6
        mesh = PolygonalMesh(np.column_stack([np.cos(ang), np.sin(ang)]),
                             [[0, 1, 2, 3, 4, 5]])
        report = validate_regularity(mesh, 0.1)
        assert abs(report.edge_ratio_min - 0.5) < 1e-14

    def test_repeated_vertex_rejected(self):
        with pytest.raises(MeshError, match="repeats a vertex"):
            PolygonalMesh([[0, 0], [1, 0], [1, 1]], [[0, 1, 1, 2]])

    @pytest.mark.parametrize("key", [(0, 2), (1, 7), (1, 1), (-1, 0)])
    def test_tag_naming_no_edge_rejected(self, key):
        with pytest.raises(MeshError, match="names no mesh edge") as info:
            PolygonalMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]],
                          boundary_tags={(0, 1): NEUMANN, key: NEUMANN})
        assert info.value.edge == tuple(sorted(key))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        """The lowest non-finite vertex is named before any cell is checked."""
        with pytest.raises(MeshError, match="vertex 2 is not finite"):
            PolygonalMesh([[0, 0], [1, 0], [bad, 1], [0, bad]], [[0, 1, 2]])

    def test_clockwise_rejected(self):
        with pytest.raises(MeshError, match="counterclockwise"):
            PolygonalMesh([[0, 0], [1, 0], [1, 1]], [[0, 2, 1]])

    def test_nonsimple_rejected(self):
        # positive net signed area, but two non-adjacent edges cross
        mesh = PolygonalMesh([[0, 2], [3, 0], [3, 3], [0, 0]], [[0, 1, 2, 3]])
        with pytest.raises(MeshError, match="simple"):
            validate_regularity(mesh, 0.1)


    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("rho_star", [0.1, 0.3])
    def test_report_matches_reference(self, family, level, rho_star):
        mesh = generate_family(family, level)
        report = validate_regularity(mesh, rho_star)
        violations, ratio_min, worst, inradius_min = reference_regularity(mesh, rho_star)
        assert report.violations == violations
        assert report.star_shaped_ok == (not any(m.startswith("centroid")
                                                 for _, m in violations))
        assert (report.edge_ratio_min, report.smallest_ratio_cell) == (ratio_min, worst)
        # the reference's np.dot may fuse its multiply-add
        assert report.inradius_ratio_min == pytest.approx(inradius_min,
                                                          rel=4 * np.finfo(float).eps)

    @staticmethod
    def separate_cells(*shapes):
        """A mesh of the given vertex loops, each shifted 10 units right of the last."""
        verts, cells = [], []
        for c, shape in enumerate(shapes):
            cells.append(list(range(len(verts), len(verts) + len(shape))))
            verts += [(x + 10 * c, y) for x, y in shape]
        return PolygonalMesh(verts, cells)

    def test_lowest_faulty_cell_raises(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        degenerate = [(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)]
        bowtie = [(0, 2), (3, 0), (3, 3), (0, 0)]
        # the 4-vertex group is checked before the 5-vertex one
        mesh = self.separate_cells(square, degenerate, bowtie)
        with pytest.raises(MeshError, match="cell 1 has a degenerate") as info:
            validate_regularity(mesh, 0.1)
        assert info.value.cell == 1
        with pytest.raises(MeshError, match="cell 1 is not a simple polygon"):
            validate_regularity(self.separate_cells(square, bowtie, degenerate), 0.1)
        with pytest.raises(MeshError, match="cell 0 has a degenerate"):
            validate_regularity(self.separate_cells(bowtie[:3] + [(3, 3)] + bowtie[3:]),
                                0.1)

    def test_violations_by_cell_then_edge(self):
        dart = [(0, 0), (2, 1), (0, 2), (1.5, 1)]                 # sees edges 0, 1
        short_edge = [(0, 0), (1, 0), (1, 1), (0.01, 1), (0, 0.99)]
        dart_short_edge = [(0, 0), (2, 0.95), (2, 1.05), (0, 2), (1.5, 1)]
        sliver = [(0, 0), (1, 0), (0.98, 0.02)]
        report = validate_regularity(
            self.separate_cells(dart, short_edge, dart_short_edge, sliver), 0.1)
        assert not report.star_shaped_ok
        assert [(c, m.split(" ")[0]) for c, m in report.violations] == [
            (0, "centroid"), (0, "centroid"), (1, "edge"),
            (2, "centroid"), (2, "centroid"), (2, "edge"), (3, "edge")]
        assert [m for c, m in report.violations if m.startswith("centroid")] == [
            f"centroid does not see edge {k}" for k in (2, 3, 3, 4)]
        ratios = [float(m.split()[2]) for c, m in report.violations if m.startswith("edge")]
        assert ratios == pytest.approx([0.01, 0.1 / np.hypot(2, 1.05), 0.02 * np.sqrt(2)],
                                       rel=1e-3)
        assert report.smallest_ratio_cell == 1
        assert report.edge_ratio_min == pytest.approx(0.01)


class TestFamilies:
    def test_random_quad_structure(self):
        mesh = generate_family("random_quad", 0, seed=42)
        assert mesh.n_cells == 25
        report = validate_regularity(mesh, 0.1)
        assert report.star_shaped_ok
        assert not report.violations

    def test_octagons_nonconvex(self):
        mesh = generate_family("nonconvex_octagon", 0)
        assert mesh.n_cells == 25
        for cell in mesh.cells:
            assert len(cell) == 8
            assert not is_convex(mesh.vertices[cell])

    def test_hexagonal_count_scaling(self):
        n0 = generate_family("hexagonal", 0).n_cells
        n1 = generate_family("hexagonal", 1).n_cells
        assert 3.0 <= n1 / n0 <= 5.0

    @pytest.mark.parametrize("family", ["random_quad", "hexagonal", "nonconvex_octagon"])
    def test_area_and_euler(self, family):
        mesh = generate_family(family, 0, seed=3)
        assert abs(total_area(mesh) - 1.0) < 1e-12
        assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1

    @pytest.mark.parametrize("family", ["random_quad", "hexagonal", "nonconvex_octagon"])
    def test_determinism(self, family):
        a = generate_family(family, 1, seed=11)
        b = generate_family(family, 1, seed=11)
        assert np.array_equal(a.vertices, b.vertices)
        assert all(np.array_equal(x, y) for x, y in zip(a.cells, b.cells))

    def test_seed_changes_random_quad(self):
        a = generate_family("random_quad", 0, seed=1)
        b = generate_family("random_quad", 0, seed=2)
        assert not np.array_equal(a.vertices, b.vertices)

    @pytest.mark.parametrize("family", ["random_quad", "hexagonal", "nonconvex_octagon"])
    def test_levels_refine(self, family):
        h0 = generate_family(family, 0).max_diameter()
        h1 = generate_family(family, 1).max_diameter()
        assert h1 < 0.7 * h0

    def test_boundary_tagged_dirichlet(self):
        mesh = generate_family("random_quad", 0)
        for e in mesh.boundary_edges():
            assert mesh.edge_tags[e] == DIRICHLET


class TestTopology:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_family_matches_reference(self, family, level, seed):
        assert_reference_topology(generate_family(family, level, seed))

    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    def test_periodic_cell_matches_reference(self, grid):
        assert_reference_topology(reference_periodic_cell(grid, 1.3))

    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_periodic_tiling_matches_reference(self, grid, n):
        assert_reference_topology(periodic_tiling(grid, n))

    def test_round_trip_matches_reference(self, tmp_path):
        base = generate_family("hexagonal", 1, seed=7)
        boundary = base.edges[base.boundary_edges()]
        tags = {tuple(map(int, edge[::-1])): NEUMANN for edge in boundary[::3]}
        mesh = PolygonalMesh(base.vertices, base.cells, boundary_tags=tags)
        assert_reference_topology(mesh, tags)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        assert_reference_topology(read_mesh(path), tags)


class TestGeneratorsMatchReference:
    """The array-built families and periodic cells equal, byte for byte, the
    meshes that the per-cell references give."""

    def test_snap_repeats_and_short_loops(self):
        loops = [
            [(0, 0), (1, 0), (1, 0), (1, 1), (1, 1), (0, 0)],  # repeats, closing repeat
            [(1, 1), (2, 1), (2, 0), (1 + 1e-12, 0)],          # clockwise, snaps to (1, 0)
            [(3, 3), (3 + 1e-12, 3), (3, 3 + 1e-12)],          # one vertex: dropped
            [(2, 1), (2, 2), (1, 1)],
        ]
        verts, cells = _snap_loops([np.asarray(c, dtype=float) for c in loops], 1e-9)
        ref_verts, ref_cells = reference_snap(loops, 1e-9)
        assert verts.tobytes() == ref_verts.tobytes()
        assert [c.tolist() for c in cells] == ref_cells == [[0, 1, 2], [1, 3, 4, 2], [4, 6, 2]]

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_hexagonal(self, level):
        m = 2 * 2 ** level
        verts, cells = reference_snap(reference_honeycomb(m), 1e-9 / m)
        bump = 0.1 * np.sin(2 * np.pi * verts[:, 0]) * np.sin(2 * np.pi * verts[:, 1])
        verts[:, 0] += bump
        verts[:, 1] += bump
        assert_same_mesh(generate_family("hexagonal", level), PolygonalMesh(verts, cells))

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_nonconvex_octagon(self, level):
        n = 5 * 2 ** level
        ref = PolygonalMesh(*reference_snap(reference_octagons(n), 1e-9 / n))
        assert_same_mesh(generate_family("nonconvex_octagon", level), ref)

    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    @pytest.mark.parametrize("h", [1.0, 1.3])
    def test_periodic_cell(self, grid, h):
        loops = (reference_honeycomb(1) if grid == "c1"
                 else getattr(mesh_module, f"_cell_{grid}")())
        ref = PolygonalMesh(*reference_snap([np.asarray(c, dtype=float) * h for c in loops],
                                            1e-9 * h))
        _attach_periodic_pairing(ref, h)
        assert_same_mesh(reference_periodic_cell(grid, h), ref)


GOLDEN_CELL_COUNTS = {"quad": 1, "tria": 2, "c1": 8, "c2": 5, "c3": 13, "c4": 5}


class TestPeriodicCells:
    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    def test_structure_and_area(self, grid):
        h = 0.75
        mesh = reference_periodic_cell(grid, h)
        assert mesh.n_cells == GOLDEN_CELL_COUNTS[grid]
        assert abs(total_area(mesh) - h * h) < 1e-12
        assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1

    def test_quad_pairing(self):
        mesh = reference_periodic_cell("quad", 1.0)
        assert mesh.n_vertices == 4
        slaves = np.flatnonzero(mesh.periodic.vertex_master != np.arange(4))
        assert len(slaves) == 3  # three corners map to one
        assert len(set(mesh.periodic.vertex_master[slaves])) == 1

    def test_tria_counts(self):
        mesh = reference_periodic_cell("tria", 1.0)
        assert mesh.n_cells == 2
        assert mesh.n_edges == 5

    def test_c3_octagons(self):
        mesh = reference_periodic_cell("c3", 1.0)
        octagons = [c for c in mesh.cells if len(c) == 8]
        assert len(octagons) == 4
        for cell in octagons:
            assert is_convex(mesh.vertices[cell])

    def test_c1_census(self):
        mesh = reference_periodic_cell("c1", 1.0)
        sizes = sorted(len(c) for c in mesh.cells)
        assert sizes == [4, 4, 4, 4, 5, 5, 6, 6]

    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    def test_pairing_offsets(self, grid):
        h = 1.3
        mesh = reference_periodic_cell(grid, h)
        pairing = mesh.periodic
        # every vertex and edge, masters included (at a zero offset)
        err = mesh.vertices - pairing.vertex_offset - mesh.vertices[pairing.vertex_master]
        assert np.abs(err).max() < 1e-12 * h
        off = pairing.vertex_offset
        assert ((np.abs(off) < 1e-12) | (np.abs(off - h) < 1e-12)).all()
        mids = mesh.vertices[mesh.edges].mean(axis=1)
        err = mids - pairing.edge_offset - mids[pairing.edge_master]
        assert np.abs(err).max() < 1e-12 * h
        assert np.isin(pairing.edge_offset, [0.0, h]).all()
        for master, offset in ((pairing.vertex_master, off),
                               (pairing.edge_master, pairing.edge_offset)):
            slave = master != np.arange(len(master))
            assert (offset[slave] != 0).any(axis=1).all()
            assert not offset[~slave].any()

    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    def test_every_boundary_edge_classified(self, grid):
        mesh = reference_periodic_cell(grid, 1.0)
        slaves = set(np.flatnonzero(mesh.periodic.edge_master != np.arange(mesh.n_edges)))
        for e in mesh.boundary_edges():
            if e in slaves:
                assert mesh.edge_tags[e] == "periodic-slave"
            else:
                assert mesh.edge_tags[e] == "periodic-master"


class TestPeriodicPairingErrors:
    def test_far_side_vertex_without_image(self):
        """The random quads' boundary vertices do not line up across the square,
        so several far-side vertices have no image; the lowest is named."""
        mesh = generate_family("random_quad", 0)
        verts = np.unique(mesh.edges[mesh.boundary_edges()])
        p = mesh.vertices[verts]
        far = np.abs(p - 1.0) < 1e-12
        unmatched = [v for v, q in zip(verts[far.any(axis=1)],
                                       np.where(far, 0.0, p)[far.any(axis=1)])
                     if np.abs(p - q).max(axis=1).min() >= 1e-12]
        assert len(unmatched) > 1
        with pytest.raises(MeshError, match=rf"vertex {unmatched[0]} at \(.*\) has no master"):
            _attach_periodic_pairing(mesh, 1.0)

    def test_far_side_edge_without_image(self):
        """An extra vertex splits the bottom edge, so the top edge has no image."""
        mesh = PolygonalMesh([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3, 4]])
        top = int(np.flatnonzero((mesh.vertices[mesh.edges][:, :, 1] == 1.0).all(axis=1))[0])
        with pytest.raises(MeshError, match=rf"edge {top} at \(0.5, 1.0\) has no master"):
            _attach_periodic_pairing(mesh, 1.0)


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = generate_family("hexagonal", 0)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        back = read_mesh(path)
        assert np.abs(back.vertices - mesh.vertices).max() < 1e-15
        assert all(np.array_equal(a, b) for a, b in zip(back.cells, mesh.cells))
        assert list(back.edge_tags) == list(mesh.edge_tags)

    def test_neumann_tag_round_trip(self, tmp_path):
        verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
        mesh = PolygonalMesh(verts, [[0, 1, 2, 3]],
                             boundary_tags={(0, 1): NEUMANN})
        path = tmp_path / "m.txt"
        write_mesh(mesh, path)
        back = read_mesh(path)
        tags = sorted(back.edge_tags)
        assert tags.count(NEUMANN) == 1

    def test_missing_vertex_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("polymesh 1\nvertices 3\n0 0\n1 0\n0 1\n"
                        "cells 1\n3 0 1 7\nboundary 0\n")
        with pytest.raises(MeshParseError, match="missing vertex"):
            read_mesh(path)

    def test_vertex_id_beyond_int64_is_missing(self):
        for big in (2 ** 70, 99999999999999999999):
            with pytest.raises(MeshError, match="cell 1 references a missing vertex") as info:
                PolygonalMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 1, big]])
            assert info.value.cell == 1

    def test_empty_file_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(MeshParseError):
            read_mesh(path)

    def test_malformed_vertex_line(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("polymesh 1\nvertices 1\n0 zero\ncells 0\nboundary 0\n")
        with pytest.raises(MeshParseError, match="bad vertex"):
            read_mesh(path)

    @pytest.mark.parametrize("text, line_no, word", [
        ("polymesh 1\nvertices x\n", 2, "vertices count"),
        ("polymesh 1\nvertices -1\n", 2, "vertices count"),
        ("polymesh 1\nvertices 0\ncells 1.5\n", 3, "cells count"),
        ("polymesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n3 0 1 2\nboundary -2\n", 8,
         "boundary count"),
        ("polymesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n3 0 1 2\nboundary 1\n"
         "0 q dirichlet\n", 9, "bad boundary"),
        ("polymesh 1\nvertices 4\n0 0\n1 0\n0 1\n1 1\ncells 1\n3 0 1 2\nboundary 1\n"
         "1 3 dirichlet\n", 10, "no mesh edge"),
        ("polymesh 1\nvertices 1\n0 nan\n", 3, "non-finite"),
        ("polymesh 1\nvertices 1\n0 \u00e9\n", 3, "non-ASCII"),
    ], ids=["vertices-word", "vertices-negative", "cells-float", "boundary-negative",
            "boundary-index", "boundary-no-edge", "vertex-nan", "non-ascii"])
    def test_malformed_counts_and_boundary_lines(self, tmp_path, text, line_no, word):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MeshParseError, match=word) as info:
            read_mesh(path)
        assert info.value.line_no == line_no

    @pytest.mark.parametrize("cells, boundary, line_no, word", [
        (["4 0 3 4 1", "4 1 2 5 4"], [], 11, "counterclockwise"),
        (["4 0 1 4 4", "4 1 2 5 4"], [], 11, "repeats a vertex"),
        (["4 0 1 4 3", "4 1 2 5 4", "3 1 4 6"], [], 13, "more than two cells"),
        (["4 0 1 4 3", "4 1 2 5 4"], ["0 1 dirichlet", "4 1 neumann", "2 5 dirichlet"],
         15, "interior"),
        (["4 0 1 4 4", "4 1 4 5 2"], [], 11, "repeats a vertex"),
        (["4 0 1 4 3", "3 1 4 6", "4 1 2 5 4"], [], 13, "more than two cells"),
        (["4 0 1 4 3", "4 1 2 5 99999999999999999999"], [], 12, "missing vertex"),
        (["4 0 3 4 1", "4 1 2 5 99999999999999999999"], [], 11, "counterclockwise"),
    ], ids=["clockwise-cell", "repeated-vertex", "edge-in-three-cells",
            "tag-on-interior-edge", "repeat-before-clockwise", "third-owner-in-file-order",
            "vertex-id-beyond-int64", "clockwise-before-missing-vertex"])
    def test_topology_error_names_offending_line(self, tmp_path, cells, boundary,
                                                 line_no, word):
        verts = ["0 0", "1 0", "2 0", "0 1", "1 1", "2 1", "0.5 0.5"]
        lines = (["polymesh 1", f"vertices {len(verts)}"] + verts
                 + [f"cells {len(cells)}"] + cells
                 + [f"boundary {len(boundary)}"] + boundary)
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshParseError, match=word) as info:
            read_mesh(path)
        assert info.value.line_no == line_no

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_file_parses_or_raises_parse_error(self, tmp_path, data):
        mesh = PolygonalMesh([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]],
                             [[0, 1, 4, 3], [1, 2, 5, 4]],
                             boundary_tags={(0, 1): NEUMANN, (2, 5): DIRICHLET})
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        lines = path.read_text().splitlines()
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        damage = data.draw(st.sampled_from(["delete", "replace", "truncate"]))
        if damage == "delete":
            del lines[i]
        elif damage == "truncate":
            del lines[i:]
        else:
            tokens = lines[i].split()
            j = data.draw(st.integers(0, len(tokens) - 1), label="token")
            tokens[j] = data.draw(st.sampled_from(
                ["x", "", "-1", "0", "1", "3", "7", "2.5", "1e999", "nan",
                 "99999999999999999999", "dirichlet", "neumann", "interior", "cells"]))
            lines[i] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        try:
            read_mesh(path)
        except MeshParseError:
            pass
