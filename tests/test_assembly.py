import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vemwave import assembly, projectors
from vemwave.assembly import (
    Material,
    assemble_global,
    assemble_load,
    interpolate,
    local_scalar_mass,
    local_stiffness,
    stabilization,
)
from vemwave.harness import error_norms
from vemwave.mesh import NEUMANN, PolygonalMesh, generate_family
from vemwave.polybasis import basis_dimension, monomial_exponents
from vemwave.projectors import ElementOperators, build_element_operators


def local_mass(ops, material):
    """Local vector mass matrix: the scalar mass on each component block."""
    scalar = local_scalar_mass(ops, material)
    n = scalar.shape[-1]
    out = np.zeros(scalar.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = scalar
    out[..., n:, n:] = scalar
    return out


def p1_mass(vertices, rho):
    area = 0.5 * abs(np.linalg.det(np.column_stack([vertices[1] - vertices[0],
                                                    vertices[2] - vertices[0]])))
    return rho * area / 12.0 * (np.ones((3, 3)) + np.eye(3))


def p1_stiffness(vertices, lam, mu):
    v = np.asarray(vertices, dtype=float)
    area = 0.5 * abs(np.linalg.det(np.column_stack([v[1] - v[0], v[2] - v[0]])))
    grads = np.zeros((3, 2))
    for i in range(3):
        a, b = v[(i + 1) % 3], v[(i + 2) % 3]
        edge = b - a
        normal = np.array([edge[1], -edge[0]])
        height = normal @ (v[i] - a)
        grads[i] = normal / height
    k = np.zeros((6, 6))
    for i in range(3):
        for a in range(2):
            for j in range(3):
                for b in range(2):
                    k[a * 3 + i, b * 3 + j] = area * (
                        lam * grads[i, a] * grads[j, b]
                        + mu * grads[i, b] * grads[j, a]
                        + mu * (a == b) * (grads[i] @ grads[j]))
    return k


class TestMaterial:
    def test_wave_speeds(self):
        mat = Material(2.0, 2.0, 1.0)
        assert abs(mat.c_p - np.sqrt(2.0)) < 1e-15
        assert abs(mat.c_s - np.sqrt(0.5)) < 1e-15

    def test_invalid(self):
        with pytest.raises(ValueError):
            Material(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Material(1.0, -1.0, 1.0)

    @pytest.mark.parametrize("field", ["rho", "lam", "mu"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        values = {"rho": 1.0, "lam": 1.0, "mu": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            Material(**values)

    def test_zero_shear_modulus_rejected(self):
        with pytest.raises(ValueError, match="^mu must be finite and > 0"):
            Material(1.0, 1.0, 0.0)
        assert Material(1.0, 0.0, 1.0).lam == 0.0

    def test_from_wave_speeds(self):
        mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
        assert abs(mat.mu - 0.5) < 1e-15
        assert abs(mat.lam - 1.0) < 1e-15
        with pytest.raises(ValueError):
            Material.from_wave_speeds(1.0, 1.0, 1.2)
        # rho is Material's to check, c_p and the ratio from_wave_speeds'
        for rho, c_p, ratio in ((np.nan, 1.0, 2.0), (1.0, np.inf, 2.0), (1.0, 1.0, np.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                Material.from_wave_speeds(rho, c_p, ratio)


class TestLocalFemOracle:
    @pytest.mark.parametrize("lam,mu", [(0.0, 1.0), (2.0, 0.5), (1.0, 3.0)])
    def test_triangle_k1(self, lam, mu):
        verts = np.array([[0.1, 0.2], [0.9, 0.3], [0.4, 1.1]])
        mesh = PolygonalMesh(verts, [[0, 1, 2]])
        ops = ElementOperators(mesh, 0, 1)
        mat = Material(1.3, lam, mu)
        m_loc = local_mass(ops, mat)
        k_loc = local_stiffness(ops, mat)
        m_ref = p1_mass(verts, mat.rho)
        k_ref = p1_stiffness(verts, lam, mu)
        assert np.abs(m_loc[:3, :3] - m_ref).max() < 1e-12
        assert np.abs(m_loc[3:, 3:] - m_ref).max() < 1e-12
        assert np.abs(m_loc[:3, 3:]).max() == 0.0
        assert np.abs(k_loc - k_ref).max() < 1e-12

    def test_mass_spd(self, octagon_mesh, material):
        ops = ElementOperators(octagon_mesh, 0, 2)
        m_loc = local_mass(ops, material)
        assert np.linalg.eigvalsh(m_loc).min() > 0


class TestRigidBody:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_kernel_exactly_three(self, degree):
        mat = Material(1.0, 2.0, 0.7)
        for family in ("random_quad", "hexagonal", "nonconvex_octagon"):
            mesh = generate_family(family, 0, seed=4)
            ci = mesh.n_cells // 2
            ops = ElementOperators(mesh, ci, degree)
            k_loc = local_stiffness(ops, mat)
            scale = np.abs(k_loc).max()
            rigid = [
                lambda p: (np.ones(len(p)), np.zeros(len(p))),
                lambda p: (np.zeros(len(p)), np.ones(len(p))),
                lambda p: (-p[:, 1], p[:, 0]),
            ]
            for mode in rigid:
                ux = ops.dof_functionals(lambda p: mode(p)[0])
                uy = ops.dof_functionals(lambda p: mode(p)[1])
                dofs = np.concatenate([ux, uy])
                assert np.abs(k_loc @ dofs).max() < 1e-11 * max(scale, 1.0)
            ev = np.linalg.eigvalsh(k_loc)
            assert ev[2] < 1e-11 * scale
            assert ev[3] > 1e-6 * scale


def exact_forms_from_dofs(ops, mat, dofs):
    """Independent evaluation of m(v, q) and a(v, q) for all vector polynomials q
    of degree <= k, from the DOF data only: moments of degree <= k-2 come from the
    interior DOFs, higher moments from the elliptic projection (the enhanced-space
    property), and boundary terms from the reconstructed edge traces.  This route
    never touches Pi0, Pi0x/Pi0y, or the assembled matrices."""
    lay = ops.layout
    basis = ops.basis
    n = lay.n_total
    vx, vy = dofs[:n], dofs[n:]
    area = ops.geometry.area
    mass = ops.grams.mass

    def moments(comp):
        out = np.empty(ops.n_k)
        out[:ops.n_km2] = area * comp[lay.interior_dofs]
        out[ops.n_km2:] = (mass @ (ops.pi_nabla @ comp))[ops.n_km2:]
        return out

    mom = [moments(vx), moments(vy)]

    edges = ops.edges
    m_rows = []
    a_rows = []
    exps = basis.exponents
    h = basis.diameter
    for comp in range(2):
        for alpha in range(ops.n_k):
            # q = p_alpha e_comp; m(v, q) = rho * moment
            m_rows.append(mat.rho * mom[comp][alpha])
            # a(v, q) = -int div sigma(q) . v + sum_E int (sigma(q) n) . v
            # sigma(q) has polynomial entries assembled from derivatives of p_alpha
            def grad_eval(pts):
                dx, dy = basis.eval_gradient(pts)
                return dx[:, alpha], dy[:, alpha]

            total = 0.0
            for trace, weights, normal, pts in zip(edges.trace, edges.weights,
                                                   ops.geometry.edge_normals, edges.points):
                dxq, dyq = grad_eval(pts)
                if comp == 0:
                    sig = np.stack([(2 * mat.mu + mat.lam) * dxq, mat.mu * dyq,
                                    mat.mu * dyq, mat.lam * dxq])
                else:
                    sig = np.stack([mat.lam * dyq, mat.mu * dxq,
                                    mat.mu * dxq, (2 * mat.mu + mat.lam) * dyq])
                tr_x = sig[0] * normal[0] + sig[1] * normal[1]
                tr_y = sig[2] * normal[0] + sig[3] * normal[1]
                vals_x = trace @ vx
                vals_y = trace @ vy
                total += weights @ (tr_x * vals_x + tr_y * vals_y)
            # volume: div sigma(q) expanded exactly in monomials of degree <= k-2
            if ops.n_km2:
                lower = monomial_exponents(ops.degree - 2)
                idx = {tuple(e): i for i, e in enumerate(lower)}
                div = np.zeros((2, ops.n_km2))
                a1, a2 = exps[alpha]
                coeffs = basis.coeffs[:, alpha] if basis.coeffs is not None else None

                def add(vec, e1, e2, val):
                    if e1 >= 0 and e2 >= 0 and val != 0 and (e1, e2) in idx:
                        vec[idx[(e1, e2)]] += val

                # second derivatives of the scaled monomial m_(a1,a2)
                source = [(a1, a2, 1.0)] if coeffs is None else [
                    (int(b1), int(b2), c) for (b1, b2), c in
                    zip(monomial_exponents(ops.degree), coeffs) if c != 0.0]
                for b1, b2, c in source:
                    dxx = c * b1 * (b1 - 1) / h ** 2
                    dyy = c * b2 * (b2 - 1) / h ** 2
                    dxy = c * b1 * b2 / h ** 2
                    if comp == 0:
                        add(div[0], b1 - 2, b2, (2 * mat.mu + mat.lam) * dxx)
                        add(div[0], b1, b2 - 2, mat.mu * dyy)
                        add(div[1], b1 - 1, b2 - 1, (mat.mu + mat.lam) * dxy)
                    else:
                        add(div[1], b1 - 2, b2, mat.mu * dxx)
                        add(div[1], b1, b2 - 2, (2 * mat.mu + mat.lam) * dyy)
                        add(div[0], b1 - 1, b2 - 1, (mat.mu + mat.lam) * dxy)
                # moments of v against monomials of degree <= k-2: convert from
                # the element basis moments when a transformed basis is in use
                mono_mom = [mom[0][:ops.n_km2], mom[1][:ops.n_km2]]
                if basis.coeffs is not None:
                    c22 = basis.coeffs[:ops.n_km2, :ops.n_km2]
                    mono_mom = [np.linalg.solve(c22.T, mm) for mm in mono_mom]
                total -= div[0] @ mono_mom[0] + div[1] @ mono_mom[1]
            a_rows.append(total)
    return np.array(m_rows), np.array(a_rows)


class TestKConsistency:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_patch(self, degree):
        """m_h(v, q) = m(v, q) and a_h(v, q) = a(v, q) for vector polynomials q."""
        mat = Material(1.2, 1.7, 0.6)
        mesh = generate_family("nonconvex_octagon", 0)
        ops = ElementOperators(mesh, 6, degree)
        m_loc = local_mass(ops, mat)
        k_loc = local_stiffness(ops, mat)
        rng = np.random.default_rng(3)
        n = ops.layout.n_total
        dofs = rng.standard_normal(2 * n)
        m_exact, a_exact = exact_forms_from_dofs(ops, mat, dofs)
        d = ops.dof_matrix
        for comp in range(2):
            for alpha in range(ops.n_k):
                q_dofs = np.zeros(2 * n)
                q_dofs[comp * n:(comp + 1) * n] = d[:, alpha]
                m_h = q_dofs @ (m_loc @ dofs)
                a_h = q_dofs @ (k_loc @ dofs)
                row = comp * ops.n_k + alpha
                m_scale = max(abs(m_exact[row]), np.abs(m_loc).max())
                a_scale = max(abs(a_exact[row]), np.abs(k_loc).max())
                assert abs(m_h - m_exact[row]) < 1e-10 * m_scale
                assert abs(a_h - a_exact[row]) < 1e-10 * a_scale

    def test_constant_mass(self, octagon_mesh):
        """m_h(q, q) = rho |P| for the constant vector (1, 0)."""
        mat = Material(2.5, 1.0, 1.0)
        ops = ElementOperators(octagon_mesh, 0, 2)
        m_loc = local_mass(ops, mat)
        n = ops.layout.n_total
        ones = np.concatenate([ops.dof_functionals(lambda p: np.ones(len(p))),
                               np.zeros(n)])
        val = ones @ (m_loc @ ones)
        assert abs(val - mat.rho * ops.geometry.area) < 1e-12


class TestSpectralEquivalence:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_rayleigh_band(self, degree):
        """Smoke bound for the mass stability constants: Rayleigh quotients of
        M_loc against the exact mass of the Pi0 reconstruction, for interpolants
        of smooth fields (random DOF vectors probe the projector kernel where the
        reconstructed mass vanishes and the quotient is rightly unbounded)."""
        mat = Material(1.0, 1.0, 1.0)
        rng = np.random.default_rng(9)
        waves = rng.uniform(-3, 3, (10, 4))
        for family in ("random_quad", "hexagonal", "nonconvex_octagon"):
            mesh = generate_family(family, 0, seed=8)
            ops = ElementOperators(mesh, 1, degree)
            m_loc = local_mass(ops, mat)
            q = ops.grams.mass
            for a, b, c, d in waves:
                ux = ops.dof_functionals(
                    lambda p: np.sin(a * p[:, 0] + b) * np.cos(c * p[:, 1]))
                uy = ops.dof_functionals(
                    lambda p: np.cos(d * p[:, 0]) + np.sin(b * p[:, 1] + a))
                v = np.concatenate([ux, uy])
                num = v @ (m_loc @ v)
                px = ops.pi_zero @ ux
                py = ops.pi_zero @ uy
                den = mat.rho * (px @ q @ px + py @ q @ py)
                assert 0.05 <= num / den <= 20.0


class TestGlobalAssembly:
    def test_free_count_2x2_k1(self):
        mesh = generate_family("random_quad", 0, seed=0)
        # use an exact 2x2 grid instead: build directly
        verts = [[x, y] for x in (0, 0.5, 1) for y in (0, 0.5, 1)]
        cells = []
        for i in range(2):
            for j in range(2):
                v00 = i * 3 + j
                cells.append([v00, v00 + 3, v00 + 4, v00 + 1])
        mesh = PolygonalMesh(verts, cells)
        system = assemble_global(mesh, 1, Material(1, 1, 1))
        assert system.n_free == 2  # one interior vertex, two components

    def test_symmetry(self, material):
        mesh = generate_family("hexagonal", 0)
        system = assemble_global(mesh, 2, material)
        m_asym = abs(system.mass - system.mass.T).max()
        k_asym = abs(system.stiffness - system.stiffness.T).max()
        assert m_asym <= 1e-13 * abs(system.mass).max()
        assert k_asym <= 1e-13 * abs(system.stiffness).max()

    def test_stiffness_spd_on_constrained_space(self, material):
        verts = [[x, y] for x in np.linspace(0, 1, 4) for y in np.linspace(0, 1, 4)]
        cells = []
        for i in range(3):
            for j in range(3):
                v00 = i * 4 + j
                cells.append([v00, v00 + 4, v00 + 5, v00 + 1])
        mesh = PolygonalMesh(verts, cells)
        system = assemble_global(mesh, 2, material)
        ev = np.linalg.eigvalsh(system.stiffness.toarray())
        assert ev.min() > 0

    def test_requires_dirichlet(self, material):
        from vemwave.mesh import reference_periodic_cell
        mesh = reference_periodic_cell("quad", 1.0)  # all edges periodic-tagged
        with pytest.raises(ValueError, match="Dirichlet"):
            assemble_global(mesh, 1, material)

    def test_assembly_deterministic(self, material):
        mesh = generate_family("random_quad", 0, seed=1)
        a = assemble_global(mesh, 2, material)
        b = assemble_global(mesh, 2, material)
        assert (a.mass != b.mass).nnz == 0
        assert (a.stiffness != b.stiffness).nnz == 0

    @pytest.mark.parametrize("eliminate", [True, False])
    def test_mass_is_two_scalar_blocks(self, material, eliminate):
        mesh = generate_family("random_quad", 0, seed=1)
        system = assemble_global(mesh, 2, material, eliminate_dirichlet=eliminate)
        mass, scalar = system.mass, system.scalar_mass
        n = scalar.shape[0]
        assert mass.shape == (2 * n, 2 * n) == (system.n_free, system.n_free)
        assert np.count_nonzero(mass.data) == mass.nnz  # no stored zeros
        assert (mass != sp.block_diag((scalar, scalar))).nnz == 0
        assert mass[:n, n:].nnz == 0 and mass[n:, :n].nnz == 0
        # reference: assemble the full local vector mass matrices
        dofmap = system.dofmap
        ref = np.zeros((dofmap.n_vector, dofmap.n_vector))
        for ci, ops in enumerate(build_element_operators(mesh, 2)):
            gdofs = dofmap.cell_vector_dofs(ci)
            ref[np.ix_(gdofs, gdofs)] += local_mass(ops, material)
        ref = ref[np.ix_(system.free, system.free)]
        assert np.abs(mass.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()


    @pytest.mark.parametrize("family", ["random_quad", "hexagonal"])
    @pytest.mark.parametrize("eliminate", [True, False])
    def test_stiffness_matches_per_cell_reference(self, material, family, eliminate):
        """The group-wise COO scatter against dense per-cell accumulation; the
        hexagonal mesh interleaves cells of 4, 5 and 6 vertices in cell order."""
        mesh = generate_family(family, 0, seed=1)
        system = assemble_global(mesh, 2, material, eliminate_dirichlet=eliminate)
        if family == "hexagonal":
            counts = [len(c) for c in mesh.cells]
            assert counts != sorted(counts)
            assert len(system.groups) == 3
        dofmap = system.dofmap
        ref = np.zeros((dofmap.n_vector, dofmap.n_vector))
        for ci, ops in enumerate(build_element_operators(mesh, 2)):
            gdofs = dofmap.cell_vector_dofs(ci)
            ref[np.ix_(gdofs, gdofs)] += local_stiffness(ops, material)
        ref = ref[np.ix_(system.free, system.free)]
        got = system.stiffness.toarray()
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


class TestStabilization:
    """``assembly.stabilization`` is the one site of the dofi-dofj recipe."""

    @pytest.mark.parametrize("family", ["random_quad", "hexagonal", "nonconvex_octagon"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_vanishes_on_polynomials(self, family, degree):
        """s = I - D Pi annihilates the DOFs of every degree-k polynomial, so
        neither term touches the consistency part's exactness."""
        mat = Material(1.3, 2.0, 0.7)
        ops = ElementOperators(generate_family(family, 0, seed=3), 4, degree)
        c, d = ops.geometry.centroid, ops.geometry.diameter
        polys = np.column_stack([ops.dof_functionals(
            lambda p, a=a, b=b: ((p[:, 0] - c[0]) / d) ** a * ((p[:, 1] - c[1]) / d) ** b)
            for a, b in monomial_exponents(degree)])
        for term in ("mass", "stiffness"):
            stab = stabilization(ops, mat, term)
            assert np.abs(stab @ polys).max() <= 1e-12 * np.abs(stab).max()

    def test_each_local_matrix_calls_it_once_for_its_own_term(self, monkeypatch):
        """Patching the one function swaps the stabilization of both local
        matrices: with it zeroed, each is its consistency part alone."""
        calls = []

        def zero(ops, material, term):
            calls.append(term)
            return np.zeros((ops.layout.n_total,) * 2)

        mat = Material(1.3, 2.0, 0.7)
        ops = ElementOperators(generate_family("nonconvex_octagon", 0), 3, 2)
        full = local_scalar_mass(ops, mat), local_stiffness(ops, mat)
        monkeypatch.setattr(assembly, "stabilization", zero)
        mass, stiff = local_scalar_mass(ops, mat), local_stiffness(ops, mat)
        assert calls == ["mass", "stiffness"]
        n = ops.layout.n_total
        assert np.abs(full[0] - mass - stabilization(ops, mat, "mass")).max() <= 1e-14
        k_stab = stabilization(ops, mat, "stiffness")
        for block in (slice(None, n), slice(n, None)):
            assert np.abs(full[1][block, block] - stiff[block, block]
                          - k_stab).max() <= 1e-12 * np.abs(k_stab).max()


# measured max-abs relative differences between the bases, level 0: the
# interior moments follow ``basis_kind``, so the schemes differ from k = 2 on
_BASES_DIFFER = {2: "0.95-0.98", 3: "0.998-1.0", 4: "1.0"}


@pytest.mark.parametrize("family", ["random_quad", "hexagonal", "nonconvex_octagon"])
@pytest.mark.parametrize("degree", [
    1, *(pytest.param(k, marks=pytest.mark.xfail(
        strict=True, reason=f"interior moments follow basis_kind: {diff} apart"))
        for k, diff in _BASES_DIFFER.items())])
def test_bases_assemble_the_same_matrices(family, degree, material):
    """The basis changes the conditioning, not the scheme: the monomial and
    orthonormal bases assemble the same scalar mass and stiffness to round-off
    (k = 1 today: at most 4.4e-16)."""
    mesh = generate_family(family, 0)
    mono, ortho = (assemble_global(mesh, degree, material, basis_kind=kind)
                   for kind in ("monomial", "orthonormal"))
    for name in ("scalar_mass", "stiffness"):
        a, b = getattr(mono, name), getattr(ortho, name)
        assert abs(a - b).max() <= 1e-12 * abs(a).max()


def curl_field(p, t=0.0):
    """u = curl psi, psi = sin^2(pi x) sin^2(pi y): divergence-free, zero on the
    unit square's boundary."""
    x, y = p[:, 0], p[:, 1]
    return np.pi * np.column_stack([np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y),
                                    -np.sin(2 * np.pi * x) * np.sin(np.pi * y) ** 2])


def curl_field_gradient(p, t=0.0):
    x, y = p[:, 0], p[:, 1]
    g = np.empty((len(p), 2, 2))
    g[:, 0, 0] = np.pi ** 2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    g[:, 0, 1] = 2 * np.pi ** 2 * np.sin(np.pi * x) ** 2 * np.cos(2 * np.pi * y)
    g[:, 1, 0] = -2 * np.pi ** 2 * np.cos(2 * np.pi * x) * np.sin(np.pi * y) ** 2
    g[:, 1, 1] = -g[:, 0, 0]
    return g


def curl_field_load(p, t=0.0):
    """-div sigma(u) = -mu laplace(u) at mu = 1, whatever lambda: div u = 0."""
    x, y = p[:, 0], p[:, 1]
    c = 2 * np.pi ** 3
    lap_x = c * (np.cos(2 * np.pi * x) - 2 * np.sin(np.pi * x) ** 2) * np.sin(2 * np.pi * y)
    lap_y = c * (2 * np.sin(np.pi * y) ** 2 - np.cos(2 * np.pi * y)) * np.sin(2 * np.pi * x)
    return -np.column_stack([lap_x, lap_y])


class TestVolumetricLocking:
    """Static solves K u = F of the divergence-free ``curl_field`` at mu = 1: the
    exact solution does not depend on lambda, and neither may the error.  A
    stabilization scaled by max(2 mu, lambda) read 1.9-550x the lambda = 1 error
    in L2 at lambda = 1e4 here; the 2 mu one reads 0.89-1.14x."""

    def test_field_is_divergence_free_and_loaded_by_minus_laplacian(self):
        rng = np.random.default_rng(5)
        p, e = rng.uniform(0.05, 0.95, (6, 2)), 1e-4
        steps = (np.array([e, 0.0]), np.array([0.0, e]))
        grad = curl_field_gradient(p)
        assert np.abs(grad[:, 0, 0] + grad[:, 1, 1]).max() == 0.0
        for j, d in enumerate(steps):
            fd = (curl_field(p + d) - curl_field(p - d)) / (2 * e)
            assert np.abs(fd - grad[:, :, j]).max() < 1e-5
        lap = sum(curl_field(p + d) - 2 * curl_field(p) + curl_field(p - d) for d in steps)
        assert np.abs(-lap / e ** 2 - curl_field_load(p)).max() < 1e-4

    @pytest.mark.parametrize("family", ["random_quad", "hexagonal", "nonconvex_octagon"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_error_does_not_grow_with_lambda(self, family, degree):
        for level in (0, 1, 2):
            mesh = generate_family(family, level)
            errs = []
            for lam in (1.0, 1e4):
                system = assemble_global(mesh, degree, Material(1.0, lam, 1.0))
                u = spla.spsolve(system.stiffness.tocsc(),
                                 assemble_load(system, curl_field_load))
                errs.append(error_norms(system, system.expand(u), curl_field,
                                        curl_field_gradient))
            for norm in ("l2", "h1"):
                ratio = getattr(errs[1], norm) / getattr(errs[0], norm)
                assert 1 / 1.25 <= ratio <= 1.25, (level, norm, ratio)


def _csr_bytes(a):
    return a.data.tobytes(), a.indices.tobytes(), a.indptr.tobytes()


class TestBatchedAssembly:
    """Element groups built and scattered in batches, Dirichlet rows dropped
    before the CSR conversion."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("family", ["random_quad", "hexagonal", "nonconvex_octagon"])
    def test_elimination_is_full_restriction(self, monkeypatch, family, degree):
        """Eliminated K and M are, byte for byte, the unconstrained assembly's
        [free][:, free], on a level whose largest group spans several batches."""
        monkeypatch.setattr(projectors, "_BATCH", 16)
        mesh = generate_family(family, 1, seed=2)
        mat = Material(1.2, 0.7, 1.1)
        system = assemble_global(mesh, degree, mat)
        full = assemble_global(mesh, degree, mat, eliminate_dirichlet=False)
        assert len(system.groups) > len(mesh.cell_groups())
        free_scalar = system.free[:len(system.free) // 2]
        assert np.array_equal(system.free, np.concatenate(
            [free_scalar, free_scalar + system.dofmap.n_scalar]))
        for got, ref, keep in ((system.stiffness, full.stiffness, system.free),
                               (system.scalar_mass, full.scalar_mass, free_scalar)):
            assert _csr_bytes(got) == _csr_bytes(ref[keep][:, keep].tocsr())

    @pytest.mark.parametrize("family", ["random_quad", "hexagonal"])
    def test_batch_size_changes_no_byte(self, monkeypatch, family):
        """Batches are consecutive runs of a vertex-count group, scattered in cell
        order, so M, K and the interpolant do not depend on the batch size."""
        mesh = generate_family(family, 1, seed=2)
        mat = Material(1.0, 1.0, 1.0)
        field = lambda p: np.column_stack([np.sin(p[:, 0] + 2 * p[:, 1]), p[:, 0] ** 3])
        out = []
        for batch in (7, 10 ** 9):
            monkeypatch.setattr(projectors, "_BATCH", batch)
            system = assemble_global(mesh, 3, mat)
            out.append((_csr_bytes(system.stiffness), _csr_bytes(system.scalar_mass),
                        interpolate(system, field).tobytes(), len(system.groups)))
        assert out[0][:3] == out[1][:3]
        assert out[1][3] == len(mesh.cell_groups()) < out[0][3]

    def test_groups_are_batches_in_build_order(self, monkeypatch):
        monkeypatch.setattr(projectors, "_BATCH", 8)
        mesh = generate_family("hexagonal", 1)
        system = assemble_global(mesh, 2, Material(1.0, 1.0, 1.0))
        cells = [g.cells.index for g in system.groups]
        assert max(map(len, cells)) == 8
        assert np.array_equal(np.concatenate(cells),
                              np.concatenate([c.index for c in mesh.cell_groups()]))

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("family", ["random_quad", "hexagonal", "nonconvex_octagon"])
    def test_system_dofs_are_each_cells_vector_dofs(self, material, family, degree):
        """``system.dofs`` holds, per batch and slot, the x and y DOFs of that
        slot's cell, in its local layout order."""
        mesh = generate_family(family, 0)
        system = assemble_global(mesh, degree, material)
        dofmap = system.dofmap
        assert len(system.dofs) == len(system.groups)
        for group, dofs in zip(system.groups, system.dofs):
            assert dofs.shape == (len(group.cells.index), group.layout.n_total, 2)
            for slot, ci in enumerate(group.cells.index):
                s = dofmap.cell_scalar_dofs(ci)
                assert np.array_equal(dofs[slot], np.stack([s, s + dofmap.n_scalar], -1))
                assert np.array_equal(dofs[slot].T.ravel(), dofmap.cell_vector_dofs(ci))

    def test_assembly_peak_memory(self):
        """Traced allocation peak of the 22,822-DOF hexagonal L3 k = 3 assembly:
        106 MB when each vertex-count group was built and scattered at once and
        the Dirichlet rows and columns were cut from the full CSR, 72 MB now."""
        mesh = generate_family("hexagonal", 3)
        tracemalloc.start()
        try:
            system = assemble_global(mesh, 3, Material(1.0, 1.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert system.n_free == 22822
        assert peak <= 75e6, f"assembly peak {peak / 1e6:.1f} MB"


class TestLoads:
    def test_zero_load(self, material):
        mesh = generate_family("random_quad", 0)
        system = assemble_global(mesh, 2, material)
        f = assemble_load(system, lambda p, t: np.zeros((len(p), 2)))
        assert np.abs(f).max() == 0.0

    def test_constant_load_k2_hits_interior_moment(self, material):
        mesh = generate_family("random_quad", 0, seed=2)
        system = assemble_global(mesh, 2, material)
        c = np.array([2.0, -1.0])
        f = assemble_load(system, lambda p, t: np.tile(c, (len(p), 1)))
        full = system.expand(f)
        dofmap = system.dofmap
        for ci in (0, 7):
            ops = ElementOperators(mesh, ci, 2)
            sdofs = dofmap.cell_scalar_dofs(ci)
            rows = sdofs[ops.layout.interior_dofs]
            # constant f pairs with the constant interior moment: c |P| (for the
            # monomial basis the constant basis function is 1)
            assert abs(full[rows[0]] - c[0] * ops.geometry.area) < 1e-13
            assert abs(full[rows[0] + dofmap.n_scalar] - c[1] * ops.geometry.area) < 1e-13

    def test_k1_load_total_force(self, material):
        """Partition of unity: the k=1 volume load sums to the total force."""
        mesh = generate_family("random_quad", 0, seed=2)
        system = assemble_global(mesh, 1, material, eliminate_dirichlet=True)
        c = np.array([1.3, 0.4])
        f = assemble_load(system, lambda p, t: np.tile(c, (len(p), 1)))
        full = system.expand(f)
        # include the constrained boundary entries by reassembling without BCs:
        # sum over all scalar dofs of the x block equals c_x * |Omega|
        from vemwave.mesh import PolygonalMesh as _PM  # noqa: F401
        sys_free = assemble_global(mesh, 1, material, eliminate_dirichlet=False)
        f_all = assemble_load(sys_free, lambda p, t: np.tile(c, (len(p), 1)))
        n = sys_free.dofmap.n_scalar
        assert abs(f_all[:n].sum() - c[0]) < 1e-12
        assert abs(f_all[n:].sum() - c[1]) < 1e-12

    def test_neumann_edge_term(self, material):
        verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
        mesh = PolygonalMesh(verts, [[0, 1, 2, 3]],
                             boundary_tags={(1, 2): NEUMANN})
        system = assemble_global(mesh, 2, material, eliminate_dirichlet=False)
        g = np.array([0.0, 3.0])
        f = assemble_load(system, neumann=lambda p, t: np.tile(g, (len(p), 1)))
        n = system.dofmap.n_scalar
        # total Neumann force = g * |edge| distributed over the trace
        assert abs(f[n:].sum() - 3.0) < 1e-12
        assert abs(f[:n].sum()) < 1e-14

    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("family", ["random_quad", "hexagonal", "nonconvex_octagon"])
    def test_neumann_load_is_the_sum_of_cell_edge_integrals(self, monkeypatch, material,
                                                            family, degree):
        """Mixed Neumann/Dirichlet tags over several batches: the load is the sum,
        over each cell's Neumann edges, of int_E g . phi_i ds on the cell's own
        edge rule, placed at its vector DOFs."""
        monkeypatch.setattr(projectors, "_BATCH", 16)
        mesh = generate_family(family, 1)
        boundary = mesh.boundary_edges()
        mid = mesh.vertices[mesh.edges[boundary]].mean(axis=1)
        mesh.edge_tags[boundary[(mid[:, 0] < 0.5) | (mid[:, 1] > 0.9)]] = NEUMANN
        system = assemble_global(mesh, degree, material)
        assert len(system.groups) > len(mesh.cell_groups())

        def g(p, t=0.0):
            return np.column_stack([np.sin(3 * p[:, 0]) + p[:, 1], p[:, 0] * p[:, 1] - 1])

        expected = np.zeros(system.dofmap.n_vector)
        for ci in range(mesh.n_cells):
            ops = ElementOperators(mesh, ci, degree)
            for loc, edge in enumerate(ops.cells.edges[0]):
                if mesh.edge_tags[edge] == NEUMANN:
                    weighted = ops.edges.weights[loc, :, None] * g(ops.edges.points[loc])
                    expected[system.dofmap.cell_vector_dofs(ci)] += (
                        weighted.T @ ops.edges.trace[loc]).ravel()
        got = assemble_load(system, neumann=g)
        ref = system.restrict(expected)
        assert np.abs(ref).max() > 0.05
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_interpolate_reproduces_polynomial(self, material):
        mesh = generate_family("hexagonal", 0)
        system = assemble_global(mesh, 2, material, eliminate_dirichlet=False)

        def field(p):
            return np.column_stack([1 + 2 * p[:, 0] + p[:, 1] ** 2,
                                    p[:, 0] * p[:, 1]])

        full = interpolate(system, field)
        dofmap = system.dofmap
        for ci in (0, 5):
            ops = ElementOperators(mesh, ci, 2)
            sdofs = dofmap.cell_scalar_dofs(ci)
            coeffs = ops.pi_nabla @ full[sdofs]
            pts = ops.rule.points
            vals = ops.basis.eval(pts) @ coeffs
            assert np.abs(vals - field(pts)[:, 0]).max() < 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_interpolate_evaluates_field_once_per_point_set(self, material, degree):
        """Per vertex-count group: all vertices, all edge points, then all interior
        rule points (k >= 2 only)."""
        mesh = generate_family("hexagonal", 0)
        system = assemble_global(mesh, degree, material, eliminate_dirichlet=False)
        assert len(system.groups) == 3
        sizes = []

        def field(p):
            sizes.append(len(p))
            return np.column_stack([p[:, 0], p[:, 1] ** 2])

        interpolate(system, field)
        expected = []
        for group in system.groups:
            expected += [group.vertex_coords[..., 0].size, group.edges.weights.size]
            if degree >= 2:
                expected.append(group.rule.weights.size)
        assert sizes == expected
