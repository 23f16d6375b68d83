import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as la

from vemwave import dispersion
from vemwave.assembly import Material, assemble_global
from vemwave.cli import main
from vemwave.dispersion import (
    DispersionConfig,
    ModeIdentificationError,
    UnstableTimestepError,
    anisotropy_sweep,
    bloch_reduce,
    cfl_parameter,
    dissipation_check,
    fullydiscrete_dispersion,
    reference_system,
    semidiscrete_dispersion,
)
from vemwave.mesh import PERIODIC_GRIDS, ParameterError, reference_periodic_cell

from test_mesh import periodic_tiling


def reduced_pencil(grid, degree, kvec, r=2.0):
    mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), r)
    system = reference_system(grid, degree, mat)
    return bloch_reduce(system, np.asarray(kvec, dtype=float))


def projector(system, kvec):
    """The dense complex projection P (vector DOFs x reduced DOFs) of the
    system's Bloch plan: P[r, col[r]] = exp(i kappa . offset[r])."""
    plan = dispersion._PLANS[system]
    p = np.zeros((len(plan.col), plan.n), dtype=complex)
    p[np.arange(len(plan.col)), plan.col] = np.exp(
        1j * (kvec[0] * plan.offset[:, 0] + kvec[1] * plan.offset[:, 1]))
    return p


class TestBlochReduction:
    def test_zero_wavevector_real_with_acoustic_kernel(self):
        red = reduced_pencil("c2", 2, [0.0, 0.0])
        system = reference_system("c2", 2, Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0))
        assert np.abs(projector(system, [0.0, 0.0]).imag).max() == 0.0
        lam = la.eigh(red.stiffness, red.mass, eigvals_only=True)
        assert np.abs(lam[:2]).max() < 1e-10 * lam[-1]
        assert lam[2] > 1e-6 * lam[-1]

    def test_quad_k1_reduced_size(self):
        red = reduced_pencil("quad", 1, [0.3, 0.7])
        assert red.mass.shape == (2, 2)

    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    def test_hermitian_definite(self, grid):
        red = reduced_pencil(grid, 2, [1.1, -0.4])
        for m in (red.mass, red.stiffness):
            assert np.abs(m - m.conj().T).max() <= 1e-14 * np.abs(m).max()
        assert la.eigvalsh(red.mass).min() > 0
        lam = la.eigh(red.stiffness, red.mass, eigvals_only=True)
        assert lam.min() >= -1e-10 * lam.max()

    def test_projector_slave_rows_unit_modulus(self):
        mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
        system = reference_system("c3", 1, mat)
        kvec = np.array([0.9, 0.4])
        bloch_reduce(system, kvec)
        p = projector(system, kvec)
        for row in p:
            nz = row[np.abs(row) > 0]
            assert len(nz) == 1
            assert abs(abs(nz[0]) - 1.0) < 1e-14


class TestScatterReductionOracle:
    """bloch_reduce scatters the sparse entries of M and K; the dense product
    P^H A P with the same projector is the oracle."""

    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_matches_dense_product(self, grid, degree):
        mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
        system = reference_system(grid, degree, mat)
        for kvec in ([0.0, 0.0], [1.1, -0.4], [-0.7, 2.3]):
            red = bloch_reduce(system, np.array(kvec))
            p = projector(system, kvec)
            for a, reduced in ((system.mass, red.mass),
                               (system.stiffness, red.stiffness)):
                dense = p.conj().T @ a.toarray() @ p
                dense = 0.5 * (dense + dense.conj().T)
                # scaled by the unreduced matrix: at k = 0 the reduced
                # stiffness of the lowest degrees is zero up to round-off
                assert np.abs(reduced - dense).max() <= 1e-13 * abs(a).max()
                assert np.abs(reduced - reduced.conj().T).max() == 0.0

    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    def test_minus_wavevector_is_conjugate_pencil(self, grid):
        """M and K are real, so the pencil at -k is the conjugate of the one at
        k, and both have one spectrum: the half-circle CFL sweep rests on it."""
        mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
        system = reference_system(grid, 2, mat)
        kvec = np.array([1.1, -0.4])
        plus, minus = bloch_reduce(system, kvec), bloch_reduce(system, -kvec)
        for a, b in ((plus.mass, minus.mass), (plus.stiffness, minus.stiffness)):
            assert np.abs(b - a.conj()).max() <= 1e-14 * np.abs(a).max()
        for red in (plus, minus):
            assert la.eigvalsh(red.mass).min() > 0
        lam_plus = la.eigh(plus.stiffness, plus.mass, eigvals_only=True)
        lam_minus = la.eigh(minus.stiffness, minus.mass, eigvals_only=True)
        assert np.abs(lam_plus - lam_minus).max() <= 1e-12 * lam_plus.max()

    def test_plan_cached_per_system(self):
        mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
        system = assemble_global(reference_periodic_cell("c3", 1.0), 2, mat,
                                 eliminate_dirichlet=False)
        kvec = np.array([0.9, -1.3])
        first = bloch_reduce(system, kvec)
        plan = dispersion._PLANS[system]
        second = bloch_reduce(system, kvec)
        assert dispersion._PLANS[system] is plan
        twin = assemble_global(reference_periodic_cell("c3", 1.0), 2, mat,
                               eliminate_dirichlet=False)
        fresh = bloch_reduce(twin, kvec)
        assert dispersion._PLANS[twin] is not plan
        for red in (second, fresh):
            assert red.mass.tobytes() == first.mass.tobytes()
            assert red.stiffness.tobytes() == first.stiffness.tobytes()
        # the cache holds no strong reference: the plan goes with its system
        gc.collect()
        n_plans = len(dispersion._PLANS)
        refs = [weakref.ref(system), weakref.ref(twin)]
        del system, twin
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(dispersion._PLANS) == n_plans - 2

    def test_chained_slave_rejected(self):
        mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
        mesh = reference_periodic_cell("quad", 1.0)
        master = mesh.periodic.vertex_master
        first, second = np.flatnonzero(master != np.arange(len(master)))[:2]
        master[second] = first
        system = assemble_global(mesh, 1, mat, eliminate_dirichlet=False)
        with pytest.raises(ValueError, match="chained"):
            bloch_reduce(system, np.array([0.3, 0.1]))

    def test_reference_system_cached(self):
        # two equal but distinct Material instances share one cache entry
        a, b = (Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0) for _ in range(2))
        assert reference_system("quad", 1, a) is reference_system("quad", 1, b)


def reference_reduce(system, plan, kvec):
    """The scatter as first written, from the vector matrices and no plan
    entries: each entry A[r, c] exp(i kappa . (offset[c] - offset[r])) of the
    block mass ``system.mass`` and of K, a complex sum of the two bincounts at
    the row-major index (col[r], col[c]), then a Hermitian average into a new
    array."""
    n = plan.n
    out = []
    for a in (system.mass, system.stiffness):
        a = a.tocoo()
        diff = plan.offset[a.col] - plan.offset[a.row]
        w = a.data * np.exp(1j * (kvec[0] * diff[:, 0] + kvec[1] * diff[:, 1]))
        idx = plan.col[a.row].astype(np.intp) * n + plan.col[a.col]
        red = (np.bincount(idx, w.real, n * n)
               + 1j * np.bincount(idx, w.imag, n * n)).reshape(n, n)
        out.append(0.5 * (red + red.conj().T))
    return out[0], out[1]


def fresh_system(grid, degree):
    """An uncached periodic-cell system: no other test has read its block mass
    or built its Bloch plan."""
    mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
    return assemble_global(reference_periodic_cell(grid, 1.0), degree, mat,
                           eliminate_dirichlet=False)


class TestInPlaceScatter:
    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_byte_identical_to_reference(self, grid, degree):
        system = fresh_system(grid, degree)
        kvecs = [np.array(k) for k in ([0.0, 0.0], [0.9, 1.7], [-2.1, 0.4])]
        reds = [bloch_reduce(system, kvec) for kvec in kvecs]
        # the plan reads the scalar mass, not the block mass, with int32 indices
        assert "mass" not in vars(system)
        plan = dispersion._PLANS[system]
        assert all(idx.dtype == np.int32 for _, idx, _ in plan.entries)
        for kvec, red in zip(kvecs, reds):
            mass, stiffness = reference_reduce(system, plan, kvec)
            assert red.mass.tobytes() == mass.tobytes()
            assert red.stiffness.tobytes() == stiffness.tobytes()


class TestBadWavevector:
    @pytest.mark.parametrize("kvec", [[0.3, 0.4, 9.0], [0.3], [np.nan, 0.4],
                                      [0.3, np.inf], [[0.3, 0.4]], "ab"])
    def test_refused(self, kvec):
        system = reference_system("quad", 1, Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0))
        with pytest.raises(ParameterError, match="two finite numbers") as info:
            bloch_reduce(system, kvec)
        assert info.value.name == "wavevector"


def traced_peak(fn):
    """Peak traced allocation of one call of ``fn``, after a warm-up call that
    builds the reference system and the Bloch plan."""
    fn()
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPencilMemory:
    """Peak memory of the pencil path in pencil sizes, 16 n^2 bytes for the
    reduced size n.  The pencils are built column-major and solved in place,
    so a dispersion row or a dissipation check holds M, K and less than one
    pencil more; row-major pencils copied by the LAPACK wrappers held about 4,
    and the eigenvector workspace of SciPy's eig about 6."""

    @staticmethod
    def pencil_bytes(cfg):
        system = reference_system(cfg.grid, cfg.degree, cfg.material)
        return bloch_reduce(system, cfg.wavevector()).mass.nbytes

    @pytest.mark.parametrize("degree", [4, 5])
    def test_dispersion_row(self, degree):
        cfg = DispersionConfig("c3", degree, 0.2, 0.7, 2.0)
        pencil = self.pencil_bytes(cfg)
        assert traced_peak(lambda: semidiscrete_dispersion(cfg)) <= 3.2 * pencil

    @pytest.mark.parametrize("degree", [3, 4])
    def test_dissipation_check(self, degree):
        cfg = DispersionConfig("c3", degree, 0.2, np.pi / 4, 2.0)
        pencil = self.pencil_bytes(cfg)
        assert traced_peak(lambda: dissipation_check(cfg)) <= 3.2 * pencil

    @pytest.mark.parametrize("grid, degree", [(g, 2) for g in PERIODIC_GRIDS]
                             + [("c3", 4), ("c1", 5)])
    def test_column_major_and_exactly_hermitian(self, grid, degree):
        red = reduced_pencil(grid, degree, [0.9, -1.7])
        for m in (red.mass, red.stiffness):
            assert m.flags.f_contiguous
            # by value: a real diagonal entry's imaginary +0.0 conjugates to -0.0
            assert np.array_equal(m, m.conj().T)


class TestPlanMemory:
    """What a reduction leaves behind, the Bloch plan, in bytes per scalar-mass
    nonzero: its int32 indices and class bytes for the scalar mass and K take
    about 26; the plan over the block mass, with 8-byte indices, kept about 80."""

    @pytest.mark.parametrize("grid, degree", [("c3", 4), ("c3", 5), ("c1", 5)])
    def test_plan_retains_little_per_mass_nonzero(self, grid, degree):
        bloch_reduce(fresh_system("quad", 1), [0.3, 0.4])  # one-time set-up
        system = fresh_system(grid, degree)
        gc.collect()
        tracemalloc.start()
        try:
            red = bloch_reduce(system, [0.9, -1.7])
            del red
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 32 * system.scalar_mass.nnz


class TestSupercellOracle:
    """A Bloch wave of the 3 x 3 tiling at kappa = 0 is a Bloch wave of the unit
    cell at a wavevector with exp(3 i kappa) = 1, so the tiling's spectrum is the
    union of the unit-cell spectra at kappa = 2 pi (a, b) / 3, a, b in {0, 1, 2}.
    This checks the master/slave pairing and the reduction independently of the
    plane-wave analysis."""

    @pytest.mark.parametrize("grid, degree", [(g, k) for k in (1, 2) for g in PERIODIC_GRIDS]
                             + [("quad", 3), ("tria", 3)])
    def test_tiling_spectrum_is_folded_cell_spectrum(self, grid, degree):
        mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)

        def spectrum(system, kvec):
            red = bloch_reduce(system, np.asarray(kvec, dtype=float))
            return la.eigh(red.stiffness, red.mass, eigvals_only=True)

        tiling = assemble_global(periodic_tiling(grid, 3), degree, mat,
                                 eliminate_dirichlet=False)
        cell = reference_system(grid, degree, mat)
        folded = np.sort(np.concatenate([spectrum(cell, 2 * np.pi * np.array([a, b]) / 3)
                                         for a in range(3) for b in range(3)]))
        lam = spectrum(tiling, [0.0, 0.0])
        assert lam.shape == folded.shape
        assert np.abs(lam - folded).max() <= 1e-12 * folded.max()


class TestPencilEigvals:
    """The full spectrum comes from LAPACK's hegv; SciPy's default hegvd is the
    oracle.  The solve consumes its pencil, so the oracle reduces afresh."""

    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_matches_default_driver(self, grid, degree):
        mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
        system = reference_system(grid, degree, mat)
        for theta in (0.3, 2.0):
            kvec = 2.0 * np.pi * degree * 0.2 * np.array([np.cos(theta), np.sin(theta)])
            lam = dispersion._pencil_eigvals(bloch_reduce(system, kvec))
            red = bloch_reduce(system, kvec)
            ref = la.eigh(red.stiffness, red.mass, eigvals_only=True, driver="gvd")
            assert lam.shape == ref.shape
            assert np.abs(lam - ref).max() <= 1e-12 * ref.max()

    @pytest.mark.parametrize("delta", [0.2, 1e-9])
    @pytest.mark.parametrize("convention", ["scaled", "shared"])
    def test_pencils_per_convention(self, monkeypatch, delta, convention):
        """'scaled' solves a second pencil at kappa / r however small delta is;
        'shared' solves one."""
        calls = []

        def recording_reduce(system, wavevector):
            calls.append(np.array(wavevector, dtype=float))
            return bloch_reduce(system, wavevector)

        monkeypatch.setattr(dispersion, "bloch_reduce", recording_reduce)
        cfg = DispersionConfig("quad", 1, delta, 0.3, 2.0, p_convention=convention)
        semidiscrete_dispersion(cfg)
        expected = [cfg.wavevector()]
        if convention == "scaled":
            expected.append(cfg.wavevector() / 2.0)
        assert len(calls) == len(expected)
        for got, want in zip(calls, expected):
            assert got.tobytes() == want.tobytes()


class TestSemidiscrete:
    def test_hand_derived_quad_k1_symbol(self):
        """Frozen regression anchor: the 2x2 reduced pencil of the k = 1 square
        was derived by hand (consistency + dofi-dofj stabilization)."""
        cfg = DispersionConfig("quad", 1, 0.2, np.pi / 4, 2.0, p_convention="shared")
        res = semidiscrete_dispersion(cfg)
        assert abs(res.e_s - (-0.050489667894936585)) < 1e-12
        assert abs(res.e_p - (-0.11872138000573051)) < 1e-12

    def test_quad_k1_shear_error_independent_of_speed_ratio(self):
        """The stiffness stabilization scales with mu alone, so lambda does not
        move the shear error (r = 2, 5 and 10 agree to 3e-14); a coefficient of
        max(2 mu, lambda) read e_S = -5.0e-2, +0.63 and +1.98 here."""
        e_s = [semidiscrete_dispersion(DispersionConfig("quad", 1, 0.2, np.pi / 4, r)).e_s
               for r in (2.0, 5.0, 10.0)]
        assert np.abs(np.array(e_s[1:]) / e_s[0] - 1.0).max() <= 1e-10

    def test_tria_k1_matches_reference_values(self):
        """The k = 1 triangle grid is stabilization-free (VEM = P1 FEM), and the
        tabulated reference dispersion errors are reproduced exactly under the
        default per-wave convention, for all three speed ratios."""
        for r, t_p, t_s in [(2.0, 8.2437e-03, 3.3135e-02),
                            (5.0, 1.3165e-03, 3.3135e-02),
                            (10.0, 3.2902e-04, 3.3135e-02)]:
            cfg = DispersionConfig("tria", 1, 0.2, np.pi / 4, r)
            res = semidiscrete_dispersion(cfg)
            assert abs(abs(res.e_p) - t_p) < 0.0001 * t_p
            assert abs(abs(res.e_s) - t_s) < 0.0001 * t_s

    def test_convergence_order_small_delta(self):
        errs = []
        for delta in (0.025, 0.0125):
            cfg = DispersionConfig("quad", 2, delta, np.pi / 4, 2.0)
            errs.append(abs(semidiscrete_dispersion(cfg).e_s))
        order = np.log2(errs[0] / errs[1])
        assert order > 2.0 * 2 - 1.3  # brackets the expected even-degree order

    def test_square_symmetries(self):
        theta = 0.35
        ratios = {}
        for t in (theta, theta + np.pi, np.pi / 2 - theta):
            cfg = DispersionConfig("quad", 2, 0.1, t, 2.0)
            res = semidiscrete_dispersion(cfg)
            ratios[t] = (res.c_s_h, res.c_p_h)
        a, b, c = (ratios[t] for t in (theta, theta + np.pi, np.pi / 2 - theta))
        assert abs(a[0] - b[0]) < 1e-10 and abs(a[1] - b[1]) < 1e-10
        assert abs(a[0] - c[0]) < 1e-10 and abs(a[1] - c[1]) < 1e-10

    def test_ratios_approach_one(self):
        cfg = DispersionConfig("quad", 4, 0.05, np.pi / 4, 2.0)
        res = semidiscrete_dispersion(cfg)
        assert abs(res.c_s_h / cfg.material.c_s - 1.0) <= 1e-6
        assert abs(res.c_p_h / cfg.material.c_p - 1.0) <= 1e-6

    def test_strict_refuses_a_tied_shear_pick(self, monkeypatch):
        """Two eigenvalues at omega_S^2 tie the shear pick: ``strict=True``
        refuses it, the default reports it as ambiguous."""
        cfg = DispersionConfig("quad", 1, 0.2, np.pi / 4, 2.0, p_convention="shared")
        mat, kn = cfg.material, cfg.wavenumber()
        tied = np.array([(kn * mat.c_s) ** 2, (kn * mat.c_s) ** 2, (kn * mat.c_p) ** 2])
        monkeypatch.setattr(dispersion, "_pencil_eigvals", lambda red: tied.copy())
        with pytest.raises(ModeIdentificationError):
            semidiscrete_dispersion(cfg, strict=True)
        assert semidiscrete_dispersion(cfg).ambiguous

    @pytest.mark.xfail(strict=True, reason="no accuracy floor: reads e_P = e_S = -1.0 "
                                           "with ambiguous False")
    def test_strict_refuses_round_off_sized_modes(self):
        """At delta = 1e-9 the physical eigenvalues lie below the eigensolver's
        absolute error, so a strict analysis must refuse the row."""
        cfg = DispersionConfig("quad", 1, 1e-9, np.pi / 4, 2.0)
        with pytest.raises(ModeIdentificationError):
            semidiscrete_dispersion(cfg, strict=True)


class TestFullyDiscrete:
    def test_limit_to_semidiscrete(self):
        cfg_semi = DispersionConfig("quad", 4, 0.2, np.pi / 4, 2.0)
        semi = semidiscrete_dispersion(cfg_semi)
        cfg = DispersionConfig("quad", 4, 0.2, np.pi / 4, 2.0, q_rel=0.01)
        full = fullydiscrete_dispersion(cfg)
        assert abs(full.e_s - semi.e_s) <= 1e-3 * max(abs(semi.e_s), 1e-12)

    def test_scalar_arcsin_identity(self):
        # Lambda = omega^2 exactly inverts through the sin^2 map
        omega, dt = 1.3, 0.2
        lam = (4.0 / dt ** 2) * np.sin(omega * dt / 2.0) ** 2
        back = 2.0 / dt * np.arcsin(dt * np.sqrt(lam) / 2.0)
        assert abs(back - omega) < 1e-14

    def test_qrel_one_is_stable(self):
        for grid in ("quad", "tria", "c2"):
            cfg = DispersionConfig(grid, 2, 0.2, np.pi / 4, 2.0, q_rel=1.0)
            res = fullydiscrete_dispersion(cfg)  # must not raise
            assert np.isfinite(res.e_s)

    def test_unstable_dt_raises(self):
        # the sin^2 map is inverted only for the physical modes, so pick a step
        # beyond even their stability limit: dt > 2 / omega_S
        cfg = DispersionConfig("quad", 2, 0.2, np.pi / 4, 2.0)
        omega_s = cfg.wavenumber() * cfg.material.c_s
        with pytest.raises(UnstableTimestepError):
            fullydiscrete_dispersion(cfg, dt=2.5 / omega_s)


class TestCflParameter:
    def test_h_scaling(self):
        """Doubling the cell size doubles the admissible step: eigenvalues of the
        reduced pencil scale as 1/h^2, so q_CFL is h invariant."""
        mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
        qs = []
        for h in (1.0, 2.0):
            mesh = reference_periodic_cell("quad", h)
            system = assemble_global(mesh, 2, mat, eliminate_dirichlet=False)
            lam_max = 0.0
            for theta in np.linspace(0, 2 * np.pi, 16, endpoint=False):
                kvec = (2 * np.pi * 2 * 0.2 / h) * np.array([np.cos(theta), np.sin(theta)])
                red = bloch_reduce(system, kvec)
                lam = la.eigh(red.stiffness, red.mass, eigvals_only=True)
                lam_max = max(lam_max, lam[-1])
            qs.append(2.0 * mat.c_p / (h * np.sqrt(lam_max)))
        assert abs(qs[0] - qs[1]) < 0.01 * qs[0]

    @pytest.mark.parametrize("grid, degree", [("quad", 3), ("c3", 2)])
    def test_lambda_max_only_matches_full_spectrum(self, grid, degree):
        mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
        system = reference_system(grid, degree, mat)
        lam_max = 0.0
        for theta in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            kvec = 2.0 * np.pi * degree * 0.2 * np.array([np.cos(theta), np.sin(theta)])
            red = bloch_reduce(system, kvec)
            lam = la.eigh(red.stiffness, red.mass, eigvals_only=True)
            lam_max = max(lam_max, lam[-1])
        expected = 2.0 * mat.c_p / np.sqrt(lam_max)
        q = cfl_parameter(grid, degree, 0.2, 2.0, n_angles=16)
        assert abs(q - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("grid, degree", [("tria", 2), ("c4", 2)])
    def test_odd_angle_count_sweeps_full_circle(self, grid, degree):
        # theta + pi is not in an odd set of angles: every angle is solved
        # (on tria at k = 2 the first eight of 15 angles miss lambda_max by 0.9 %)
        mat = Material.from_wave_speeds(1.0, np.sqrt(2.0), 2.0)
        system = reference_system(grid, degree, mat)
        lam_max = 0.0
        for theta in np.linspace(0.0, 2.0 * np.pi, 15, endpoint=False):
            kvec = 2.0 * np.pi * degree * 0.2 * np.array([np.cos(theta), np.sin(theta)])
            red = bloch_reduce(system, kvec)
            lam_max = max(lam_max, la.eigh(red.stiffness, red.mass, eigvals_only=True)[-1])
        expected = 2.0 * mat.c_p / np.sqrt(lam_max)
        q = cfl_parameter(grid, degree, 0.2, 2.0, n_angles=15)
        assert abs(q - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("kwargs, word", [
        (dict(delta=0.0), "delta"), (dict(delta=-0.2), "delta"),
        (dict(speed_ratio=1.0), "speed ratio"), (dict(grid="nope"), "grid"),
        (dict(degree=0), "degree"), (dict(n_angles=0), "n_angles")])
    def test_validation(self, kwargs, word):
        args = dict(grid="quad", degree=1, delta=0.2, speed_ratio=2.0)
        with pytest.raises(ValueError, match=word):
            cfl_parameter(**{**args, **kwargs})

    def test_monotone_decay_in_k(self):
        values = [cfl_parameter("quad", k, 0.2, 2.0, n_angles=16) for k in range(1, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_angle_resolution(self):
        a = cfl_parameter("quad", 2, 0.2, 2.0, n_angles=64)
        b = cfl_parameter("quad", 2, 0.2, 2.0, n_angles=128)
        assert abs(a - b) < 1e-3 * a


class TestDissipation:
    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    def test_non_dissipative(self, grid):
        cfg = DispersionConfig(grid, 2, 0.2, np.pi / 4, 2.0)
        assert dissipation_check(cfg) <= 1e-10

    @pytest.mark.parametrize("grid", PERIODIC_GRIDS)
    def test_general_solver_on_fresh_pencil(self, grid):
        """The check is the general (QZ) solve of the reduced pencil, whose
        round-off criterion 5 reports: the direct ggev call is bitwise equal
        to SciPy's eig on the criterion-5 set, k = 1-4."""
        for degree in (1, 2, 3, 4):
            cfg = DispersionConfig(grid, degree, 0.2, np.pi / 4, 2.0)
            system = reference_system(grid, degree, cfg.material)
            red = bloch_reduce(system, cfg.wavevector())
            omegas = np.sqrt(la.eig(red.stiffness, red.mass, right=False).astype(complex))
            mags = np.abs(omegas)
            mags[mags == 0.0] = 1.0
            expected = float(np.max(np.abs(omegas.imag) / mags))
            got = dissipation_check(cfg)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), degree


class TestSweepsAndCsv:
    def test_anisotropy_rows(self):
        rows = anisotropy_sweep("quad", 1, 0.2, 2.0, n_angles=8)
        assert len(rows) == 8
        for row in rows:
            assert np.isfinite(row["ratio_s"]) and np.isfinite(row["ratio_p"])

    def test_anisotropy_angle_validation(self):
        with pytest.raises(ValueError):
            anisotropy_sweep("quad", 1, 0.2, 2.0, n_angles=4)

    def test_csv_schemas(self, tmp_path):
        """The two CSVs of this module's results, as the CLI writes them."""
        main(["dispersion", "--grid", "quad", "--k", "1", "--delta", "0.2",
              "--out", str(tmp_path)])
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "grid,k,delta,theta,r,q_rel,e_P,e_S,im_omega_max"
        assert len(lines) == 2
        res = semidiscrete_dispersion(DispersionConfig("quad", 1, 0.2, np.pi / 4, 2.0))
        assert lines[1].split(",")[6:] == [f"{res.e_p:.12e}", f"{res.e_s:.12e}",
                                           f"{res.im_omega_max:.12e}"]
        main(["cfl", "--grids", "quad", "--kmin", "1", "--kmax", "1",
              "--out", str(tmp_path)])
        assert (tmp_path / "cfl.csv").read_text().splitlines() == [
            "grid,k,q_cfl", f"quad,1,{cfl_parameter('quad', 1, 0.2, 2.0):.12e}"]

    def test_mode_identification_tie_flagged(self):
        from vemwave.dispersion import _identify_modes
        eigenvalues = np.array([1.0, 1.0, 4.0])
        idx, ambiguous = _identify_modes(eigenvalues, 1.0)
        assert idx == 0 and ambiguous
        idx, ambiguous = _identify_modes(eigenvalues, 2.0)
        assert idx == 2 and not ambiguous

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DispersionConfig("quad", 1, -0.1, 0.0, 2.0)
        with pytest.raises(ValueError):
            DispersionConfig("quad", 1, 0.2, 0.0, 1.0)
        with pytest.raises(ValueError):
            DispersionConfig("nope", 1, 0.2, 0.0, 2.0)
        with pytest.raises(ValueError):
            DispersionConfig("quad", 1, 0.2, 7.0, 2.0)
