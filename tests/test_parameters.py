"""Every library check of a value that the caller passes in raises
ParameterError: a ValueError whose ``name`` is the parameter's name."""
import numpy as np
import pytest

import vemwave
from vemwave.assembly import Material, assemble_global
from vemwave.dispersion import (
    DispersionConfig,
    anisotropy_sweep,
    cfl_parameter,
    fullydiscrete_dispersion,
)
from vemwave.harness import run_convergence, run_p_refinement
from vemwave.mesh import (
    ParameterError,
    generate_family,
    reference_periodic_cell,
    validate_regularity,
)
from vemwave.projectors import DofMap, ElementGroup, ElementOperators, build_element_groups
from vemwave.timestep import cfl_timestep, check_cfl, make_solver, simulate, step_count


def _mesh():
    return generate_family("random_quad", 0)


def _hexagonal():
    """Hexagonal level 0: 23 cells, cell 0 with four vertices and cell 2 with six."""
    return generate_family("hexagonal", 0)


def _system():
    return assemble_global(_mesh(), 1, Material(1.0, 1.0, 1.0))


def _simulate(dt=5e-4, n_steps=3):
    system = _system()
    zero = np.zeros(system.n_free)
    return simulate(system, zero, zero, dt, n_steps)


def _config(**kwargs):
    return DispersionConfig(**{**dict(grid="quad", degree=1, delta=0.2, theta=0.0,
                                      speed_ratio=2.0), **kwargs})


CASES = [
    pytest.param("rho", lambda: Material(0.0, 1.0, 1.0), id="Material-rho"),
    pytest.param("lam", lambda: Material(1.0, -1.0, 1.0), id="Material-lam"),
    pytest.param("mu", lambda: Material(1.0, 1.0, np.nan), id="Material-mu"),
    pytest.param("speed_ratio", lambda: Material.from_wave_speeds(1.0, 1.0, 1.2),
                 id="from_wave_speeds"),
    *(pytest.param("speed_ratio", lambda r=r: Material.from_wave_speeds(1.0, 1.0, r),
                   id=f"from_wave_speeds-r-{r:g}")
      for r in (np.nan, np.inf)),
    *(pytest.param("c_p", lambda c_p=c_p: Material.from_wave_speeds(1.0, c_p, 2.0),
                   id=f"from_wave_speeds-c_p-{c_p:g}")
      for c_p in (-1.0, 0.0, np.nan, np.inf)),
    pytest.param("degree", lambda: DofMap(_mesh(), 0), id="DofMap"),
    pytest.param("basis_kind", lambda: ElementGroup(_mesh(), _mesh().cell_group([0]), 1,
                                                    basis_kind="legendre"),
                 id="ElementGroup"),
    pytest.param("degree", lambda: DofMap(_mesh(), 1.5), id="DofMap-1.5"),
    pytest.param("degree", lambda: ElementOperators(_hexagonal(), 0, 0),
                 id="degree-0-element"),
    pytest.param("degree", lambda: build_element_groups(_hexagonal(), 0),
                 id="degree-0-groups"),
    pytest.param("cell_index", lambda: _hexagonal().cell_group([-1]), id="cell_index--1"),
    pytest.param("cell_index", lambda: _hexagonal().cell_group([0, 2]),
                 id="cell_index-mixed"),
    pytest.param("cell_index", lambda: _hexagonal().cell_group([0.7]), id="cell_index-0.7"),
    pytest.param("cell_index", lambda: _hexagonal().cell_group([]), id="cell_index-empty"),
    pytest.param("cell_index", lambda: DofMap(_hexagonal(), 1).cell_scalar_dofs(-1),
                 id="cell_scalar_dofs--1"),
    pytest.param("cell_index", lambda: ElementOperators(_hexagonal(), -1, 1),
                 id="ElementOperators-cell--1"),
    pytest.param("cell_index", lambda: ElementOperators(_hexagonal(), 23, 1),
                 id="ElementOperators-cell-n_cells"),
    pytest.param("family", lambda: generate_family("icosahedra", 0), id="family"),
    pytest.param("level", lambda: generate_family("hexagonal", -1), id="level"),
    pytest.param("level", lambda: generate_family("hexagonal", 1.5), id="level-1.5"),
    pytest.param("seed", lambda: generate_family("hexagonal", 0, seed=-1), id="seed"),
    pytest.param("seed", lambda: generate_family("hexagonal", 0, seed=0.5), id="seed-0.5"),
    pytest.param("level", lambda: generate_family("hexagonal", True), id="level-True"),
    pytest.param("seed", lambda: generate_family("hexagonal", 0, seed=True), id="seed-True"),
    pytest.param("degree", lambda: DofMap(_mesh(), True), id="DofMap-True"),
    pytest.param("grid", lambda: reference_periodic_cell("hexa"), id="periodic-grid"),
    pytest.param("h", lambda: reference_periodic_cell("quad", 0.0), id="periodic-h"),
    *(pytest.param("h", lambda h=h: reference_periodic_cell("quad", h),
                   id=f"periodic-h-{h:g}")
      for h in (np.nan, np.inf)),
    pytest.param("rho_star", lambda: validate_regularity(_mesh(), 1.5), id="rho_star"),
    pytest.param("dt", lambda: step_count(0.1, np.inf), id="step_count-dt"),
    pytest.param("final_time", lambda: step_count(-1.0, 1e-3), id="step_count-T"),
    pytest.param("final_time", lambda: step_count(0.0105, 1e-3), id="step_count-multiple"),
    pytest.param("safety", lambda: cfl_timestep(_system(), safety=2.0), id="safety"),
    *(pytest.param("dt", lambda dt=dt: check_cfl(_system(), dt, make_solver(_system())),
                   id=f"check_cfl-dt-{dt:g}")
      for dt in (np.nan, 0.0, -1.0)),
    *(pytest.param("dt", lambda dt=dt: _simulate(dt=dt), id=f"simulate-dt-{dt:g}")
      for dt in (0.0, -5e-4, np.nan)),
    *(pytest.param("n_steps", lambda n=n: _simulate(n_steps=n), id=f"simulate-n_steps-{n}")
      for n in (-3, 2.5, True)),
    pytest.param("grid", lambda: _config(grid="hexa"), id="config-grid"),
    pytest.param("degree", lambda: _config(degree=0), id="config-degree"),
    pytest.param("degree", lambda: _config(degree=1.5), id="config-degree-1.5"),
    pytest.param("delta", lambda: _config(delta=-1.0), id="config-delta"),
    pytest.param("delta", lambda: _config(delta=np.inf), id="config-delta-inf"),
    pytest.param("speed_ratio", lambda: _config(speed_ratio=1.0), id="config-r"),
    pytest.param("speed_ratio", lambda: _config(speed_ratio=np.inf), id="config-r-inf"),
    pytest.param("speed_ratio", lambda: _config(speed_ratio=np.nan), id="config-r-nan"),
    pytest.param("theta", lambda: _config(theta=7.0), id="config-theta"),
    pytest.param("q_rel", lambda: _config(q_rel=0.0), id="config-q_rel"),
    pytest.param("p_convention", lambda: _config(p_convention="own"),
                 id="config-p_convention"),
    *(pytest.param("dt", lambda dt=dt: fullydiscrete_dispersion(_config(), dt=dt),
                   id=f"fullydiscrete_dispersion-dt-{dt:g}")
      for dt in (0.0, -1e-3, np.nan, np.inf)),
    pytest.param("n_angles", lambda: cfl_parameter("quad", 1, 0.2, 2.0, n_angles=0),
                 id="cfl_parameter"),
    pytest.param("n_angles", lambda: cfl_parameter("quad", 1, 0.2, 2.0, n_angles=2.5),
                 id="cfl_parameter-2.5"),
    pytest.param("n_angles", lambda: cfl_parameter("quad", 1, 0.2, 2.0, n_angles=True),
                 id="cfl_parameter-True"),
    pytest.param("n_angles", lambda: anisotropy_sweep("quad", 1, 0.2, 2.0, n_angles=4),
                 id="anisotropy_sweep"),
    pytest.param("n_angles", lambda: anisotropy_sweep("quad", 1, 0.2, 2.0, n_angles=9.5),
                 id="anisotropy_sweep-9.5"),
    pytest.param("family", lambda: run_convergence("hexa", [1], [0], 1e-3, 0.01),
                 id="run_convergence-family"),
    pytest.param("degree", lambda: run_convergence("hexagonal", [], [0], 1e-3, 0.01),
                 id="run_convergence-no-degree"),
    pytest.param("degree", lambda: run_convergence("hexagonal", [1, 0], [0], 1e-3, 0.01),
                 id="run_convergence-degree"),
    pytest.param("level", lambda: run_convergence("hexagonal", [1], [], 1e-3, 0.01),
                 id="run_convergence-no-level"),
    pytest.param("level", lambda: run_convergence("hexagonal", [1], [0, -1], 1e-3, 0.01),
                 id="run_convergence-level"),
    pytest.param("degree", lambda: run_p_refinement([], 1e-3, 0.01),
                 id="run_p_refinement-no-degree"),
    pytest.param("degree", lambda: run_p_refinement([0], 1e-3, 0.01),
                 id="run_p_refinement-degree"),
    pytest.param("basis_kind", lambda: run_p_refinement([1], 1e-3, 0.01, basis_kinds=()),
                 id="run_p_refinement-no-basis_kind"),
    pytest.param("basis_kind",
                 lambda: run_p_refinement([1], 1e-3, 0.01, basis_kinds=("monomial", "foo")),
                 id="run_p_refinement-basis_kind"),
    pytest.param("degree", lambda: run_convergence("hexagonal", "12", [0], 1e-3, 0.01),
                 id="run_convergence-degrees-str"),
    pytest.param("level", lambda: run_convergence("hexagonal", [1], "01", 1e-3, 0.01),
                 id="run_convergence-levels-str"),
    pytest.param("degree", lambda: run_convergence("hexagonal", b"12", [0], 1e-3, 0.01),
                 id="run_convergence-degrees-bytes"),
    pytest.param("degree", lambda: run_p_refinement("12", 1e-3, 0.01),
                 id="run_p_refinement-degrees-str"),
    pytest.param("basis_kind",
                 lambda: run_p_refinement([1], 1e-3, 0.01, basis_kinds="monomial"),
                 id="run_p_refinement-basis_kinds-str"),
]


@pytest.mark.parametrize("name, call", CASES)
def test_check_raises_named_parameter_error(name, call):
    with pytest.raises(ParameterError) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert info.value.name == name


def test_sweeps_check_every_entry_before_any_mesh(monkeypatch):
    from vemwave import harness

    def no_mesh(*args):
        raise AssertionError("a mesh was built before the sweep was checked")

    monkeypatch.setattr(harness, "generate_family", no_mesh)
    with pytest.raises(ParameterError, match="degree must be >= 1"):
        run_convergence("random_quad", [1, 2, 0], range(2), 1e-3, 0.01)
    with pytest.raises(ParameterError, match="level must be >= 0"):
        run_convergence("random_quad", [1], [0, -1], 1e-3, 0.01)
    with pytest.raises(ParameterError, match="degree must be >= 1"):
        run_p_refinement([1, 0], 1e-3, 0.01)
    with pytest.raises(ParameterError, match="basis_kind must be"):
        run_p_refinement([1], 1e-3, 0.01, basis_kinds=("foo",))
    with pytest.raises(ParameterError, match="basis_kinds .* not the string 'monomial'"):
        run_p_refinement([1], 1e-3, 0.01, basis_kinds="monomial")


def test_numpy_integers_pass_the_integer_checks():
    mesh = generate_family("hexagonal", np.int64(0), seed=np.int64(0))
    assert DofMap(mesh, np.int64(2)).n_scalar == DofMap(mesh, 2).n_scalar
    assert len(mesh.cell_group(np.array([0, 1])).index) == 2


def test_exported_from_the_package():
    assert vemwave.ParameterError is ParameterError
