"""The benchmark tracer's contract with vemwave.

``perfbench/spans.py`` traces vemwave by rebinding the functions it lists in
``TRACED``, and its element counter reads one entry per cell, each with a float
``projector_condition``, from ``build_element_operators``; its pencil counter
counts ``dispersion.bloch_reduce`` calls made through the module namespace.  A
refactor that renames or moves one of those functions, changes that return
value or calls them by a local name, would silently break
``perfbench/run.py --trace 1``; these tests catch it.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

import vemwave.assembly as assembly
import vemwave.dispersion as dispersion
from vemwave.mesh import generate_family
from vemwave.projectors import build_element_operators

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(spans):
    for mod_name, funcs in spans.TRACED.items():
        module = importlib.import_module(f"vemwave.{mod_name}")
        for fname in funcs:
            assert callable(getattr(module, fname, None)), f"vemwave.{mod_name}.{fname}"


@pytest.mark.parametrize("family", ["random_quad", "hexagonal", "nonconvex_octagon"])
def test_element_operators_one_per_cell(family):
    mesh = generate_family(family, 0)
    ops = build_element_operators(mesh, 2)
    assert len(ops) == mesh.n_cells
    assert all(isinstance(op.projector_condition, float) for op in ops)


def test_tracer_sees_element_build_in_assembly(spans):
    mesh = generate_family("hexagonal", 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # through the module, as the benchmark calls it: the tracer rebinds
        # names in vemwave's namespaces only
        assembly.assemble_global(mesh, 2, assembly.Material(1.0, 1.0, 1.0))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert "assembly.assemble_global" in names
    assert "projectors.build_element_operators" in names
    assert tracer.counts["projectors.elements"] == mesh.n_cells
    assert tracer.extrema["projectors.max_condition"] > 1.0


def test_tracer_counts_cfl_pencils(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        # bloch_reduce is called through the module namespace, so each pencil
        # is a span; 16 angles are half-circle symmetric, so 8 are solved
        dispersion.cfl_parameter("quad", 2, 0.2, 2.0, n_angles=16)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("dispersion.bloch_reduce") == 8
    assert tracer.counts["dispersion.pencils"] == 8
