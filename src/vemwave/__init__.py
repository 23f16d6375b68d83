"""Arbitrary-order conforming virtual element method for 2D linear elastodynamics
on polygonal meshes, with leap-frog time stepping and plane-wave dispersion tools."""

from .assembly import Material, assemble_global, assemble_load, interpolate
from .mesh import (
    ParameterError,
    PolygonalMesh,
    generate_family,
    read_mesh,
    reference_periodic_cell,
    validate_regularity,
    write_mesh,
)
from .projectors import DofMap, ElementOperators

__version__ = "0.1.0"

__all__ = [
    "Material",
    "ParameterError",
    "PolygonalMesh",
    "DofMap",
    "ElementOperators",
    "assemble_global",
    "assemble_load",
    "interpolate",
    "generate_family",
    "read_mesh",
    "write_mesh",
    "reference_periodic_cell",
    "validate_regularity",
    "__version__",
]
