"""Span tracing of vemwave's public functions, installed from outside the package.

Each traced function is rebound, in every loaded ``vemwave`` module namespace that
holds it by name, to a wrapper that records a span (name, start, end, parent,
operation id).  Spans are kept in memory; ``layer_metrics`` turns them into
per-layer self times and counts, and ``dump`` writes them out at the end of a run.
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

# (module, function) pairs that are traced; the span name is "module.function".
TRACED = {
    "mesh": ("generate_family", "read_mesh", "write_mesh", "reference_periodic_cell"),
    "polybasis": ("polygon_quadrature", "monomial_grams", "scaled_monomials",
                  "monomial_derivative_map", "monomial_laplacian_map",
                  "orthonormalize"),
    "projectors": ("build_element_operators",),
    "assembly": ("assemble_global", "interpolate", "assemble_load"),
    "timestep": ("make_solver", "cfl_timestep", "initial_step", "step", "simulate",
                 "discrete_energy", "save_checkpoint", "load_checkpoint"),
    "dispersion": ("reference_system", "bloch_reduce", "semidiscrete_dispersion",
                   "fullydiscrete_dispersion", "cfl_parameter", "anisotropy_sweep",
                   "dissipation_check"),
    "harness": ("run_convergence", "solve_benchmark", "error_norms"),
}
MODULES = tuple(TRACED)


class Tracer:
    """Records spans and per-call counts while installed."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index, op id]
        self.counts: dict = {}       # additive counts
        self.extrema: dict = {}      # largest or smallest value seen
        self.op = None               # current operation id, set by the workload
        self._stack: list = []
        self._patches: list = []     # (namespace, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "vemwave" or n.startswith("vemwave."))]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"vemwave.{mod_name}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.op]
            if count is not None:
                count(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- reduction --------------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """A position in the record, to take a window of spans and counts from."""
        return len(self.spans), dict(self.counts)

    def window(self, start: tuple[int, dict], end: tuple[int, dict]) -> "Window":
        """Self times, inclusive times and count increments between two marks.

        A span's self time is its duration minus the time its child spans cover.
        Inclusive time counts nested calls of one name once."""
        lo, hi = start[0], end[0]
        spans = self.spans
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        for i in range(lo, hi):
            name, t0, t1, parent, _ = spans[i]
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0)
            if parent >= lo:
                self_s[spans[parent][0]] -= t1 - t0
            p = parent
            while p >= lo and spans[p][0] != name:
                p = spans[p][3]
            if p < lo:
                incl_s[name] = incl_s.get(name, 0.0) + (t1 - t0)
        counts = {k: v - start[1].get(k, 0) for k, v in end[1].items()}
        return Window(self_s, incl_s, counts)

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, f)


class Window:
    """Traced work between two marks, scaled to a per-pass figure by ``scaled``."""

    def __init__(self, self_s, incl_s, counts):
        self.self_s, self.incl_s, self.counts = self_s, incl_s, counts

    def scaled(self, factor: float) -> "Window":
        return Window({k: v * factor for k, v in self.self_s.items()},
                      {k: v * factor for k, v in self.incl_s.items()},
                      {k: v * factor for k, v in self.counts.items()})

    def __add__(self, other: "Window") -> "Window":
        def merge(a, b):
            return {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}
        return Window(merge(self.self_s, other.self_s), merge(self.incl_s, other.incl_s),
                      merge(self.counts, other.counts))


# -- counts recorded at the span boundaries -------------------------------------


def _add(tracer, key, value=1):
    tracer.counts[key] = tracer.counts.get(key, 0) + value


def _max(tracer, key, value):
    tracer.extrema[key] = max(tracer.extrema.get(key, value), value)


def _min(tracer, key, value):
    tracer.extrema[key] = min(tracer.extrema.get(key, value), value)


def _count_mesh(t, mesh, args, kwargs):
    _add(t, "mesh.cells", mesh.n_cells)


def _count_polybasis(t, result, args, kwargs):
    _add(t, "polybasis.calls")


def _count_elements(t, ops, args, kwargs):
    _add(t, "projectors.elements", len(ops))
    _max(t, "projectors.max_condition",
         max((float(getattr(op, "projector_condition", 0.0)) for op in ops),
             default=0.0))


def _count_system(t, system, args, kwargs):
    mass = system.mass
    _add(t, "assembly.dofs", system.n_free)
    _add(t, "assembly.mass_nnz", int(mass.nnz))
    _add(t, "assembly.mass_explicit_zeros",
         int(mass.nnz - np.count_nonzero(mass.data)))


def _count_step(t, state, args, kwargs):
    _add(t, "timestep.steps")
    _add(t, "timestep.dof_steps", len(state.u_curr))


def _count_cfl(t, est, args, kwargs):
    _min(t, "timestep.cfl_dt_min", est.dt)


def _count_ckpt(t, result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    _add(t, "timestep.ckpt_bytes", os.path.getsize(path))


def _count_pencil(t, result, args, kwargs):
    _add(t, "dispersion.pencils")


def _count_dispersion_row(t, res, args, kwargs):
    _add(t, "dispersion.rows")
    _add(t, "dispersion.ambiguous", int(res.ambiguous))
    _max(t, "dispersion.im_omega_max", float(res.im_omega_max))


def _count_dissipation(t, value, args, kwargs):
    _max(t, "dispersion.im_omega_max", float(value))


def _count_points(t, study, args, kwargs):
    _add(t, "harness.points", len(study.records))


_COUNTERS = {
    "mesh.generate_family": _count_mesh,
    "mesh.read_mesh": _count_mesh,
    "mesh.reference_periodic_cell": _count_mesh,
    "projectors.build_element_operators": _count_elements,
    "assembly.assemble_global": _count_system,
    "timestep.step": _count_step,
    "timestep.cfl_timestep": _count_cfl,
    "timestep.save_checkpoint": _count_ckpt,
    "dispersion.bloch_reduce": _count_pencil,
    "dispersion.semidiscrete_dispersion": _count_dispersion_row,
    "dispersion.fullydiscrete_dispersion": _count_dispersion_row,
    "dispersion.dissipation_check": _count_dissipation,
    "harness.run_convergence": _count_points,
}
for _fname in TRACED["polybasis"]:
    _COUNTERS[f"polybasis.{_fname}"] = _count_polybasis


# -- per-layer metrics ------------------------------------------------------------

# name -> unit, in the order they are reported
LAYER_UNITS = {
    "mesh.self_s": "s", "mesh.generate_s": "s", "mesh.read_s": "s", "mesh.cells": "count",
    "polybasis.self_s": "s", "polybasis.quadrature_s": "s", "polybasis.grams_s": "s",
    "polybasis.calls": "count",
    "projectors.self_s": "s", "projectors.build_s": "s", "projectors.elements": "count",
    "projectors.us_per_element": "us", "projectors.max_condition": "ratio",
    "assembly.self_s": "s", "assembly.global_s": "s", "assembly.interpolate_s": "s",
    "assembly.load_s": "s", "assembly.dofs": "count", "assembly.mass_nnz": "count",
    "assembly.mass_explicit_zeros": "count",
    "timestep.self_s": "s", "timestep.factor_s": "s", "timestep.cfl_s": "s",
    "timestep.step_s": "s", "timestep.steps": "count", "timestep.ns_per_dof_step": "ns",
    "timestep.energy_s": "s", "timestep.ckpt_write_s": "s", "timestep.ckpt_read_s": "s",
    "timestep.ckpt_bytes": "bytes", "timestep.cfl_margin": "ratio",
    "dispersion.self_s": "s", "dispersion.refsys_s": "s", "dispersion.bloch_s": "s",
    "dispersion.pencil_s": "s", "dispersion.pencils": "count",
    "dispersion.ms_per_pencil": "ms", "dispersion.ambiguous_frac": "ratio",
    "dispersion.im_omega_max": "ratio",
    "harness.self_s": "s", "harness.error_norms_s": "s", "harness.solve_s": "s",
    "harness.points": "count",
}

_SELF_TIMES = {
    "mesh.generate_s": ("mesh.generate_family",),
    "mesh.read_s": ("mesh.read_mesh",),
    "polybasis.quadrature_s": ("polybasis.polygon_quadrature",),
    "polybasis.grams_s": ("polybasis.monomial_grams",),
    "projectors.build_s": ("projectors.build_element_operators",),
    "assembly.global_s": ("assembly.assemble_global",),
    "assembly.interpolate_s": ("assembly.interpolate",),
    "assembly.load_s": ("assembly.assemble_load",),
    "timestep.factor_s": ("timestep.make_solver",),
    "timestep.cfl_s": ("timestep.cfl_timestep",),
    "timestep.step_s": ("timestep.step",),
    "timestep.energy_s": ("timestep.discrete_energy",),
    "timestep.ckpt_write_s": ("timestep.save_checkpoint",),
    "timestep.ckpt_read_s": ("timestep.load_checkpoint",),
    "dispersion.bloch_s": ("dispersion.bloch_reduce",),
    "dispersion.pencil_s": ("dispersion.semidiscrete_dispersion",
                            "dispersion.fullydiscrete_dispersion",
                            "dispersion.cfl_parameter", "dispersion.anisotropy_sweep",
                            "dispersion.dissipation_check"),
    "harness.error_norms_s": ("harness.error_norms",),
    "harness.solve_s": ("harness.solve_benchmark",),
}

_COUNTS = ("mesh.cells", "polybasis.calls", "projectors.elements", "assembly.dofs",
           "assembly.mass_nnz", "assembly.mass_explicit_zeros", "timestep.steps",
           "timestep.ckpt_bytes", "dispersion.pencils", "harness.points")


def layer_metrics(win: Window, extrema: dict, dt_used: float | None) -> dict[str, float]:
    """Per-layer metrics from the traced work of one window.

    Every ``*_s`` metric is a self time except ``dispersion.refsys_s``, which is
    inclusive so that the whole per-system set-up shows in one number."""
    self_s, incl_s, counts = win.self_s, win.incl_s, win.counts
    out: dict[str, float] = {}
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.startswith(mod + "."))
    for metric, names in _SELF_TIMES.items():
        out[metric] = sum(self_s.get(n, 0.0) for n in names)
    out["dispersion.refsys_s"] = incl_s.get("dispersion.reference_system", 0.0)
    for c in _COUNTS:
        out[c] = counts.get(c, 0)
    out["projectors.max_condition"] = extrema.get("projectors.max_condition", 0.0)
    out["dispersion.im_omega_max"] = extrema.get("dispersion.im_omega_max", 0.0)
    out["projectors.us_per_element"] = _ratio(out["projectors.build_s"] * 1e6,
                                              out["projectors.elements"])
    out["timestep.ns_per_dof_step"] = _ratio(out["timestep.step_s"] * 1e9,
                                             counts.get("timestep.dof_steps", 0))
    out["dispersion.ms_per_pencil"] = _ratio(
        (out["dispersion.bloch_s"] + out["dispersion.pencil_s"]) * 1e3,
        out["dispersion.pencils"])
    out["dispersion.ambiguous_frac"] = _ratio(counts.get("dispersion.ambiguous", 0),
                                              counts.get("dispersion.rows", 0))
    cfl_dt = extrema.get("timestep.cfl_dt_min", 0.0)
    out["timestep.cfl_margin"] = cfl_dt / dt_used if dt_used and cfl_dt else 0.0
    return {k: out[k] for k in LAYER_UNITS}


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0
