"""Command-line entry point: convergence/prefine/dispersion/cfl/anisotropy/solve."""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import dispersion as disp
from . import harness, timestep
from .assembly import Material, assemble_global
from .mesh import FAMILIES, PERIODIC_GRIDS, MeshError, ParameterError, read_mesh
from .projectors import check_degree

# the dests of the flags named otherwise than the library parameter they set
_FLAG_DESTS = {"final_time": "T", "degree": "k", "speed_ratio": "r", "n_angles": "angles"}


def _flag(parsers, name):
    """The option string that sets the parameter ``name`` (or its plural), or None."""
    flags = {a.dest: a.option_strings[0]
             for p in parsers for a in p._actions if a.option_strings}
    return flags.get(_FLAG_DESTS.get(name, name)) or flags.get(name + "s")


def _write_csv(path, header, rows):
    """Every CSV the CLI writes: ASCII, the csv module's default dialect."""
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def int_list(text):  # the type of convergence --k
    return [int(v) for v in text.split(",") if v]


def _config_defaults(path, command):
    """The values of a ``key = value`` file, each converted as argparse converts
    the flag of the subparser ``command`` with that dest ('true' or 'false' for a
    store_true flag); a fault in the file is a ParameterError of ``--config``."""
    def error(message):
        return ParameterError("config", message)

    actions = {a.dest: a for a in command._actions if a.option_strings and a.dest != "help"}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise error(str(exc)) from None
    values = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, text = line.partition("=")
        key, text = key.strip().replace("-", "_"), text.strip()
        if not sep:
            raise error(f"config file line {raw!r} is not 'key = value'")
        action = actions.get(key)
        if action is None:
            raise error(f"config key {key!r} names no option of '{command.prog}'")
        if action.nargs == 0:
            if text not in ("true", "false"):
                raise error(f"config key {key!r} must be true or false, got {text!r}")
            values[key] = text == "true"
            continue
        try:
            values[key] = action.type(text) if action.type is not None else text
        except (TypeError, ValueError):
            raise error(f"config key {key!r}: invalid value {text!r}") from None
        if action.choices is not None and values[key] not in action.choices:
            raise error(f"config key {key!r} must be one of {list(action.choices)}, "
                        f"got {text!r}")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vemwave",
        description="Virtual element elastodynamics on polygonal meshes")
    parser.add_argument("--config", help="key = value file; CLI flags take precedence")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("convergence", help="manufactured-solution h-refinement study")
    p.add_argument("--family", default="random_quad",
                   help=f"mesh family, one of {FAMILIES} (or quad/hexa/octa aliases)")
    p.add_argument("--k", type=int_list, default="1,2", help="comma-separated degrees")
    p.add_argument("--levels", type=int, default=3, help="levels 0..levels-1")
    p.add_argument("--dt", type=float, default=5e-4)
    p.add_argument("--T", type=float, default=0.1)
    p.add_argument("--paper-scale", action="store_true",
                   help="use T = 1 and dt = 1e-4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")

    p = sub.add_parser("prefine", help="p-refinement study on the fixed 5x5 mesh")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--basis", default="both", choices=["both", "monomial", "orthonormal"])
    p.add_argument("--dt", type=float, default=5e-4)
    p.add_argument("--T", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")

    p = sub.add_parser("dispersion", help="plane-wave dispersion analysis")
    p.add_argument("--grid", default="quad", help=f"one of {PERIODIC_GRIDS}")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--theta", type=float, default=float(np.pi / 4))
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--q-rel", type=float, default=None,
                   help="run the fully discrete analysis at this Courant fraction")
    p.add_argument("--p-convention", default="scaled", choices=["scaled", "shared"])
    p.add_argument("--out", default=".")

    p = sub.add_parser("cfl", help="CFL parameter q_CFL versus degree")
    p.add_argument("--grids", default="quad,tria")
    p.add_argument("--kmin", type=int, default=1)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--out", default=".")

    p = sub.add_parser("anisotropy", help="velocity ratios versus propagation angle")
    p.add_argument("--grid", default="quad")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--angles", type=int, default=32)
    p.add_argument("--out", default=".")

    p = sub.add_parser("solve", help="integrate the benchmark load on a mesh file")
    p.add_argument("--mesh", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=5e-4)
    p.add_argument("--T", type=float, default=0.1)
    p.add_argument("--snapshot-every", type=int, default=0)
    p.add_argument("--out", default=".")
    return parser, sub.choices


FAMILY_ALIASES = {"quad": "random_quad", "hexa": "hexagonal", "octa": "nonconvex_octagon"}


def _cmd_convergence(args, out):
    dt, final_time = (1e-4, 1.0) if args.paper_scale else (args.dt, args.T)
    study = harness.run_convergence(FAMILY_ALIASES.get(args.family, args.family),
                                    args.k, range(args.levels), dt, final_time,
                                    seed=args.seed)
    _write_csv(out / "convergence.csv",
               ["family", "k", "level", "h", "ndofs", "err_l2", "err_h1", "seconds"],
               ([r.family, r.degree, r.level, f"{r.h:.12e}", r.n_dofs,
                 f"{r.err_l2:.12e}", f"{r.err_h1:.12e}", f"{r.seconds:.3f}"]
                for r in study.records))
    if args.levels >= 2:
        for k in args.k:
            print(f"k={k}: L2 slope {study.slope(k, 'l2'):.3f}, "
                  f"H1 slope {study.slope(k, 'h1'):.3f}")
    return 0


def _cmd_prefine(args, out):
    if not 1 <= args.kmax <= 10:
        raise ParameterError("kmax", f"kmax must be in 1..10 (got {args.kmax})")
    kinds = ("monomial", "orthonormal") if args.basis == "both" else (args.basis,)
    records = harness.run_p_refinement(range(1, args.kmax + 1), args.dt, args.T,
                                       basis_kinds=kinds, seed=args.seed)
    _write_csv(out / "prefine.csv",
               ["basis", "k", "ndofs", "err_l2", "err_h1", "max_condition"],
               ([r.basis_kind, r.degree, r.n_dofs, f"{r.err_l2:.12e}",
                 f"{r.err_h1:.12e}", f"{r.max_condition:.3e}"] for r in records))
    return 0


def _cmd_dispersion(args, out):
    semi = args.q_rel is None
    cfg = disp.DispersionConfig(args.grid, args.k, args.delta, args.theta % (2 * np.pi),
                                args.r, q_rel=1.0 if semi else args.q_rel,
                                p_convention=args.p_convention)
    result = (disp.semidiscrete_dispersion if semi else disp.fullydiscrete_dispersion)(cfg)
    c = result.config
    _write_csv(out / "dispersion.csv",
               ["grid", "k", "delta", "theta", "r", "q_rel", "e_P", "e_S", "im_omega_max"],
               [[c.grid, c.degree, f"{c.delta:.12g}", f"{c.theta:.12g}",
                 f"{c.speed_ratio:.12g}", f"{c.q_rel:.12g}", f"{result.e_p:.12e}",
                 f"{result.e_s:.12e}", f"{result.im_omega_max:.12e}"]])
    print(f"e_P = {result.e_p:+.6e}  e_S = {result.e_s:+.6e}  "
          f"max|Im w|/|w| = {result.im_omega_max:.2e}")
    return 0


def _cmd_cfl(args, out):
    grids = [g for g in args.grids.split(",") if g]
    if not grids:
        raise ParameterError("grids", f"grids must name at least one grid (got {args.grids!r})")
    check_degree(args.kmin, "kmin")
    if args.kmin > args.kmax:
        raise ParameterError("kmin", f"kmin must be <= kmax ({args.kmin} > {args.kmax})")
    for g in grids:  # every grid's parameters, validated before the first pencil
        disp.DispersionConfig(g, args.kmin, args.delta, 0.0, args.r)
    rows = []
    for g in grids:
        for k in range(args.kmin, args.kmax + 1):
            q = disp.cfl_parameter(g, k, args.delta, args.r)
            rows.append([g, k, f"{q:.12e}"])
            print(f"{g} k={k}: q_CFL = {q:.6f}")
    _write_csv(out / "cfl.csv", ["grid", "k", "q_cfl"], rows)
    return 0


def _cmd_anisotropy(args, out):
    rows = disp.anisotropy_sweep(args.grid, args.k, args.delta, args.r, args.angles)
    _write_csv(out / "anisotropy.csv", ["theta", "ratio_s", "ratio_p"],
               ([f"{row['theta']:.12g}", f"{row['ratio_s']:.12e}",
                 f"{row['ratio_p']:.12e}"] for row in rows))
    return 0


def _cmd_solve(args, out):
    every = args.snapshot_every
    if every < 0:
        raise ParameterError("snapshot_every", f"snapshot_every must be >= 0 (got {every})")
    timestep.step_count(args.T, args.dt)
    material = Material(args.rho, args.lam, args.mu)
    check_degree(args.k)
    mesh = read_mesh(args.mesh)
    system = assemble_global(mesh, args.k, material)
    log = []

    def on_step(state):
        if every and state.step_index % every == 0:
            timestep.save_checkpoint(state, out / f"state_{state.step_index:08d}.ckpt")
        if state.step_index % 100 == 0:
            e = timestep.discrete_energy(state, system)
            log.append([state.step_index, f"{e:.12e}"])
            print(f"step {state.step_index}: E = {e:.10e}")

    state = harness.solve_benchmark(system, harness.standing_wave_benchmark(material),
                                    args.dt, args.T, on_step=on_step)
    timestep.save_checkpoint(state, out / "final_state.ckpt")
    if log:
        _write_csv(out / "energy.csv", ["step", "energy"], log)
    return 0


_COMMANDS = {
    "convergence": _cmd_convergence,
    "prefine": _cmd_prefine,
    "dispersion": _cmd_dispersion,
    "cfl": _cmd_cfl,
    "anisotropy": _cmd_anisotropy,
    "solve": _cmd_solve,
}


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args, remaining = parser.parse_known_args(argv)
    if remaining:
        print(f"error: unrecognized arguments: {' '.join(remaining)}", file=sys.stderr)
        return 2
    command = subparsers[args.command]
    try:
        if args.config:
            # the file's values become defaults, so the flags given win when parsed again
            command.set_defaults(**_config_defaults(args.config, command))
            args = parser.parse_known_args(argv)[0]
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, out)
    except ParameterError as exc:
        flag = _flag((command, parser), exc.name)
        print(f"error: {flag}: {exc}" if flag else f"error: {exc}", file=sys.stderr)
        return 2
    except (MeshError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

