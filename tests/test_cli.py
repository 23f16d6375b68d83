import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

import vemwave
from vemwave import cli, dispersion, harness, mesh as mesh_module
from vemwave.assembly import Material, assemble_global
from vemwave.cli import main
from vemwave.dispersion import anisotropy_sweep
from vemwave.mesh import generate_family, write_mesh
from vemwave.timestep import discrete_energy, save_checkpoint


# each invalid parameter of a command, with the flag its error names
_REFUSED = [
    (["convergence", "--dt", "nan"], "--dt"),
    (["convergence", "--dt", "inf"], "--dt"),
    (["convergence", "--dt", "1e-3", "--T", "0.0105"], "--T"),
    (["convergence", "--k", "0"], "--k"),
    (["convergence", "--k", "1,0"], "--k"),
    (["convergence", "--levels", "0"], "--levels"),
    (["convergence", "--family", "icosahedra"], "--family"),
    (["convergence", "--seed", "-1"], "--seed"),
    (["convergence", "--seed", "-1", "--family", "hexa"], "--seed"),
    (["prefine", "--dt", "inf"], "--dt"),
    (["prefine", "--T", "-1"], "--T"),
    (["dispersion", "--r", "inf"], "--r"),
    (["dispersion", "--delta", "inf"], "--delta"),
    (["dispersion", "--delta", "-1"], "--delta"),
    (["dispersion", "--grid", "hexa"], "--grid"),
    (["cfl", "--r", "inf"], "--r"),
    (["cfl", "--grids", "quad,hexa"], "--grids"),
    (["cfl", "--grids", ""], "--grids"),
    (["cfl", "--grids", ","], "--grids"),
    (["cfl", "--kmin", "0"], "--kmin"),
    (["anisotropy", "--angles", "4"], "--angles"),
    (["solve", "--dt", "0"], "--dt"),
    (["solve", "--T", "0.01025"], "--T"),
    (["solve", "--rho", "nan"], "--rho"),
    (["solve", "--k", "0"], "--k"),
    (["solve", "--snapshot-every", "-1"], "--snapshot-every"),
]


@pytest.fixture
def no_work(monkeypatch):
    """Any mesh generated or read, or pencil reduced, fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the parameters were checked")

    monkeypatch.setattr(mesh_module, "PolygonalMesh", refuse)
    monkeypatch.setattr(dispersion, "bloch_reduce", refuse)
    monkeypatch.setattr(cli, "read_mesh", refuse)


@pytest.mark.parametrize("argv, flag", _REFUSED, ids=[" ".join(a) for a, _ in _REFUSED])
def test_invalid_parameter_exit_2_before_any_work(tmp_path, capsys, no_work, argv, flag):
    path = tmp_path / "mesh.txt"
    path.write_text("not a mesh\n")
    out = tmp_path / "out"
    mesh_args = ["--mesh", str(path)] if argv[0] == "solve" else []
    code = main(argv + mesh_args + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {flag}: ")
    assert captured.out == ""
    assert not list(out.glob("*"))


class TestModuleEntryPoint:
    """`python -m vemwave` exits with the code that main() returns."""

    def run(self, cwd, *argv):
        src = str(Path(vemwave.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "vemwave", *argv], cwd=cwd,
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)

    def test_invalid_parameter_exit_2(self, tmp_path):
        proc = self.run(tmp_path, "convergence", "--dt", "nan")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: --dt: ")
        assert not list(tmp_path.iterdir())

    def test_help_exit_0(self, tmp_path):
        proc = self.run(tmp_path, "--help")
        assert proc.returncode == 0
        assert "convergence" in proc.stdout


class TestDispersionCommand:
    def test_happy_path(self, tmp_path, capsys):
        code = main(["dispersion", "--grid", "quad", "--k", "4", "--delta", "0.2",
                     "--theta", "0.7853981634", "--r", "2", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        assert lines[0].startswith("grid,k,delta")
        assert len(lines) == 2

    def test_negative_delta_exit_2(self, tmp_path, capsys):
        code = main(["dispersion", "--grid", "quad", "--k", "1", "--delta", "-1",
                     "--r", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, word", [("--grid", "hexa", "grid"),
                                                   ("--r", "1.2", "sqrt(2)"),
                                                   ("--q-rel", "0", "q_rel")])
    def test_invalid_parameter_exit_2(self, tmp_path, capsys, flag, value, word):
        code = main(["dispersion", "--k", "1", flag, value, "--out", str(tmp_path)])
        assert code == 2
        assert word in capsys.readouterr().err
        assert not (tmp_path / "dispersion.csv").exists()

    def test_unknown_flag_exit_2(self, tmp_path):
        code = main(["dispersion", "--grid", "quad", "--nope", "1",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = ["dispersion", "--grid", "tria", "--k", "2", "--delta", "0.2",
                "--theta", "0.5", "--r", "2"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a/dispersion.csv").read_bytes() == \
            (tmp_path / "b/dispersion.csv").read_bytes()


class TestConvergenceCommand:
    def test_small_run(self, tmp_path):
        code = main(["convergence", "--family", "quad", "--k", "1", "--levels", "1",
                     "--dt", "1e-3", "--T", "0.01", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "convergence.csv").exists()

    def test_bad_family(self, tmp_path):
        code = main(["convergence", "--family", "icosahedra", "--out", str(tmp_path)])
        assert code == 2

    def test_deterministic_csv(self, tmp_path):
        args = ["convergence", "--family", "quad", "--k", "1", "--levels", "1",
                "--dt", "1e-3", "--T", "0.01", "--seed", "3"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a/convergence.csv").read_text().splitlines()
        b = (tmp_path / "b/convergence.csv").read_text().splitlines()
        # timing column varies; everything else is byte-identical
        strip = lambda lines: [",".join(l.split(",")[:-1]) for l in lines]
        assert strip(a) == strip(b)


class TestPrefineCommand:
    def test_csv(self, tmp_path):
        code = main(["prefine", "--kmax", "2", "--basis", "orthonormal", "--dt", "1e-3",
                     "--T", "0.01", "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "prefine.csv").read_text().splitlines()
        assert lines[0] == "basis,k,ndofs,err_l2,err_h1,max_condition"
        assert len(lines) == 3
        r = harness.run_p_refinement([2], 1e-3, 0.01, basis_kinds=("orthonormal",),
                                     seed=2)[0]
        assert lines[2] == (f"orthonormal,2,{r.n_dofs},{r.err_l2:.12e},"
                            f"{r.err_h1:.12e},{r.max_condition:.3e}")


class TestCflCommand:
    def test_runs(self, tmp_path):
        code = main(["cfl", "--grids", "quad", "--kmin", "1", "--kmax", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "cfl.csv").read_text().splitlines()
        assert lines[0] == "grid,k,q_cfl"
        assert len(lines) == 3


    # validated by DispersionConfig, as for `vemwave dispersion`
    @pytest.mark.parametrize("flag, value, word", [("--delta", "0", "delta"),
                                                   ("--delta", "-0.2", "delta"),
                                                   ("--r", "1.0", "speed ratio")])
    def test_bad_parameter_exit_2(self, tmp_path, capsys, flag, value, word):
        code = main(["cfl", "--grids", "quad", "--kmin", "1", "--kmax", "1",
                     f"{flag}={value}", "--out", str(tmp_path)])
        assert code == 2
        assert word in capsys.readouterr().err
        assert not (tmp_path / "cfl.csv").exists()


    def test_eigensolver_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise la.LinAlgError("hegvx failed")

        monkeypatch.setattr(dispersion, "cfl_parameter", fail)
        code = main(["cfl", "--grids", "quad", "--kmin", "1", "--kmax", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: hegvx failed\n"
        assert not (tmp_path / "cfl.csv").exists()


class TestAnisotropyCommand:
    def test_runs(self, tmp_path):
        code = main(["anisotropy", "--grid", "quad", "--k", "1", "--delta", "0.2",
                     "--angles", "8", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "anisotropy.csv").read_text().splitlines()
        assert lines[0] == "theta,ratio_s,ratio_p"
        assert len(lines) == 9
        row = anisotropy_sweep("quad", 1, 0.2, 2.0, n_angles=8)[3]
        assert lines[4] == (f"{row['theta']:.12g},{row['ratio_s']:.12e},"
                            f"{row['ratio_p']:.12e}")

    def test_too_few_angles_exit_2(self, tmp_path, capsys):
        code = main(["anisotropy", "--grid", "quad", "--k", "1", "--angles", "4",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "n_angles" in capsys.readouterr().err
        assert not (tmp_path / "anisotropy.csv").exists()


class TestSolveCommand:
    def test_missing_mesh_exit_1(self, tmp_path, capsys):
        code = main(["solve", "--mesh", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    # the default --dt is 5e-4, so --T 0.01025 is 20.5 steps
    @pytest.mark.parametrize("flag, value", [("--dt", "0"), ("--dt", "-1e-3"),
                                             ("--T", "-0.1"), ("--T", "0.01025")])
    def test_bad_dt_or_T_exit_2_before_reading_mesh(self, tmp_path, capsys,
                                                    flag, value):
        path = tmp_path / "mesh.txt"
        path.write_text("not a mesh\n")
        code = main(["solve", "--mesh", str(path), f"{flag}={value}",
                     "--out", str(tmp_path)])
        assert code == 2
        assert flag in capsys.readouterr().err

    # each used to pass Material and fail deep in a library with exit 1: a
    # singular mass factor (nan), ARPACK error -9 (mu = lam = 0) or -9999 (inf)
    @pytest.mark.parametrize("args, flag", [(["--rho", "nan"], "--rho"),
                                            (["--rho", "-1"], "--rho"),
                                            (["--mu", "0", "--lam", "0"], "--mu"),
                                            (["--mu=-inf"], "--mu"),
                                            (["--lam", "inf"], "--lam")])
    def test_bad_material_exit_2_before_reading_mesh(self, tmp_path, capsys, args, flag):
        path = tmp_path / "mesh.txt"
        path.write_text("not a mesh\n")
        code = main(["solve", "--mesh", str(path), *args, "--out", str(tmp_path)])
        assert code == 2
        assert flag in capsys.readouterr().err

    def test_T_not_multiple_of_dt_exit_2(self, tmp_path, capsys):
        mesh = generate_family("random_quad", 0, seed=0)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        code = main(["solve", "--mesh", str(path), "--T", "0.0105", "--dt", "1e-3",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "multiple" in capsys.readouterr().err
        assert not (tmp_path / "final_state.ckpt").exists()

    def test_super_cfl_dt_exit_1(self, tmp_path, capsys):
        mesh = generate_family("random_quad", 0, seed=0)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        # the CFL limit of this mesh at k = 1 is dt ~ 0.12
        code = main(["solve", "--mesh", str(path), "--T", "1", "--dt", "0.25",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "CFL" in capsys.readouterr().err
        assert not (tmp_path / "final_state.ckpt").exists()

    def test_dt_above_exact_cfl_limit_exit_1(self, tmp_path, capsys):
        mesh = generate_family("random_quad", 1, seed=0)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        system = assemble_global(mesh, 2, Material(1.0, 1.0, 1.0))
        lam = la.eigh(system.stiffness.toarray(), system.mass.toarray(),
                      eigvals_only=True)[-1]
        dt = float(1.03 * 2.0 / np.sqrt(lam))
        code = main(["solve", "--mesh", str(path), "--k", "2", "--dt", repr(dt),
                     "--T", repr(10 * dt), "--out", str(tmp_path)])
        assert code == 1
        assert "CFL" in capsys.readouterr().err
        assert not (tmp_path / "final_state.ckpt").exists()

    def test_zero_steps_writes_initial_state(self, tmp_path):
        mesh = generate_family("random_quad", 0, seed=0)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        code = main(["solve", "--mesh", str(path), "--T", "0", "--dt", "1e-3",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "final_state.ckpt").exists()

    def test_short_run_with_snapshots(self, tmp_path):
        mesh = generate_family("random_quad", 0, seed=0)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        code = main(["solve", "--mesh", str(path), "--T", "0.01", "--dt", "1e-3",
                     "--k", "1", "--snapshot-every", "5", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "state_00000005.ckpt").exists()
        # vemwave solve runs harness.solve_benchmark: the same final state, bit for bit
        material = Material(1.0, 1.0, 1.0)
        state = harness.solve_benchmark(assemble_global(mesh, 1, material),
                                        harness.standing_wave_benchmark(material),
                                        1e-3, 0.01)
        save_checkpoint(state, tmp_path / "expected.ckpt")
        assert (tmp_path / "final_state.ckpt").read_bytes() == \
            (tmp_path / "expected.ckpt").read_bytes()

    def test_energy_csv(self, tmp_path):
        mesh = generate_family("random_quad", 0, seed=0)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        code = main(["solve", "--mesh", str(path), "--T", "0.1", "--dt", "1e-3",
                     "--out", str(tmp_path)])
        assert code == 0
        # one energy sample every 100 steps
        material = Material(1.0, 1.0, 1.0)
        system = assemble_global(mesh, 1, material)
        state = harness.solve_benchmark(system, harness.standing_wave_benchmark(material),
                                        1e-3, 0.1)
        assert (tmp_path / "energy.csv").read_text().splitlines() == [
            "step,energy", f"100,{discrete_energy(state, system):.12e}"]


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\ndelta = 0.1\n")
        code = main(["--config", str(cfg), "dispersion", "--grid", "quad",
                     "--r", "2", "--out", str(tmp_path)])
        assert code == 0
        row = (tmp_path / "dispersion.csv").read_text().splitlines()[1]
        assert row.startswith("quad,2,0.1,")

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.1\n")
        code = main(["--config", str(cfg), "dispersion", "--grid", "quad",
                     "--k", "1", "--delta", "0.4", "--r", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        row = (tmp_path / "dispersion.csv").read_text().splitlines()[1]
        assert row.startswith("quad,1,0.4,")

    def test_flag_equal_to_its_default_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.1\n")
        code = main(["--config", str(cfg), "dispersion", "--grid", "quad",
                     "--k", "1", "--delta", "0.2", "--r", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        row = (tmp_path / "dispersion.csv").read_text().splitlines()[1]
        assert row.startswith("quad,1,0.2,")

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dleta = 0.1\n")
        code = main(["--config", str(cfg), "dispersion", "--grid", "quad", "--k", "1",
                     "--r", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "dleta" in capsys.readouterr().err
        assert not (tmp_path / "dispersion.csv").exists()

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just-nonsense\n")
        code = main(["--config", str(cfg), "dispersion", "--grid", "quad",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_float_value_runs_fully_discrete(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q_rel = 0.5\n")
        code = main(["--config", str(cfg), "dispersion", "--grid", "quad", "--k", "1",
                     "--r", "2", "--out", str(tmp_path)])
        assert code == 0
        header, row = (tmp_path / "dispersion.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["q_rel"] == "0.5"

    def test_unconvertible_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q_rel = abc\n")
        code = main(["--config", str(cfg), "dispersion", "--grid", "quad", "--k", "1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "q_rel" in capsys.readouterr().err
        assert not (tmp_path / "dispersion.csv").exists()

    @pytest.mark.parametrize("text, expected", [("false", (1e-3, 0.01)),
                                                ("true", (1e-4, 1.0))])
    def test_store_true_flag(self, tmp_path, monkeypatch, text, expected):
        seen = []
        def run_convergence(family, degrees, levels, dt, T, seed):
            seen.append((dt, T))
            return harness.ConvergenceStudy()

        monkeypatch.setattr(harness, "run_convergence", run_convergence)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"paper_scale = {text}\n")
        code = main(["--config", str(cfg), "convergence", "--k", "1", "--levels", "1",
                     "--dt", "1e-3", "--T", "0.01", "--out", str(tmp_path)])
        assert code == 0
        assert seen == [expected]

    def test_store_true_flag_rejects_other_words(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("paper_scale = no\n")
        code = main(["--config", str(cfg), "convergence", "--out", str(tmp_path)])
        assert code == 2
        assert "paper_scale" in capsys.readouterr().err
