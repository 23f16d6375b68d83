"""The benchmark workloads' contract with vemwave.

``perfbench/workloads.py`` calls vemwave's public functions with keywords of
its own (``n_angles``, ``p_convention``, ``safety``/``tol``/``max_iter``/
``solver``, ``on_step``, ``seed``).  A refactor that deletes or renames one of
them makes the benchmark operations that pass it fail; these tests run each
workload's set-up and one pass at the tiny scale and catch it.
"""
import importlib.util
from pathlib import Path

import pytest

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["hconv", "wave_long", "cfl_sweep", "disp_rows"])
def test_tiny_pass_has_no_failure(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]("tiny", 0, str(tmp_path), {})
    workload.setup()
    rec = workloads.PassRecord()
    workload.run_pass(rec)
    assert rec.attempted > 0
    assert rec.failed == 0, rec.errors
