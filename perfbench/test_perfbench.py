"""Self-check of the benchmark: short runs of every workload report every
named metric with its unit, and a wrong reference or a raising op is
counted as failed without stopping the run.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from worker import run_tasks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_wrong_reference_and_raising_op_count_as_failed():
    tasks = workloads.build("cone-quadrature", 7, True, ROOT)
    first = tasks[0]
    wrong = dataclasses.replace(first, check=workloads.close(12345.0, 1e-6))
    boom = workloads.Call("raises", lambda: 1 / 0, lambda v: True)
    out = run_tasks([wrong, boom, *tasks[1:]])
    assert out["attempted"] == len(tasks) + 1
    assert out["failed"] == 2
    assert out["failed"] / out["attempted"] > 0


def test_op_is_scaled_by_the_readings_around_it():
    ref = hostspeed.REFERENCE_S
    clock = hostspeed.HostClock()
    clock.stamps, clock.values = [1.0, 2.0, 3.0], [ref, 4 * ref, 2 * ref]
    assert clock.factor(1.2, 1.8) == pytest.approx(0.5)  # readings 1 and 4
    assert clock.factor(2.1, 2.9) == pytest.approx(8 ** -0.5)  # readings 4 and 2
    assert clock.factor(0.5, 3.5) == pytest.approx(2 ** -0.5)  # first and last
    assert clock.median_factor() == pytest.approx(0.5)


def test_hash_mismatch_fails_every_case_of_that_suite():
    suite = workloads.build("exact-ladder", 7, True, ROOT)[0]
    out = run_tasks([dataclasses.replace(suite, expected_hash="0" * 64)])
    assert out["failed"] == out["attempted"] > 0


def test_every_exact_run_has_a_recorded_hash():
    hashes = workloads.load_hashes()
    for short in (True, False):
        for suite, grids in workloads.exact_ladder_runs(short):
            assert workloads.suite_key(workloads._config(suite, True, **grids)) in hashes


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "exact-ladder", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
