"""Tests of the benchmark itself: negative controls, traced run, refusal without the program.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.  Each negative
control corrupts one output after a pass and expects the run to report a
failed operation.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--seed", "3", "--seconds", "0", *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(checks.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_traced_example_run_is_correct_and_adds_up():
    proc = bench("--workload", "example", "--trace", "1")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0, proc.stdout
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["construction.chunk_checks"] == checks.EXAMPLE_DEEP_CHECKS
    assert metrics["correlation.accf_calls"] == 10 * checks.EXAMPLE_DEEP_CHECKS
    assert metrics["correlation.csv_rows"] == 16 * 16 * 256
    assert metrics["correlation.window_bytes_max"] == 16 * 256 * 256 * checks.WINDOW_ITEMSIZE
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS)
    assert math.isclose(self_sum, metrics["trace.wall_s"], rel_tol=0.01)


@pytest.mark.parametrize("workload,kind", [("example", "seq"), ("example", "csv"),
                                           ("simulate", "ber")])
def test_negative_control_is_reported(workload, kind):
    proc = bench("--workload", workload, "--inject", kind)
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "FAILED" in proc.stdout


def test_ber_check_bound():
    p = checks.theoretical_ber(2.0)
    n = 100_000
    sigma = math.sqrt(p * (1 - p) / n)
    rows = [{"snr_db": "2.0", "bits": str(n), "ber": repr(p + 4.0 * sigma)}]
    assert checks.check_ber_rows(rows, expected_rows=1)[0]
    rows[0]["ber"] = repr(p - 5.0 * sigma)
    assert not checks.check_ber_rows(rows, expected_rows=1)[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "certify", script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_paired_verdicts():
    import steady

    assert steady.worse_share("wall_s", 2.0, 2.5) == 0.25
    assert steady.worse_share("main_rate_per_s", 100.0, 80.0) == 0.25
    steady_shares = [0.01, -0.02, 0.03, 0.0, -0.01, 0.02, 0.01, -0.03, 0.02, 0.0]
    assert steady.paired_verdict("wall_s", steady_shares)["verdict"] == "ok"
    slower = [s + 0.3 for s in steady_shares]
    assert steady.paired_verdict("wall_s", slower)["verdict"] == "REGRESSION"
    scattered = [(-1) ** i * 0.2 for i in range(10)]
    assert steady.paired_verdict("wall_s", scattered)["verdict"] == "unresolved"
