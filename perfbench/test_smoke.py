"""The benchmark's own tests, on tiny models:

    python3 -m pytest perfbench

Every metric that BENCHMARK.json names is printed with its unit, and an
op whose output fails its check is counted against ok_frac and makes the
run exit 1.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(*extra, returncode=0):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--seconds", "0.5", *extra],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == returncode, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = run_bench("--workload", workload, "--seed", "7",
                       "--trace", str(trace))
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def test_wrong_expected_verdict_is_counted():
    result = run_bench("--workload", "certify-exact", "--seed", "7",
                       "--break-expectation", returncode=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0
