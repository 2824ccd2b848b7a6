"""Smoke test of the benchmark at tiny length, and of its code files.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from gf4bp import construction_b, write_stabilizer_text  # noqa: E402

SECONDS = "0.5"
DETERMINISTIC = ("errors_strict", "output_digest")


def run_bench(workload, trace, seed=5, cwd=ROOT, script=HERE / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return done


def parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        info[key] = rest.split()
    return result, info


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    name = request.param
    return name, {
        (trace, repeat): parse(run_bench(name, trace))
        for trace in (0, 1)
        for repeat in (0, 1)
    }


@pytest.mark.parametrize("code_file", sorted(workloads.CODES))
def test_code_file_is_construction_b(code_file):
    size, ones = workloads.CODES[code_file]
    row = np.zeros(size, dtype=np.uint8)
    row[list(ones)] = 1
    expected = write_stabilizer_text(construction_b(row))
    assert (workloads.CODES_DIR / code_file).read_text() == expected


def test_workloads_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_metrics_printed_with_units_and_checks_pass(runs, spec):
    _, results = runs
    for (trace, _), (result, info) in results.items():
        section = spec["per_layer"] if trace else spec["end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        for metric in section:
            name, unit = metric["name"], metric["unit"]
            assert result["metrics"][name]["unit"] == unit
            assert info[name][1] == unit, f"{name} not printed with its unit"
        assert set(result["metrics"]) == {m["name"] for m in section}


def test_feedback_counts_zero_without_feedback(runs):
    name, results = runs
    if "pc08" in workloads.WORKLOADS[name].strategies:
        pytest.skip("workload runs feedback")
    for repeat in (0, 1):
        metrics = results[(1, repeat)][0]["metrics"]
        for key, value in metrics.items():
            if key.startswith("feedback."):
                assert value["value"] == 0, key


def test_deterministic_counts_repeat(runs):
    _, results = runs
    plain = [results[(0, r)] for r in (0, 1)]
    traced = [results[(1, r)] for r in (0, 1)]
    for key in DETERMINISTIC:
        values = {tuple(info[key]) for _, info in plain + traced}
        assert len(values) == 1, key
    assert plain[0][0]["metrics"]["anoi"] == plain[1][0]["metrics"]["anoi"]
    for key in ("decoder.iterations", "decoder.calls", "feedback.rounds"):
        assert traced[0][0]["metrics"][key] == traced[1][0]["metrics"][key]
    # The traced run decodes every block twice, once with spans.
    blocks = traced[0][0]["attempted"] / 2
    iterations = traced[0][0]["metrics"]["decoder.iterations"]["value"]
    assert iterations / blocks == pytest.approx(plain[0][0]["metrics"]["anoi"]["value"])


def test_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("lowp-std", 0, cwd=tmp_path, script=bench / "run.py")
    assert done.returncode != 0
    assert "{" not in done.stdout
