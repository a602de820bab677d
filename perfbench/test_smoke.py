"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, traced and untraced, and that the output checks reject tampered
outputs.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    info, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert info["digest"] and info["provenance"]["thread_pins"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        with open(os.path.join(ROOT, ".perfbench_work", "traces", f"{workload}-seed5.json"), encoding="utf-8") as handle:
            spans = json.load(handle)
        assert spans and {"name", "start", "end", "parent", "attrs"} == set(spans[0])


@pytest.fixture(scope="module")
def decomposition(tmp_path_factory):
    from pathshift.cli import main

    directory = tmp_path_factory.mktemp("decompose")
    _, cfg = inputs.build("decompose_glm_1m", 5, 2000, str(directory))
    out = directory / "out"
    argv = ["decompose", "--config", cfg, "--out", str(out), "--seed", "5",
            "--scale", "geometric", "--decomposition", "both"]
    assert main(argv) == 0
    return json.loads((out / "decomposition.json").read_text())


def _component(payload, kind, label):
    report = next(r for r in payload["reports"] if r["estimand_meta"]["decomposition"] == kind)
    return next(c for c in report["components"] if c["label"] == label)


def test_untampered_decomposition_passes(decomposition):
    assert checks.check_decomposition(decomposition) == []


@pytest.mark.parametrize("field, value", [("point", 1.001), ("se", float("nan"))])
def test_tampered_decomposition_fails(decomposition, field, value):
    tampered = copy.deepcopy(decomposition)
    component = _component(tampered, "sequential", "sequential_2")
    component[field] = component[field] * value if field == "point" else value
    assert checks.check_decomposition(tampered)


def test_tampered_natural_point_fails(decomposition):
    tampered = copy.deepcopy(decomposition)
    _component(tampered, "natural", "mediator_1")["point"] = float("inf")
    assert checks.check_decomposition(tampered)


def test_sim_cell_check():
    cell = {"reps": 16, "sd": 0.04, "truth_se": 0.0002, "bias": 0.01, "failures": 0}
    assert checks.check_sim_cell(cell) == []
    assert checks.check_sim_cell({**cell, "bias": 0.2})
    assert checks.check_sim_cell({**cell, "failures": 1})


def test_oracle_lines():
    ok = "  gamma_dis              enum=+0.53628414 onestep_gap=1.11e-16 mc_gap=0.02 sigma  [ok]"
    bad = ok.replace("[ok]", "[FAIL]")
    assert checks.oracle_lines(f"header\n{ok}\n{bad}\nfooter") == (2, 1)
