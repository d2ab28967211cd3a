"""Tests of the benchmark itself: python -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from aggdec import decoding  # noqa: E402
from workloads import WORKLOADS, Workload, peeking_copy  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == bench.END_TO_END
    assert _units("per_layer") == bench.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric_with_its_unit(trace):
    out = _cli("--workload", "scripted-copy", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(section)
    assert "digest" in out.stdout and '"nproc"' in out.stdout


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload(name, trace):
    tiny = replace(WORKLOADS[name], sentences=3, warmup=1)
    m, _, metrics = bench.run(tiny, seed=5, seconds=0.05, trace=trace)
    assert m.failed == 0 and m.attempted >= 3
    assert list(metrics) == list(bench.PER_LAYER if trace else bench.END_TO_END)
    if not trace:
        assert all(value > 0 for value in metrics.values())
    elif name == "transformer-e12d2":
        assert metrics["transformer.decoder_gmacs_per_s"] > 0
        assert metrics["transformer.step1_ms"] > 0


def test_traced_run_restores_the_decoding_module():
    before = {attr: getattr(decoding, attr) for attr in ("argmax_with_tiebreak", "log_softmax")}
    bench.run(replace(WORKLOADS["scripted-copy"], sentences=2, warmup=0), 1, 0.01, trace=True)
    assert {attr: getattr(decoding, attr) for attr in before} == before


def test_same_seed_same_outputs_and_new_seed_new_inputs():
    tiny = replace(WORKLOADS["ngram-edit"], sentences=4, warmup=4)
    digests = [bench.run(tiny, seed, 0.01, trace=False)[0].digest() for seed in (7, 7, 8)]
    assert digests[0] == digests[1] != digests[2]


@pytest.mark.parametrize("trace", [False, True])
def test_prefix_inconsistent_scorer_fails_the_gate(trace):
    peeking = Workload("peeking-copy", 4, warmup=1, prepare=peeking_copy, reference_ms=(1.0, 1.0, 1.0))
    m, _, metrics = bench.run(peeking, seed=0, seconds=0.01, trace=trace)
    assert m.failed == m.attempted >= 4
    assert set(m.errors) == {"aggressive output differs from greedy output"}
    if not trace:
        assert metrics["success_rate"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli("--workload", "scripted-copy", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_times_are_divided_by_the_machine_factors():
    m, factors, _ = bench.run(replace(WORKLOADS["scripted-copy"], sentences=3, warmup=1), 2, 0.05, False)
    assert set(factors) == set(bench.FACTORS) and all(f > 0 for f in factors.values())
    nominal = bench.end_to_end(m, 1.0, dict.fromkeys(bench.FACTORS, 1.0))
    doubled = bench.end_to_end(m, 1.0, dict.fromkeys(bench.FACTORS, 2.0))
    for name in ("agg_ms_p50", "agg_ms_p95", "greedy_ms_p50", "greedy_ms_p95"):
        assert doubled[name] == pytest.approx(nominal[name] / 2)
    assert doubled["agg_tokens_per_s"] == pytest.approx(nominal["agg_tokens_per_s"] * 2)
    assert doubled["iters_per_sentence"] == nominal["iters_per_sentence"]


def test_setup_time_is_measured_against_the_reference_batch():
    m = bench.Measurement(2)
    m.best_reference = [0.001, 0.002]                 # warm-up batch: 3 ms in the window
    timings = [(0.5, 0.004), (0.2, 0.002), (0.9, 0.003)]  # set-up / batch: 125, 100, 300
    assert bench.setup_seconds(timings, m, factor=1.5, warmup=2) == pytest.approx(125 * 0.003 / 1.5)
