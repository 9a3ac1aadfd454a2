"""Tests of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os

import pytest

import run

run.pin_lubinlab()

import tracer  # noqa: E402
import workloads  # noqa: E402
from lubinlab.analyzer import REJECTED, analyze_fixture  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
SEED = 7


def tiny_run(workload, trace, work_dir, seed=SEED):
    return run.run(workload, seed, 0, trace, sizes=workloads.TINY, work_dir=work_dir)


def check_result(result, info, key):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert info["env"]["seed"] == SEED and info["env"]["nproc"] >= 1


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_is_emitted(workload, tmp_path):
    result, info = tiny_run(workload, 0, tmp_path)
    check_result(result, info, "end_to_end")


@pytest.mark.parametrize("workload", NAMES)
def test_every_layer_metric_is_emitted_and_counts_repeat(workload, tmp_path):
    counts = []
    for _ in range(2):
        result, info = tiny_run(workload, 1, tmp_path)
        check_result(result, info, "per_layer")
        counts.append(
            {k: v["value"] for k, v in result["metrics"].items() if k.endswith((".calls", ".terms", ".iterates"))}
        )
    assert counts[0] == counts[1]
    assert counts[0]["padic.reduce_terms.calls"] > 0


def test_untraced_run_installs_no_wrappers(tmp_path, monkeypatch):
    def bound():
        return [ns.__dict__[attr] for ns, attr, _ in tracer.SITES]

    originals = [tracer.ORIGINALS[key] for _, _, key in tracer.SITES]
    assert all(a is b for a, b in zip(bound(), originals))
    seen = []
    setup = workloads.WORKLOADS["certify_dense"]

    def probed_setup(rng, sizes, work_dir):
        calls = setup(rng, sizes, work_dir)
        for call in calls:
            inner = call.run
            call.run = lambda inner=inner: (seen.append(all(a is b for a, b in zip(bound(), originals))), inner())[1]
        return calls

    monkeypatch.setitem(workloads.WORKLOADS, "certify_dense", probed_setup)
    _, info = tiny_run("certify_dense", 0, tmp_path)
    assert seen and all(seen)
    assert info["unwrapped"]
    # a traced run does install wrappers, and removes them again
    monkeypatch.undo()
    _, info = tiny_run("certify_dense", 1, tmp_path)
    assert info["spans"] > 0
    assert all(a is b for a, b in zip(bound(), originals))


@pytest.mark.parametrize("seed", range(6))
def test_negative_controls_rejected_for_named_reason(seed):
    entries = workloads._batch_entries(workloads.rng_for("batch_screen", seed), workloads.FULL)
    controls = [(e, exp) for e, exp in entries if exp.verdict == REJECTED]
    assert len(controls) == 3
    for entry, exp in controls:
        report = analyze_fixture(entry).data
        assert report["verdict"] == REJECTED, entry["name"]
        assert exp.reason in report["reason"], (entry["name"], report["reason"])


def test_threads_env_is_restored():
    before = os.environ.get("LUBINLAB_THREADS")
    with run.threads_env(2):
        assert os.environ["LUBINLAB_THREADS"] == "2"
    assert os.environ.get("LUBINLAB_THREADS") == before
