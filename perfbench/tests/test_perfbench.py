"""The benchmark's own tests, at tiny batch sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
from workloads import SIZES, WORKLOADS

NAMES = sorted(WORKLOADS)


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _context(name: str, seed: int = 3):
    return WORKLOADS[name].setup(seed, SIZES[name]["tiny"])


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_correct_and_reports_every_metric(name):
    result = run.measure(name, seed=3, seconds=0.0, traced=False,
                         size="tiny")
    line = run.result_line(result)
    assert line["correct"], result["problems"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert [k for k in line["metrics"]] == [n for n, _ in run.END_TO_END]
    assert _finite(m["value"] for m in line["metrics"].values())
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert _finite(v for _, v in result["rates"].values())
    assert result["stamp"]["spec_digest"] and result["digest"]


@pytest.mark.parametrize("name", NAMES)
def test_one_and_two_workers_give_identical_outputs(name):
    workload, ctx = WORKLOADS[name], _context(name)
    inline = run.run_one(workload, ctx, workers=1)
    parallel = run.run_one(workload, ctx, workers=2)
    assert not inline.problems and not parallel.problems
    assert inline.digest == parallel.digest != ""


def _originals() -> dict:
    return {layer.name: vars(owner)[attr]
            for layer in layers.LAYERS
            for owner, attr in [layers.resolve(layer.target)]}


def test_traced_run_restores_every_wrapped_function():
    before = _originals()
    result = run.measure("protocol_soak", seed=3, seconds=0.0, traced=True,
                         size="tiny")
    assert run.result_line(result)["correct"], result["problems"]
    after = _originals()
    assert all(after[name] is before[name] for name in before)


def test_tracer_restores_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with layers.Tracer():
            assert _originals()["gf2m.reduce"] is not before["gf2m.reduce"]
            raise RuntimeError("boom")
    after = _originals()
    assert all(after[name] is before[name] for name in before)


def test_traced_counts_repeat_and_outputs_match_untraced():
    workload, ctx = WORKLOADS["dpa_unprotected"], _context("dpa_unprotected")
    untraced = run.run_one(workload, ctx, workers=1)
    tracers = [layers.Tracer(), layers.Tracer()]
    traced = [run.run_one(workload, ctx, 1, t) for t in tracers]
    counts = [{k: v for k, v in t.layer_metrics().items()
               if not k.endswith(".self_s")} for t in tracers]
    assert counts[0] == counts[1]
    assert counts[0]["sca.predict_iteration.calls"] > 0
    assert counts[0]["sca.predict.replayed_iterations"] > 0
    assert {b.digest for b in traced} == {untraced.digest}
    assert tracers[0].spans and all(
        end >= start for _, start, end, _ in tracers[0].spans)


def test_traced_result_line_has_every_per_layer_metric():
    result = run.measure("dse_paper_space", seed=3, seconds=0.0,
                         traced=True, size="tiny")
    line = run.result_line(result)
    assert line["correct"], result["problems"]
    names = [n for n, _ in run.per_layer_metrics()]
    assert list(line["metrics"]) == names
    assert _finite(m["value"] for m in line["metrics"].values())
    assert line["metrics"]["dse.cache_hits"]["value"] == 0
    assert line["metrics"]["dse.measure.calls"]["value"] == 2
    assert _finite(v for v in result["layers"].values())


def test_benchmark_json_matches_the_reported_metrics():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == \
        [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol_soak",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_stop_processes_reaps_workers_and_the_resource_tracker():
    import multiprocessing
    from multiprocessing import resource_tracker

    pool = multiprocessing.get_context("spawn").Pool(1)
    pool.close()
    pool.join()
    del pool
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None
    run.stop_processes()
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(tracker, os.WNOHANG)
