"""Tests of the benchmark itself: its oracle rejects wrong answers, its
metric names match ``BENCHMARK.json``, the traced run confirms what each
workload bypasses, and it refuses to run without the program's sources.

Run from the repository root::

    python3 -m pytest perfbench/test_benchmark.py -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

from layers import PER_LAYER  # noqa: E402
from repro import QueryEngine, Selection  # noqa: E402
from workloads import check_query, check_values  # noqa: E402

#: Small scales so each workload runs in a few seconds.
TINY = {
    "elements": 65536,
    "servers": 4,
    "virtual_scale": 1024.0,
    "server_memory_bytes": 64 * 1024 * 1024,
    "workers": 1,
}


def tiny_spec() -> dict:
    spec = copy.deepcopy(run.load_spec())
    spec["setup_repeats"] = 1
    for cfg in spec["workloads"].values():
        for key, value in TINY.items():
            if key in cfg["scale"]:
                cfg["scale"][key] = value
    return spec


@pytest.fixture
def wrong_answers(monkeypatch):
    """Make the engine drop the last hit of every non-empty answer."""
    original = QueryEngine.execute

    def drop_last_hit(self, *args, **kwargs):
        res = original(self, *args, **kwargs)
        if res.selection is not None and res.nhits:
            sel = res.selection
            res.selection = Selection(sel.coords[:-1], sel.domain_size)
            res.nhits -= 1
        return res

    monkeypatch.setattr(QueryEngine, "execute", drop_last_hit)


def test_oracle_rejects_a_changed_coordinate_or_value():
    truth = np.array([3, 7, 11], dtype=np.int64)
    assert check_query(truth.copy(), truth)
    assert not check_query(np.array([3, 7, 12]), truth)
    assert not check_query(truth[:-1], truth)
    values = np.array([1.5, 2.5, 3.5], dtype=np.float32)
    assert check_values(values.copy(), values)
    assert not check_values(values + np.float32(1e-3), values)


@pytest.mark.parametrize("workload", ["paper-single", "service-ingest"])
def test_correct_on_the_program_as_is(workload):
    result = run.run(workload, 5, 0.5, False, tiny_spec())
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert [*result["metrics"]] == [name for name, _ in run.END_TO_END]


@pytest.mark.parametrize("workload", ["paper-single", "paper-multi", "service-ingest"])
def test_wrong_answers_are_caught(workload, wrong_answers):
    result = run.run(workload, 5, 0.5, False, tiny_spec())
    assert not result["correct"]
    assert result["failed"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == [*run.load_spec()["workloads"]]


def test_traced_run_confirms_paper_single_bypasses():
    result = run.run("paper-single", 5, 1.0, True, tiny_spec())
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert [*metrics] == [name for name, _, _ in PER_LAYER]
    assert result["correct"]
    assert metrics["obs.monitor_s"] == 0.0
    assert metrics["parallel.tasks"] == 0.0
    for name, value in metrics.items():
        if name.startswith("ingest"):
            assert value == 0.0, name
    assert metrics["pdc.build_index_s"] > 0.0
    assert metrics["bitmap.encode_groups_s"] > 0.0
    assert os.path.isfile(os.path.join(HERE, "out", "spans-paper-single.json"))


def test_traced_run_sees_service_layers():
    result = run.run("service-ingest", 5, 1.0, True, tiny_spec())
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    for name in ("service.drain_s", "obs.monitor_s", "ingest.apply_s",
                 "cluster.migration_s", "scheduler.retained_batches"):
        assert metrics[name] > 0.0, name


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-single",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
