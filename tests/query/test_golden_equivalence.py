"""Golden equivalence of query evaluation against a committed fixture.

A fixed scenario set runs every strategy through single- and multi-object
queries, flat and N-D region constraints, an injected fault plan, a
shared-scan batch window, both ``get_data`` paths, a preload, and a
metadata+data query.  For each scenario the fixture pins the answer
digests, every ``elapsed_s`` (as ``float.hex``), every simulated clock's
per-category totals, the result counters, the ``StepActual`` lists,
``lost_regions``, and digests of the trace span tree and the metrics render.

The fixture was captured before the executor's access paths were merged
into one read loop, one scan charge, and one kernel dispatch; any
difference is a behaviour change.  The only tolerated differences are
listed in :func:`_changed_by_design`: sorted-replica reads now count
their virtual bytes, so PDC-SH byte counters can only grow.

Regenerate only for an intended, documented change::

    PYTHONPATH=src python tests/query/test_golden_equivalence.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultPlan
from repro.interval import Interval
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.pdc import PDCConfig, PDCSystem
from repro.query.ast import Condition, combine_and, combine_or
from repro.query.executor import QueryEngine, QuerySpec
from repro.query.region_constraint import HyperSlab
from repro.query.scheduler import SelectionCache
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden_executor.json")

SCENARIOS = ("single", "multi", "constraint", "faults", "batch", "get_data",
             "preload", "metadata")


def cond(name, op, value):
    return Condition(name, QueryOp(op), PDCType.FLOAT, value)


def deployment(traced: bool, **config):
    """Two indexed, replica-backed objects on 4 servers (8 KiB regions)."""
    rng = np.random.default_rng(0)
    system = PDCSystem(
        PDCConfig(n_servers=4, region_size_bytes=1 << 13, **config),
        tracer=Tracer() if traced else None,
        metrics=MetricsRegistry(),
    )
    n = 1 << 14
    system.create_object("energy", rng.gamma(2.0, 0.7, n).astype(np.float32))
    system.create_object("x", (rng.random(n) * 300).astype(np.float32))
    system.build_index("energy")
    system.build_index("x")
    system.build_sorted_replica("energy", ["x"])
    return system


# ------------------------------------------------------------- recording
def _hex(v: float) -> str:
    return float(v).hex()


def _digest(coords: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(coords, dtype=np.int64).tobytes()).hexdigest()


def _text_digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _query(res) -> Dict[str, object]:
    if res is None:
        return {"error": True}
    return {
        "nhits": res.nhits,
        "digest": _digest(res.selection.coords) if res.selection is not None else "",
        "elapsed": _hex(res.elapsed_s),
        "order": list(res.evaluation_order),
        "regions_read": res.regions_read,
        "regions_pruned": res.regions_pruned,
        "regions_cached": res.regions_cached,
        "index_reads": res.index_reads,
        "bytes_read_virtual": _hex(res.bytes_read_virtual),
        "complete": res.complete,
        "timed_out": res.timed_out,
        "retries": res.retries,
        "failovers": res.failovers,
        "server_errors": {str(k): v for k, v in sorted(res.server_errors.items())},
        "lost_regions": list(res.lost_regions),
        "semantic_cache": res.semantic_cache,
        "batch_shared_bytes_virtual": _hex(res.batch_shared_bytes_virtual),
        "batch_shared_elapsed_s": _hex(res.batch_shared_elapsed_s),
        "steps": [
            [s.conjunct, s.object_name, repr(s.interval), s.hits, s.regions_read,
             s.regions_cached, s.regions_pruned, s.index_reads,
             _hex(s.bytes_read_virtual), _hex(s.elapsed_s), s.access_path]
            for s in res.step_actuals
        ],
    }


def _get_data(gd) -> Dict[str, object]:
    return {
        "digest": hashlib.sha256(gd.values.tobytes()).hexdigest(),
        "elapsed": _hex(gd.elapsed_s),
        "regions_read": gd.regions_read,
        "regions_cached": gd.regions_cached,
        "bytes_read_virtual": _hex(gd.bytes_read_virtual),
    }


def _batch(b) -> Dict[str, object]:
    return {
        "width": b.width,
        "elapsed": _hex(b.elapsed_s),
        "shared_regions": b.shared_regions,
        "shared_reads": b.shared_reads,
        "shared_cached": b.shared_cached,
        "shared_bytes_virtual": _hex(b.shared_bytes_virtual),
        "saved_bytes_virtual": _hex(b.saved_bytes_virtual),
        "retries": b.retries,
        "semantic": [b.semantic_hits, b.semantic_narrowed,
                     b.semantic_repaired, b.semantic_misses],
        "errors": sorted(b.errors),
        "server_errors": {str(k): v for k, v in sorted(b.server_errors.items())},
        "results": [_query(r) for r in b.results],
    }


def _clocks(system) -> Dict[str, object]:
    return {
        c.name: [_hex(c.now), {k: _hex(v) for k, v in sorted(c.breakdown().items())}]
        for c in system.all_clocks()
    }


def _trace(tracer) -> List[object]:
    def attrs(s):
        return repr(sorted((k, repr(v)) for k, v in s.attrs.items()
                           if not k.startswith("__")))

    spans = [[s.span_id, s.parent_id, s.name, s.category, s.track,
              _hex(s.start_s), _hex(s.end_s), attrs(s)] for s in tracer.spans]
    events = [[e.parent_id, e.name, e.category, e.track, _hex(e.start_s),
               attrs(e)] for e in tracer.events]
    return [len(spans), len(events), _text_digest([spans, events])]


#: The metrics-render series the sorted-replica byte fix moves.
_BYTES_SERIES = "pdc_query_bytes_read_virtual_total"


def _metrics(system) -> Dict[str, object]:
    lines = system.metrics.render().splitlines()
    return {
        "digest": _text_digest([ln for ln in lines if not ln.startswith(_BYTES_SERIES)]),
        "query_bytes": [ln for ln in lines if ln.startswith(_BYTES_SERIES)],
    }


# --------------------------------------------------------------- scenarios
def _run(scenario: str, strategy: Strategy, traced: bool) -> Dict[str, object]:
    out: Dict[str, object] = {}
    demo = combine_and(cond("energy", ">", 2.0), cond("x", "<", 150.0))
    if scenario == "metadata":
        system = PDCSystem(PDCConfig(n_servers=4, region_size_bytes=1 << 16),
                           tracer=Tracer() if traced else None,
                           metrics=MetricsRegistry())
        rng = np.random.default_rng(3)
        for i in range(12):
            system.create_object(
                f"fiber{i:03d}", (rng.random(128) * 30.0).astype(np.float32),
                tags={"plate": float(i // 4)},
            )
            system.build_index(f"fiber{i:03d}")
        engine = QueryEngine(system)
        res = engine.metadata_data_query(
            {"plate": 1.0}, Interval(lo=5.0, hi=20.0), strategy=strategy
        )
        out["metadata"] = [res.object_names, res.per_object_hits,
                           res.total_hits, _hex(res.elapsed_s)]
    else:
        config = {"get_data_whole_regions": False} if (
            scenario == "get_data" and strategy is Strategy.HISTOGRAM
        ) else {}
        system = deployment(traced, **config)
        engine = QueryEngine(system)
        if scenario == "single":
            nodes = [
                cond("energy", ">", 2.0),
                combine_and(cond("energy", ">=", 1.0), cond("energy", "<", 1.5)),
                combine_or(cond("energy", ">", 4.0), cond("energy", "<", 0.2)),
                cond("energy", ">", 100.0),
                cond("energy", ">", 2.0),
            ]
            out["queries"] = [_query(engine.execute(n, strategy=strategy)) for n in nodes]
        elif scenario == "multi":
            nodes = [
                demo,
                combine_and(cond("x", "<", 20.0), cond("energy", ">", 1.0)),
                combine_or(
                    combine_and(cond("energy", ">", 3.0), cond("x", "<", 50.0)),
                    cond("x", ">", 290.0),
                ),
            ]
            out["queries"] = [_query(engine.execute(n, strategy=strategy)) for n in nodes]
        elif scenario == "constraint":
            slab = HyperSlab(shape=(128, 128), ranges=((10, 60), (5, 100)))
            out["queries"] = [
                _query(engine.execute(demo, strategy=strategy,
                                      region_constraint=(1000, 9000))),
                _query(engine.execute(demo, strategy=strategy,
                                      region_constraint=slab)),
            ]
        elif scenario == "faults":
            system.set_fault_plan(FaultPlan(seed=11, config=FaultConfig(
                pfs_read_error_rate=0.35, pfs_slow_rate=0.2,
                server_crash_rate=0.15, server_slow_rate=0.3, max_retries=1,
            )))
            out["queries"] = [
                _query(engine.execute(demo, strategy=strategy)),
                _query(engine.execute(cond("energy", ">", 1.0), strategy=strategy)),
                _query(engine.execute(cond("x", "<", 100.0), strategy=strategy,
                                      timeout_s=2e-3)),
            ]
        elif scenario == "batch":
            specs = [QuerySpec(node=cond("energy", ">", t), strategy=strategy)
                     for t in (0.5, 1.0, 1.5, 2.0)]
            specs.append(QuerySpec(node=demo, strategy=strategy))
            specs.append(QuerySpec(node=cond("energy", ">", 1.5), strategy=strategy))
            cache = SelectionCache()
            out["batch"] = [_batch(engine.execute_batch(specs, selection_cache=cache)),
                            _batch(engine.execute_batch(specs[:3], selection_cache=cache))]
        elif scenario == "get_data":
            res = engine.execute(demo, strategy=strategy)
            out["query"] = _query(res)
            out["get_data"] = [
                _get_data(engine.get_data(res.selection, name, strategy=strategy))
                for name in ("x", "energy", "x")
            ]
            cold = deployment(False, **config)
            gd = QueryEngine(cold).get_data(res.selection, "x", strategy=strategy)
            out["get_data_cold"] = _get_data(gd)
        elif scenario == "preload":
            out["preload"] = _hex(engine.preload(["energy", "x"]))
            out["queries"] = [_query(engine.execute(demo, strategy=strategy))]
    out["clocks"] = _clocks(system)
    out["metrics"] = _metrics(system)
    if traced:
        out["trace"] = _trace(system.tracer)
    return out


def capture(scenario: str, strategy: Strategy) -> Dict[str, object]:
    """Untraced entries plus the span tree of a traced re-run."""
    entry = _run(scenario, strategy, traced=False)
    entry["trace"] = _run(scenario, strategy, traced=True)["trace"]
    return entry


def _case_ids() -> List[str]:
    return [f"{sc}/{st.name}" for sc in SCENARIOS for st in Strategy]


def _capture_case(case: str) -> Dict[str, object]:
    scenario, name = case.split("/")
    return json.loads(json.dumps(capture(scenario, Strategy[name])))


# -------------------------------------------------------------- comparison
#: Position of ``bytes_read_virtual`` in a recorded step.
_STEP_BYTES = 8


def _changed_by_design(case: str, path: str) -> bool:
    """Entries the sorted-replica byte-accounting fix moves on purpose:
    PDC-SH (and AUTO, which may resolve to it) byte counters of query
    results and their steps, and the matching metrics-render line."""
    if not case.endswith(("/SORT_HIST", "/AUTO")) or "/get_data" in path:
        return False
    if path.endswith("/bytes_read_virtual"):
        return True
    if "/steps/" in path and path.endswith(f"/{_STEP_BYTES}"):
        return True
    return "/metrics/query_bytes/" in path


def _diff(case: str, old, new, path: str, out: List[str]) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(set(old) | set(new)):
            if k not in old or k not in new:
                out.append(f"{path}/{k}: key only on one side")
                continue
            _diff(case, old[k], new[k], f"{path}/{k}", out)
        return
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _diff(case, a, b, f"{path}/{i}", out)
        return
    if old == new:
        return
    if _changed_by_design(case, path):
        return
    out.append(f"{path}: {old!r} != {new!r}")


def _load_fixture() -> Dict[str, object]:
    with open(FIXTURE) as f:
        return json.load(f)


@pytest.mark.parametrize("case", _case_ids())
def test_matches_pre_refactor_fixture(case):
    golden = _load_fixture()[case]
    diffs: List[str] = []
    _diff(case, golden, _capture_case(case), case, diffs)
    assert not diffs, "\n".join(diffs[:20])


def test_sort_hist_byte_counts_only_grow():
    """The tolerated SH differences are byte counters that now include
    the sorted-replica regions read, so they never shrink."""
    golden = _load_fixture()["single/SORT_HIST"]["queries"]
    now = _capture_case("single/SORT_HIST")["queries"]
    for old, new in zip(golden, now):
        assert float.fromhex(new["bytes_read_virtual"]) >= float.fromhex(
            old["bytes_read_virtual"]
        )
        assert new["regions_read"] == old["regions_read"]


def test_fixture_covers_lost_regions_and_every_scenario():
    golden = _load_fixture()
    assert sorted(golden) == sorted(_case_ids())
    lost = [q["lost_regions"] for st in Strategy
            for q in golden[f"faults/{st.name}"]["queries"]]
    assert any(lost)


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if "--write" not in sys.argv:
        sys.exit("usage: test_golden_equivalence.py --write")
    doc = {case: _capture_case(case) for case in _case_ids()}
    with open(FIXTURE, "w") as f:
        json.dump(doc, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(doc)} cases to {FIXTURE}")
