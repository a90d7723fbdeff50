"""One access-path decision shared by the executor, batch demand and the
planner (:func:`repro.query.access.access_paths`).

* EXPLAIN's per-step paths equal the paths the executor records, for
  every strategy over every index coverage and replica layout.
* Batch demand predicts exactly the data regions the first step reads.
* Bounds a float32 object cannot hold are rounded once, to the value the
  typed condition carries, and every path answers from that value.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.pdc import PDCConfig, PDCSystem
from repro.query.api import PDCquery_create
from repro.query.ast import Condition, combine_and, combine_or, to_dnf
from repro.query.executor import QueryEngine, QuerySpec
from repro.query.planner import estimate_plan
from repro.query.scheduler import QueryScheduler
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp

#: Objects with a bitmap index, for the first/second evaluated object.
INDEX_COVERAGE = [("energy", "pos_x"), ("energy",), ("pos_x",), ()]


def cond(name, op, value):
    return Condition(name, QueryOp(op), PDCType.FLOAT, value)


#: ``energy`` is the more selective object in every conjunct, so it comes
#: first under both selectivity ordering and the order as written.
AND2 = combine_and(cond("energy", ">", 2.0), cond("pos_x", "<", 150.0))
OR2 = combine_or(
    combine_and(cond("energy", ">", 3.0), cond("pos_x", "<", 100.0)),
    combine_and(cond("energy", "<", 0.3), cond("pos_x", ">", 200.0)),
)


def deployment(indexed, replica: bool) -> PDCSystem:
    """Two float32 objects on 4 servers (8 KiB regions)."""
    rng = np.random.default_rng(0)
    system = PDCSystem(
        PDCConfig(n_servers=4, region_size_bytes=1 << 13), metrics=MetricsRegistry()
    )
    n = 1 << 14
    system.create_object("energy", rng.gamma(2.0, 0.7, n).astype(np.float32))
    system.create_object("pos_x", (rng.random(n) * 300).astype(np.float32))
    for name in indexed:
        system.build_index(name)
    if replica:
        system.build_sorted_replica("energy", ["pos_x"])
    return system


def _paths(steps) -> Dict[int, List[Tuple[str, str]]]:
    out: Dict[int, List[Tuple[str, str]]] = {}
    for s in steps:
        out.setdefault(s.conjunct, []).append((s.object_name, s.access_path))
    return out


# ------------------------------------------------- plan/actual agreement
@pytest.mark.parametrize("replica", [True, False], ids=["replica", "no-replica"])
@pytest.mark.parametrize("indexed", INDEX_COVERAGE, ids=lambda c: "+".join(c) or "none")
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.name)
def test_plan_paths_equal_executed_paths(strategy, indexed, replica):
    system = deployment(indexed, replica)
    engine = QueryEngine(system)
    for node in (AND2, OR2):
        res = engine.execute(node, strategy=strategy)
        plan = estimate_plan(system, node, res.strategy)
        actual = _paths(res.step_actuals)
        assert len(actual) == len(to_dnf(node))  # every conjunct ran...
        assert all(len(v) == 2 for v in actual.values())  # ...every step
        assert _paths(plan.steps) == actual


@pytest.mark.parametrize("indexed", INDEX_COVERAGE, ids=lambda c: "+".join(c) or "none")
def test_index_missing_note_names_only_data_read_objects(indexed):
    system = deployment(indexed, replica=False)
    res = QueryEngine(system).execute(AND2, strategy=Strategy.HIST_INDEX)
    plan = estimate_plan(system, AND2, Strategy.HIST_INDEX)
    data_reads = sorted(
        s.object_name for s in res.step_actuals if s.access_path != "index-probe"
    )
    notes = [n for n in plan.notes if n.startswith("index missing on ")]
    if not data_reads:
        assert notes == []
        return
    assert len(notes) == 1
    named = notes[0][len("index missing on "):notes[0].index(":")].split(", ")
    assert sorted(named) == data_reads


# ---------------------------------------------------------- batch demand
@pytest.mark.parametrize("replica", [True, False], ids=["replica", "no-replica"])
@pytest.mark.parametrize("indexed", [("energy", "pos_x"), ()], ids=["indexed", "none"])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.name)
def test_batch_demand_is_what_the_first_step_reads(strategy, indexed, replica):
    system = deployment(indexed, replica)  # cold: nothing cached yet
    engine = QueryEngine(system)
    demand = engine._batch_demand(QuerySpec(node=AND2, strategy=strategy))
    res = engine.execute(AND2, strategy=strategy)
    first = res.step_actuals[0]
    if first.access_path == "pruned-read+scan":
        assert list(demand) == [first.object_name]
        assert demand[first.object_name].size == first.regions_read + first.regions_cached
    elif first.access_path == "full-read+scan":
        # Every step's object is pre-loaded whole by the first step.
        assert sorted(demand) == sorted(s.object_name for s in res.step_actuals)
        for step in res.step_actuals:
            assert demand[step.object_name].size == step.regions_read
    else:
        assert first.access_path in ("index-probe", "binary-search-run")
        assert demand == {}


# ---------------------------------------------- inexact float32 bounds
OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
       "=": operator.eq}
#: Bounds a float32 cannot hold: off-grid near 2, below the smallest
#: subnormal, and one past 2**24.
BOUNDS = (2.0000001, 1e-45, 16777217.0)
#: Elements per region (1 KiB regions of float32).
REGION = 256


def planted(bound: float, n: int = 16 * REGION) -> np.ndarray:
    """Values around ``float32(bound)`` with that value and its two float32
    neighbours planted as region extremes, where min/max pruning, index
    bins and the replica's binary search all meet them."""
    b32 = np.float32(bound)
    rng = np.random.default_rng(7)
    x = (float(b32) + rng.uniform(-8.0, 8.0, n)).astype(np.float32)
    below, above = np.nextafter(b32, np.float32(-np.inf)), np.nextafter(b32, np.float32(np.inf))
    for k, v in enumerate((below, b32, above)):
        top, bottom = slice((3 + 2 * k) * REGION, (4 + 2 * k) * REGION), \
            slice((4 + 2 * k) * REGION, (5 + 2 * k) * REGION)
        x[top] = np.minimum(x[top], v)  # a region whose max is v
        x[bottom] = np.maximum(x[bottom], v)  # a region whose min is v
        x[top.start] = x[bottom.start] = v
    return x


def float_system(x: np.ndarray) -> PDCSystem:
    system = PDCSystem(
        PDCConfig(n_servers=2, region_size_bytes=REGION * 4), metrics=MetricsRegistry()
    )
    system.create_object("v", x)
    system.build_index("v")
    system.build_sorted_replica("v", [])
    return system


def typed_query(system: PDCSystem, op: str, bound: float):
    """``v <op> bound`` through the typed API (float, as the object is)."""
    oid = system.get_object("v").meta.object_id
    return PDCquery_create(system, oid, op, "float", bound).node


def truth(x: np.ndarray, op: str, bound: float) -> np.ndarray:
    return np.flatnonzero(OPS[op](x, np.float32(bound)))


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.name)
def test_inexact_bound_answers_match_numpy_cast(strategy, bound):
    x = planted(bound)
    system = float_system(x)
    engine = QueryEngine(system)
    for op in OPS:
        res = engine.execute(typed_query(system, op, bound), strategy=strategy)
        np.testing.assert_array_equal(res.selection.coords, truth(x, op, bound), err_msg=op)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.name)
def test_inexact_bound_through_narrowing_selection_cache(strategy, bound):
    x = planted(bound)
    system = float_system(x)
    b32 = float(np.float32(bound))
    with QueryScheduler(system, max_width=4) as sched:
        # Cache supersets of every later interval, then narrow from them.
        sched.run([typed_query(system, ">", b32 - 4.0), typed_query(system, "<", b32 + 4.0)],
                  strategy=strategy)
        results = sched.run([typed_query(system, op, bound) for op in OPS], strategy=strategy)
    for op, res in zip(OPS, results):
        assert res.semantic_cache == "narrowed", op
        np.testing.assert_array_equal(res.selection.coords, truth(x, op, bound), err_msg=op)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.name)
def test_inexact_bound_on_uncompacted_delta_regions(strategy, bound):
    # The tail region is partly filled, so the append lands in its WAH
    # delta segment (uncompacted); the appended values hold the planted
    # value and its neighbours.
    head = planted(bound)[: -REGION // 2]
    b32 = np.float32(bound)
    tail = np.concatenate([
        np.repeat([np.nextafter(b32, np.float32(-np.inf)), b32,
                   np.nextafter(b32, np.float32(np.inf))], 8).astype(np.float32),
        head[:64],
    ])
    system = float_system(head)
    system.append_to_object("v", tail, maintenance="delta")
    assert system.get_object("v").index_delta_counts.any()
    x = np.concatenate([head, tail])
    engine = QueryEngine(system)
    for op in OPS:
        res = engine.execute(typed_query(system, op, bound), strategy=strategy)
        np.testing.assert_array_equal(res.selection.coords, truth(x, op, bound), err_msg=op)
