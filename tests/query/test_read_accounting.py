"""Read accounting shared by every access path: each region read counts
its bytes, reads from the region's storage tier, and the planner's
cache estimates route regions the way the executor does."""

import numpy as np
import pytest

from repro.cluster.rebalance import PlacementMap
from repro.obs.regress import demo_deployment
from repro.obs.tracer import Tracer
from repro.query.ast import Condition
from repro.query.executor import QueryEngine
from repro.query.planner import _uncached_fraction
from repro.query.selection import Selection
from repro.strategies import Strategy
from repro.types import PDCType, QueryOp


def _traced_demo():
    system, node, truth = demo_deployment()
    system.set_tracer(Tracer())
    return system, node, truth


@pytest.mark.parametrize("strategy", list(Strategy))
def test_cold_query_counts_every_read_span(strategy):
    """A cold query's byte and region counters equal what its storage
    read spans say was read — on every access path."""
    system, node, truth = _traced_demo()
    res = QueryEngine(system).execute(node, strategy=strategy)
    assert res.nhits == truth
    reads = [s for s in system.tracer.spans if s.name.startswith("read:")]
    storage = [s for s in reads if s.category == "storage_read"]
    assert res.regions_read == len(storage)
    scale = system.cost.virtual_scale
    assert res.bytes_read_virtual == pytest.approx(
        sum(s.attrs["bytes"] for s in reads) * scale
    )
    assert sum(s.bytes_read_virtual for s in res.step_actuals) == pytest.approx(
        res.bytes_read_virtual
    )


def test_cold_sort_hist_counts_replica_bytes():
    system, node, truth = demo_deployment()
    res = QueryEngine(system).execute(node, strategy=Strategy.SORT_HIST)
    group = system.replicas["energy"]
    assert res.regions_read == 6
    # Key boundary, permutation, and companion regions: 4 + 8 + 4 bytes
    # per element over two replica regions each.
    per_region = int(group.counts[0])
    assert res.bytes_read_virtual == 2 * per_region * (4 + 8 + 4)
    assert res.bytes_read_virtual == 65536.0


def _migrated_demo():
    system, node, truth = demo_deployment()
    obj = system.get_object("energy")
    system.migrate_regions("energy", range(obj.n_regions), "tape")
    system.drop_all_caches()
    return system, node, truth


def test_get_data_reads_from_the_region_tier():
    disk, _, _ = demo_deployment()
    tape, _, _ = _migrated_demo()
    coords = np.arange(0, 1 << 14, 97, dtype=np.int64)
    sel = Selection(coords, 1 << 14)
    on_disk = QueryEngine(disk).get_data(sel, "energy", strategy=Strategy.HISTOGRAM)
    on_tape = QueryEngine(tape).get_data(sel, "energy", strategy=Strategy.HISTOGRAM)
    np.testing.assert_array_equal(on_disk.values, on_tape.values)
    assert on_disk.regions_read == on_tape.regions_read > 0
    assert on_disk.elapsed_s < 0.1
    assert on_tape.elapsed_s > 1.0


def test_index_candidate_check_reads_from_the_region_tier():
    """PDC-HI verifies boundary-bin candidates against raw values; on a
    tape-resident object that raw read pays tape latency."""
    disk, _, _ = demo_deployment()
    tape, _, _ = _migrated_demo()
    # An off-grid bound, so boundary bins hold candidates.
    node = Condition("energy", QueryOp.GT, PDCType.FLOAT, 2.0137)
    on_disk = QueryEngine(disk).execute(node, strategy=Strategy.HIST_INDEX)
    on_tape = QueryEngine(tape).execute(node, strategy=Strategy.HIST_INDEX)
    assert on_disk.nhits == on_tape.nhits
    assert on_tape.regions_read == on_disk.regions_read > 0
    assert on_disk.elapsed_s < 0.1
    assert on_tape.elapsed_s > 1.0


def _all_warm(system):
    QueryEngine(system).preload(["energy"])
    obj = system.get_object("energy")
    return np.arange(obj.n_regions, dtype=np.int64)


def test_planner_cache_estimate_follows_failover():
    system, _, _ = demo_deployment()
    system.fail_server(1)
    rids = _all_warm(system)
    assert _uncached_fraction(system, "energy", rids) == 0.0


def test_planner_cache_estimate_follows_placement():
    system, _, _ = demo_deployment()
    system.set_placement(PlacementMap([0, 1, 2, 0]))
    rids = _all_warm(system)
    assert _uncached_fraction(system, "energy", rids) == 0.0


def test_planner_cache_estimate_on_canonical_placement():
    system, _, _ = demo_deployment()
    obj = system.get_object("energy")
    rids = np.arange(obj.n_regions, dtype=np.int64)
    assert _uncached_fraction(system, "energy", rids) == 1.0
    _all_warm(system)
    assert _uncached_fraction(system, "energy", rids) == 0.0
