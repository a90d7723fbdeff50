"""Per-layer metrics: the probes of the traced run and the counts every
run collects from public result and stats objects.

Layer names follow the program's modules.  Wall times of the timed phase
are seconds per completed read request (so a layer's share of
``latency_p50_ms`` reads off directly); set-up wall times are seconds
per deployment build.

Per-strategy counts, ``bitmap.index_reads_per_query``, ``parallel.*`` and
``model.sim_ms`` come from the warm-up pass of the last build: it starts
from a fresh deployment, so they repeat exactly for a seed.
``query.regions_read_per_query`` counts the regions evaluation touched,
from storage or from cache.  The remaining counts cover the traced
phase, whose length in requests follows the host's speed.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro import PDCSystem, QueryEngine
from repro.bitmap import wah
from repro.cluster import ClusterManager
from repro.ingest import IngestStream
from repro.obs.monitor import ServiceMonitor
from repro.pdc.server import PDCServer
from repro.query import executor
from repro.query.parallel import ParallelRuntime
from repro.query.scheduler import QueryScheduler
from repro.service import QueryService

from reference import NOMINAL_S
from spans import SpanRecorder, SpanTable
from workloads import STRATEGIES, STRATEGY_KEYS, Phase

_PER_STRATEGY = [
    ("histogram.pruned_fraction", "ratio", "higher"),
    ("query.execute_s", "s", "lower"),
    ("query.execute_self_s", "s", "lower"),
    ("query.regions_read_per_query", "count", "lower"),
    ("query.bytes_virtual_per_hit", "B", "lower"),
    ("model.sim_ms", "sim_ms", "lower"),
]

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("pdc.create_object_s", "s", "lower"),
    ("pdc.build_index_s", "s", "lower"),
    ("pdc.build_sorted_replica_s", "s", "lower"),
    ("bitmap.encode_groups_s", "s", "lower"),
    ("bitmap.index_bytes_ratio", "ratio", "lower"),
    ("bitmap.index_reads_per_query", "count", "lower"),
    *[(f"{base}.{key}", unit, better)
      for base, unit, better in _PER_STRATEGY for key in STRATEGY_KEYS],
    ("query.plan_s", "s", "lower"),
    ("query.get_data_s", "s", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.fallbacks", "count", "lower"),
    ("parallel.ipc_bytes", "B", "lower"),
    ("parallel.dispatch_s", "s", "lower"),
    ("storage.cache_hit_rate", "ratio", "higher"),
    ("storage.cache_evictions", "count", "lower"),
    ("storage.read_s", "s", "lower"),
    ("scheduler.window_size_mean", "count", "higher"),
    ("scheduler.shared_reads", "count", "higher"),
    ("scheduler.selcache_hit_rate", "ratio", "higher"),
    ("scheduler.selcache_invalidations", "count", "lower"),
    ("scheduler.retained_batches", "count", "lower"),
    ("service.drain_s", "s", "lower"),
    ("service.self_s", "s", "lower"),
    ("service.outcomes.done", "count", "higher"),
    ("service.outcomes.failed", "count", "lower"),
    ("service.outcomes.rejected", "count", "lower"),
    ("service.outcomes.shed", "count", "lower"),
    ("service.queue_wait_sim_p99_ms", "ms", "lower"),
    ("ingest.apply_s", "s", "lower"),
    ("ingest.epochs", "count", "higher"),
    ("ingest.compactions", "count", "lower"),
    ("ingest.hist_rebuilds", "count", "lower"),
    ("ingest.index_delta_appends", "count", "higher"),
    ("obs.monitor_s", "s", "lower"),
    ("obs.samples", "count", "lower"),
    ("cluster.migration_s", "s", "lower"),
    ("cluster.moved_bytes_virtual", "B", "lower"),
    ("full_scan_p50_ms", "ms", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("ingest_elements_per_s", "1/s", "higher"),
    ("failed_fraction", "ratio", "lower"),
    ("trace.overhead_fraction", "ratio", "lower"),
    ("trace.throughput_qps", "1/s", "higher"),
    ("trace.untraced_throughput_qps", "1/s", "higher"),
    ("host.reference_ms", "ms", "lower"),
]


def _strategy_tag(*args, **kwargs) -> int:
    strat = kwargs.get("strategy")
    return STRATEGIES.index(strat) if strat in STRATEGIES else -1


def install_probes(rec: SpanRecorder) -> None:
    """Wrap each layer's public entry points where its callers look them
    up (class attributes for methods; ``wah``'s module globals for
    ``encode_groups``, ``executor``'s for the planner's ordering)."""
    rec.wrap(PDCSystem, "create_object", "pdc.create_object")
    rec.wrap(PDCSystem, "build_index", "pdc.build_index")
    rec.wrap(PDCSystem, "build_sorted_replica", "pdc.build_sorted_replica")
    rec.wrap(wah, "encode_groups", "bitmap.encode_groups")
    rec.wrap(QueryEngine, "execute", "query.execute", _strategy_tag)
    rec.wrap(QueryEngine, "get_data", "query.get_data")
    rec.wrap(executor, "order_by_selectivity", "query.plan")
    for kernel in ("mask_coords", "filter_coords", "count_hits"):
        rec.wrap(ParallelRuntime, kernel, "parallel.dispatch")
    rec.wrap(PDCServer, "ensure_region", "storage.read")
    rec.wrap(QueryScheduler, "execute_window", "scheduler.execute_window")
    rec.wrap(QueryService, "drain", "service.drain")
    rec.wrap(IngestStream, "advance_to", "ingest.apply")
    rec.wrap(IngestStream, "flush", "ingest.apply")
    for hook in sorted(vars(ServiceMonitor)):
        if hook.startswith("on_"):
            rec.wrap(ServiceMonitor, hook, "obs.monitor")
    rec.wrap(ClusterManager, "scale_out", "cluster.scale_out")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(
    workload,
    setup: SpanTable,
    setup_repeats: int,
    traced: SpanTable,
    traced_phase: Phase,
    untraced_phase: Phase,
    reference_s: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run;
    ``reference_s`` is the host reference's median over both phases."""
    p = traced_phase
    n = max(1, p.completed)
    L = p.layer
    W = workload.warm_layer
    cold = workload.cold_counts
    out: Dict[str, float] = {
        "pdc.create_object_s": setup.busy("pdc.create_object") / setup_repeats,
        "pdc.build_index_s": setup.busy("pdc.build_index") / setup_repeats,
        "pdc.build_sorted_replica_s": setup.busy("pdc.build_sorted_replica") / setup_repeats,
        "bitmap.encode_groups_s": setup.self_s("bitmap.encode_groups") / setup_repeats,
        "bitmap.index_bytes_ratio": workload.index_bytes_ratio,
        "bitmap.index_reads_per_query": _ratio(
            sum(c.index_reads for c in cold), sum(c.requests for c in cold)
        ),
    }
    for si, key in enumerate(STRATEGY_KEYS):
        c = cold[si]
        considered = c.regions_pruned + c.regions_read + c.regions_cached + c.index_reads
        out[f"histogram.pruned_fraction.{key}"] = _ratio(c.regions_pruned, considered)
        requests = p.counts[si].requests
        out[f"query.execute_s.{key}"] = _ratio(traced.busy("query.execute", si), requests)
        out[f"query.execute_self_s.{key}"] = _ratio(traced.self_s("query.execute", si), requests)
        out[f"query.regions_read_per_query.{key}"] = _ratio(
            c.regions_read + c.regions_cached, c.requests
        )
        out[f"query.bytes_virtual_per_hit.{key}"] = _ratio(c.bytes_virtual, c.nhits)
        out[f"model.sim_ms.{key}"] = workload.sim_ms[si]
    lookups = L["cache_hits"] + L["cache_misses"]
    sel_lookups = L.get("selcache_served", 0.0) + L.get("selcache_misses", 0.0)
    qps_traced = p.completed / p.elapsed_s
    qps_untraced = untraced_phase.completed / untraced_phase.elapsed_s
    attempted = p.attempted + untraced_phase.attempted
    out.update({
        "query.plan_s": traced.busy("query.plan") / n,
        "query.get_data_s": traced.busy("query.get_data") / n,
        "parallel.tasks": W["parallel_tasks"],
        "parallel.fallbacks": W["parallel_fallbacks"],
        "parallel.ipc_bytes": W["parallel_ipc_bytes"],
        "parallel.dispatch_s": traced.busy("parallel.dispatch") / n,
        "storage.cache_hit_rate": _ratio(L["cache_hits"], lookups),
        "storage.cache_evictions": L["cache_evictions"],
        "storage.read_s": traced.busy("storage.read") / n,
        "scheduler.window_size_mean": _ratio(L.get("window_queries", 0.0), L.get("windows", 0.0)),
        "scheduler.shared_reads": L.get("shared_reads", 0.0),
        "scheduler.selcache_hit_rate": _ratio(L.get("selcache_served", 0.0), sel_lookups),
        "scheduler.selcache_invalidations": L.get("selcache_invalidations", 0.0),
        "scheduler.retained_batches": L.get("retained_batches", 0.0),
        "service.drain_s": traced.busy("service.drain") / n,
        "service.self_s": traced.self_s("service.drain") / n,
        "service.queue_wait_sim_p99_ms": L.get("queue_wait_p99_s", 0.0) * 1e3,
        "ingest.apply_s": traced.busy("ingest.apply") / n,
        "ingest.epochs": L.get("ingest_epochs", 0.0),
        "ingest.compactions": L.get("ingest_compactions", 0.0),
        "ingest.hist_rebuilds": L.get("ingest_hist_rebuilds", 0.0),
        "ingest.index_delta_appends": L.get("ingest_index_delta_appends", 0.0),
        "obs.monitor_s": traced.busy("obs.monitor") / n,
        "obs.samples": L.get("obs_samples", 0.0),
        "cluster.migration_s": traced.busy("cluster.scale_out"),
        "cluster.moved_bytes_virtual": L.get("moved_vbytes", 0.0),
        "full_scan_p50_ms": (
            _median(untraced_phase.latencies_s[0]) * 1e3 * NOMINAL_S / reference_s
        ),
        "write_p50_ms": _median(untraced_phase.write_latencies_s) * 1e3,
        "ingest_elements_per_s": untraced_phase.written_elements / untraced_phase.elapsed_s,
        "failed_fraction": _ratio(p.failed + untraced_phase.failed, attempted),
        "trace.overhead_fraction": 1.0 - _ratio(qps_traced, qps_untraced),
        "trace.throughput_qps": qps_traced,
        "trace.untraced_throughput_qps": qps_untraced,
        "host.reference_ms": reference_s * 1e3,
    })
    for status in ("done", "failed", "rejected", "shed"):
        out[f"service.outcomes.{status}"] = float(p.outcomes.get(status, 0))
    return out
