"""The benchmark's three workloads, driven through the public API.

Each workload is generated in this process; the program only ever
receives the generated arrays, query specs and writes.  The arrays are the
paper-shaped VPIC particles at a fixed generator seed (``data_seed`` in
``workloads.json``): other generator seeds move the reconnection sites,
and with them the paper queries' costs by about a tenth, which would hide
regressions of that size.  The run's ``--seed`` draws the request stream:
the order of the paper queries, and the service's Zipf reads and writes.
A workload

* builds its deployment ``setup_repeats`` times (create objects, build
  indexes and replicas, construct the engine or service, run one
  untimed warm-up pass) and reports the median wall time as ``setup_s``;
* runs a closed loop of requests on the last deployment for a fixed
  number of wall seconds;
* checks every answer against a numpy oracle.

``paper-single`` and ``paper-multi`` drive :class:`QueryEngine` directly
(the Fig-3 and Fig-4 shapes); ``service-ingest`` drives a multi-tenant
:class:`QueryService` with reads and writes side by side.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import PDCConfig, PDCSystem, QueryEngine, Strategy
from repro.cluster import ClusterManager
from repro.ingest import IngestConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ServiceMonitor
from repro.obs.slo import SLO
from repro.query.ast import Condition, combine_and
from repro.query.executor import QuerySpec
from repro.service import QueryService, ServiceConfig, Tenant
from repro.types import PDCType, QueryOp
from repro.workloads import queries as paper_queries
from repro.workloads.vpic import VPICConfig, generate_vpic

from reference import HostReference

STRATEGIES: Tuple[Strategy, ...] = (
    Strategy.FULL_SCAN,
    Strategy.HISTOGRAM,
    Strategy.HIST_INDEX,
    Strategy.SORT_HIST,
)
#: Metric-name suffix of each strategy, in :data:`STRATEGIES` order.
STRATEGY_KEYS = ("full_scan", "histogram", "hist_index", "sort_hist")


# ------------------------------------------------------------------ oracle
def check_query(coords: np.ndarray, truth: np.ndarray) -> bool:
    """The hit coordinates equal numpy's, element for element."""
    return coords.shape == truth.shape and bool(np.array_equal(coords, truth))


def check_values(values: np.ndarray, expected: np.ndarray) -> bool:
    """The values ``get_data`` returned equal the payload at the hits."""
    return values.shape == expected.shape and bool(np.array_equal(values, expected))


# ------------------------------------------------------------ measurements
@dataclass
class StrategyCounts:
    """Counts from public result objects, for one strategy."""

    requests: int = 0
    nhits: int = 0
    regions_read: int = 0
    regions_cached: int = 0
    regions_pruned: int = 0
    index_reads: int = 0
    bytes_virtual: float = 0.0
    sim_s: float = 0.0

    def add(self, res, gd_bytes: float = 0.0, gd_sim_s: float = 0.0) -> None:
        self.requests += 1
        self.nhits += res.nhits
        self.regions_read += res.regions_read
        self.regions_cached += res.regions_cached
        self.regions_pruned += res.regions_pruned
        self.index_reads += res.index_reads
        self.bytes_virtual += res.bytes_read_virtual + gd_bytes
        self.sim_s += res.elapsed_s + gd_sim_s


@dataclass
class Phase:
    """What one timed phase measured."""

    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    latencies_s: List[List[float]] = field(
        default_factory=lambda: [[] for _ in STRATEGIES]
    )
    write_latencies_s: List[float] = field(default_factory=list)
    written_elements: int = 0
    outcomes: Dict[str, int] = field(
        default_factory=lambda: {"done": 0, "failed": 0, "rejected": 0, "shed": 0}
    )
    counts: List[StrategyCounts] = field(
        default_factory=lambda: [StrategyCounts() for _ in STRATEGIES]
    )
    #: Layer counters: name -> delta over the phase.
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(len(x) for x in self.latencies_s)


def _counter_snapshot(system, engine) -> Dict[str, float]:
    """Public layer counters of one deployment (deltas make a phase's)."""
    caches = [s.cache.stats for s in system.servers]
    snap = {
        "cache_hits": float(sum(c.hits for c in caches)),
        "cache_misses": float(sum(c.misses for c in caches)),
        "cache_evictions": float(sum(c.evictions for c in caches)),
        "parallel_tasks": 0.0,
        "parallel_fallbacks": 0.0,
        "parallel_ipc_bytes": 0.0,
    }
    rt = engine.parallel
    if rt is not None:
        snap["parallel_tasks"] = float(rt.pool_tasks)
        snap["parallel_fallbacks"] = float(sum(rt.fallbacks.values()))
        snap["parallel_ipc_bytes"] = rt.wall_metrics.total(
            "pdc_parallel_ipc_result_bytes_total"
        )
    return snap


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0.0) for k in after}


# ----------------------------------------------------------------- paper-*
class PaperDeployment:
    """One PDC deployment plus its serial or pooled engine."""

    def __init__(self, workload: "PaperWorkload") -> None:
        w = workload
        sc = w.scale
        self.system = PDCSystem(
            PDCConfig(
                n_servers=sc["servers"],
                region_size_bytes=sc["region_size_bytes"],
                virtual_scale=sc["virtual_scale"],
            ),
            metrics=MetricsRegistry(),
        )
        for v in w.objects:
            self.system.create_object(v, w.arrays[v])
        for v in w.indexed:
            self.system.build_index(v)
        if w.sorted_by is not None:
            companions = [v for v in w.objects if v != w.sorted_by]
            self.system.build_sorted_replica(w.sorted_by, companions)
        self.engine = QueryEngine(self.system, workers=sc["workers"])
        self.nodes = [
            paper_queries.build_pdc_query(self.system, spec).node for spec in w.specs
        ]

    def close(self) -> None:
        self.engine.close()


class PaperWorkload:
    """Fig-3 / Fig-4 shapes: one closed-loop client cycling the paper's
    queries under the four strategies, each followed by ``get_data``."""

    def __init__(self, name: str, cfg: dict, seed: int) -> None:
        self.name = name
        self.scale = cfg["scale"]
        self.objects: List[str] = list(cfg["objects"])
        self.indexed: List[str] = list(cfg["indexed"])
        self.sorted_by: Optional[str] = cfg["sorted_by"]
        self.gd_batch = int(cfg["get_data_batch"])
        ds = generate_vpic(
            VPICConfig(n_particles=self.scale["elements"], seed=cfg["data_seed"])
        )
        self.arrays = {v: ds.arrays[v] for v in self.objects}
        self.specs = getattr(paper_queries, cfg["queries"])()
        self.truth = [
            np.flatnonzero(paper_queries.spec_truth_mask(self.arrays, s))
            for s in self.specs
        ]
        pairs = [(q, s) for q in range(len(self.specs)) for s in range(len(STRATEGIES))]
        order = np.random.default_rng(seed).permutation(len(pairs))
        self.pairs = [pairs[i] for i in order]
        #: Indexed payload bytes over data bytes (deterministic).
        self.index_bytes_ratio = 0.0
        #: Simulated ms per strategy of the warm-up pass, its counts and
        #: its layer counters (deterministic for a seed: the pass starts
        #: from a fresh deployment).
        self.sim_ms: List[float] = [0.0] * len(STRATEGIES)
        self.cold_counts: List[StrategyCounts] = []
        self.warm_layer: Dict[str, float] = {}

    def build(self, phase: Phase) -> PaperDeployment:
        dep = PaperDeployment(self)
        warm = Phase()
        before = _counter_snapshot(dep.system, dep.engine)
        for qi, si in self.pairs:
            self._request(dep, qi, si, warm)
        self.warm_layer = _delta(_counter_snapshot(dep.system, dep.engine), before)
        phase.attempted += warm.attempted
        phase.failed += warm.failed
        phase.wrong += warm.wrong
        self.sim_ms = [c.sim_s * 1e3 for c in warm.counts]
        self.cold_counts = warm.counts
        sysm = dep.system
        self.index_bytes_ratio = sum(
            sysm.index_size_bytes(v) for v in self.indexed
        ) / sum(self.arrays[v].nbytes for v in self.indexed)
        return dep

    def _request(self, dep: PaperDeployment, qi: int, si: int, phase: Phase) -> None:
        strat = STRATEGIES[si]
        engine = dep.engine
        phase.attempted += 1
        t0 = time.perf_counter()
        res = engine.execute(dep.nodes[qi], strategy=strat)
        if self.gd_batch:
            got = {
                v: list(engine.get_data_batch(res.selection, v, self.gd_batch, strategy=strat))
                for v in self.objects
            }
        else:
            got = {v: [engine.get_data(res.selection, v, strategy=strat)] for v in self.objects}
        lat = time.perf_counter() - t0

        truth = self.truth[qi]
        ok = res.complete and check_query(res.selection.coords, truth)
        gd_bytes = gd_sim = 0.0
        for v, chunks in got.items():
            values = (
                np.concatenate([c.values for c in chunks])
                if chunks
                else np.zeros(0, dtype=self.arrays[v].dtype)
            )
            ok = ok and check_values(values, self.arrays[v][truth])
            gd_bytes += sum(c.bytes_read_virtual for c in chunks)
            gd_sim += sum(c.elapsed_s for c in chunks)
        if not ok:
            phase.wrong += 1
            phase.failed += 1
            return
        phase.latencies_s[si].append(lat)
        phase.counts[si].add(res, gd_bytes, gd_sim)

    def run(
        self, dep: PaperDeployment, seconds: float, ref: HostReference,
        recorder=None, scale_out=False,
    ) -> Phase:
        phase = Phase()
        before = _counter_snapshot(dep.system, dep.engine)
        n = len(self.pairs)
        i = 0
        spent = 0.0
        t_start = time.perf_counter()
        deadline = t_start + seconds
        while time.perf_counter() < deadline:
            spent += ref.tick()
            qi, si = self.pairs[i % n]
            if recorder is not None:
                recorder.request_id = i
            self._request(dep, qi, si, phase)
            i += 1
        phase.elapsed_s = time.perf_counter() - t_start - spent
        if recorder is not None:
            recorder.request_id = -1
        phase.layer = _delta(_counter_snapshot(dep.system, dep.engine), before)
        return phase


# ---------------------------------------------------------- service-ingest
READ_TENANTS = ("analysis", "dashboard")
WRITE_TENANT = "ingest"
#: The writer's (object, kind) cycle, one write per round.  A round's
#: latency depends mostly on its write: rounds that write the indexed
#: Energy take about twice as long as rounds that write x.  With Energy
#: in three writes of five, the median round lies inside the
#: Energy-overwrite rounds; with an even split it would sit on the gap
#: between two kinds of round and jump across it from run to run.
WRITE_CYCLE = (
    ("Energy", "overwrite"),
    ("x", "overwrite"),
    ("Energy", "append"),
    ("x", "append"),
    ("Energy", "overwrite"),
)


def _cond(obj: str, op: str, value: float) -> Condition:
    """A float32 condition.  Its bound is rounded to the object dtype
    when built, and the oracle applies the rounded bound too."""
    return Condition(obj, QueryOp(op), PDCType.FLOAT, round(float(value), 2))


def _and(conds: Tuple[Condition, ...]):
    node = conds[0]
    for c in conds[1:]:
        node = combine_and(node, c)
    return node


class ServiceDeployment:
    """A WFQ query service with two read tenants and one write tenant,
    its monitor and cluster manager, plus the numpy model the oracle
    checks reads against."""

    def __init__(self, workload: "ServiceWorkload") -> None:
        w = workload
        sc = w.scale
        self.system = PDCSystem(
            PDCConfig(
                n_servers=sc["servers"],
                region_size_bytes=sc["region_size_bytes"],
                virtual_scale=sc["virtual_scale"],
                server_memory_bytes=sc["server_memory_bytes"],
            ),
            metrics=MetricsRegistry(),
        )
        for v in w.objects:
            self.system.create_object(v, w.arrays[v].copy())
        for v in w.indexed:
            self.system.build_index(v)
        self.monitor = ServiceMonitor(
            slos=(
                SLO(
                    name="read-wait",
                    tenant="*",
                    sli="queue_wait",
                    objective=0.99,
                    threshold_s=0.05,
                    fast_window_s=0.5,
                    slow_window_s=2.0,
                ),
            )
        )
        self.system.set_monitor(self.monitor)
        self.service = QueryService(
            self.system,
            ServiceConfig(
                tenants=(
                    Tenant(READ_TENANTS[0], weight=2.0),
                    Tenant(READ_TENANTS[1], weight=1.0),
                    Tenant(WRITE_TENANT, weight=1.0, kind="write"),
                ),
                policy="wfq",
                batch_window=sc["batch_window"],
                use_selection_cache=True,
                ingest=IngestConfig(maintenance="delta"),
                workers=sc["workers"],
            ),
        )
        self.cluster = ClusterManager(self.system)
        #: The oracle's copy of every object, written as the service
        #: says it applied each write.
        self.model = {v: w.arrays[v].copy() for v in w.objects}
        self.reads = np.random.default_rng([w.seed, 1])
        self.writes = np.random.default_rng([w.seed, 2])
        self.n_reads = 0
        self.n_writes = 0

    @property
    def engine(self) -> QueryEngine:
        return self.service.scheduler.engine

    def close(self) -> None:
        self.service.close()


class ServiceWorkload:
    """K closed-loop read clients and one writer sharing a QueryService:
    each round submits K reads drawn from a Zipf-skewed pool of Energy/x
    windows plus one write (overwrite or append), then drains."""

    def __init__(self, name: str, cfg: dict, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.scale = cfg["scale"]
        self.clients = int(cfg["clients"])
        self.objects: List[str] = list(cfg["objects"])
        self.indexed: List[str] = list(cfg["indexed"])
        ds = generate_vpic(
            VPICConfig(n_particles=self.scale["elements"], seed=cfg["data_seed"])
        )
        self.arrays = {v: ds.arrays[v] for v in self.objects}
        # The pool and its popularity ranks are fixed; the seed drives the
        # Zipf draws and the writes.  Energy thresholds nest, so
        # a cached wider answer can be narrowed to a tighter one.
        half = int(self.scale["pool_size"]) // 2
        pool: List[Tuple[str, Tuple[Condition, ...]]] = []
        for c in np.linspace(1.8, 3.2, half):
            pool.append(("Energy", (_cond("Energy", ">", c),)))
        for lo, width in zip(np.linspace(10.0, 280.0, half), np.linspace(2.0, 20.0, half)):
            pool.append(("x", (_cond("x", ">", lo), _cond("x", "<", lo + width))))
        self.pool = [pool[i] for i in np.random.default_rng(0).permutation(len(pool))]
        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
        weights = ranks ** -float(self.scale["zipf_a"])
        self.pool_p = weights / weights.sum()
        self.warmup_rounds = 8
        self.index_bytes_ratio = 0.0
        self.sim_ms: List[float] = [0.0] * len(STRATEGIES)
        self.cold_counts: List[StrategyCounts] = []
        self.warm_layer: Dict[str, float] = {}

    # ---------------------------------------------------------- requests
    @staticmethod
    def _truth(model: np.ndarray, conds: Tuple[Condition, ...]) -> np.ndarray:
        mask = None
        for c in conds:
            m = c.op.apply(model, c.value)
            mask = m if mask is None else (mask & m)
        return np.flatnonzero(mask)

    def _next_write(self, dep: ServiceDeployment):
        """(object, offset or None, values) of the next write."""
        rng = dep.writes
        obj, kind = WRITE_CYCLE[dep.n_writes % len(WRITE_CYCLE)]
        dep.n_writes += 1
        src = self.arrays[obj]
        if kind == "overwrite":
            n = int(self.scale["overwrite_elements"])
            off = int(rng.integers(0, dep.model[obj].size - n))
        else:
            n = int(self.scale["append_elements"])
            off = None
        values = src[rng.integers(0, src.size, n)]
        return obj, off, values

    def round(self, dep: ServiceDeployment, phase: Phase, recorder=None) -> None:
        svc = dep.service
        reads = []
        picks = dep.reads.choice(len(self.pool), size=self.clients, p=self.pool_p)
        for c, pi in enumerate(picks):
            obj, conds = self.pool[int(pi)]
            si = dep.n_reads % len(STRATEGIES)
            if recorder is not None:
                recorder.request_id = dep.n_reads
            dep.n_reads += 1
            spec = QuerySpec(node=_and(conds), strategy=STRATEGIES[si])
            t0 = time.perf_counter()
            ticket = svc.submit(READ_TENANTS[c % len(READ_TENANTS)], spec)
            reads.append((ticket, t0, obj, conds, si))
        obj, off, values = self._next_write(dep)
        t_w = time.perf_counter()
        wticket = svc.submit_write(WRITE_TENANT, obj, values, offset=off)
        svc.drain()
        t_end = time.perf_counter()
        if recorder is not None:
            recorder.request_id = -1

        # Oracle: replay the round in the order the service applied it.
        # Requests of one dispatch window share ``dispatch_s``; windows
        # apply their writes before their reads.
        phase.attempted += len(reads) + 1
        events = [(wticket.dispatch_s, 0, None)] + [
            (r[0].dispatch_s, 1, r) for r in reads
        ]
        for status in [wticket.status] + [r[0].status for r in reads]:
            phase.outcomes[status] = phase.outcomes.get(status, 0) + 1
        for dispatch_s, is_read, r in sorted(
            events, key=lambda e: (np.inf if e[0] is None else e[0], e[1])
        ):
            if not is_read:
                if wticket.status != "done":
                    phase.failed += 1
                    continue
                model = dep.model[obj]
                if off is None:
                    dep.model[obj] = np.concatenate([model, values])
                else:
                    model[off : off + values.size] = values
                phase.write_latencies_s.append(t_end - t_w)
                phase.written_elements += int(values.size)
                continue
            ticket, t0, r_obj, conds, si = r
            if ticket.status != "done":
                phase.failed += 1
                continue
            res = ticket.result
            truth = self._truth(dep.model[r_obj], conds)
            if not (res.complete and check_query(res.selection.coords, truth)):
                phase.failed += 1
                phase.wrong += 1
                continue
            phase.latencies_s[si].append(t_end - t0)
            phase.counts[si].add(res)

    # ------------------------------------------------------------- phases
    def _snapshot(self, dep: ServiceDeployment) -> Dict[str, float]:
        snap = _counter_snapshot(dep.system, dep.engine)
        sched = dep.service.scheduler
        sc = sched.selection_cache.stats
        snap.update(
            selcache_served=float(sc.hits + sc.narrowed + sc.repaired),
            selcache_misses=float(sc.misses),
            selcache_invalidations=float(sc.invalidations),
            windows=float(len(sched.batches)),
            window_queries=float(sum(b.width for b in sched.batches)),
            shared_reads=float(sum(b.shared_reads for b in sched.batches)),
            obs_samples=float(
                sum(len(s) + s.dropped for s in dep.monitor.recorder.all_series())
            ),
        )
        for key, value in dep.service.ingest.totals().items():
            snap["ingest_" + key] = float(value)
        return snap

    def build(self, phase: Phase) -> ServiceDeployment:
        dep = ServiceDeployment(self)
        warm = Phase()
        before = _counter_snapshot(dep.system, dep.engine)
        for _ in range(self.warmup_rounds):
            self.round(dep, warm)
        self.warm_layer = _delta(_counter_snapshot(dep.system, dep.engine), before)
        phase.attempted += warm.attempted
        phase.failed += warm.failed
        phase.wrong += warm.wrong
        self.sim_ms = [c.sim_s * 1e3 for c in warm.counts]
        self.cold_counts = warm.counts
        self.index_bytes_ratio = sum(
            dep.system.index_size_bytes(v) for v in self.indexed
        ) / sum(self.arrays[v].nbytes for v in self.indexed)
        return dep

    def run(
        self, dep: ServiceDeployment, seconds: float, ref: HostReference,
        recorder=None, scale_out=False,
    ) -> Phase:
        phase = Phase()
        before = self._snapshot(dep)
        spent = 0.0
        t_start = time.perf_counter()
        midpoint = t_start + seconds / 2
        deadline = t_start + seconds
        scaled = not scale_out
        while True:
            spent += ref.tick()
            now = time.perf_counter()
            if now >= deadline:
                break
            if not scaled and now >= midpoint:
                dep.cluster.scale_out(1)
                scaled = True
            self.round(dep, phase, recorder)
        phase.elapsed_s = time.perf_counter() - t_start - spent
        phase.layer = _delta(self._snapshot(dep), before)
        hist = dep.cluster.history
        phase.layer["moved_vbytes"] = hist[-1].moved_vbytes if scale_out and hist else 0.0
        phase.layer["retained_batches"] = float(len(dep.service.scheduler.batches))
        waits = [w for st in dep.service.stats.values() for w in st.queue_waits_s]
        phase.layer["queue_wait_p99_s"] = float(np.percentile(waits, 99)) if waits else 0.0
        return phase


WORKLOADS = {
    "paper-single": PaperWorkload,
    "paper-multi": PaperWorkload,
    "service-ingest": ServiceWorkload,
}


def setup_median(workload, repeats: int, phase: Phase, ref: HostReference):
    """Build the deployment ``repeats`` times; returns the last one and
    the median wall seconds of a build (earlier ones are closed first).
    The host reference is sampled around every build."""
    times = []
    dep = None
    for _ in range(repeats):
        if dep is not None:
            dep.close()
            dep = None
            gc.collect()
        for _ in range(3):
            ref.sample()
        t0 = time.perf_counter()
        dep = workload.build(phase)
        times.append(time.perf_counter() - t0)
    for _ in range(3):
        ref.sample()
    return dep, statistics.median(times)
