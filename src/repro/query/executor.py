"""The parallel query engine: plans, evaluates, and times queries.

Implements §III-C/§III-D end to end.  The engine computes query *answers*
on whole-object arrays with vectorized numpy (the simulator holds the real,
scaled-down data), while *costs* are charged per region to per-server
simulated clocks:

1. the client serializes the condition tree and broadcasts it to all
   servers;
2. regions are assigned to servers by a stable, load-balanced mapping;
   each server fetches the metadata of its regions once (then cached);
3. per conjunct, conditions are ordered by global-histogram selectivity;
   regions are pruned by per-region min/max; surviving regions are read
   (or their index files / sorted-replica runs are) and scanned; subsequent
   conditions check only the already-matched locations;
4. servers ship hit counts/coordinates back; the client merges (and for OR,
   deduplicates) them.

Elapsed simulated time of a query is the distance between two
bulk-synchronous barriers around the evaluation — exactly the end-to-end
"client issues query until it receives all results" measurement of §V.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    QueryError,
    QueryShapeError,
    QueryTimeoutError,
    RegionUnavailableError,
)
from ..histogram.selectivity import order_by_selectivity
from ..interval import Interval
from ..obs.tracer import Span
from ..pdc.placement import assign_region_ids
from ..pdc.region import region_key
from ..pdc.system import PDCSystem, ReplicaGroup, StoredObject
from ..storage.aggregator import coords_to_extents
from ..storage.device import DeviceKind
from ..strategies import Strategy
from .ast import Conjunct, QueryNode, conjunct_intervals, objects_of, to_dnf
from .access import (
    BINARY_SEARCH,
    FULL_READ,
    INDEX_PROBE,
    PRUNED_SCAN,
    RECHECK,
    REPLICA_SLICE,
    access_paths,
)
from .parallel import inline_kernel
from .planner import replica_regions_of
from .region_constraint import RegionConstraint, normalize_constraint
from .selection import Selection

__all__ = [
    "QueryEngine",
    "QueryResult",
    "QuerySpec",
    "BatchResult",
    "GetDataResult",
    "MetaDataQueryResult",
    "StepActual",
]

#: Approximate wire size of a serialized query plan.
_PLAN_BYTES = 256
#: Approximate wire size of one region's metadata record.
_REGION_META_BYTES = 96
#: Page size for binary-search probes on sorted replicas.
_PROBE_BYTES = 4096


@dataclass
class StepActual:
    """Measured outcome of one evaluation step (one condition of one
    conjunct), the executor-side counterpart of
    :class:`~repro.query.planner.StepEstimate`.

    ``hits`` is the *cumulative* count surviving after this condition was
    applied (the conjunct is an AND chain), so the first step's hits are
    directly comparable to the planner's selectivity estimate while later
    steps measure how fast the candidate set shrinks.  Region/byte counters
    are deltas attributable to this step alone; ``elapsed_s`` is how far
    the global simulated-time frontier advanced while the step ran (pure
    reads of the clocks — recording a step never charges anything).
    """

    conjunct: int
    object_name: str
    interval: Interval
    #: Surviving hits after this condition (cumulative within the conjunct).
    hits: int
    regions_read: int = 0
    regions_cached: int = 0
    regions_pruned: int = 0
    index_reads: int = 0
    bytes_read_virtual: float = 0.0
    #: Simulated seconds the time frontier advanced during this step.
    elapsed_s: float = 0.0
    #: Access path actually taken (one of :mod:`repro.query.access`'s).
    access_path: str = ""


@dataclass
class QueryResult:
    """Outcome of one query evaluation."""

    nhits: int
    selection: Optional[Selection]
    #: End-to-end simulated seconds (client issue → all results received).
    elapsed_s: float
    strategy: Strategy
    #: Objects in evaluation order (after selectivity ordering).
    evaluation_order: List[str] = field(default_factory=list)
    #: Data regions read from storage during evaluation.
    regions_read: int = 0
    #: Regions skipped by histogram min/max pruning.
    regions_pruned: int = 0
    #: Regions served from server caches.
    regions_cached: int = 0
    #: Index files read (PDC-HI).
    index_reads: int = 0
    #: Virtual bytes read from the PFS during this query.
    bytes_read_virtual: float = 0.0
    #: Root span of this query's trace when a real tracer was installed on
    #: the system (``None`` under the default no-op tracer).
    trace: Optional[Span] = field(default=None, repr=False, compare=False)
    #: False when fault recovery had to degrade the answer: some regions
    #: stayed unreadable after retries, or the query timed out.  A degraded
    #: result is a *subset* of the true answer (hits in lost regions are
    #: dropped, never invented) — see docs/robustness.md.
    complete: bool = True
    #: The query exceeded its simulated-time budget (partial result).
    timed_out: bool = False
    #: Storage-read retries performed during this query (fault recovery).
    retries: int = 0
    #: Crashed servers whose region share was re-assigned mid-query.
    failovers: int = 0
    #: server id → error messages for reads that exhausted their retries.
    server_errors: Dict[int, List[str]] = field(default_factory=dict)
    #: Region cache keys whose payloads were unreadable (degraded mode).
    lost_regions: List[str] = field(default_factory=list)
    #: How the semantic selection cache served this query: "" (evaluated
    #: normally), "hit" (exact interval match, zero I/O), or "narrowed"
    #: (subsumed by a cached superset interval, filtered client-side).
    semantic_cache: str = ""
    #: Per-condition measured actuals in evaluation order — what EXPLAIN
    #: ANALYZE joins against the planner's :class:`StepEstimate` s.
    step_actuals: List[StepActual] = field(default_factory=list, repr=False)
    #: This query's attributed share of its batch's shared-scan pass (both
    #: zero outside a batch): the virtual bytes read on its behalf by the
    #: shared pass, and the matching slice of the pass's elapsed time.
    #: Without these, a batched query whose regions were preloaded would
    #: report zero read cost and EXPLAIN ANALYZE would under-account it.
    batch_shared_bytes_virtual: float = 0.0
    batch_shared_elapsed_s: float = 0.0


@dataclass
class QuerySpec:
    """One query of a batch: a condition tree plus its per-query options
    (what :meth:`QueryEngine.execute` takes as keyword arguments)."""

    node: QueryNode
    want_selection: bool = True
    region_constraint: Optional[RegionConstraint] = None
    strategy: Optional[Strategy] = None
    timeout_s: Optional[float] = None
    #: Service-level dispatch priority (higher first).  The engine itself
    #: ignores it; the service frontend and priority-aware schedulers
    #: order on it (``PDCquery_set_priority``).
    priority: int = 0


@dataclass
class BatchResult:
    """Outcome of one shared-scan batch execution.

    ``results[i]`` is query *i*'s individually-timed :class:`QueryResult`
    (or ``None`` when it raised — see ``errors``).  The ``shared_*``
    fields account the batch-level shared-scan pass: regions demanded by
    more than one query in the window are read exactly once, and their
    PFS bytes, retries, and fault charges land here instead of on any
    single query.
    """

    results: List[Optional[QueryResult]]
    #: Queries admitted to this batch.
    width: int = 0
    #: Simulated seconds from batch admission to the last query's result.
    elapsed_s: float = 0.0
    #: Distinct (object, region) pairs demanded by >= 2 queries.
    shared_regions: int = 0
    #: Shared regions actually read from storage by the batch pass.
    shared_reads: int = 0
    #: Shared regions already resident when the batch pass ran.
    shared_cached: int = 0
    #: Virtual bytes the shared pass read from the PFS.
    shared_bytes_virtual: float = 0.0
    #: Virtual bytes saved vs each query reading its demand itself:
    #: sum over shared reads of (demand count - 1) * region bytes.
    saved_bytes_virtual: float = 0.0
    #: Storage-read retries charged to the shared pass (fault recovery).
    retries: int = 0
    #: Queries served by an exact semantic-cache match (zero I/O).
    semantic_hits: int = 0
    #: Queries served by narrowing a cached superset selection (no I/O).
    semantic_narrowed: int = 0
    #: Queries served by healing a dirty cached selection in place
    #: (region-scoped writes re-evaluated over just the written spans).
    semantic_repaired: int = 0
    #: Cacheable queries that missed the semantic cache.
    semantic_misses: int = 0
    #: query index -> exception raised by that query's evaluation.
    errors: Dict[int, Exception] = field(default_factory=dict)
    #: server id -> shared-pass read errors (regions left for the
    #: demanding queries to retry individually).
    server_errors: Dict[int, List[str]] = field(default_factory=dict)

    @property
    def total_bytes_read_virtual(self) -> float:
        """Virtual PFS bytes the whole batch read: shared pass plus every
        query's own reads."""
        return self.shared_bytes_virtual + sum(
            r.bytes_read_virtual for r in self.results if r is not None
        )


@dataclass
class GetDataResult:
    """Outcome of materializing a selection's values.

    ``elapsed_s`` is the barrier-to-barrier simulated time of the
    materialization alone; regions preloaded earlier (by evaluation, a
    batch's shared pass, or :meth:`QueryEngine.preload`) show up as
    ``regions_cached`` with zero bytes here — their read cost was charged
    where the read actually happened, never dropped.
    """

    values: np.ndarray
    elapsed_s: float
    regions_read: int = 0
    regions_cached: int = 0
    #: Virtual PFS bytes this materialization itself read (cache-miss
    #: regions only; cached regions were paid for by whoever loaded them).
    bytes_read_virtual: float = 0.0


@dataclass
class MetaDataQueryResult:
    """Outcome of a combined metadata + data query (§VI-C)."""

    object_names: List[str]
    per_object_hits: Dict[str, int]
    total_hits: int
    elapsed_s: float


@dataclass(frozen=True)
class _RegionSet:
    """What reading one region of a region-partitioned payload needs: its
    cache key, its byte size, and the storage tier it lives on.  Data
    objects and each part of a sorted replica (key, permutation,
    companions) are all read through this one description."""

    name: str
    #: Replica tag of :func:`region_key` ("orig" for object data).
    replica: str
    #: Elements per region.
    counts: np.ndarray
    itemsize: int
    tier_of: Callable[[int], str]

    def key(self, rid: int) -> str:
        return region_key(self.name, rid, replica=self.replica)

    def nbytes(self, rid: int) -> int:
        return int(self.counts[rid]) * self.itemsize


def _data_regions(obj: StoredObject) -> _RegionSet:
    return _RegionSet(obj.name, "orig", obj.counts, obj.itemsize, obj.tier_of)


def _replica_regions(group: ReplicaGroup, which: str, itemsize: int) -> _RegionSet:
    """One part of a sorted replica: ``which`` is "key", "perm", or a
    companion object's name.  Replicas are never migrated off disk."""
    return _RegionSet(
        group.replica.key_name, f"sorted:{which}", group.counts, itemsize,
        lambda rid: DeviceKind.DISK,
    )


#: What a step that lost no region returns.
_NO_REGIONS = np.zeros(0, dtype=np.int64)


@dataclass
class _ConjunctRun:
    """One conjunct's evaluation state, passed through its steps."""

    steps: List[StepActual]
    constraint: Tuple[int, int]
    stats: QueryResult
    #: The sorted replica serving the conjunct (PDC-SH's binary search).
    replica: Optional[ReplicaGroup] = None
    #: Candidate coordinates the last step left; None before the first
    #: step, whose candidates are the whole constraint window.
    coords: Optional[np.ndarray] = None
    #: Replica path: the matching run of sorted positions, its regions,
    #: which positions still match, and replica region ids lost so far.
    sorted_run: Tuple[int, int] = (0, 0)
    run_regions: Optional[np.ndarray] = None
    mask: Optional[np.ndarray] = None
    replica_lost: List[np.ndarray] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return int(self.coords.size if self.mask is None else self.mask.sum())

    @property
    def empty(self) -> bool:
        """No candidate is left: the conjunct ends (§III-C).  A replica run
        ends only if the run is empty; each slice filters the whole run."""
        return (self.coords if self.mask is None else self.mask).size == 0


#: Hot kernel name -> the :class:`ParallelRuntime` method that pools it.
_POOLED_KERNELS = {"mask": "mask_coords", "filter": "filter_coords", "count": "count_hits"}


def hash_name(name: str) -> int:
    """Deterministic object-name hash (server assignment for small
    objects)."""
    return zlib.crc32(name.encode("utf-8"))


class QueryEngine:
    """Query evaluation service bound to one :class:`PDCSystem`.

    The two boolean knobs exist for the ablation benches: disabling
    ``enable_ordering`` evaluates multi-object conditions in user order
    (no selectivity planning); disabling ``enable_pruning`` reads every
    region regardless of histogram min/max.

    ``workers > 1`` evaluates the numpy hot kernels (interval masks,
    candidate re-checks, hit counts) in a forked process pool with a
    deterministic region-order merge — answers, simulated clocks,
    metrics, and bench fingerprints are bit-identical to serial
    execution (see :mod:`repro.query.parallel` and
    ``docs/parallelism.md``); only wall-clock time changes.  Call
    :meth:`close` (or use the engine as a context manager) to reap the
    pool.
    """

    def __init__(
        self,
        system: PDCSystem,
        enable_ordering: bool = True,
        enable_pruning: bool = True,
        workers: int = 0,
        parallel: Optional["ParallelRuntime"] = None,
    ) -> None:
        self.system = system
        self.enable_ordering = enable_ordering
        self.enable_pruning = enable_pruning
        #: Simulated-time deadline of the query in flight (None = no limit).
        self._deadline: Optional[float] = None
        #: Real-parallel runtime (None = serial wall-clock execution).
        self.parallel: Optional["ParallelRuntime"] = None
        self._owns_runtime = False
        if parallel is not None:
            self.parallel = parallel
        elif workers and int(workers) > 1:
            from .parallel import ParallelRuntime

            self.parallel = ParallelRuntime(int(workers))
            self._owns_runtime = True
        if self.parallel is not None:
            self.parallel.bind(system)
        #: Optional :class:`~repro.obs.walltime.WallProfiler` timing the
        #: *serial* hot-path kernels (the pooled ones are stamped by the
        #: runtime itself).  None by default: one attribute read per
        #: kernel call, zero effect on simulated results.
        self.wall_profiler = None

    @property
    def workers(self) -> int:
        """Wall-clock worker count (1 = serial execution)."""
        return self.parallel.workers if self.parallel is not None else 1

    def set_wall_profiler(self, profiler) -> None:
        """Install (or remove, with None) a wall-clock profiler on this
        engine and its parallel runtime, if any."""
        self.wall_profiler = profiler
        if self.parallel is not None:
            self.parallel.profiler = profiler

    def close(self) -> None:
        """Release the parallel runtime (no-op for serial engines)."""
        if self.parallel is not None and self._owns_runtime:
            self.parallel.close()
            self.parallel = None

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_deadline(self) -> None:
        """Raise :class:`QueryTimeoutError` once simulated time passes the
        in-flight query's deadline (installed by :meth:`execute`)."""
        deadline = self._deadline
        if deadline is None:
            return
        now = self._frontier()
        if now > deadline:
            raise QueryTimeoutError(
                f"query passed its simulated deadline: t={now:.6f}s > "
                f"{deadline:.6f}s"
            )

    # ------------------------------------------------------------ public API
    def execute(
        self,
        root: QueryNode,
        want_selection: bool = True,
        region_constraint: Optional[RegionConstraint] = None,
        strategy: Optional[Strategy] = None,
        timeout_s: Optional[float] = None,
    ) -> QueryResult:
        """Evaluate a condition tree; returns hit count (and selection).

        ``region_constraint`` is the optional spatial constraint of
        ``PDCquery_set_region``: a half-open flat coordinate range, or an
        N-D :class:`HyperSlab` over the objects' logical shape.  Either way
        it need not align with PDC's internal region partitions (§III-A).

        ``timeout_s`` bounds the query's *simulated* elapsed time
        (defaulting to the installed fault plan's ``query_timeout_s``);
        when exceeded, evaluation stops and a partial result is returned
        with ``timed_out=True`` and ``complete=False``.
        """
        sysm = self.system
        tracer = sysm.tracer
        with tracer.span("query", sysm.client_clock, category="query") as qspan:
            requested = strategy or sysm.strategy
            with tracer.span("plan", sysm.client_clock, category="plan") as pspan:
                strat = self._resolve_strategy(requested, root)
                if requested is Strategy.AUTO:
                    # Planning uses only server-cached metadata, charged
                    # as client-side overhead.
                    sysm.client_clock.charge(
                        sysm.cost.params.client_overhead_s, "plan"
                    )
                pspan.set(strategy=strat.name)
                names, objs = self._query_objects(root)
                domain = objs[0].n_elements
                (cstart, cstop), slab = normalize_constraint(
                    region_constraint, domain
                )
            qspan.set(strategy=strat.name, objects=list(names))

            t_start = sysm.sync_clocks()

            # Fault setup: per-query straggler drags, simulated deadline,
            # retry baseline.  All of this is skipped (bit-identically)
            # when no plan is installed.
            stats = QueryResult(
                nhits=0, selection=None, elapsed_s=0.0, strategy=strat
            )
            plan = sysm.fault_plan
            retries_before = sum(s.retries_total for s in sysm.servers)
            dragged: List = []
            if plan is not None and plan.config.server_slow_rate > 0.0:
                for server in sysm.alive_servers:
                    factor = plan.server_slow_factor(server.server_id)
                    if factor != 1.0:
                        server.clock.drag = factor
                        dragged.append(server)
                        tracer.instant(
                            f"slow:server{server.server_id}", server.clock,
                            category="fault", factor=factor,
                        )
            if timeout_s is not None:
                self._deadline = t_start + timeout_s
            elif plan is not None and plan.config.query_timeout_s is not None:
                self._deadline = t_start + plan.config.query_timeout_s
            else:
                self._deadline = None

            try:
                # 1. Client serializes + broadcasts the plan; servers receive.
                # Servers meeting the client's broadcast instant is
                # communication rendezvous, not idle waiting.
                with tracer.span("broadcast", sysm.client_clock, category="comm"):
                    sysm.client_clock.charge(sysm.cost.params.client_overhead_s, "client")
                    sysm.client_clock.charge(
                        sysm.cost.net_time(_PLAN_BYTES, scaled=False), "net"
                    )
                    for server in sysm.alive_servers:
                        server.clock.advance_to(sysm.client_clock.now, category="comm")
                        server.clock.charge(
                            sysm.cost.net_time(_PLAN_BYTES, scaled=False), "net"
                        )
                        server.clock.charge(sysm.cost.params.server_overhead_s, "server")

                    # 2. Metadata distribution (charged once per object per
                    # server).
                    self._ensure_metadata(names)

                # 3. DNF evaluation with OR-union at the client.
                conjunct_leaf_sets = to_dnf(root)
                coords_acc: Optional[np.ndarray] = None
                try:
                    self._check_deadline()
                    for ci, leaves in enumerate(conjunct_leaf_sets):
                        conjunct = conjunct_intervals(leaves)
                        if conjunct is None:  # contradictory conditions: matches nothing
                            continue
                        with tracer.span(
                            f"conjunct[{ci}]", sysm.client_clock, category="conjunct",
                            objects=sorted(conjunct),
                        ):
                            coords = self._eval_conjunct(
                                conjunct, (cstart, cstop), strat, stats, ci
                            )
                        if slab is not None:
                            # Exact N-D filtering of the bounding-range hits; servers
                            # evaluate whole regions intersecting the slab's bounds,
                            # which is what the cost accounting above charged.
                            coords = slab.filter_flat(coords)
                        if coords_acc is None:
                            coords_acc = coords
                        elif coords.size:
                            # §III-C: OR results combined and deduplicated via merge.
                            sysm.client_clock.charge(
                                sysm.cost.scan_time(coords_acc.size + coords.size), "merge"
                            )
                            coords_acc = np.union1d(coords_acc, coords)
                        # §III-C special case: a disjunct selecting everything ends the
                        # union early.
                        full_count = slab.n_elements if slab is not None else cstop - cstart
                        if coords_acc is not None and coords_acc.size == full_count:
                            break
                        self._check_deadline()
                except QueryTimeoutError as exc:
                    # Degrade: keep whatever the finished conjuncts produced.
                    stats.timed_out = True
                    stats.complete = False
                    tracer.instant(
                        "query_timeout", sysm.client_clock, category="fault",
                        detail=str(exc),
                    )
                if coords_acc is None:
                    coords_acc = np.zeros(0, dtype=np.int64)
            finally:
                for server in dragged:
                    server.clock.drag = 1.0
                self._deadline = None
                stats.retries = (
                    sum(s.retries_total for s in sysm.servers) - retries_before
                )

            # 4. Result shipping: servers send their share, client aggregates.
            with tracer.span(
                "result_transfer", sysm.client_clock, category="result_transfer",
                nhits=int(coords_acc.size),
            ):
                self._charge_result_transfer(objs[0], coords_acc, want_selection)

            t_end = sysm.sync_clocks()
            stats.nhits = int(coords_acc.size)
            stats.selection = Selection(coords_acc, domain) if want_selection else None
            stats.elapsed_s = t_end - t_start
            qspan.set(
                nhits=stats.nhits, elapsed_s=stats.elapsed_s,
                complete=stats.complete,
            )
        stats.trace = qspan.span
        self._record_query_metrics(stats)
        return stats

    # --------------------------------------------------------- batch execution
    def execute_batch(
        self,
        queries: Sequence[object],
        selection_cache=None,
    ) -> BatchResult:
        """Evaluate a window of queries with shared-scan batching.

        Regions demanded by **more than one** query of the window are made
        resident by a single shared read pass before per-query evaluation,
        so the batch pays their PFS bytes (and any fault retries) once;
        each query then executes individually, reporting its own simulated
        latency, trace, and metrics exactly as :meth:`execute` would.  A
        batch whose queries demand disjoint region sets performs no shared
        pass at all and is bit-identical to running the queries
        sequentially.

        ``queries`` items are :class:`QuerySpec` instances or bare
        condition trees.  ``selection_cache`` is an optional
        :class:`~repro.query.scheduler.SelectionCache`: single-object
        interval queries are served from it — exactly, or by narrowing a
        cached superset interval's selection — with zero storage I/O.
        """
        sysm = self.system
        specs = [
            q if isinstance(q, QuerySpec) else QuerySpec(node=q) for q in queries
        ]
        batch = BatchResult(results=[None] * len(specs), width=len(specs))
        t_start = sysm.sync_clocks()

        # Demand estimation: a deterministic, metadata-only dry run of each
        # query's first-condition region set.  Queries whose demand cannot
        # be derived from metadata alone (index probes, sorted-replica
        # runs, unresolvable plans) contribute nothing and amortize through
        # the ordinary region caches instead.
        demand_counts: Dict[Tuple[str, int], int] = {}
        spec_demands: List[set] = []
        for spec in specs:
            keys = set()
            for name, rids in self._batch_demand(spec).items():
                for rid in rids:
                    keys.add((name, int(rid)))
            spec_demands.append(keys)
            for k in keys:
                demand_counts[k] = demand_counts.get(k, 0) + 1
        shared = sorted(k for k, c in demand_counts.items() if c >= 2)
        batch.shared_regions = len(shared)

        retries_before = sum(s.retries_total for s in sysm.servers)
        read_vbytes: Dict[Tuple[str, int], float] = {}
        shared_elapsed = 0.0
        if shared:
            read_vbytes = self._shared_read_pass(shared, demand_counts, batch)
            shared_elapsed = sysm.sync_clocks() - t_start
        batch.retries = sum(s.retries_total for s in sysm.servers) - retries_before

        def _attribute_share(i: int, res: QueryResult) -> None:
            # Satellite fix: a query whose regions the shared pass preloaded
            # would otherwise report zero read cost; give each query its
            # demand-weighted slice of the pass's bytes and elapsed time.
            if not read_vbytes:
                return
            share = sum(
                read_vbytes[k] / demand_counts[k]
                for k in spec_demands[i]
                if k in read_vbytes
            )
            if share <= 0.0:
                return
            res.batch_shared_bytes_virtual = share
            if batch.shared_bytes_virtual > 0.0:
                res.batch_shared_elapsed_s = (
                    shared_elapsed * share / batch.shared_bytes_virtual
                )

        for i, spec in enumerate(specs):
            ck = self._semantic_key(spec) if selection_cache is not None else None
            if ck is not None:
                served = selection_cache.fetch(sysm, ck[0], ck[1])
                if served is not None:
                    sel, kind, scanned = served
                    served_res = self._cache_served_result(
                        spec, sel, kind, scanned
                    )
                    _attribute_share(i, served_res)
                    batch.results[i] = served_res
                    if kind == "hit":
                        batch.semantic_hits += 1
                    elif kind == "repaired":
                        batch.semantic_repaired += 1
                    else:
                        batch.semantic_narrowed += 1
                    continue
                batch.semantic_misses += 1
            try:
                res = self.execute(
                    spec.node,
                    want_selection=spec.want_selection,
                    region_constraint=spec.region_constraint,
                    strategy=spec.strategy,
                    timeout_s=spec.timeout_s,
                )
            except Exception as exc:  # per-query isolation inside a batch
                batch.errors[i] = exc
                continue
            _attribute_share(i, res)
            batch.results[i] = res
            if (
                ck is not None
                and res.complete
                and not res.timed_out
                and res.selection is not None
            ):
                selection_cache.put(ck[0], ck[1], res.selection)

        batch.elapsed_s = sysm.sync_clocks() - t_start
        self._record_batch_metrics(batch)
        return batch

    def _shared_read_pass(
        self,
        shared: List[Tuple[str, int]],
        demand_counts: Dict[Tuple[str, int], int],
        batch: BatchResult,
    ) -> Dict[Tuple[str, int], float]:
        """Read each shared (object, region) once, charged to the batch.

        Returns the virtual bytes actually read per (object, region) —
        cache hits and unreadable regions contribute nothing — so the
        caller can attribute each query its demand-weighted share."""
        sysm = self.system
        read_vbytes: Dict[Tuple[str, int], float] = {}
        with sysm.tracer.span(
            "batch_shared_read", sysm.client_clock, category="batch",
            regions=len(shared),
        ):
            by_object: Dict[str, List[int]] = {}
            for name, rid in shared:
                by_object.setdefault(name, []).append(rid)
            for name in sorted(by_object):
                src = _data_regions(sysm.get_object(name))

                def preload(server, rid: int, readers: int, src=src) -> None:
                    nbytes = src.nbytes(rid)
                    try:
                        hit = server.preload_region(
                            src.key(rid), nbytes, sysm.config.pdc_stripe_count,
                            readers, tier=src.tier_of(rid),
                        )
                    except RegionUnavailableError as exc:
                        # Leave the region to the demanding queries'
                        # own retry/degrade machinery.
                        batch.server_errors.setdefault(
                            server.server_id, []
                        ).append(str(exc))
                        return
                    if hit:
                        batch.shared_cached += 1
                        return
                    vbytes = nbytes * sysm.cost.virtual_scale
                    batch.shared_reads += 1
                    batch.shared_bytes_virtual += vbytes
                    batch.saved_bytes_virtual += vbytes * (
                        demand_counts[(src.name, rid)] - 1
                    )
                    read_vbytes[(src.name, rid)] = vbytes

                rids = np.asarray(sorted(by_object[name]), dtype=np.int64)
                self._read_regions(src, rids, read=preload)
        return read_vbytes

    def _batch_demand(self, spec: QuerySpec) -> Dict[str, np.ndarray]:
        """Data regions a query is expected to read, from metadata alone:
        per conjunct, what its first step's access path reads — every
        object's window for a full read, the first object's surviving
        regions for a pruned scan (:meth:`_candidates`, charging nothing).
        Index probes and replica runs read no plain data regions; they
        share through the ordinary server caches.  Any failure degrades
        to "no demand"; the query still runs normally."""
        sysm = self.system
        demand: Dict[str, set] = {}
        try:
            strat = self._resolve_strategy(spec.strategy, spec.node, record=False)
            _names, objs = self._query_objects(spec.node)
            constraint, _slab = normalize_constraint(
                spec.region_constraint, objs[0].n_elements
            )
            window = _ConjunctRun([], constraint, QueryResult(
                nhits=0, selection=None, elapsed_s=0.0, strategy=strat
            ))
            for leaves in to_dnf(spec.node):
                conjunct = conjunct_intervals(leaves)
                ordered = None if conjunct is None else self._order_conjunct(
                    conjunct, strat
                )
                if ordered is None:
                    continue
                first = access_paths(sysm, strat, [n for n, _ in ordered])[0][0]
                reads = {FULL_READ: ordered, PRUNED_SCAN: ordered[:1]}.get(first, [])
                for name, iv in reads:
                    regions, _ = self._candidates(
                        window, sysm.get_object(name), iv, prune=first == PRUNED_SCAN
                    )
                    demand.setdefault(name, set()).update(regions.tolist())
        except Exception:
            return {}
        return {
            name: np.asarray(sorted(rids), dtype=np.int64)
            for name, rids in demand.items()
            if rids
        }

    def _semantic_key(self, spec: QuerySpec) -> Optional[Tuple[str, Interval]]:
        """(object, interval) when the query is a single-object interval
        with no spatial constraint — the only shape the semantic selection
        cache memoizes."""
        if spec.region_constraint is not None:
            return None
        try:
            leaf_sets = to_dnf(spec.node)
        except QueryError:
            return None
        if len(leaf_sets) != 1:
            return None
        conjunct = conjunct_intervals(leaf_sets[0])
        if conjunct is None or len(conjunct) != 1:
            return None
        ((name, interval),) = conjunct.items()
        return name, interval

    def _cache_served_result(
        self, spec: QuerySpec, sel: Selection, kind: str, scanned: int
    ) -> QueryResult:
        """Synthesize a :class:`QueryResult` for a semantic-cache serve.

        No server participates: the client pays its fixed overhead plus
        (for a narrowing serve) the vectorized filter over the superset's
        cached coordinates.
        """
        sysm = self.system
        t0 = sysm.sync_clocks()
        sysm.client_clock.charge(sysm.cost.params.client_overhead_s, "client")
        if scanned:
            sysm.client_clock.charge(sysm.cost.scan_time(int(scanned)), "scan")
        elapsed = sysm.sync_clocks() - t0
        return QueryResult(
            nhits=sel.nhits,
            selection=sel if spec.want_selection else None,
            elapsed_s=elapsed,
            strategy=spec.strategy or sysm.strategy,
            semantic_cache=kind,
        )

    def _record_batch_metrics(self, batch: BatchResult) -> None:
        """Fold one batch's shared-scan accounting into the registry."""
        m = self.system.metrics
        m.counter(
            "pdc_batches_total", "Shared-scan query batches executed."
        ).inc()
        m.histogram(
            "pdc_batch_width", "Queries admitted per shared-scan batch."
        ).observe(batch.width)
        m.counter(
            "pdc_batch_shared_regions_total",
            "Regions demanded by more than one query of a batch.",
        ).inc(batch.shared_regions)
        m.counter(
            "pdc_batch_shared_reads_total",
            "Shared regions read once on behalf of a whole batch.",
        ).inc(batch.shared_reads)
        m.counter(
            "pdc_batch_saved_bytes_virtual_total",
            "Virtual bytes saved by shared-scan batching vs sequential reads.",
        ).inc(batch.saved_bytes_virtual)
        lookups = m.counter(
            "pdc_semantic_cache_lookups_total",
            "Semantic selection-cache lookups by result.",
            labels=("result",),
        )
        if batch.semantic_hits:
            lookups.labels(result="hit").inc(batch.semantic_hits)
        if batch.semantic_narrowed:
            lookups.labels(result="narrowed").inc(batch.semantic_narrowed)
        if batch.semantic_repaired:
            lookups.labels(result="repaired").inc(batch.semantic_repaired)
        if batch.semantic_misses:
            lookups.labels(result="miss").inc(batch.semantic_misses)

    def get_data(
        self,
        selection: Selection,
        object_name: str,
        strategy: Optional[Strategy] = None,
    ) -> GetDataResult:
        """Load the values of a selection into (client) memory
        (``PDCquery_get_data``).

        Regions already cached on servers (because evaluation read them) are
        served from memory; otherwise whole regions holding hits are read
        from storage — PDC reads entire regions to avoid many small
        non-contiguous accesses (§III-E), then ships only the hit bytes.
        """
        sysm = self.system
        strat = strategy or sysm.strategy
        obj = sysm.get_object(object_name)
        if selection.domain_size != obj.n_elements:
            raise QueryError(
                f"selection domain {selection.domain_size} != object "
                f"{object_name!r} size {obj.n_elements}"
            )
        if strat is Strategy.AUTO:
            # Resolve AUTO through the cost-based planner, as execute()
            # does; without this the `strat is Strategy.SORT_HIST` test
            # below could never select the sorted-replica read path.
            from .planner import choose_get_data_strategy

            strat = choose_get_data_strategy(sysm, object_name, selection)
            sysm.client_clock.charge(sysm.cost.params.client_overhead_s, "plan")
        t_start = sysm.sync_clocks()
        result = GetDataResult(values=obj.data[selection.coords].copy(), elapsed_s=0.0)

        group = sysm.replica_covering([object_name]) if strat is Strategy.SORT_HIST else None
        if group is not None:
            # PDC-SH: hits live contiguously on the sorted replica,
            # already cached by the evaluation pass.
            which = object_name if object_name != group.replica.key_name else "key"
            src = _replica_regions(group, which, obj.itemsize)
            regions = replica_regions_of(group, selection.coords)
            read = partial(self._read_region, src, result, hit_copy=True)
        else:
            src = _data_regions(obj)
            regions = np.unique(obj.region_of_coords(selection.coords))
            read = partial(self._read_hits, obj, src, selection, result)
        self._read_regions(src, regions, read=read)

        # Ship hit values to the (parallel) application: per-server streams,
        # then a small completion aggregation at the issuing rank.
        per_server = self._bytes_per_server(obj, selection.coords, obj.itemsize)
        for server, nbytes in zip(sysm.alive_servers, per_server):
            if nbytes:
                server.clock.charge(sysm.cost.net_time(int(nbytes)), "net")
        sysm.client_clock.advance_to(
            max(s.clock.now for s in sysm.alive_servers), category="comm"
        )
        sysm.client_clock.charge(sysm.cost.net_time(16 * sysm.n_servers, scaled=False), "net")

        t_end = sysm.sync_clocks()
        result.elapsed_s = t_end - t_start
        return result

    def get_data_batch(
        self,
        selection: Selection,
        object_name: str,
        batch_size: int,
        strategy: Optional[Strategy] = None,
    ):
        """Iterate ``PDCquery_get_data_batch``: yields
        :class:`GetDataResult` chunks of at most ``batch_size`` hits, for
        results too large to hold in client memory at once."""
        for chunk in selection.batches(batch_size):
            yield self.get_data(chunk, object_name, strategy=strategy)

    def get_nhits(self, root: QueryNode, **kwargs) -> Tuple[int, float]:
        """``PDCquery_get_nhits``: hit count only (no coordinate shipping)."""
        res = self.execute(root, want_selection=False, **kwargs)
        return res.nhits, res.elapsed_s

    def preload(self, names: Sequence[str]) -> float:
        """Read every region of the named objects into the server caches.

        This is the PDC-F pre-load phase of §VI-A: the paper amortizes this
        one-time read across the query sequence ("total read time / number
        of queries").  Returns the simulated seconds the pre-load took.
        """
        sysm = self.system
        t_start = sysm.sync_clocks()
        stats = QueryResult(nhits=0, selection=None, elapsed_s=0.0, strategy=Strategy.FULL_SCAN)
        for name in names:
            obj = sysm.get_object(name)
            self._read_regions(
                _data_regions(obj), np.arange(obj.n_regions, dtype=np.int64),
                query=stats,
            )
        return sysm.sync_clocks() - t_start

    # --------------------------------------------------- metadata + data path
    def metadata_data_query(
        self,
        tag_conditions: Dict[str, object],
        interval: Interval,
        strategy: Optional[Strategy] = None,
    ) -> "MetaDataQueryResult":
        """Combined metadata + data query over many small objects (§VI-C).

        First the metadata service locates the objects whose tags match
        (fast: pre-loaded in-memory records, hash-sharded); then each
        selected object's data is evaluated against ``interval`` — one
        region per small object, distributed across servers by object-name
        hash.  Returns per-object hit counts and total time.
        """
        sysm = self.system
        strat = strategy or sysm.strategy
        t_start = sysm.sync_clocks()

        # Metadata phase, charged to the client's clock (the paper: PDC
        # "can locate the 1000 objects instantly").
        names = sysm.metadata.query_tags(tag_conditions, clock=sysm.client_clock)
        for server in sysm.alive_servers:
            server.clock.advance_to(sysm.client_clock.now, category="comm")

        total_hits = 0
        per_object: Dict[str, int] = {}
        readers = sysm.n_servers
        alive = sysm.alive_servers
        for name in names:
            obj = sysm.get_object(name)
            server = alive[hash_name(name) % len(alive)]
            use_index = strat is Strategy.HIST_INDEX and obj.indexes is not None
            if strat.uses_histogram:
                # Vectorized region elimination: one min/max overlap test
                # over all regions, then iterate only the survivors (same
                # ascending region order, so every charge is identical to
                # the per-region scalar test this replaces).
                surviving = np.flatnonzero(
                    interval.overlaps_range_arrays(obj.rmin, obj.rmax)
                )
            else:
                surviving = range(obj.n_regions)
            for rid in surviving:
                nbytes = int(obj.counts[rid]) * obj.itemsize
                if use_index:
                    server.ensure_region(
                        region_key(name, rid, replica="idx"),
                        int(obj.index_nbytes[rid]),
                        1,
                        sysm.config.pdc_stripe_count,
                        readers,
                        category="index_read",
                    )
                    server.clock.charge(
                        sysm.cost.wah_scan_time(int(obj.index_words[rid])), "scan"
                    )
                    _, cand = obj.indexes[rid].count_range(interval)
                    if obj.index_delta_counts is not None:
                        # Uncompacted WAH delta segments: every delta
                        # position is a candidate until compaction.
                        n_delta = int(obj.index_delta_counts[rid])
                        if n_delta:
                            server.clock.charge(
                                sysm.cost.scan_time(n_delta), "scan"
                            )
                            cand += n_delta
                    if cand:
                        server.ensure_region(
                            region_key(name, rid), nbytes, 1,
                            sysm.config.pdc_stripe_count, readers,
                            tier=obj.tier_of(int(rid)),
                        )
                        server.clock.charge(sysm.cost.scan_time(cand), "scan")
                else:
                    server.ensure_region(
                        region_key(name, rid), nbytes, 1,
                        sysm.config.pdc_stripe_count, readers,
                        tier=obj.tier_of(int(rid)),
                    )
                    server.clock.charge(
                        sysm.cost.scan_time(int(obj.counts[rid])), "scan"
                    )
            hits = self._kernel("count", obj, interval)
            per_object[name] = hits
            total_hits += hits

        # Ship per-object counts back.
        for server in sysm.alive_servers:
            server.clock.charge(sysm.cost.net_time(16 * max(1, len(names))), "net")
        sysm.client_clock.advance_to(
            max(s.clock.now for s in sysm.alive_servers), category="comm"
        )
        sysm.client_clock.charge(sysm.cost.net_time(16 * max(1, len(names))), "net")

        t_end = sysm.sync_clocks()
        return MetaDataQueryResult(
            object_names=names,
            per_object_hits=per_object,
            total_hits=total_hits,
            elapsed_s=t_end - t_start,
        )

    # -------------------------------------------------------- conjunct eval
    def _frontier(self) -> float:
        """Current global simulated time (pure read, charges nothing)."""
        sysm = self.system
        return max(
            max(s.clock.now for s in sysm.alive_servers), sysm.client_clock.now
        )

    @contextmanager
    def _recording(self, stats: QueryResult, step: StepActual):
        """Add to ``step`` the counter deltas and the frontier advance of
        the enclosed work.  Bookkeeping only — nothing here touches a clock
        or a cache.  A step may be recorded over several scopes (FULL_SCAN
        pre-loads a later condition's object long before re-checking it)."""
        read, cached, pruned = stats.regions_read, stats.regions_cached, stats.regions_pruned
        index_reads, nbytes = stats.index_reads, stats.bytes_read_virtual
        t0 = self._frontier()
        yield
        step.regions_read += stats.regions_read - read
        step.regions_cached += stats.regions_cached - cached
        step.regions_pruned += stats.regions_pruned - pruned
        step.index_reads += stats.index_reads - index_reads
        step.bytes_read_virtual += stats.bytes_read_virtual - nbytes
        step.elapsed_s += self._frontier() - t0

    def _query_objects(self, root: QueryNode) -> Tuple[List[str], List[StoredObject]]:
        """The objects a query references, which must share one shape."""
        names = objects_of(root)
        if not names:
            raise QueryError("query references no objects")
        objs = [self.system.get_object(n) for n in names]
        domain = objs[0].n_elements
        for o in objs[1:]:
            if o.n_elements != domain or o.meta.dims != objs[0].meta.dims:
                raise QueryShapeError(
                    f"objects in one query must share dimensions: "
                    f"{objs[0].name}={objs[0].meta.dims or domain}, "
                    f"{o.name}={o.meta.dims or o.n_elements}"
                )
        return names, objs

    def _order_conjunct(
        self, conjunct: Conjunct, strat: Strategy
    ) -> Optional[List[Tuple[str, Interval]]]:
        """A conjunct's conditions in evaluation order: by estimated
        selectivity under the histogram strategies, else as written.
        None when the histogram proves some condition matches nothing —
        §III-C: the whole conjunct is skipped without touching storage."""
        items = list(conjunct.items())
        if not (strat.uses_histogram and self.enable_ordering):
            return items
        sysm = self.system
        hists = {
            n: sysm.get_object(n).meta.global_histogram
            for n, _ in items
            if sysm.get_object(n).meta.global_histogram is not None
        }
        ordered = [(n, iv) for n, iv, _ in order_by_selectivity(items, hists)]
        for n, iv in ordered:
            h = hists.get(n)
            if h is not None and h.estimate_hits(iv)[1] == 0:
                return None
        return ordered

    def _resolve_strategy(
        self, strategy: Optional[Strategy], root: QueryNode, record: bool = True
    ) -> Strategy:
        """``strategy`` or the system default, with AUTO resolved by the
        cost-based planner (§IX future work); ``record=False`` skips the
        planner's metric and trace side effects."""
        strat = strategy or self.system.strategy
        if strat is Strategy.AUTO:
            from .planner import choose_strategy

            strat, _ = choose_strategy(self.system, root, record=record)
        return strat

    def _eval_conjunct(
        self,
        conjunct: Conjunct,
        constraint: Tuple[int, int],
        strat: Strategy,
        stats: QueryResult,
        ci: int = 0,
    ) -> np.ndarray:
        """Evaluate one AND-group of per-object intervals; returns sorted
        hit coordinates.  Each condition, in evaluation order, is one step
        run by the operator for its access path (:func:`access_paths`)."""
        ordered = self._order_conjunct(conjunct, strat)
        if ordered is None:
            return np.zeros(0, dtype=np.int64)
        stats.evaluation_order = [n for n, _ in ordered]
        paths, replica = access_paths(self.system, strat, stats.evaluation_order)
        run = _ConjunctRun([
            StepActual(conjunct=ci, object_name=name, interval=iv, hits=0,
                       access_path=path)
            for (name, iv), path in zip(ordered, paths)
        ], constraint, stats, replica)
        for i, step in enumerate(run.steps):
            if i and replica is None:
                # A replica run's slices all filter one run; its deadline
                # is checked between conjuncts.
                self._check_deadline()
            obj = self.system.get_object(step.object_name)
            lost = self._OPERATORS[step.access_path](self, run, i, obj, step.interval)
            if lost.size:
                # Degraded mode: hits in unreadable regions are dropped (the
                # answer stays a subset of the truth).
                run.coords = run.coords[~np.isin(obj.region_of_coords(run.coords), lost)]
            step.hits = run.hits
            stats.step_actuals.append(step)
            if run.empty:
                break
        return run.coords if replica is None else self._replica_answer(run)

    # ------------------------------------------------- access-path operators
    # One operator per access path runs a step: its reads, its simulated
    # charges, its answer kernel and its StepActual recording.  It returns
    # the step object's region ids lost to exhausted retries.

    def _full_read(self, run: _ConjunctRun, i: int, obj: StoredObject,
                   iv: Interval) -> np.ndarray:
        """``full-read+scan`` (PDC-F, §III-D1): the first step pre-loads
        every queried object's data in the window, each read recorded on
        its own condition's step, then scans its window.  Later steps
        re-check candidates in the pre-loaded data, which also retries a
        later object's lost regions."""
        if i:
            return self._pruned_scan(run, i, obj, iv, prune=False)
        lost = []
        for step in run.steps:
            o = self.system.get_object(step.object_name)
            with self._recording(run.stats, step):
                lost.append(self._read_regions(
                    _data_regions(o), self._regions_in_constraint(o, run.constraint),
                    query=run.stats,
                ))
        with self._recording(run.stats, run.steps[0]):
            self._charge_scan(*self._candidates(run, obj, iv, prune=False))
            self._answer(run, obj, iv)
        return lost[0]

    def _pruned_scan(self, run: _ConjunctRun, i: int, obj: StoredObject,
                     iv: Interval, prune: bool = True) -> np.ndarray:
        """``pruned-read+scan`` and ``recheck`` (PDC-H, §III-D2): read and
        scan the regions surviving min/max elimination — the window's on
        the first step, those holding the last step's candidates later
        (§III-C: only already-selected locations are checked)."""
        with self._recording(run.stats, run.steps[i]):
            regions, elems = self._candidates(run, obj, iv, prune)
            if regions is None:
                return _NO_REGIONS
            lost = self._read_regions(_data_regions(obj), regions, query=run.stats)
            self._charge_scan(regions, elems)
            self._answer(run, obj, iv)
        return lost

    def _index_probe(self, run: _ConjunctRun, i: int, obj: StoredObject,
                     iv: Interval) -> np.ndarray:
        """``index-probe`` (PDC-HI, §III-D4): probe the surviving regions'
        bitmap indexes instead of reading their data."""
        with self._recording(run.stats, run.steps[i]):
            regions, _ = self._candidates(run, obj, iv, prune=True)
            if regions is None:
                return _NO_REGIONS
            src = _data_regions(obj)
            lost = self._read_regions(
                src, regions, query=run.stats, index=True,
                read=partial(self._probe_region_index, obj, src, iv, run.stats),
            )
            self._answer(run, obj, iv)
        return lost

    def _binary_search_run(self, run: _ConjunctRun, i: int, obj: StoredObject,
                           iv: Interval) -> np.ndarray:
        """``binary-search-run`` (PDC-SH, §III-D3): binary search the sorted
        key for the matching run, then read the run's permutation
        (coordinates) — contiguous."""
        sysm = self.system
        group, stats = run.replica, run.stats
        with self._recording(stats, run.steps[i]):
            start, stop = group.replica.search_range(
                iv.lo, iv.hi, iv.lo_closed, iv.hi_closed
            )
            # Locating the run: the replica's per-region key min/max live in
            # the cached metadata, so the boundary regions are found with
            # zero I/O; only those (≤2) key regions are read for the
            # in-memory binary search — and they stay cached for the query
            # sequence.
            if stop > start:
                boundary_ids = np.minimum(np.unique(
                    np.array([start, stop - 1]) // group.region_elements
                ), group.n_regions - 1)
                run.replica_lost.append(self._read_regions(
                    _replica_regions(group, "key", obj.itemsize), boundary_ids,
                    query=stats, replica="key",
                ))
            sysm.servers[0].clock.charge(
                sysm.cost.binary_search_time(group.replica.n_elements), "scan"
            )
            if stop > start:
                run.run_regions = group.regions_of_run(start, stop)
                stats.regions_pruned += group.n_regions - int(run.run_regions.size)
                run.replica_lost.append(self._read_regions(
                    _replica_regions(group, "perm", 8), run.run_regions,
                    query=stats, replica="perm",
                ))
        run.sorted_run = (start, stop)
        run.mask = np.ones(stop - start, dtype=bool)
        return _NO_REGIONS

    def _replica_slice(self, run: _ConjunctRun, i: int, obj: StoredObject,
                       iv: Interval) -> np.ndarray:
        """``replica-slice`` (PDC-SH): read the condition's companion slice
        over the run — contiguous — and filter the run by it."""
        group = run.replica
        with self._recording(run.stats, run.steps[i]):
            run.replica_lost.append(self._read_regions(
                _replica_regions(group, obj.name, obj.itemsize), run.run_regions,
                query=run.stats, replica=obj.name,
            ))
            self._charge_scan(run.run_regions, group.counts[run.run_regions])
            run.mask &= iv.mask(group.replica.companion_slice(obj.name, *run.sorted_run))
        return _NO_REGIONS

    _OPERATORS = {
        FULL_READ: _full_read,
        PRUNED_SCAN: _pruned_scan,
        RECHECK: _pruned_scan,
        INDEX_PROBE: _index_probe,
        BINARY_SEARCH: _binary_search_run,
        REPLICA_SLICE: _replica_slice,
    }

    def _answer(self, run: _ConjunctRun, obj: StoredObject, iv: Interval) -> None:
        """The exact answer so far: the "mask" kernel over the window on
        the first step, the "filter" kernel over the candidates later."""
        if run.coords is None:
            run.coords = self._kernel("mask", obj, iv, *run.constraint)
        else:
            run.coords = self._kernel("filter", obj, iv, run.coords)

    def _candidates(
        self, run: _ConjunctRun, obj: StoredObject, iv: Interval, prune: bool
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """A region-level step's regions and the elements it examines in
        each: the window's regions and their window elements on the first
        step, else the regions holding the last step's candidates and one
        element per candidate.  With ``prune`` (and pruning enabled),
        regions whose min/max cannot overlap ``iv`` are counted pruned and
        dropped (§III-D2), and so are the candidates in them — (None, None)
        when none is left."""
        if run.coords is None:
            cstart, cstop = run.constraint
            regions = self._regions_in_constraint(obj, run.constraint)
            starts = np.maximum(obj.offsets[regions], cstart)
            stops = np.minimum(obj.offsets[regions] + obj.counts[regions], cstop)
            elems = np.maximum(stops - starts, 0)
        else:
            regions, elems = np.unique(
                obj.region_of_coords(run.coords), return_counts=True
            )
        if not (prune and self.enable_pruning):
            return regions, elems
        keep = iv.overlaps_range_arrays(obj.rmin[regions], obj.rmax[regions])
        run.stats.regions_pruned += int((~keep).sum())
        if run.coords is not None and not keep.all():
            # Candidates in pruned regions cannot match (min/max is exact).
            run.coords = run.coords[
                np.isin(obj.region_of_coords(run.coords), regions[keep])
            ]
            if run.coords.size == 0:
                return None, None
        return regions[keep], elems[keep]

    def _replica_answer(self, run: _ConjunctRun) -> np.ndarray:
        """The sorted original coordinates of the replica run's matching
        positions inside the spatial constraint.  Degraded mode: positions
        whose key, permutation or companion replica regions were
        unreadable are dropped."""
        group = run.replica
        (start, stop), mask = run.sorted_run, run.mask
        lost_parts = [part for part in run.replica_lost if part.size]
        if lost_parts:
            lost = np.unique(np.concatenate(lost_parts))
            pos_regions = np.minimum(
                np.arange(start, stop, dtype=np.int64) // group.region_elements,
                group.n_regions - 1,
            )
            mask = mask & ~np.isin(pos_regions, lost)
        coords = group.replica.original_coords(start, stop)[mask]
        cstart, cstop = run.constraint
        if cstart > 0 or cstop < group.replica.n_elements:
            coords = coords[(coords >= cstart) & (coords < cstop)]
        coords.sort()
        return coords

    # ---------------------------------------------------------- observability
    def _record_query_metrics(self, stats: QueryResult) -> None:
        """Fold one query's outcome into the system's metrics registry."""
        m = self.system.metrics
        m.counter(
            "pdc_queries_total", "Queries executed, by strategy.",
            labels=("strategy",),
        ).labels(strategy=stats.strategy.name).inc()
        m.histogram(
            "pdc_query_sim_seconds",
            "End-to-end simulated query latency (seconds).",
        ).observe(stats.elapsed_s)
        m.counter(
            "pdc_query_regions_read_total",
            "Data regions read from storage during query evaluation.",
        ).inc(stats.regions_read)
        m.counter(
            "pdc_query_regions_pruned_total",
            "Regions eliminated by histogram min/max pruning.",
        ).inc(stats.regions_pruned)
        m.counter(
            "pdc_query_regions_cached_total",
            "Regions served from server caches during query evaluation.",
        ).inc(stats.regions_cached)
        m.counter(
            "pdc_query_index_reads_total",
            "Region index probes issued (PDC-HI).",
        ).inc(stats.index_reads)
        m.counter(
            "pdc_query_bytes_read_virtual_total",
            "Virtual bytes read from storage by queries.",
        ).inc(stats.bytes_read_virtual)
        if stats.retries:
            m.counter(
                "pdc_query_retries_total",
                "Storage-read retries performed during query evaluation.",
            ).inc(stats.retries)
        if not stats.complete:
            m.counter(
                "pdc_query_degraded_total",
                "Queries that returned a degraded (partial) result.",
            ).inc()
        if stats.timed_out:
            m.counter(
                "pdc_query_timeouts_total",
                "Queries cut off by their simulated-time budget.",
            ).inc()

    # ---------------------------------------------------------- cost helpers
    def _ensure_metadata(self, names: Sequence[str]) -> None:
        """First query on an object distributes its region metadata +
        global histogram to every server (§III-C); afterwards it is cached."""
        sysm = self.system
        for name in names:
            obj = sysm.get_object(name)
            hist = obj.meta.global_histogram
            hist_bytes = hist.merged.nbytes if hist is not None else 0
            for server in sysm.alive_servers:
                if name in server.meta_cached:
                    continue
                n_assigned = (obj.n_regions + sysm.n_servers - 1) // sysm.n_servers
                server.clock.charge(
                    sysm.cost.net_time(
                        _REGION_META_BYTES * n_assigned + hist_bytes + 16 * obj.n_regions,
                        scaled=False,
                    ),
                    "meta",
                )
                server.meta_cached.add(name)

    def _regions_in_constraint(
        self, obj: StoredObject, constraint: Tuple[int, int]
    ) -> np.ndarray:
        cstart, cstop = constraint
        first = cstart // obj.region_elements
        last = min((cstop - 1) // obj.region_elements, obj.n_regions - 1)
        return np.arange(first, last + 1, dtype=np.int64)

    def _regions_by_server(self, region_ids: np.ndarray):
        """(server, its region ids) pairs over the *alive* servers —
        failed servers (§ fault tolerance) receive no work."""
        alive = self.system.alive_servers
        n = len(alive)
        idx = self.system.region_owner_positions(region_ids)
        return [(alive[i], region_ids[idx == i]) for i in range(n)]

    def _assignment_with_faults(self, region_ids: np.ndarray, stats: QueryResult):
        """Like :meth:`_regions_by_server`, but servers may crash at the
        dispatch point (fault injection): a crashed server is failed out of
        the system and its region share is re-assigned across the survivors
        with the configured failover placement policy."""
        sysm = self.system
        plan = sysm.fault_plan
        pairs = self._regions_by_server(region_ids)
        if plan is None or plan.config.server_crash_rate <= 0.0:
            return pairs
        out = []
        for server, mine in pairs:
            if (
                mine.size
                and server.server_id not in sysm._failed_servers
                and len(sysm.alive_servers) > 1
                and plan.server_crashes(server.server_id)
            ):
                sysm.fail_server(server.server_id)
                stats.failovers += 1
                stats.server_errors.setdefault(server.server_id, []).append(
                    "server crashed; region share re-assigned"
                )
                sysm.tracer.instant(
                    f"crash:server{server.server_id}", sysm.client_clock,
                    category="fault", regions=int(mine.size),
                )
                sysm.metrics.counter(
                    "pdc_fault_failovers_total",
                    "Mid-query server crashes recovered by failover.",
                ).inc()
                survivors = sysm.alive_servers
                shares = assign_region_ids(
                    mine, len(survivors), policy=sysm.config.failover_policy,
                    weights=[s.clock.now for s in survivors],
                )
                for survivor, share in zip(survivors, shares):
                    if share.size:
                        out.append((survivor, share))
            else:
                out.append((server, mine))
        return out

    def _record_lost(
        self, stats: QueryResult, server, key: str, exc: Exception,
        lost: List[int], rid: int,
    ) -> None:
        """Bookkeeping for a region that stayed unreadable after retries:
        the query degrades to a partial result (hits in the region are
        dropped), never crashes."""
        stats.complete = False
        stats.lost_regions.append(key)
        stats.server_errors.setdefault(server.server_id, []).append(str(exc))
        lost.append(rid)
        self.system.tracer.instant(
            f"lost:{key}", server.clock, category="fault",
        )
        self.system.metrics.counter(
            "pdc_query_regions_lost_total",
            "Regions dropped from query answers after exhausting retries.",
        ).inc()

    def _active_readers(self, region_ids: np.ndarray) -> int:
        """Servers actually reading in this phase — what contends on the
        PFS.  (A selective query touching 5 regions does not suffer
        512-server contention.)"""
        if region_ids.size == 0:
            return 1
        return int(np.unique(self.system.region_owner_positions(region_ids)).size)

    def _read_regions(
        self,
        src: _RegionSet,
        region_ids: np.ndarray,
        query: Optional[QueryResult] = None,
        read: Optional[Callable[..., None]] = None,
        **span_attrs,
    ) -> np.ndarray:
        """The one region-read loop: for each server's share of
        ``region_ids``, call ``read(server, rid, readers)`` on every region.

        ``read`` defaults to :meth:`_read_region` counting into ``query``;
        index probes, get_data materialization, and batch preloads pass
        their own.  With ``query`` — the query whose evaluation this read
        serves — a server may crash at dispatch and fail its share over,
        each share is traced as an ``eval:server<N>`` span, and a region
        whose read exhausts its retries is recorded lost: the returned
        region ids (always empty without a fault plan) let the caller drop
        their hits (degraded mode).  Without ``query``, routing is plain
        and a read error propagates to the caller.
        """
        sysm = self.system
        readers = self._active_readers(region_ids)
        if query is None:
            shares = self._regions_by_server(region_ids)
        else:
            shares = self._assignment_with_faults(region_ids, query)
            read = read or partial(self._read_region, src, query)
        lost: List[int] = []
        for server, mine in shares:
            if mine.size == 0:
                continue
            scope = nullcontext() if query is None else sysm.tracer.span(
                f"eval:server{server.server_id}", server.clock,
                category="server_eval", object=src.name,
                regions=int(mine.size), **span_attrs,
            )
            with scope:
                for rid in mine.tolist():
                    try:
                        read(server, rid, readers)
                    except RegionUnavailableError as exc:
                        if query is None:
                            raise
                        self._record_lost(query, server, src.key(rid), exc, lost, rid)
        return np.asarray(lost, dtype=np.int64)

    def _read_region(
        self, src: _RegionSet, sink, server, rid: int, readers: int,
        hit_copy: bool = False,
    ) -> None:
        """Make one region resident on ``server`` from its storage tier
        and count it in ``sink`` (a :class:`QueryResult` or
        :class:`GetDataResult`): cached, or read with its virtual bytes.
        ``hit_copy`` charges copying a cached payload out (get_data)."""
        sysm = self.system
        nbytes = src.nbytes(rid)
        if server.ensure_region(
            src.key(rid), nbytes, 1, sysm.config.pdc_stripe_count, readers,
            hit_copy=hit_copy, tier=src.tier_of(rid),
        ):
            sink.regions_cached += 1
        else:
            sink.regions_read += 1
            sink.bytes_read_virtual += nbytes * sysm.cost.virtual_scale

    def _charge_scan(
        self, region_ids: np.ndarray, elems: Optional[np.ndarray] = None
    ) -> None:
        """Charge each server the scan of its regions: ``elems[i]``
        elements in ``region_ids[i]``, or one element per entry when
        ``elems`` is None (a candidate re-check passes each selected
        location's region — §III-C AND optimization)."""
        sysm = self.system
        alive = sysm.alive_servers
        servers_of = sysm.region_owner_positions(region_ids)
        per_server = np.bincount(servers_of, weights=elems, minlength=len(alive))
        for server, n in zip(alive, per_server):
            if n:
                server.clock.charge(sysm.cost.scan_time(int(n)), "scan")

    def _probe_region_index(
        self, obj: StoredObject, src: _RegionSet, interval: Interval,
        stats: QueryResult, server, rid: int, readers: int,
    ) -> None:
        """One PDC-HI index probe: FastBit seeks into the index file and
        reads only the bitmaps of bins overlapping the condition (cached
        afterwards), scans them, and — when off-grid endpoints leave
        candidate bins — reads the raw region to verify boundary values."""
        sysm = self.system
        probe = obj.indexes[rid].query_cost(interval)
        stats.index_reads += 1
        key = region_key(obj.name, rid, replica="idx")
        if not server.cache.lookup(key):
            # Cold probe: one seek reading the bin directory plus
            # the touched bitmaps (FastBit seeks once into the
            # index file); the index stays cached afterwards, so
            # later probes of this region are in-memory.
            seconds = sysm.cost.pfs_read_time(
                probe.bytes_touched, 1, sysm.config.pdc_stripe_count, readers
            ) + sysm.cost.pfs_read_time(probe.header_bytes, 0, 1, 1, scaled=False)
            with sysm.tracer.span(
                f"read:{key}", server.clock, category="index_read",
                bytes=probe.bytes_touched,
            ):
                server.faultable_read(key, seconds, category="index_read")
            server.cache.put(key, nbytes=int(obj.index_nbytes[rid]))
            stats.bytes_read_virtual += (
                probe.bytes_touched * sysm.cost.virtual_scale
            )
        else:
            stats.regions_cached += 1
        server.clock.charge(
            sysm.cost.wah_scan_time(probe.words_touched), "scan"
        )
        # Uncompacted WAH delta segments (continuous ingest): the base
        # bitmap predates the deltas, so every delta position must be
        # treated as a candidate until background compaction folds the
        # segments in.
        candidates = probe.candidates
        if obj.index_delta_counts is not None:
            n_delta = int(obj.index_delta_counts[rid])
            if n_delta:
                server.clock.charge(sysm.cost.scan_time(n_delta), "scan")
                candidates += n_delta
        # Candidate check: boundary-bin members verified against raw
        # values (whole-region read, block-index style).
        if candidates:
            self._read_region(src, stats, server, rid, readers)
            server.clock.charge(sysm.cost.scan_time(candidates), "scan")

    def _bytes_per_server(
        self, obj: StoredObject, coords: np.ndarray, itemsize: int
    ) -> np.ndarray:
        """Result bytes each *alive* server ships, by hit ownership."""
        n_alive = len(self.system.alive_servers)
        if coords.size == 0:
            return np.zeros(n_alive)
        servers_of = self.system.region_owner_positions(obj.region_of_coords(coords))
        return np.bincount(servers_of, minlength=n_alive) * itemsize

    def _charge_result_transfer(
        self, obj: StoredObject, coords: np.ndarray, want_selection: bool
    ) -> None:
        """Servers send results; the client's background thread aggregates
        (§III-C).

        The "client" is a parallel application (§V: 31 cores per node next
        to each server), so coordinate payloads stream server→application
        in parallel; only the small per-server hit counts funnel through
        the issuing rank.
        """
        sysm = self.system
        if want_selection and coords.size:
            per_server = self._bytes_per_server(obj, coords, 8)
        else:
            per_server = np.full(len(sysm.alive_servers), 8.0)
        for server, nbytes in zip(sysm.alive_servers, per_server):
            if nbytes:
                server.clock.charge(
                    sysm.cost.net_time(int(nbytes), scaled=nbytes > 8), "net"
                )
        sysm.client_clock.advance_to(
            max(s.clock.now for s in sysm.alive_servers), category="comm"
        )
        sysm.client_clock.charge(sysm.cost.net_time(16 * sysm.n_servers, scaled=False), "net")

    def _kernel(self, kind: str, obj: StoredObject, interval: Interval, *args):
        """Run one hot kernel — "mask" (hit coordinates inside the window
        ``cstart, cstop``), "filter" (re-check candidate ``coords``), or
        "count" (whole-object hit count) — on the process pool when one
        is bound, else in-process under the optional wall profiler."""
        if self.parallel is not None:
            return getattr(self.parallel, _POOLED_KERNELS[kind])(obj, interval, *args)
        return inline_kernel(self.wall_profiler, kind, obj, interval, *args)

    # -------------------------------------------------------------- get_data
    def _read_hits(
        self, obj: StoredObject, src: _RegionSet, selection: Selection,
        result: GetDataResult, server, rid: int, readers: int,
    ) -> None:
        """get_data's read of one original region holding hits: the whole
        region (PDC reads entire regions, §III-E), copied out if cached."""
        sysm = self.system
        if sysm.config.get_data_whole_regions or server.cache.contains(src.key(rid)):
            self._read_region(src, result, server, rid, readers, hit_copy=True)
            return
        # Ablation mode: read only the hit extents, merged by the §III-E
        # aggregator (many small accesses when the hits are scattered —
        # the effect whole-region reads avoid).
        off = int(obj.offsets[rid])
        in_region = selection.clip(off, off + int(obj.counts[rid])).coords
        extents = coords_to_extents(
            in_region, gap_threshold=sysm.config.aggregation_gap_elements
        )
        nb = sum(b - a for a, b in extents) * obj.itemsize
        server.clock.charge(
            sysm.cost.pfs_read_time(
                nb, len(extents), sysm.config.pdc_stripe_count, readers
            ),
            "pfs_read",
        )
        result.regions_read += 1
        result.bytes_read_virtual += nb * sysm.cost.virtual_scale
