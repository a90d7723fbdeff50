"""Cost-based query planning — the paper's stated future work (§IX:
*"bringing query optimization techniques used by relational database
management systems to object-centric data management"*).

Given a query and the deployment state (which objects have indexes,
whether a sorted replica covers the query, what is cached), the planner
estimates the simulated cost of evaluating each conjunct under every
applicable strategy and picks the cheapest.  Estimates use only metadata
that the servers already cache — global histograms (selectivity bounds,
surviving-region counts) and per-region sizes — so planning itself is
O(regions) arithmetic with no I/O, exactly the regime the paper's global
histogram enables.

Two public entry points:

* :func:`choose_strategy` — the ``Strategy.AUTO`` resolver used by the
  executor;
* :func:`explain` — a human-readable plan (evaluation order, selectivity
  estimates, regions pruned, chosen access paths, cost estimates per
  strategy), in the spirit of SQL ``EXPLAIN``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..histogram.selectivity import order_by_selectivity
from ..interval import Interval
from ..pdc.region import region_key
from ..pdc.system import PDCSystem, ReplicaGroup
from ..strategies import Strategy
from .access import (
    BINARY_SEARCH,
    FULL_READ,
    INDEX_PROBE,
    REPLICA_SLICE,
    access_paths,
)
from .ast import QueryNode, conjunct_intervals, to_dnf

__all__ = [
    "StepEstimate",
    "PlanEstimate",
    "estimate_plan",
    "choose_strategy",
    "choose_get_data_strategy",
    "explain",
    "replica_regions_of",
]

#: Rough bytes of index bitmaps touched per (upper-bound) hit.
_INDEX_BYTES_PER_HIT = 16.0
#: Fixed per-region probe overhead (directory) in bytes.
_INDEX_DIR_BYTES = 2048.0


@dataclass
class StepEstimate:
    """One condition's place in the plan."""

    object_name: str
    interval: Interval
    #: (lower, upper) selectivity bounds from the global histogram.
    selectivity: Tuple[float, float]
    #: Regions that survive min/max elimination (first step) or an upper
    #: bound on candidate regions (later steps).
    surviving_regions: int
    total_regions: int
    #: Access path chosen for this step under the plan's strategy.
    access_path: str
    #: Which DNF conjunct this step belongs to (matches
    #: :attr:`~repro.query.executor.StepActual.conjunct`).
    conjunct: int = 0
    #: (lower, upper) estimated hits surviving after this condition —
    #: cumulative within the conjunct under an independence assumption,
    #: directly comparable to the executor's measured
    #: :attr:`~repro.query.executor.StepActual.hits`.
    est_hits: Tuple[float, float] = (0.0, 0.0)

    @property
    def pruned_fraction(self) -> float:
        if self.total_regions == 0:
            return 0.0
        return 1.0 - self.surviving_regions / self.total_regions


@dataclass
class PlanEstimate:
    """Estimated cost of one strategy for a whole query."""

    strategy: Strategy
    est_seconds: float
    steps: List[StepEstimate] = field(default_factory=list)
    #: Why this strategy was (un)available / notable.
    notes: List[str] = field(default_factory=list)


def _uncached_fraction(
    system: PDCSystem, name: str, region_ids: np.ndarray, replica: str = "orig"
) -> float:
    """Fraction of the given regions not resident on the server that
    serves them — the executor's routing over the alive servers, so it
    follows failovers and committed placements."""
    if region_ids.size == 0:
        return 0.0
    alive = system.alive_servers
    owners = system.region_owner_positions(region_ids)
    missing = sum(
        not alive[pos].cache.contains(region_key(name, rid, replica=replica))
        for rid, pos in zip(region_ids.tolist(), owners.tolist())
    )
    return missing / region_ids.size


def replica_regions_of(group: ReplicaGroup, coords: np.ndarray) -> np.ndarray:
    """Sorted-replica region ids holding the given original coordinates,
    via the replica's inverse permutation (built once, cached on the
    group)."""
    inv = getattr(group, "_inverse_perm", None)
    if inv is None:
        inv = np.empty_like(group.replica.permutation)
        inv[group.replica.permutation] = np.arange(
            group.replica.n_elements, dtype=np.int64
        )
        group._inverse_perm = inv
    return np.minimum(
        np.unique(inv[coords] // group.region_elements), group.n_regions - 1
    )


def _read_cost(system: PDCSystem, nbytes: float, n_accesses: float) -> float:
    """Estimated parallel read seconds for work spread over all servers."""
    n = system.n_servers
    per_server_bytes = nbytes / n
    per_server_accesses = max(1.0, n_accesses / n)
    return system.cost.pfs_read_time(
        int(per_server_bytes), int(per_server_accesses),
        system.config.pdc_stripe_count, n,
    )


def _scan_cost(system: PDCSystem, n_elements: float) -> float:
    return system.cost.scan_time(int(n_elements / system.n_servers))


#: One planned step: object, interval, selectivity bounds, and the regions
#: surviving min/max elimination.
_Step = Tuple[str, Interval, Tuple[float, float], np.ndarray]


def _conjunct_steps(system: PDCSystem, conjunct: Dict[str, Interval]) -> List[_Step]:
    """Selectivity-ordered steps with surviving-region sets."""
    hists = {
        name: system.get_object(name).meta.global_histogram
        for name in conjunct
        if system.get_object(name).meta.global_histogram is not None
    }
    ordered = order_by_selectivity(list(conjunct.items()), hists)
    out = []
    for name, interval, est in ordered:
        obj = system.get_object(name)
        keep = interval.overlaps_range_arrays(obj.rmin, obj.rmax)
        surviving = np.flatnonzero(keep).astype(np.int64)
        sel = (est.lower, est.upper) if est is not None else (0.0, 1.0)
        out.append((name, interval, sel, surviving))
    return out


def _step_cost(
    system: PDCSystem, path: str, steps: List[_Step], i: int, hits_ub: float,
    group: Optional[ReplicaGroup],
) -> Tuple[List[float], int, int]:
    """Step ``i``'s estimate under its access path: the cost terms it adds
    to the plan's total (in order), its surviving regions, and the
    regions it counts them against."""
    name, _, _, surviving = steps[i]
    obj = system.get_object(name)
    if path == FULL_READ:
        if i:
            return [], obj.n_regions, obj.n_regions
        # The first step pre-loads every object whole; its terms also
        # price its scan and the later steps' candidate re-checks.
        terms = []
        for other, _, _, _ in steps:
            o = system.get_object(other)
            frac = _uncached_fraction(
                system, o.name, np.arange(o.n_regions, dtype=np.int64)
            )
            terms.append(_read_cost(system, o.data.nbytes * frac, o.n_regions * frac))
        terms.append(_scan_cost(system, obj.n_elements))
        terms.append(_scan_cost(system, hits_ub * (len(steps) - 1)))
        return terms, obj.n_regions, obj.n_regions
    if path == BINARY_SEARCH:
        # The run holds the key's hits; its permutation and every
        # companion slice are read over it.
        later = len(steps) - 1
        run_bytes = hits_ub * (8 + obj.itemsize * later)
        terms = [
            system.cost.binary_search_time(obj.n_elements),
            _read_cost(system, run_bytes, max(1.0, hits_ub / group.region_elements)),
            _scan_cost(system, hits_ub * later),
        ]
        return terms, int(np.ceil(hits_ub / group.region_elements)), group.n_regions
    if path == REPLICA_SLICE:
        return [], 0, group.n_regions
    if i:  # at most the regions holding the current candidates
        surviving = surviving[
            :min(surviving.size, int(np.ceil(hits_ub / max(1, obj.region_elements))))
        ]
    frac = _uncached_fraction(system, obj.name, surviving)
    if path == INDEX_PROBE:
        touched = hits_ub * _INDEX_BYTES_PER_HIT + surviving.size * _INDEX_DIR_BYTES
        terms = [
            _read_cost(system, touched / system.cost.virtual_scale * frac,
                       surviving.size * frac),
            system.cost.wah_scan_time(int(touched / 8)),
        ]
    else:
        region_elems = float(obj.counts[surviving].sum())
        terms = [
            _read_cost(system, region_elems * obj.itemsize * frac, surviving.size * frac),
            _scan_cost(system, region_elems if i == 0 else hits_ub),
        ]
    return terms, int(surviving.size), obj.n_regions


def estimate_plan(
    system: PDCSystem, node: QueryNode, strategy: Strategy
) -> PlanEstimate:
    """Estimate the simulated cost of one strategy for a query tree: each
    step is labelled and costed by the access path the executor takes
    for it (:func:`~repro.query.access.access_paths`)."""
    plan = PlanEstimate(strategy=strategy, est_seconds=0.0)
    total = system.cost.params.client_overhead_s
    data_reads: List[str] = []  # PDC-HI objects read without an index

    for ci, leaves in enumerate(to_dnf(node)):
        conjunct = conjunct_intervals(leaves)
        if conjunct is None:
            continue
        steps = _conjunct_steps(system, conjunct)
        if not steps:
            continue
        names = [name for name, _, _, _ in steps]
        paths, group = access_paths(system, strategy, names)
        if strategy is Strategy.SORT_HIST and group is None:
            # A replica that misses any conjunct prices the whole query
            # as PDC-H (the estimate AUTO compares against).
            fallback = estimate_plan(system, node, Strategy.HISTOGRAM)
            fallback.strategy = strategy
            fallback.notes = ["sorted replica not applicable (missing or planner "
                              "puts another object first): histogram path"]
            return fallback
        if strategy is Strategy.HIST_INDEX:
            data_reads += [n for n, p in zip(names, paths)
                           if p != INDEX_PROBE and n not in data_reads]
        n_elems = system.get_object(names[0]).n_elements
        # Upper-bound hit estimate drives candidate work for later steps.
        hits_ub = steps[0][2][1] * n_elems
        # Cumulative surviving-hit bounds after each step (independence
        # assumption within the conjunct) — what EXPLAIN ANALYZE compares
        # against the executor's measured per-step hits.
        lo_acc, hi_acc = 1.0, 1.0
        for i, ((name, interval, sel, _), path) in enumerate(zip(steps, paths)):
            lo_acc *= sel[0]
            hi_acc *= sel[1]
            terms, surviving, regions = _step_cost(system, path, steps, i, hits_ub, group)
            for term in terms:
                total += term
            plan.steps.append(StepEstimate(
                name, interval, sel, surviving, regions, path, conjunct=ci,
                est_hits=(lo_acc * n_elems, hi_acc * n_elems),
            ))

        # Result transfer (selection coordinates).
        total += system.cost.net_time(int(hits_ub * 8 / system.n_servers))

    if data_reads:
        plan.notes.append(f"index missing on {', '.join(data_reads)}: data reads instead")
    plan.est_seconds = total
    return plan


def choose_strategy(
    system: PDCSystem, node: QueryNode, record: bool = True
) -> Tuple[Strategy, List[PlanEstimate]]:
    """Pick the cheapest applicable strategy for a query.

    Returns the winner and the full list of candidate estimates (sorted
    cheapest first), so callers can explain the decision.  ``record=False``
    skips the planner metrics/trace side effects — for speculative
    resolutions (batch demand planning) that the executor will repeat
    for real.
    """
    candidates = [
        estimate_plan(system, node, s)
        for s in (Strategy.FULL_SCAN, Strategy.HISTOGRAM, Strategy.HIST_INDEX, Strategy.SORT_HIST)
    ]
    candidates.sort(key=lambda p: p.est_seconds)
    winner = candidates[0].strategy
    if record:
        system.metrics.counter(
            "pdc_plans_total", "AUTO planner decisions, by chosen strategy.",
            labels=("strategy",),
        ).labels(strategy=winner.name).inc()
        if system.tracer.enabled:
            system.tracer.instant(
                "plan_decision", system.client_clock,
                strategy=winner.name,
                estimates={p.strategy.name: p.est_seconds for p in candidates},
            )
    return winner, candidates


def choose_get_data_strategy(
    system: PDCSystem, object_name: str, selection
) -> Strategy:
    """Resolve ``Strategy.AUTO`` for ``get_data`` (value materialization).

    The only access-path decision in ``get_data`` is whether to read the
    hit-holding regions of the *original* object or the contiguous run on
    a *sorted replica* covering it (§III-D3: replica regions were usually
    cached by the evaluation pass).  Estimates are cache-aware and use
    only metadata the servers already hold — no I/O, like
    :func:`choose_strategy`.
    """
    group = system.replica_covering([object_name])
    if group is None or selection.is_empty:
        return Strategy.HISTOGRAM
    obj = system.get_object(object_name)
    itemsize = obj.itemsize

    orig_regions = np.unique(obj.region_of_coords(selection.coords))
    frac_orig = _uncached_fraction(system, obj.name, orig_regions)
    orig_bytes = float(obj.counts[orig_regions].sum()) * itemsize * frac_orig

    # Replica path: the replica regions holding the hits.
    repl_regions = replica_regions_of(group, selection.coords)
    which = object_name if object_name != group.replica.key_name else "key"
    frac_repl = _uncached_fraction(
        system, group.replica.key_name, repl_regions, replica=f"sorted:{which}"
    )
    repl_bytes = float(group.counts[repl_regions].sum()) * itemsize * frac_repl

    if repl_bytes < orig_bytes or (
        repl_bytes == orig_bytes and repl_regions.size <= orig_regions.size
    ):
        return Strategy.SORT_HIST
    return Strategy.HISTOGRAM


def explain(system: PDCSystem, node: QueryNode, strategy: Optional[Strategy] = None) -> str:
    """Render a human-readable plan for a query."""
    lines = [f"QUERY  {node}"]
    if strategy is None or strategy is Strategy.AUTO:
        chosen, candidates = choose_strategy(system, node)
        lines.append("AUTO strategy selection (estimated seconds):")
        for p in candidates:
            marker = "->" if p.strategy is chosen else "  "
            lines.append(f"  {marker} {p.strategy.paper_label:<8} {p.est_seconds:10.6f}s")
        plan = next(p for p in candidates if p.strategy is chosen)
    else:
        plan = estimate_plan(system, node, strategy)
        lines.append(
            f"strategy {plan.strategy.paper_label}: estimated {plan.est_seconds:.6f}s"
        )
    for note in plan.notes:
        lines.append(f"  note: {note}")
    lines.append("evaluation steps:")
    for i, s in enumerate(plan.steps, 1):
        lines.append(
            f"  {i}. {s.object_name} {s.interval}  "
            f"selectivity [{s.selectivity[0] * 100:.4f}%, {s.selectivity[1] * 100:.4f}%]  "
            f"{s.access_path}  regions {s.surviving_regions}/{s.total_regions} "
            f"({s.pruned_fraction * 100:.0f}% pruned)  "
            f"est hits [{s.est_hits[0]:.0f}, {s.est_hits[1]:.0f}]"
        )
    return "\n".join(lines)
