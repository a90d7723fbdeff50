"""Real-parallel evaluation of the query hot path.

The simulator's cost model is *simulated* — per-server clocks advance by
analytic charges — but the answers themselves are computed on real numpy
arrays, and until now that computation ran serially on the wall clock.
This module adds a process-pool runtime that evaluates the numpy hot
kernels (interval masks over region windows, candidate re-checks, and
per-object hit counts) in true parallel, while every simulated charge
stays on the main process exactly where the serial path makes it.

Determinism is the contract:

* work is partitioned along region boundaries, in region-index order —
  the same deterministic unit :meth:`QueryEngine._regions_by_server`
  assigns to simulated servers;
* each partition's kernel is pure (element-wise masks, ``flatnonzero``,
  integer counts — no float reductions whose order could drift);
* partial results are merged strictly in ascending partition order.

Concatenating per-partition coordinates in partition order reproduces
the serial ``flatnonzero`` output byte for byte, so answers, simulated
clocks, metrics, and bench fingerprints are bit-identical to serial
execution for any worker count (pinned by ``tests/query/test_parallel``).

Workers are forked (zero-copy: object arrays reach children via
copy-on-write memory, never pickling), so only tiny task descriptors and
the selective result coordinates cross the IPC boundary, and one task
covers a whole run of regions to amortize the round-trip.  Writes
invalidate the forked snapshot through the system's invalidation hooks;
the next parallel call re-forks against current data.  Whenever the pool
cannot be used (``workers <= 1``, payload below ``min_elements``, fork
unavailable, or a worker died) the same partitioned kernels run
in-process — results are identical either way, only wall time differs.
"""

from __future__ import annotations

import atexit
import os
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..interval import Interval

__all__ = [
    "ParallelRuntime", "DEFAULT_MIN_ELEMENTS", "FALLBACK_REASONS", "inline_kernel",
]

#: Every reason a kernel can take the in-process path instead of the
#: pool (the ``reason`` label of ``pdc_parallel_fallbacks_total``).
FALLBACK_REASONS = (
    "serial",          # workers <= 1: no pool was ever requested
    "closed",          # runtime explicitly closed
    "broken",          # an earlier failure disabled the pool for good
    "min_elements",    # payload too small to amortize fork/IPC
    "unbound",         # no system bound (nothing to snapshot)
    "no_fork",         # platform has no fork start method
    "fork_failed",     # OS refused the fork (e.g. EAGAIN)
    "stale",           # retry after a stale-snapshot re-fork still failed
    "worker_death",    # a pool worker died mid-task
)

#: Below this many elements a kernel runs in-process: the fork/IPC
#: round-trip costs more than the numpy work it would parallelize.
DEFAULT_MIN_ELEMENTS = 1 << 16


# ------------------------------------------------------------- worker side
#
# Forked workers inherit these module globals as they were in the parent
# at fork time.  The generation token guards against a worker forked from
# an older snapshot (another runtime re-set the globals between pool
# creation and the fork): a mismatch is reported back and the caller
# re-forks or falls back in-process — never silently computes on stale
# arrays.

_WORKER_ARRAYS: Dict[str, np.ndarray] = {}
_WORKER_GEN: int = 0
_GEN_COUNTER: int = 0
#: Parent wall instant of the most recent snapshot publish: forked
#: children inherit it, dating their own fork generation for the
#: dual-clock pool trace (:mod:`repro.obs.walltime`).
_WORKER_FORK_WALL: float = 0.0


class _StaleWorker(Exception):
    """A pool worker was forked from a different data snapshot."""


def _worker_array(gen: int, name: str) -> np.ndarray:
    if gen != _WORKER_GEN or name not in _WORKER_ARRAYS:
        raise _StaleWorker(f"worker snapshot gen={_WORKER_GEN}, task wants "
                           f"gen={gen} name={name!r}")
    return _WORKER_ARRAYS[name]


def _mask_window(data: np.ndarray, interval: Interval, start: int,
                 stop: int) -> np.ndarray:
    """Hit coordinates of ``interval`` within ``[start, stop)``."""
    return np.flatnonzero(interval.mask(data[start:stop])).astype(np.int64) + start


def _recheck(data: np.ndarray, interval: Interval,
             coords: np.ndarray) -> np.ndarray:
    """Candidate re-check: the ``coords`` whose value matches."""
    return coords[interval.mask(data[coords])]


def _count_window(data: np.ndarray, interval: Interval, start: int,
                  stop: int) -> int:
    """Hit count of ``interval`` within ``[start, stop)`` (exact: a sum
    of booleans is an integer, so chunk totals add without drift)."""
    return int(interval.mask(data[start:stop]).sum())


_INLINE_KERNELS = {"mask": _mask_window, "filter": _recheck, "count": _count_window}


def inline_kernel(profiler, kind: str, obj, interval: Interval, *args):
    """Run one hot kernel in-process — the serial engine's path and the
    pool's fallback.  ``kind`` is "mask" (args ``cstart, cstop``),
    "filter" (args ``coords``), or "count" (whole object, no args); the
    optional wall profiler records it under ``kind``."""
    if kind == "count":
        args = (0, int(obj.n_elements))
    t0 = profiler.timer() if profiler is not None else 0.0
    out = _INLINE_KERNELS[kind](obj.data, interval, *args)
    if profiler is not None:
        n = int(args[0].size) if kind == "filter" else args[1] - args[0]
        profiler.record_inline(kind, t0, profiler.timer(), n)
    return out


def _mask_span(gen: int, name: str, start: int, stop: int,
               interval: Interval) -> np.ndarray:
    """One partition of the "mask" kernel, on the worker's snapshot."""
    return _mask_window(_worker_array(gen, name), interval, start, stop)


def _filter_span(gen: int, name: str, coords: np.ndarray,
                 interval: Interval) -> np.ndarray:
    """Candidate re-check over one slice of already-selected coords."""
    return _recheck(_worker_array(gen, name), interval, coords)


def _count_span(gen: int, name: str, start: int, stop: int,
                interval: Interval) -> int:
    """One partition of the "count" kernel, on the worker's snapshot."""
    return _count_window(_worker_array(gen, name), interval, start, stop)


def _result_bytes(out) -> int:
    return int(out.nbytes) if isinstance(out, np.ndarray) else 8


def _profiled_call(fn, gen: int, args: tuple):
    """Worker-side stamp wrapper for profiled dispatches.

    Returns ``(result, stamps)`` where the stamp buffer carries the
    worker pid, the inherited fork-generation wall instant, kernel
    start/end, result-preparation end, and the result payload size.
    All stamps use ``time.perf_counter`` — CLOCK_MONOTONIC on Linux is
    system-wide, so they are directly comparable with the parent's.
    """
    t_start = time.perf_counter()
    out = fn(gen, *args)
    t_kernel_end = time.perf_counter()
    nbytes = _result_bytes(out)
    t_ret = time.perf_counter()
    return out, (
        os.getpid(), _WORKER_FORK_WALL, t_start, t_kernel_end, t_ret, nbytes
    )


# ------------------------------------------------------------- partitioning
def region_spans(obj, cstart: int, cstop: int,
                 n_parts: int) -> List[Tuple[int, int]]:
    """Split ``[cstart, cstop)`` into at most ``n_parts`` contiguous
    element spans along region boundaries, in region-index order.

    Each span is a run of whole regions (clipped to the window at the
    ends) — the same unit of work the simulated servers are assigned —
    so one task batches a region run per worker.  Spans are disjoint,
    ascending, and cover the window exactly.
    """
    if cstop <= cstart:
        return []
    offsets = obj.offsets
    first = int(np.searchsorted(offsets, cstart, side="right")) - 1
    last = int(np.searchsorted(offsets, cstop - 1, side="right")) - 1
    runs = np.array_split(np.arange(first, last + 1, dtype=np.int64),
                          max(1, n_parts))
    spans: List[Tuple[int, int]] = []
    for run in runs:
        if run.size == 0:
            continue
        a = max(cstart, int(offsets[run[0]]))
        b = min(cstop, int(offsets[run[-1]] + obj.counts[run[-1]]))
        if b > a:
            spans.append((a, b))
    return spans


class ParallelRuntime:
    """Owns the worker pool and the deterministic partition/merge logic.

    One runtime binds to one :class:`~repro.pdc.system.PDCSystem`; a
    :class:`~repro.query.executor.QueryEngine` constructed with
    ``workers=N`` creates (and owns) one.  ``min_elements=0`` forces
    every kernel through the pool — the determinism tests use it so the
    parallel path is actually exercised on small fixtures.
    """

    def __init__(self, workers: int = 0,
                 min_elements: int = DEFAULT_MIN_ELEMENTS) -> None:
        self.workers = int(workers)
        self.min_elements = int(min_elements)
        self._system = None
        self._pool = None
        self._snapshot: Dict[str, np.ndarray] = {}
        self._gen = 0
        self._stale = True
        self._broken = False
        self._closed = False
        #: Wall-clock observability: how many kernels ran where.
        self.pool_tasks = 0
        self.inline_tasks = 0
        self.refork_count = 0
        self.stale_retries = 0
        #: In-process fallbacks by reason (see :data:`FALLBACK_REASONS`).
        self.fallbacks: Dict[str, int] = {}
        self._last_fallback_reason = "serial"
        #: Optional :class:`~repro.obs.walltime.WallProfiler`.  None by
        #: default — every profiling site is one attribute test, keeping
        #: the disabled path bit-identical and effectively free.
        self.profiler = None
        self._open_dispatch = None
        # Wall-side counters live in a runtime-owned registry, *never*
        # in the system's: identity tests and the wall-clock fingerprint
        # hash ``system.metrics.render()``, which must stay bit-identical
        # across worker counts — pool bookkeeping would diverge it.
        from ..obs.metrics import MetricsRegistry

        self.wall_metrics = MetricsRegistry()
        self._m_tasks = self.wall_metrics.counter(
            "pdc_parallel_tasks_total",
            "kernel tasks dispatched to the worker pool",
        )
        self._m_fallbacks = self.wall_metrics.counter(
            "pdc_parallel_fallbacks_total",
            "kernels computed in-process instead of in the pool",
            labels=("reason",),
        )
        self._m_reforks = self.wall_metrics.counter(
            "pdc_parallel_reforks_total",
            "pool (re-)forks against a fresh data snapshot",
        )
        self._m_stale = self.wall_metrics.counter(
            "pdc_parallel_stale_reforks_total",
            "re-forks forced by a stale generation token",
        )
        self._m_ipc_bytes = self.wall_metrics.counter(
            "pdc_parallel_ipc_result_bytes_total",
            "result payload bytes shipped back across the pool IPC pipe",
        )
        _LIVE_RUNTIMES.add(self)

    # ------------------------------------------------------------ lifecycle
    @property
    def active(self) -> bool:
        """True when this runtime may dispatch to a real pool."""
        return self.workers > 1 and not self._broken and not self._closed

    @property
    def closed(self) -> bool:
        return self._closed

    def _fallback(self, reason: str) -> None:
        self.inline_tasks += 1
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        self._m_fallbacks.labels(reason=reason).inc()

    def _pool_gate(self, n: int) -> Optional[str]:
        """Why ``n`` elements would *not* go to the pool (None = pooled)."""
        if self._closed:
            return "closed"
        if self.workers <= 1:
            return "serial"
        if self._broken:
            return "broken"
        if n < self.min_elements:
            return "min_elements"
        return None

    def bind(self, system) -> None:
        """Attach to one system: snapshot invalidation follows its
        write/failure hooks.  Re-binding to a different system raises."""
        if self._system is system:
            return
        if self._system is not None:
            raise ValueError("ParallelRuntime is already bound to a system")
        self._system = system
        system.register_invalidation_hook(self._on_invalidate)

    def _on_invalidate(self, object_name, regions=None) -> None:
        # Any write, append, or server failure may have changed object
        # data; the forked children hold copy-on-write pages from fork
        # time, so the snapshot must be re-forked before the next use.
        self._stale = True

    def invalidate(self) -> None:
        """Mark the forked snapshot stale (next parallel call re-forks)."""
        self._stale = True

    def close(self) -> None:
        """Shut down the pool and unregister from the bound system.

        Idempotent, and never fatal to callers: a closed runtime keeps
        answering kernel calls by computing in-process (counted under the
        ``closed`` fallback reason) — correctness does not depend on the
        pool's lifecycle.
        """
        self._closed = True
        self._shutdown_pool()
        if self._system is not None:
            self._system.unregister_invalidation_hook(self._on_invalidate)
            self._system = None
        _LIVE_RUNTIMES.discard(self)

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _shutdown_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            # Wait for the (idle) workers: a fire-and-forget shutdown
            # leaves the executor's management thread racing interpreter
            # exit on closed pipes.
            pool.shutdown(wait=True, cancel_futures=True)
        self._snapshot = {}
        self._stale = True

    # ------------------------------------------------------------ pool mgmt
    def _ensure_pool(self) -> bool:
        """Fork (or re-fork) the worker pool against current data.

        Returns False when a pool cannot be used; callers then run the
        identical kernels in-process.
        """
        global _WORKER_ARRAYS, _WORKER_GEN, _GEN_COUNTER, _WORKER_FORK_WALL
        if not self.active or self._system is None:
            self._last_fallback_reason = (
                "unbound" if self._system is None else "broken"
            )
            return False
        if self._pool is not None and not self._stale:
            return True
        prof = self.profiler
        t_fork0 = prof.timer() if prof is not None else 0.0
        self._shutdown_pool()
        import concurrent.futures as cf
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            self._broken = True
            self._last_fallback_reason = "no_fork"
            return False
        self._snapshot = {
            name: obj.data for name, obj in self._system.objects.items()
        }
        _GEN_COUNTER += 1
        self._gen = _GEN_COUNTER
        # Publish the snapshot for children forked from this process.
        # (The executor forks lazily on first submit, so the wall stamp
        # below dates the snapshot publish; a child's actual fork happens
        # at or after it, which is what the trace's fork bucket wants.)
        _WORKER_ARRAYS = self._snapshot
        _WORKER_GEN = self._gen
        _WORKER_FORK_WALL = time.perf_counter()
        try:
            self._pool = cf.ProcessPoolExecutor(
                max_workers=self.workers, mp_context=mp.get_context("fork")
            )
        except OSError:
            self._pool = None
            self._broken = True
            self._last_fallback_reason = "fork_failed"
            return False
        self._stale = False
        self.refork_count += 1
        self._m_reforks.inc()
        if prof is not None:
            prof.record_fork(t_fork0, prof.timer())
        return True

    def _fresh(self, obj) -> bool:
        """True when the snapshot still mirrors ``obj`` (appends replace
        the array object; in-place writes are caught by the hooks)."""
        return self._snapshot.get(obj.name) is obj.data

    def _run_tasks(self, fn, tasks: Sequence[tuple],
                   kernel: str = "task",
                   sizes: Optional[Sequence[int]] = None) -> Optional[list]:
        """Dispatch tasks to the pool; results in submission order.

        Returns None when the pool is unusable or a worker turned out to
        be forked from a stale snapshot (one re-fork is attempted first)
        — the caller then computes in-process, and
        ``_last_fallback_reason`` says why.
        """
        prof = self.profiler
        for _retry in range(2):
            if not self._ensure_pool():
                return None
            assert self._pool is not None
            if prof is not None:
                out = self._run_profiled(fn, tasks, kernel, sizes, prof)
            else:
                out = self._run_plain(fn, tasks)
            if out is None:
                if self._broken:
                    return None
                continue  # stale snapshot: loop re-forks once
            self.pool_tasks += len(tasks)
            self._m_tasks.inc(len(tasks))
            self._m_ipc_bytes.inc(sum(_result_bytes(o) for o in out))
            return out
        self._last_fallback_reason = "stale"
        return None

    def _run_plain(self, fn, tasks: Sequence[tuple]) -> Optional[list]:
        futures = [self._pool.submit(fn, self._gen, *t) for t in tasks]
        try:
            return [f.result() for f in futures]
        except _StaleWorker:
            self._stale = True
            self.stale_retries += 1
            self._m_stale.inc()
            return None
        except BaseException:
            # A dead worker (OOM kill, broken pipe) must never change
            # answers: drop the pool and compute in-process.
            self._shutdown_pool()
            self._broken = True
            self._last_fallback_reason = "worker_death"
            return None

    def _run_profiled(self, fn, tasks: Sequence[tuple], kernel: str,
                      sizes: Optional[Sequence[int]],
                      prof) -> Optional[list]:
        """The pooled dispatch with dual-clock stamping: identical task
        flow, plus per-task submit/receive stamps on the main side and
        the worker stamp buffer shipped home with each result."""
        from ..obs.walltime import TaskTrace

        disp = prof.dispatch(kernel)
        self._open_dispatch = disp
        futures = []
        for i, t in enumerate(tasks):
            t_submit = prof.timer()
            fut = self._pool.submit(_profiled_call, fn, self._gen, t)
            futures.append((fut, t_submit, i))
        disp.t_submit_end = prof.timer()
        out: list = []
        try:
            for fut, t_submit, i in futures:
                val, stamps = fut.result()
                t_recv = prof.timer()
                pid, fork_wall, t_start, t_kernel_end, t_ret, nbytes = stamps
                n = int(sizes[i]) if sizes is not None else 0
                disp.tasks.append(TaskTrace(
                    kernel=kernel, part=i, n_elements=n,
                    t_submit=t_submit, t_recv=t_recv, pid=pid,
                    gen=self._gen, fork_wall_s=fork_wall, t_start=t_start,
                    t_kernel_end=t_kernel_end, t_ret=t_ret,
                    result_bytes=nbytes,
                ))
                out.append(val)
        except _StaleWorker:
            disp.t_wait_end = disp.t_merge_end = prof.timer()
            self._open_dispatch = None
            self._stale = True
            self.stale_retries += 1
            self._m_stale.inc()
            return None
        except BaseException:
            disp.t_wait_end = disp.t_merge_end = prof.timer()
            self._open_dispatch = None
            self._shutdown_pool()
            self._broken = True
            self._last_fallback_reason = "worker_death"
            return None
        disp.t_wait_end = disp.t_merge_end = prof.timer()
        return out

    def _finish_merge(self) -> None:
        """Close the merge interval of the dispatch just returned (the
        caller concatenates partial results between wait end and here)."""
        disp, self._open_dispatch = self._open_dispatch, None
        if disp is not None and self.profiler is not None:
            disp.t_merge_end = self.profiler.timer()

    # ------------------------------------------------------------- kernels
    def mask_coords(self, obj, interval: Interval, cstart: int,
                    cstop: int) -> np.ndarray:
        """Pooled "mask" kernel (:func:`inline_kernel`): hit coordinates of
        one condition within the constraint window, bit-identical to the
        serial kernel for any worker count."""
        def partition():
            spans = region_spans(obj, cstart, cstop, self.workers)
            return [(obj.name, a, b, interval) for a, b in spans], [b - a for a, b in spans]

        return self._pooled("mask", _mask_span, obj, interval, cstop - cstart,
                            partition, self._concat_coords, cstart, cstop)

    def filter_coords(self, obj, interval: Interval,
                      coords: np.ndarray) -> np.ndarray:
        """Parallel candidate re-check: ``coords[interval.mask(data[coords])]``
        over contiguous coordinate slices, merged in slice order."""
        def partition():
            slices = [s for s in np.array_split(coords, self.workers) if s.size]
            return [(obj.name, s, interval) for s in slices], [int(s.size) for s in slices]

        return self._pooled("filter", _filter_span, obj, interval, int(coords.size),
                            partition, self._concat_coords, coords)

    def count_hits(self, obj, interval: Interval) -> int:
        """Parallel whole-object hit count (metadata+data queries)."""
        n = int(obj.n_elements)

        def partition():
            spans = region_spans(obj, 0, n, self.workers)
            return [(obj.name, a, b, interval) for a, b in spans], [b - a for a, b in spans]

        return self._pooled("count", _count_span, obj, interval, n, partition,
                            lambda parts: int(sum(parts)))

    def _pooled(self, kind: str, fn, obj, interval: Interval, n: int,
                partition, merge, *args):
        """Run one kernel on the pool: ``partition()`` gives the tasks (in
        region order) and their sizes, ``merge`` joins the partial results
        in that order.  Falls back to :func:`inline_kernel` (with ``args``)
        whenever the pool cannot be used."""
        reason = self._pool_gate(n)
        if reason is None and self._fresh_or_refork(obj):
            tasks, sizes = partition()
            parts = self._run_tasks(fn, tasks, kind, sizes) if tasks else []
            if parts is not None:
                out = merge(parts)
                self._finish_merge()
                return out
            reason = self._last_fallback_reason
        self._fallback(reason)
        return inline_kernel(self.profiler, kind, obj, interval, *args)

    # ------------------------------------------------------------- plumbing
    def _fresh_or_refork(self, obj) -> bool:
        """Ensure the snapshot covers ``obj``'s current array; marks the
        pool stale (re-forked by ``_ensure_pool``) when it does not."""
        if self._pool is None or self._stale:
            return True  # _ensure_pool snapshots current data anyway
        if not self._fresh(obj):
            self._stale = True
        return True

    @staticmethod
    def _concat_coords(parts: List[np.ndarray]) -> np.ndarray:
        if not parts:
            return np.zeros(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0].astype(np.int64, copy=False)
        return np.concatenate(parts).astype(np.int64, copy=False)


#: Best-effort interpreter-exit cleanup for runtimes nobody closed.
_LIVE_RUNTIMES: "weakref.WeakSet[ParallelRuntime]" = weakref.WeakSet()


@atexit.register
def _close_live_runtimes() -> None:  # pragma: no cover - exit path
    for rt in list(_LIVE_RUNTIMES):
        try:
            rt.close()
        except Exception:
            pass
