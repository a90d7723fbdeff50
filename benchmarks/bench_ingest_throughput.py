"""Continuous ingest under interleaved queries: epoch throughput + determinism.

Drives an :class:`~repro.ingest.stream.IngestStream` with a seeded
open-loop write schedule (in-place overwrites + tail appends) against a
replica-backed indexed deployment, interleaving range queries between
epochs, and reports per maintenance mode (``delta`` vs ``rebuild``):

* ingest throughput in elements per *simulated* second,
* maintenance counters (histogram merges/rebuilds, min/max rescans,
  index delta appends, compactions, replica-staleness actions),
* interleaved query latencies and hit counts,
* per-clock simulated-time breakdown by charge category.

Standalone (not pytest-benchmark): run as

    PYTHONPATH=src python benchmarks/bench_ingest_throughput.py [--smoke]

``--smoke`` shrinks the workload for CI and exits non-zero if

* a same-seed in-process rerun produces a different SHA-256 fingerprint
  (the determinism gate the roadmap's reproducibility bar requires), or
* delta-mode maintained state diverges from a from-scratch rebuild:
  every region's min/max and every interleaved answer must be
  bit-identical across maintenance modes at the same simulated instants,
  and once every outstanding delta region is compacted, each region's
  bitmap bytes and each ``/pdc/index/*`` file must match across modes,
  with every file holding exactly its object's concatenated bitmaps.

Results are appended as JSON under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

import numpy as np

from repro.ingest import IngestConfig, IngestStream
from repro.obs.metrics import MetricsRegistry
from repro.pdc import PDCConfig, PDCSystem
from repro.query.ast import Condition, combine_and
from repro.query.executor import QueryEngine
from repro.types import PDCType, QueryOp


def build_system(n_elements: int) -> PDCSystem:
    rng = np.random.default_rng(7)
    system = PDCSystem(
        PDCConfig(
            n_servers=4,
            region_size_bytes=1 << 13,
            replica_staleness_policy="rebuild",
            replica_rebuild_threshold=0.05,
        ),
        metrics=MetricsRegistry(),
    )
    system.create_object(
        "energy", rng.gamma(2.0, 0.7, n_elements).astype(np.float32)
    )
    system.create_object(
        "x", (rng.random(n_elements) * 300.0).astype(np.float32)
    )
    system.build_index("energy")
    system.build_index("x")
    system.build_sorted_replica("energy", ["x"])
    return system


def build_schedule(n_epochs: int, ops_per_epoch: int, write_size: int,
                   n_elements: int, seed: int):
    """Deterministic write schedule: per epoch, ``ops_per_epoch - 1``
    overwrites at seeded offsets plus one lockstep append to both query
    operands (conjunct evaluation requires shared dimensions)."""
    rng = np.random.default_rng(seed)
    epochs = []
    for e in range(n_epochs):
        ops = []
        for _ in range(ops_per_epoch - 1):
            name = "energy" if rng.random() < 0.7 else "x"
            offset = int(rng.integers(0, n_elements - write_size))
            if name == "energy":
                vals = rng.gamma(2.0, 0.7, write_size).astype(np.float32)
            else:
                vals = (rng.random(write_size) * 300.0).astype(np.float32)
            ops.append(("update", name, offset, vals))
        ops.append(
            ("append", "energy", None,
             rng.gamma(2.0, 0.7, write_size).astype(np.float32))
        )
        ops.append(
            ("append", "x", None,
             (rng.random(write_size) * 300.0).astype(np.float32))
        )
        epochs.append(ops)
    return epochs


def run_mode(mode: str, n_elements: int, schedule, query_seed: int):
    system = build_system(n_elements)
    engine = QueryEngine(system)
    stream = IngestStream(
        system,
        IngestConfig(
            epoch_interval_s=1e-3,
            maintenance=mode,
            histogram_rebuild_fraction=0.5,
            index_compact_fraction=0.1,
        ),
    )
    qrng = np.random.default_rng(query_seed)
    t0 = max(c.now for c in system.all_clocks())
    ingest_start = t0
    wall0 = time.perf_counter()

    queries = []
    for e, ops in enumerate(schedule):
        base = t0 + e * 1e-3
        for j, (kind, name, offset, vals) in enumerate(ops):
            t_op = base + j * (1e-3 / (len(ops) + 1))
            if kind == "append":
                stream.append(name, vals, t_s=t_op)
            else:
                stream.update(name, offset, vals, t_s=t_op)
        stream.advance_to(base + 1e-3)
        # Interleave a conjunct query between epochs; thresholds are
        # seeded so both maintenance modes ask the identical questions.
        node = combine_and(
            Condition("energy", QueryOp.GT, PDCType.FLOAT,
                      float(np.float32(qrng.uniform(0.3, 3.0)))),
            Condition("x", QueryOp.LT, PDCType.FLOAT,
                      float(np.float32(qrng.uniform(100.0, 280.0)))),
        )
        res = engine.execute(node)
        queries.append(
            {"epoch": e, "nhits": int(res.nhits),
             "sim_seconds": round(res.elapsed_s, 12)}
        )
    stream.flush()
    wall_s = time.perf_counter() - wall0

    totals = stream.totals()
    sim_elapsed = max(c.now for c in system.all_clocks()) - ingest_start
    breakdown = {
        c.name: {k: round(v, 12) for k, v in sorted(c.breakdown().items())}
        for c in system.all_clocks()
    }
    # Derived-state digest: region min/max of every object (bit-exact
    # across maintenance modes by the delta-merge exactness guarantee).
    minmax = {
        name: hashlib.sha256(
            obj.rmin.tobytes() + obj.rmax.tobytes()
        ).hexdigest()
        for name, obj in sorted(system.objects.items())
    }
    row = {
        "mode": mode,
        "wall_s": wall_s,
        "sim_seconds": round(sim_elapsed, 12),
        "elements_per_sim_second": (
            totals["elements"] / sim_elapsed if sim_elapsed > 0 else 0.0
        ),
        "totals": totals,
        "queries": queries,
        "minmax_sha256": minmax,
    }
    payload = json.dumps(
        {
            "totals": totals,
            "queries": queries,
            "minmax": minmax,
            "breakdown": breakdown,
        },
        sort_keys=True,
    )
    row["fingerprint"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return row, system


def compacted_index_state(system: PDCSystem):
    """Fold every outstanding WAH delta segment, then return each indexed
    object's per-region bitmap bytes and its index-file bytes; the names
    of objects whose file differs from its concatenated bitmaps come
    back separately."""
    state, mismatched = {}, []
    for name, obj in sorted(system.objects.items()):
        if obj.indexes is None:
            continue
        if obj.index_delta_counts is not None and obj.index_delta_counts.any():
            system.compact_region_index(name, np.flatnonzero(obj.index_delta_counts))
        regions = [idx.to_bytes().tobytes() for idx in obj.indexes]
        on_file = system.pfs.read(f"/pdc/index/{name}").tobytes()
        if on_file != b"".join(regions):
            mismatched.append(name)
        state[name] = (regions, on_file)
    return state, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload for CI + determinism/equivalence gates",
    )
    parser.add_argument("--epochs", type=int, default=None,
                        help="ingest epochs (default: 32; smoke: 8)")
    parser.add_argument("--ops", type=int, default=None,
                        help="write ops per epoch (default: 12; smoke: 6)")
    parser.add_argument("--write-size", type=int, default=None,
                        help="elements per write (default: 256; smoke: 96)")
    parser.add_argument("--seed", type=int, default=42, help="schedule seed")
    parser.add_argument("--out", default=None,
                        help="JSON output path (default: benchmarks/results/)")
    args = parser.parse_args(argv)

    if args.smoke:
        n_epochs = args.epochs or 8
        ops = args.ops or 6
        write_size = args.write_size or 96
        n_elements = 1 << 14
    else:
        n_epochs = args.epochs or 32
        ops = args.ops or 12
        write_size = args.write_size or 256
        n_elements = 1 << 16

    schedule = build_schedule(n_epochs, ops, write_size, n_elements, args.seed)
    runs = {
        mode: run_mode(mode, n_elements, schedule, query_seed=args.seed + 1)
        for mode in ("delta", "rebuild")
    }
    rows = [row for row, _ in runs.values()]

    print(f"ingest throughput: {n_epochs} epochs x {ops} ops x "
          f"{write_size} elements, seed {args.seed}")
    print(f"{'mode':>8} {'elems/sim-s':>14} {'merges':>7} {'rebuilds':>9} "
          f"{'rescans':>8} {'compact':>8} {'wall s':>8}")
    for row in rows:
        t = row["totals"]
        print(f"{row['mode']:>8} {row['elements_per_sim_second']:>14.0f} "
              f"{t['hist_merges']:>7.0f} {t['hist_rebuilds']:>9.0f} "
              f"{t['minmax_rescans']:>8.0f} {t['compactions']:>8.0f} "
              f"{row['wall_s']:>8.3f}")

    failures = 0
    delta = next(r for r in rows if r["mode"] == "delta")
    rebuild = next(r for r in rows if r["mode"] == "rebuild")
    # Equivalence gate: maintained state and every interleaved answer
    # must be bit-identical across maintenance modes.
    if delta["minmax_sha256"] != rebuild["minmax_sha256"]:
        print("  ERROR: delta-mode region min/max diverged from rebuild")
        failures += 1
    if delta["queries"] != rebuild["queries"]:
        print("  ERROR: delta-mode interleaved answers diverged from rebuild")
        failures += 1
    else:
        print("  equivalence: delta == rebuild (answers + min/max)  ok")

    if args.smoke:
        # Index gate: after compaction, delta-maintained bitmaps and
        # index files are byte-identical to the rebuild-mode ones.
        index_state = {}
        for mode, (_, system) in runs.items():
            index_state[mode], mismatched = compacted_index_state(system)
            for name in mismatched:
                print(f"  ERROR: {mode} /pdc/index/{name} differs from its "
                      f"concatenated region bitmaps")
                failures += 1
        if index_state["delta"] != index_state["rebuild"]:
            print("  ERROR: compacted delta-mode bitmaps or index files "
                  "diverged from rebuild")
            failures += 1
        else:
            print(f"  index: {len(index_state['delta'])} index files "
                  f"delta == rebuild after compaction  ok")
        repeat, _ = run_mode("delta", n_elements, schedule,
                             query_seed=args.seed + 1)
        if repeat["fingerprint"] != delta["fingerprint"]:
            print("  ERROR: same-seed delta rerun diverged (nondeterminism)")
            failures += 1
        else:
            print(f"  smoke: same-seed rerun bit-identical "
                  f"({delta['fingerprint'][:16]})  ok")

    out = args.out
    if out is None:
        results_dir = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "results"
        )
        os.makedirs(results_dir, exist_ok=True)
        out = os.path.join(results_dir, "ingest_throughput.json")
    with open(out, "w") as fh:
        json.dump(
            {
                "epochs": n_epochs,
                "ops_per_epoch": ops,
                "write_size": write_size,
                "seed": args.seed,
                "n_elements": n_elements,
                "rows": rows,
            },
            fh,
            indent=2,
        )
    print(f"results -> {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
