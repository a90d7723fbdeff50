"""Repository benchmark: wall-clock latency, set-up time and memory of the
PDC-Query reproduction, measured from outside through its public API.

Run from the repository root::

    python3 perfbench/run.py --workload paper-single --seed 1 --seconds 10 --trace 0

``--trace 0`` builds the workload's deployment ``setup_repeats`` times,
runs a closed loop of requests for ``--seconds`` wall seconds with the
program's default no-op instrumentation, checks every answer against
numpy, and prints the end-to-end metrics.  Their times are wall times
scaled to a nominal host speed by a reference kernel timed in the same
run (``reference.py``); the raw wall figures go to standard error.  ``--trace 1`` runs the same
loop for half the time untraced and half the time with span probes on
each layer's entry points, prints the per-layer metrics, and writes the
spans to ``perfbench/out/spans-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every answer was correct.  Workload scales, default
seeds and the reason for each workload are in ``workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("histogram_p50_ms", "ms"),
    ("hist_index_p50_ms", "ms"),
    ("sort_hist_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def load_spec() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the
    program from it; raises ImportError when the sources are absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise ImportError(f"program sources not found under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def _percentile_ms(latencies_s, q: float) -> float:
    """``q``-th percentile of latencies in ms (0.0 when none completed,
    which only happens in a run whose answers were wrong)."""
    import numpy as np

    return float(np.percentile(latencies_s, q)) * 1e3 if len(latencies_s) else 0.0


def end_to_end_metrics(phase, setup_s: float) -> Dict[str, float]:
    """End-to-end metrics of one timed phase, in raw wall time."""
    from workloads import STRATEGY_KEYS

    every = [lat for lats in phase.latencies_s for lat in lats]
    out = {
        "setup_s": setup_s,
        "throughput_qps": phase.completed / phase.elapsed_s,
        "latency_p50_ms": _percentile_ms(every, 50),
        "latency_p99_ms": _percentile_ms(every, 99),
    }
    # The full-scan median is per-layer: on paper-single it swings with
    # host load more than the reference kernel corrects (workloads.json).
    for key, lats in zip(STRATEGY_KEYS[1:], phase.latencies_s[1:]):
        out[f"{key}_p50_ms"] = _percentile_ms(lats, 50)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def at_nominal_speed(raw: Dict[str, float], setup_scale: float, run_scale: float):
    """Scale raw wall figures to the nominal host speed (see reference.py):
    times multiply by the factor, rates divide by it, memory is kept."""
    out = {}
    for name, value in raw.items():
        if name == "setup_s":
            out[name] = value * setup_scale
        elif name == "throughput_qps":
            out[name] = value / run_scale
        elif name.endswith("_ms"):
            out[name] = value * run_scale
        else:
            out[name] = value
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Run one workload; returns the result object to print.  Raw wall
    figures and the host reference go to standard error."""
    from layers import PER_LAYER, install_probes, per_layer_metrics
    from reference import HostReference
    from spans import SpanRecorder
    from workloads import WORKLOADS, Phase, setup_median

    cfg = spec["workloads"][workload]
    repeats = int(spec["setup_repeats"])
    w = WORKLOADS[workload](workload, cfg, seed)
    ref = HostReference()
    total = Phase()
    dep = None
    try:
        if not trace:
            dep, setup_s = setup_median(w, repeats, total, ref)
            setup_scale = ref.scale()
            mark = ref.mark()
            phase = w.run(dep, seconds, ref, scale_out=True)
            raw = end_to_end_metrics(phase, setup_s)
            metrics = at_nominal_speed(raw, setup_scale, ref.scale(mark))
            print(json.dumps({"raw_wall": raw, "reference_ms": ref.median(mark) * 1e3}),
                  file=sys.stderr)
            units = dict(END_TO_END)
            phases = [phase]
        else:
            rec = SpanRecorder()
            install_probes(rec)
            dep, _ = setup_median(w, repeats, total, ref)
            setup_table = rec.table()
            rec.unwrap()
            mark = ref.mark()
            untraced = w.run(dep, seconds / 2, ref)
            install_probes(rec)
            span_mark = rec.mark()
            traced = w.run(dep, seconds / 2, ref, recorder=rec, scale_out=True)
            rec.unwrap()
            metrics = per_layer_metrics(
                w, setup_table, repeats, rec.table(span_mark), traced, untraced,
                ref.median(mark),
            )
            units = {name: unit for name, unit, _ in PER_LAYER}
            phases = [untraced, traced]
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            rec.export(
                os.path.join(out_dir, f"spans-{workload}.json"),
                {"workload": workload, "seed": seed, "seconds": seconds,
                 "traced_from_span": span_mark},
            )
    finally:
        if dep is not None:
            dep.close()
    for p in phases:
        total.attempted += p.attempted
        total.failed += p.failed
        total.wrong += p.wrong
    return {
        "correct": total.wrong == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's default_seed)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="wall seconds of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.workload not in spec["workloads"]:
        ap.error(f"unknown workload {args.workload!r}; valid: {sorted(spec['workloads'])}")
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else spec["workloads"][args.workload]["default_seed"]
    result = run(args.workload, seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
