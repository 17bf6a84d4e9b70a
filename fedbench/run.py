"""fedsim benchmark: one command, three workloads, end-to-end or traced per-layer metrics.

Run from the repository root:

    python3 fedbench/run.py --workload silo_simclr --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
makes the traced run instead: one cycle of the workload with every public
fedsim function wrapped, each unit paired with the same unit untraced as the
overhead baseline, and reports the per-layer metrics. Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with environment
and artifact hashes, also goes to ``.bench_out/`` in the repository root,
next to the traced run's spans.

fedsim is imported from ``src/`` of the same checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A p90 needs at least this many samples in a run.
MIN_SAMPLES = 100
# The measurement loop stops this long after --seconds even if short of samples.
GRACE_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "1/s",
    "round_p50_ms": "ms",
    "round_p90_ms": "ms",
    "agg_call_p50_ms": "ms",
    "agg_call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Model layers of the three workloads' models, plus the whole-model cosine.
MODEL_LAYERS = (
    "encoder.0.weight",
    "encoder.0.bias",
    "encoder.1.weight",
    "encoder.1.bias",
    "projector.0.weight",
    "projector.0.bias",
    "head.weight",
    "head.bias",
    "flat",
)

# Span name -> the statistics the traced run reports for it.
SPAN_METRICS = {
    "learners.train_local": ("calls", "busy_s", "self_s"),
    "learners.sgd_step": ("calls", "busy_s", "self_s"),
    "learners.make_views": ("busy_s",),
    "learners.forward": ("busy_s",),
    "learners.backward": ("busy_s",),
    "params.from_arrays": ("calls", "busy_s"),
    "divergence.layer_divergence": ("calls", "busy_s"),
    **{f"divergence.cosine.{layer}": ("busy_s",) for layer in MODEL_LAYERS},
    "aggregation.aggregate": ("calls", "busy_s", "self_s"),
    "params.weighted_sum": ("busy_s",),
    "params.weighted_sum_per_layer": ("busy_s",),
    "params.load_checkpoint": ("calls", "busy_s"),
    "params.save_checkpoint": ("calls", "busy_s"),
    "evaluation.linear_probe": ("calls", "busy_s"),
    "partition.load_csv": ("busy_s",),
    "partition.make_blobs": ("busy_s",),
    "partition.partition": ("busy_s",),
    "config.parse_config": ("busy_s",),
    "engine.run_round": ("self_s",),
    "engine.write_rounds_csv": ("busy_s",),
    "cli.main": ("self_s",),
    "bench.setup": ("busy_s",),
    "bench.unit": ("busy_s",),
}

# Counters the wrappers keep, with their units.
COUNTERS = {
    "divergence.bytes_computed": "bytes",
    "params.load_checkpoint.bytes": "bytes",
    "params.save_checkpoint.bytes": "bytes",
    "engine.write_rounds_csv.bytes": "bytes",
    "partition.load_csv.rows": "count",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_fedsim():
    if not (SRC / "fedsim" / "__init__.py").is_file():
        print(f"error: no fedsim sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    os.environ.pop("FEDSIM_WORKERS", None)  # serial default path for every run
    import fedsim

    if Path(fedsim.__file__).resolve().parent != (SRC / "fedsim").resolve():
        print(f"error: imported fedsim from {fedsim.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(previous_workers) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older numpy has no dict mode
        pass
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in sorted((SRC / "fedsim").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "fedsim_workers": f"cleared (was {previous_workers!r})",
        "git_commit": git_commit(),
        "src_fedsim_lines": src_lines,
        "machine": platform.machine(),
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


class Totals:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.hashes: dict[str, str] = {}

    def add(self, attempted: int, failed: int, hashes=None) -> None:
        self.attempted += attempted
        self.failed += failed
        if hashes:
            self.hashes.update(hashes)


def run_unit(wl, i, totals, results, setup_times=None) -> None:
    """Set up config ``i`` and run one unit on it; a failure is counted, not raised."""
    try:
        wl.clock.start()
        ctx, elapsed = wl.setup(i)
        elapsed *= wl.clock.factor()
        res = wl.unit(i, ctx)
    except Exception:  # a failed operation is counted, and the run goes on
        traceback.print_exc()
        totals.add(1, 1)
        return
    if setup_times is not None:
        setup_times.append(elapsed)
    totals.add(res.attempted, res.failed, res.hashes)
    results.append(res)


def measure(wl, seconds: float, totals: Totals):
    """End-to-end run: set-up plus one unit, over and over, until time and samples suffice.

    Set-up is repeated before every unit, so its median, like the units',
    is taken over the whole run rather than one moment of it.
    """
    setup_times, results = [], []
    t0 = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - t0
        samples = sum(len(r.round_ms) for r in results)
        if (elapsed >= seconds and samples >= MIN_SAMPLES) or elapsed >= seconds + GRACE_S:
            break
        run_unit(wl, k % wl.n_configs, totals, results, setup_times)
        k += 1
    return setup_times, results


def end_to_end_metrics(setup_times, results) -> dict:
    walls = [r.wall_s for r in results]
    rounds = [ms for r in results for ms in r.round_ms]
    aggs = [ms for r in results for ms in r.agg_ms]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "rounds_per_s": len(rounds) / sum(walls),
        "round_p50_ms": percentile(rounds, 50),
        "round_p90_ms": percentile(rounds, 90),
        "agg_call_p50_ms": percentile(aggs, 50),
        "agg_call_p90_ms": percentile(aggs, 90),
    }


def extra_metrics(results, totals: Totals, factors) -> dict:
    """Metrics printed and recorded, but not in the JSON line."""
    walls = sum(r.wall_s for r in results)
    probes = {r.config: r.probe_acc for r in results if r.probe_acc is not None}
    steps = sum(r.steps for r in results)
    extra = {}
    if steps:
        extra["local_steps_per_s"] = (steps / walls, "1/s")
    extra["agg_calls_per_s"] = (sum(len(r.agg_ms) for r in results) / walls, "1/s")
    if probes:
        extra["final_probe_acc"] = (statistics.mean(probes.values()), "fraction")
    extra["error_rate"] = (totals.failed / max(totals.attempted, 1), "fraction")
    raw_rounds = [ms for r in results for ms in r.raw_round_ms]
    extra["raw_wall_s"] = (statistics.median(r.raw_wall_s for r in results), "s")
    extra["raw_round_p50_ms"] = (percentile(raw_rounds, 50), "ms")
    extra["raw_round_p90_ms"] = (percentile(raw_rounds, 90), "ms")
    for q in (10, 50, 90):
        extra[f"speed_factor_p{q}"] = (percentile(factors, q), "x")
    extra["units"] = (len(results), "count")
    extra["round_samples"] = (sum(len(r.round_ms) for r in results), "count")
    return extra


def traced(wl, tracer, totals: Totals):
    """One warm-up unit, then each unit of the cycle untraced and traced in turn.

    Alternating the pairs keeps drift in machine speed out of the overhead
    estimate. Returns the untraced and the traced results.
    """
    base, spans = [], []
    run_unit(wl, 0, totals, [])
    for k in range(wl.trace_units):
        run_unit(wl, k % wl.n_configs, totals, base)
        tracer.install()
        tracer.enabled = True
        try:
            run_unit(wl, k % wl.n_configs, totals, spans)
        finally:
            tracer.enabled = False
            tracer.uninstall()
    return base, spans


def per_layer_metrics(summary, base, traced_results) -> dict:
    from spans import LAYERS, LIBRARY_LAYER

    m = {}
    for span, stats in SPAN_METRICS.items():
        for stat in stats:
            m[f"{span}.{stat}"] = (summary.stats[stat].get(span, 0), "count" if stat == "calls" else "s")
    busy = summary.stats["busy_s"]
    m["learners.loss.busy_s"] = (sum(v for k, v in busy.items() if k.startswith("learners.loss_")), "s")
    for name, unit in COUNTERS.items():
        m[name] = (summary.counts.get(name, 0), unit)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (summary.layer_self_s.get(layer, 0.0), "s")
        if layer != LIBRARY_LAYER:
            m[f"layer.{layer}.share_pct"] = (summary.layer_share_pct.get(layer, 0.0), "%")
    m["trace.spans"] = (summary.spans, "count")
    n = min(len(base), len(traced_results))
    base_wall = sum(r.wall_s for r in base[:n])
    traced_wall = sum(r.wall_s for r in traced_results[:n])
    m["trace.overhead_pct"] = (100.0 * (traced_wall / base_wall - 1.0) if base_wall else 0.0, "%")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    previous_workers = os.environ.get("FEDSIM_WORKERS")
    import_fedsim()
    sys.path.insert(0, str(BENCH_DIR))
    from clock import Clock
    from spans import Tracer, summarize
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    env = environment(previous_workers)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    tracer = Tracer()
    clock = Clock(calibrate=not args.trace)
    totals = Totals()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        wl = WORKLOADS[args.workload](Path(tmp), args.seed, tracer, clock, SRC)
        wl.prepare()
        if args.trace:
            base, results = traced(wl, tracer, totals)
        else:
            setup_times, results = measure(wl, args.seconds, totals)
        rss = peak_rss_mb()
        attempted, failed, hashes = wl.final_check()
        totals.add(attempted, failed, hashes)
    if not results:
        print("error: no unit of work completed", file=sys.stderr)
        return 1

    if args.trace:
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        shown = per_layer_metrics(summarize(tracer), base, results)
        reported = shown
    else:
        metrics = dict(end_to_end_metrics(setup_times, results), peak_rss_mb=rss)
        reported = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
        shown = dict(reported, **extra_metrics(results, totals, clock.factors))

    correct = totals.failed == 0
    print(f"fedsim benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, value in env.items():
        print(f"env {key} = {value}")
    for name, digest in sorted(totals.hashes.items()):
        print(f"sha256 {name} = {digest}")
    for name, (value, unit) in shown.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"operations attempted={totals.attempted} failed={totals.failed} correct={correct}")

    result = {
        "correct": correct,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    record = dict(result, shown={k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
                  environment=env, sha256=totals.hashes, args=vars(args),
                  samples={"setup_s": setup_times if not args.trace else [],
                           "unit_wall_s": [r.wall_s for r in results],
                           "raw_unit_wall_s": [r.raw_wall_s for r in results],
                           "round_ms": [r.round_ms for r in results],
                           "raw_round_ms": [r.raw_round_ms for r in results],
                           "speed_factor": clock.factors,
                           "agg_ms": [r.agg_ms for r in results]})
    with open(OUT / f"result_{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
