"""adaptrobust benchmark: closed-loop workloads from one client process.

    python3 perfbench/run.py --workload {sweep,nn1,margin} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its `src/`.
With --trace 0, ops run back-to-back for about S seconds (at least one op)
and the end-to-end metrics are printed. With --trace 1, a fixed number of ops
runs untraced and then again with spans around each layer's public functions,
and the per-layer metrics are printed. Every op's output is checked. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for what each metric means and why.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
SETUPS = 5
# One client, single-threaded BLAS: the process never holds more compute
# threads than cores, and small matmuls cannot pick up thread-pool jitter.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB"}
# Per-layer metrics from the traced run. `<span>.self_s` is span time minus
# child spans, `<span>.calls` counts span entries, other counts are computed
# from call arguments.
PER_LAYER = {
    "mlp.train.self_s": "s",
    "mlp.train.sgd_steps": "count",
    "mlp.epoch_s": "s",
    "mlp.MlpClassifier.predict_batch.self_s": "s",
    "mlp.MlpClassifier.predict_batch.rows": "count",
    "neighbors.NnClassifier.predict_batch.self_s": "s",
    "neighbors.NnClassifier.predict_batch.rows": "count",
    "neighbors.NnClassifier.predict_batch.pairs": "count",
    "neighbors.rho_all.self_s": "s",
    "neighbors.rho_all.pairs": "count",
    "neighbors.rho.self_s": "s",
    "neighbors.rho.calls": "count",
    "augment.augment.self_s": "s",
    "augment.augment.draws": "count",
    "losses.binary_loss.self_s": "s",
    "losses.robust_loss_fixed_grid.self_s": "s",
    "losses.adaptive_robust_testtime.self_s": "s",
    "losses.adaptive_robust_empirical.self_s": "s",
    "losses.probe_rows": "count",
    "margin.NearestSetClassifier.predict_batch.self_s": "s",
    "margin.NearestSetClassifier.predict_batch.rows": "count",
    "margin.NearestSetClassifier.predict_batch.pairs": "count",
    "margin.bisection.self_s": "s",
    "margin.bisection.rows": "count",
    "margin.opposite_witness.self_s": "s",
    "margin.opposite_witness.calls": "count",
    "margin.margin_profile.self_s": "s",
    "datagen.class_support.self_s": "s",
    "datagen.manifold_sampler.self_s": "s",
    "datagen.generate.self_s": "s",
    "datagen.generate.points": "count",
    "cli.run_sweep.self_s": "s",
    "cli.margin.self_s": "s",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "nn1", "margin"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _git_rev() -> str:
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
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def _environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for f in sorted((SRC / "adaptrobust").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    threads = None
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "process_threads": threads,
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children count so a pool cannot hide memory.
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _set_up(workload: str, seed: int, i: int):
    """Import the library with empty module state (so lazy caches start empty)
    and run one reduced op on the workload's code path; return it and its seconds."""
    for name in [m for m in sys.modules
                 if m in ("workloads", "spans") or (m + ".").startswith("adaptrobust.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    wl = importlib.import_module("workloads").make(workload, SCRATCH)
    wl.op(seed, 1_000_000 + i, small=True)
    return wl, time.perf_counter() - t0


def _run_op(wl, seed: int, k: int, failures: list) -> float:
    """Run op k, check its output outside the timed region, return its seconds."""
    from workloads import CheckFailed
    t0 = time.perf_counter()
    try:
        out = wl.op(seed, k)
    except Exception:  # an op that raises is a failed op; keep measuring
        dur = time.perf_counter() - t0
        failures.append(f"op {k} raised:\n{traceback.format_exc()}")
        return dur
    dur = time.perf_counter() - t0
    try:
        wl.check(out)
    except CheckFailed as exc:
        failures.append(f"op {k} failed its check: {exc}")
    return dur


def _measure(wl, seed: int, seconds: float, failures: list) -> dict:
    durs = []
    t_start = time.perf_counter()
    while True:
        durs.append(_run_op(wl, seed, len(durs), failures))
        # Start another op only if it should finish inside the budget.
        if time.perf_counter() - t_start + statistics.median(durs) > seconds:
            break
    return {"ops_per_s": len(durs) / sum(durs), "op_s_p50": statistics.median(durs),
            "ops": len(durs)}


def _measure_traced(wl, seed: int, failures: list):
    from spans import Tracer
    untraced = [_run_op(wl, seed, k, failures) for k in range(wl.trace_ops)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_run_op(wl, seed, k, failures) for k in range(wl.trace_ops)]
    finally:
        tracer.uninstall()
    tracer.require(wl.expected_spans)
    values = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = tracer.self_s[span]
        elif kind == "calls":
            values[name] = tracer.calls[span]
        else:
            values[name] = tracer.counts[name]
    epochs = tracer.counts["mlp.train.epochs"]
    values["mlp.epoch_s"] = tracer.self_s["mlp.train"] / epochs if epochs else 0.0
    values["trace.ops_per_s_untraced"] = len(untraced) / sum(untraced)
    values["trace.ops_per_s_traced"] = len(traced) / sum(traced)
    values["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(untraced) - 1.0)
    return values, tracer, sum(traced)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "adaptrobust" / "__init__.py").is_file():
        print(f"error: no library at {SRC.relative_to(ROOT)}/adaptrobust; "
              "run from the root of an adaptrobust checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    # The first import also pulls numpy and click in cold. It is timed once for
    # the record but left out of setup_s: a single sample of it swings by 2x.
    t0 = time.perf_counter()
    import adaptrobust.cli
    cold_import_s = time.perf_counter() - t0
    import numpy as np
    if Path(adaptrobust.cli.__file__).resolve().parent != (SRC / "adaptrobust").resolve():
        print(f"error: imported adaptrobust from {adaptrobust.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    try:
        setups = []
        for i in range(SETUPS):
            wl, seconds = _set_up(args.workload, args.seed, i)
            setups.append(seconds)
        setup_s = statistics.median(setups)

        failures = []
        if args.trace:
            from spans import TraceError
            try:
                values, tracer, traced_s = _measure_traced(wl, args.seed, failures)
            except TraceError as exc:
                for msg in failures:
                    print(f"error: {msg}", file=sys.stderr)
                print(f"error: traced run of {args.workload}: {exc}", file=sys.stderr)
                return 3
            units, attempted = PER_LAYER, 2 * wl.trace_ops
            print(f"# traced run: {wl.trace_ops} ops untraced, then the same ops traced; "
                  "counts are computed from call arguments")
            fired = sorted((s, span) for span, s in tracer.self_s.items() if tracer.calls[span])
            for s, span in reversed(fired):
                print(f"# self time {span}: {s:.4f} s ({100 * s / traced_s:.1f}% of "
                      f"{traced_s:.3f} s traced), {tracer.calls[span]} calls")
        else:
            e2e = _measure(wl, args.seed, args.seconds, failures)
            attempted = e2e["ops"]
            values = {"setup_s": setup_s, "ops_per_s": e2e["ops_per_s"],
                      "op_s_p50": e2e["op_s_p50"], "peak_rss_mb": _peak_rss_mb()}
            units = END_TO_END
            print(f"# setup_s = {setup_s:.4f} s: median of {SETUPS} set-ups (library import "
                  f"with empty module state + one reduced op): "
                  f"{', '.join(f'{s:.4f}' for s in setups)}; first cold import of the "
                  f"library with numpy and click: {cold_import_s:.4f} s")
            print(f"# ops_per_s = {e2e['ops_per_s']:.6f} 1/s, op_s_p50 = "
                  f"{e2e['op_s_p50']:.4f} s over n={attempted} ops; "
                  f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for msg in failures:
        print(f"error: {msg}", file=sys.stderr)
    print(f"# failed_op_frac = {len(failures)}/{attempted} = {len(failures) / attempted:g}")
    print("# env " + json.dumps(_environment(np, args.seed), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
