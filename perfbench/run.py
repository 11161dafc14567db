"""The obrsk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Passes of the workload run one after
another, each in a fresh interpreter (worker.py), until S seconds have gone;
every item of every pass is checked.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it print every metric with its unit and the
run's metadata.  A traced run alternates untraced and traced passes; the
difference of their median walls is the tracing overhead.  The full record
of the run, spans included, is written to perfbench_out/ when it ends.

Workloads, metrics and the layer-to-metric predictions: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Rescaler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "perfbench_out"
WORKLOADS = ("verify_d4", "verify_d5", "certify_pairs")
PASS_TIMEOUT_S = 150
P90_MIN_BEYOND = 10  # report p90 only with at least this many samples above it
# The end-to-end metrics of BENCHMARK.json.  Item latencies are printed but
# not gated: certify_pairs maps its 635 pairs within a fraction of a second,
# too short a window for a steady percentile on a shared host.
GATED = ("items_per_s", "peak_rss_mib", "setup_s")


def run_pass(workload, seed, traced):
    """Run one pass in a fresh interpreter and measure it.  Set-up runs from
    the start of the process to the worker's ready time, less the worker's
    own start-up."""
    # a fixed hash seed makes set and dict orders, and so the work done,
    # the same in every pass
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    spawn_t = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    doc = json.loads(out)
    scale = Rescaler(doc.pop("samples"))
    ready_t, end_t = doc["ready_t"], doc["end_t"]
    bench_start_t, bench_end_t = doc.pop("bench_start_t"), doc.pop("bench_end_t")
    doc.update(
        traced=traced,
        slowdown=scale.slowdown(),
        setup_s=scale.duration(spawn_t, ready_t) - scale.duration(bench_start_t, bench_end_t),
        setup_raw_s=ready_t - spawn_t - (bench_end_t - bench_start_t),
        timed_s=scale.duration(ready_t, end_t),
        timed_raw_s=end_t - ready_t,
        item_ms=[scale.duration(a, b) * 1000 for a, b in doc["items"]],
        item_raw_ms=[(b - a) * 1000 for a, b in doc.pop("items")],
    )
    return doc


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by the inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes):
    """End-to-end metrics from the untraced passes of a run (set-up from
    all passes), and the figures printed beside them."""
    plain = [p for p in passes if not p["traced"]]
    med = statistics.median

    def summary(prefix, timed, item, setup):
        item_ms = [x for p in plain for x in p[item]]
        out = {
            f"{prefix}setup_s": (med(p[setup] for p in passes), "s"),
            f"{prefix}items_per_s": (med(len(p[item]) / p[timed] for p in plain), "1/s"),
            f"{prefix}item_ms.p50": (med(item_ms), "ms"),
        }
        if len(item_ms) * 0.1 >= P90_MIN_BEYOND:
            out[f"{prefix}item_ms.p90"] = (percentile(item_ms, 90), "ms")
        return out

    shown = summary("", "timed_s", "item_ms", "setup_s")
    shown["peak_rss_mib"] = (med(p["peak_rss_kib"] for p in plain) / 1024, "MiB")
    shown["item_ms.samples"] = (sum(len(p["item_ms"]) for p in plain), "count")
    shown.update(summary("raw.", "timed_raw_s", "item_raw_ms", "setup_raw_s"))
    shown["host.slowdown"] = (med(p["slowdown"] for p in passes), "ratio")
    return {k: shown[k] for k in GATED}, shown


def per_layer(passes):
    """Per-layer metrics: the median over traced passes of each layer
    metric, and the tracing overhead against the untraced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        unit = "share" if name.endswith(("_share", "_ratio", "_density")) else "count"
        metrics[name] = (statistics.median(p["layers"][name] for p in traced), unit)
    traced_s = statistics.median(p["timed_s"] for p in traced)
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - statistics.median(p["timed_s"] for p in plain), "s")
    return metrics


def git_sha():
    """HEAD of the checkout; None when it is not a repository.  The ceiling
    stops git from finding a repository that encloses the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one workload of the obrsk benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "obrsk" / "__init__.py").is_file():
        print(f"error: no obrsk package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    start = time.perf_counter()
    passes = []
    try:
        while True:
            kinds = {p["traced"] for p in passes}
            wanted = {False, True} if args.trace else {False}
            if time.perf_counter() - start >= args.seconds and kinds >= wanted:
                break
            passes.append(run_pass(args.workload, args.seed, args.trace == 1 and len(passes) % 2 == 1))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall_s = time.perf_counter() - start

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    e2e, shown = end_to_end(passes)
    layers = per_layer(passes) if args.trace else {}
    shown = dict(shown, failed_ratio=(failed / attempted, "ratio"), **layers)

    print("meta " + json.dumps(meta))
    print(f"passes {len(passes)} in {wall_s:.1f} s; attempted {attempted}, failed {failed}")
    for p in passes:
        for err in p["errors"]:
            print(f"FAILED {err}")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"meta": meta, "wall_s": wall_s, "metrics": {k: v for k, (v, _) in shown.items()}, "passes": passes}
    with gzip.open(OUT_DIR / f"{args.workload}.trace{args.trace}.json.gz", "wt") as fh:
        json.dump(record, fh)

    reported = layers if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
