"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--traced]

Started by run.py with ``src`` on PYTHONPATH.  It imports the package and
builds the workload's inputs from the seed (set-up), runs the pass, and
prints one JSON line: timestamps of the benchmark's own start-up (its
imports and the host-speed sampler's warm-up, which set-up leaves out), of
the end of set-up, of the pass and of every item, the check counts, the peak resident set, the host-speed samples
and, when traced, the layer metrics and spans.  A fresh interpreter per pass
keeps the package's lru_caches cold, as they are for a user of the command
line.
"""

from __future__ import annotations

import time

BENCH_START_T = time.perf_counter()  # the benchmark's own start-up begins

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from hostspeed import Sampler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_kib():
    """This process's peak resident set.  Not ru_maxrss: on Linux a child
    inherits its parent's peak through vfork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None):
    sampler = Sampler()
    sampler.start()
    bench_end_t = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    import obrsk  # noqa: F401  (set-up includes the import)

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready_t = time.perf_counter()

    result = workload.run(None if tracer is None else lambda fn: tracer.wrap("item", fn))
    end_t = time.perf_counter()
    sampler.stop()

    doc = {
        "bench_start_t": BENCH_START_T,
        "bench_end_t": bench_end_t,
        "ready_t": ready_t,
        "end_t": end_t,
        "items": result.items,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "peak_rss_kib": peak_rss_kib(),
        "samples": sampler.samples,
    }
    if tracer is not None:
        tracer.restore()
        doc["layers"] = tracing.layer_metrics(tracer, end_t - ready_t)
        doc["spans"] = tracer.spans
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
