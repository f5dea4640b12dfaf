"""Run one batch of a workload in a fresh interpreter and print its record.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR [--setup-only]

Run from the root of a checkout; ``run.py`` starts this once per batch.  The
package is imported from the checkout's ``src`` directory.  The last line of
standard output is one JSON record: when set-up ended (``time.monotonic``,
which all processes share), the kernel time of ``hostspeed`` measured right
after set-up, the batch's wall time, peak resident memory and the outcome of
each op.  An untraced batch also records the kernel time sampled while it ran
and the time the sampling took; a traced batch runs without sampling and
records the trace instead.  With ``--setup-only`` the worker stops after
set-up and its calibration.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import hostspeed
from workloads import WORKLOADS, CheckFailed, probes


def _import_telegraph(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import telegraph

    if os.path.dirname(os.path.abspath(telegraph.__file__)) != os.path.join(src, "telegraph"):
        raise SystemExit(f"telegraph imported from {telegraph.__file__}, not from {src}")


def _run_op(op, tracer):
    if tracer is not None:
        tracer.trace_id = op.name
    outcome = {"name": op.name, "threads": op.threads, "failed": False, "reason": "",
               "known_defect": op.known_defect, "facts": {}}
    start = time.perf_counter()
    try:
        outcome["facts"] = op.run()
    except Exception as exc:  # the op boundary: any error of the program fails the op
        outcome["failed"] = True
        outcome["facts"] = getattr(exc, "facts", {})
        if isinstance(exc, CheckFailed):
            outcome["reason"] = str(exc)
        else:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            outcome["reason"] = (f"{type(exc).__name__}: {exc} "
                                 f"({os.path.basename(where.filename)}:{where.lineno})")
    outcome["wall_s"] = time.perf_counter() - start
    return outcome


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_telegraph(os.getcwd())
    import numpy

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = WORKLOADS[args.workload](args.seed, args.workdir)
    extra = probes(args.workload, args.seed, args.workdir) if args.trace else []
    ready = time.monotonic()
    setup_kernel_s = hostspeed.calibrate()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_kernel_s": setup_kernel_s}))
        return

    sampling = {}
    start = time.perf_counter()
    if tracer is None:
        with hostspeed.Sampler() as sampler:
            outcomes = [_run_op(op, tracer) for op in ops]
        sampling = {"kernel_s": sampler.kernel_s(), "kernel_samples": len(sampler.samples),
                    "sampling_s": sampler.overhead_s}
    else:
        outcomes = [_run_op(op, tracer) for op in ops]
    wall = time.perf_counter() - start
    probe_outcomes = [_run_op(op, tracer) for op in extra]

    record = {
        "ready": ready,
        "setup_kernel_s": setup_kernel_s,
        "wall_s": wall,
        **sampling,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": outcomes,
        "probes": probe_outcomes,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        record["aggregates"] = tracer.aggregates()
        record["spans"] = tracer.spans()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
