"""Benchmark of the ``telegraph`` package.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``
directory.  ``BENCHMARK.json`` at the root names the workloads and metrics.

With ``--trace 0`` the workload's fixed batch of ops runs again and again,
each batch in a fresh interpreter, as long as the next batch is expected to
end within ``--seconds`` (at least once).  Every ``telegraph`` invocation
pays its own lazy set-up and cache fill, so there is no warm-up.  The run
reports the median over batches of ``wall_s`` (the batch of ops) and
``peak_rss_mb``.  ``setup_s`` (interpreter start until ``telegraph`` is
imported and the inputs are built) is the median over the batches and
``SETUPS_PER_BATCH`` interpreters per batch that only set up.  Both times
are corrected for the host's speed as ``hostspeed.py`` describes; the raw
times and the host's slowdown are printed beside them.

With ``--trace 1`` every workload runs once with the layer boundaries traced,
so every per-layer metric is measured whichever workload is named, and the
named workload runs once more untraced; ``trace.overhead_s`` is the
difference of the two wall times.

Earlier lines of standard output describe the run: every sample of every
metric, each op's outcome, the fail ratio, the git sha, Python and numpy
versions, ``nproc`` and the threads each op uses.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts every failed op; ``correct`` is false when an op fails that
is not one of the known defects listed in ``workloads.py``.  With
``--workload all`` the workloads run in turn, and the last line names each
metric ``<workload>.<metric>`` and adds ``<workload>.fail_ratio``.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostspeed
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify-all", "eval-grid", "mc-paths")
SETUPS_PER_BATCH = 1
WORKER_TIMEOUT_S = 170
# numpy itself stays single-threaded; only the ops' own thread pools run in parallel
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def git_sha(root):
    """Commit of the checkout, read from ``.git`` without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def checkout_root():
    """The checkout to measure: the working directory, which must hold the package."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "telegraph", "__init__.py")):
        raise BenchmarkError(f"no telegraph package under {root}/src; run from a checkout's root")
    return root


@contextlib.contextmanager
def work_directory(root):
    """A fresh directory inside the checkout for the ops' output files, removed afterwards."""
    path = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_batch(root, workdir, workload, seed, trace, setup_only=False):
    """One batch of ``workload`` in a fresh interpreter; returns the worker's record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env={**os.environ, **THREAD_ENV},
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} batch ran longer than {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["setup_raw_s"] = record["ready"] - spawned
    record["setup_s"] = corrected(record["setup_raw_s"], record["setup_kernel_s"])
    if "kernel_s" in record:
        record["wall_raw_s"] = record["wall_s"] - record["sampling_s"]
        record["wall_s"] = corrected(record["wall_raw_s"], record["kernel_s"])
    return record


def corrected(raw_s, kernel_s):
    """``raw_s`` at the host speed where the kernel of ``hostspeed`` takes its reference time."""
    return raw_s * hostspeed.REFERENCE_KERNEL_S / kernel_s


def _batch_estimate(batches):
    """Expected duration of one more batch, set-up samples included."""
    return statistics.median(b["setup_raw_s"] * (1 + SETUPS_PER_BATCH) + b["wall_raw_s"]
                             for b in batches)


def traced_records(root, workdir, seed):
    """One traced batch of every workload."""
    return {w: run_batch(root, workdir, w, seed, 1) for w in WORKLOADS}


def _write_spans(root, workload, seed, traced):
    """Keep the spans of a traced run in ``.perfbench/`` for inspection."""
    path = os.path.join(root, ".perfbench", f"spans-{workload}-seed{seed}.json")
    columns = ["trace_id", "span_id", "parent_id", "name", "start", "end"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({w: [dict(zip(columns, s)) for s in r["spans"]] for w, r in traced.items()}, fh)


def _describe(workload, seed, batches, metrics, samples, raw, root):
    first = batches[0]
    ops = {op["name"]: op for b in batches for op in b["ops"] + b["probes"]}
    print(json.dumps({
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(root),
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "batches": len(batches),
        "threads_per_op": {name: op["threads"] for name, op in ops.items()},
        "samples": samples,
        "raw_samples": raw,
    }))
    for name, op in ops.items():
        if op["failed"]:
            note = f" [known defect: {op['known_defect']}]" if op["known_defect"] else ""
            print(f"FAILED {name}: {op['reason']}{note}")
    for name, value in metrics.items():
        count = len(samples[name])
        how = f"median of {count} samples" if count > 1 else "1 sample"
        print(f"{name} = {value['value']:.6g} {value['unit']} ({how})")
    for name, values in raw.items():
        print(f"{name} = {statistics.median(values):.6g} (median of {len(values)} samples)")


def measure(root, spec, workdir, workload, seed, seconds, trace):
    """Run one workload, print its description and return its result object."""
    if trace:
        traced = traced_records(root, workdir, seed)
        plain = run_batch(root, workdir, workload, seed, 0)
        batches = [*traced.values(), plain]
        _write_spans(root, workload, seed, traced)
        values = layers.per_layer(list(traced.values()),
                                  traced[workload]["wall_s"] - plain["wall_raw_s"])
        wanted = spec["per_layer"]
        samples = {name: [value] for name, value in values.items()}
        raw = {}
    else:
        start = time.monotonic()
        setups, batches = [], []
        while not batches or time.monotonic() - start + _batch_estimate(batches) <= seconds:
            setups += [run_batch(root, workdir, workload, seed, 0, setup_only=True)
                       for _ in range(SETUPS_PER_BATCH)]
            batches.append(run_batch(root, workdir, workload, seed, 0))
        samples = {name: [b[name] for b in batches] for name in ("wall_s", "peak_rss_mb")}
        samples["setup_s"] = [b["setup_s"] for b in setups + batches]
        values = {name: statistics.median(v) for name, v in samples.items()}
        raw = {
            "wall_raw_s": [b["wall_raw_s"] for b in batches],
            "setup_raw_s": [b["setup_raw_s"] for b in setups + batches],
            "host_slowdown": [b["kernel_s"] / hostspeed.REFERENCE_KERNEL_S for b in batches],
        }
        wanted = spec["end_to_end"]

    if set(values) != {m["name"] for m in wanted}:
        raise BenchmarkError(f"measured {sorted(values)}, BENCHMARK.json names "
                             f"{sorted(m['name'] for m in wanted)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    ops = [op for b in batches for op in b["ops"]]
    failed = [op for op in ops if op["failed"]]
    _describe(workload, seed, batches, metrics, samples, raw, root)
    print(f"fail_ratio = {len(failed) / len(ops):.6g} ratio ({len(failed)} of {len(ops)} ops failed)")
    return {
        "correct": all(op["known_defect"] for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = checkout_root()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    with work_directory(root) as workdir:
        results = {w: measure(root, spec, workdir, w, args.seed, args.seconds, args.trace)
                   for w in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return
    metrics = {}
    for w, result in results.items():
        metrics.update({f"{w}.{name}": value for name, value in result["metrics"].items()})
        metrics[f"{w}.fail_ratio"] = {"value": result["failed"] / result["attempted"],
                                      "unit": "ratio"}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    # on SIGTERM, unwind so that subprocess.run kills the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        main()
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
