"""Check that two traced runs with the same seed give identical counts.

    python3 perfbench/selfcheck.py --seed N

Run from the root of a checkout.  Each run traces one batch of every
workload in fresh interpreters.  The counts compared are the ones a later
change may claim as exact; the script exits 1 and names any that differ.
"""

import argparse
import json
import sys

import layers
from run import BenchmarkError, checkout_root, traced_records, work_directory

COUNTS = (
    "verify.integrand_calls",
    "verify.quadrature.calls",
    "verify.checks",
    "laws.calls",
    "bessel.calls",
    "sampler.paths",
    "sampler.samples_outside_bins",
    "reflection.batch.ok_ratio",
)


def counts(root, workdir, seed):
    records = list(traced_records(root, workdir, seed).values())
    metrics = layers.per_layer(records, 0.0)
    ops = [op for record in records for op in record["ops"]]
    found = {name: metrics[name] for name in COUNTS}
    found["fail_ratio"] = sum(op["failed"] for op in ops) / len(ops)
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    root = checkout_root()
    with work_directory(root) as workdir:
        first = counts(root, workdir, args.seed)
        second = counts(root, workdir, args.seed)
    print(json.dumps({"first": first, "second": second}))
    differ = [name for name in first if first[name] != second[name]]
    if differ:
        print(f"counts differ between two traced runs: {', '.join(differ)}", file=sys.stderr)
        return 1
    print(f"{len(first)} counts identical in two traced runs with seed {args.seed}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
