"""Per-layer metrics from a traced run of every workload.

Input: the worker records of the traced batches, one per workload.  Each
aggregate row is ``[trace_id, name, calls, total_s, self_s, failed, units]``
(see ``tracing.py``); the trace id is the op's name.  A name ending in ``.``
selects a whole layer.  Ops whose name starts with ``probe.`` run only in the
traced batch and feed only the ratios that name them.
"""

from tracing import VERIFY_SUITES

CALLS, TOTAL_S, SELF_S, FAILED, UNITS = range(2, 7)

#: law family -> eval-grid ops whose grid points measure it
LAW_RATES = {
    "laws.position.n2.evals_per_s": ("eval.position.n2",),
    "laws.position.n8.evals_per_s": ("eval.position.n8",),
    "laws.position.n64.evals_per_s": ("eval.position.n64",),
    "laws.position.n1024.evals_per_s": ("eval.probe.position.n1024",),
    "laws.max.evals_per_s": ("eval.max.n7",),
    "laws.max_cdf.evals_per_s": ("eval.max_cdf.n8",),
    "laws.joint.evals_per_s": ("eval.joint.n7",),
    "laws.joint_cdf.evals_per_s": ("eval.joint_cdf.n8",),
    "laws.fpt.n8.evals_per_s": ("eval.fpt.n8",),
    "laws.fpt.n64.evals_per_s": ("eval.fpt.n64",),
    "laws.return.evals_per_s": ("eval.return.n9",),
    "laws.bessel_forms.evals_per_s": ("eval.joint.density.lam5",
                                      "eval.joint.max_equals_position.lam1000"),
}

HISTOGRAM = "sampler.mc_density_histogram"
SCALING_OPS = ("probe.simulate.position.2t", "probe.simulate.position.1t")


def _ratio(num, den):
    return num / den if den else 0.0


class _Rows:
    def __init__(self, records):
        self.rows = [row for record in records for row in record["aggregates"]]
        self.ops = [op for record in records for op in record["ops"]]

    def sum(self, column, name, ops=None):
        """Sum ``column`` over the rows of ``name`` in ``ops``, or in every workload op."""
        total = 0
        for row in self.rows:
            if ops is None:
                if row[0].startswith("probe."):
                    continue
            elif row[0] not in ops:
                continue
            if row[1] == name or (name.endswith(".") and row[1].startswith(name)):
                total += row[column]
        return total

    def fact(self, key, ops=None):
        return sum(op["facts"].get(key, 0) for op in self.ops
                   if ops is None or op["name"] in ops)


def per_layer(records, overhead_s):
    """Every per-layer metric; ``overhead_s`` is traced minus untraced wall time."""
    r = _Rows(records)
    m = {}
    for layer in ("cli", "laws", "bessel", "path"):
        m[f"{layer}.calls"] = r.sum(CALLS, layer + ".")
        m[f"{layer}.self_s"] = r.sum(SELF_S, layer + ".")
    m["laws.failed"] = r.sum(FAILED, "laws.")
    for metric, ops in LAW_RATES.items():
        m[metric] = _ratio(r.sum(CALLS, "laws.evaluate_query", ops), r.sum(TOTAL_S, "laws.", ops))

    for op, suite in VERIFY_SUITES.items():
        m[f"{op}.s"] = r.sum(TOTAL_S, f"verify.{suite}", (op,))
    m["verify.quadrature.calls"] = r.sum(CALLS, "verify.quadrature")
    m["verify.integrand_calls"] = r.sum(UNITS, "verify.integrand")
    for key in ("checks", "checks_failed", "known_discrepancies"):
        m[f"verify.{key}"] = r.fact(key, VERIFY_SUITES)

    m["sampler.paths"] = r.sum(UNITS, "sampler.")
    m["sampler.self_s"] = r.sum(SELF_S, "sampler.")
    m["sampler.histogram.paths_per_s"] = _ratio(r.sum(UNITS, HISTOGRAM), r.sum(TOTAL_S, HISTOGRAM))
    two, one = ((r.sum(UNITS, HISTOGRAM, (op,)), r.sum(TOTAL_S, HISTOGRAM, (op,)))
                for op in SCALING_OPS)
    m["sampler.histogram.scaling_2t"] = _ratio(_ratio(*two), _ratio(*one))
    m["sampler.mc_probability.paths_per_s"] = _ratio(r.sum(UNITS, "sampler.mc_probability"),
                                                     r.sum(TOTAL_S, "sampler.mc_probability"))
    m["sampler.samples_outside_bins"] = r.fact("outside_bins")

    m["reflection.self_s"] = r.sum(SELF_S, "reflection.")
    batch = ("reflection.batch",)
    m["reflection.batch.paths_per_s"] = _ratio(r.fact("rows", batch),
                                               r.sum(TOTAL_S, "reflection.", batch))
    m["reflection.batch.ok_ratio"] = _ratio(r.fact("ok_rows", batch), r.fact("rows", batch))
    scalar = ("reflect.cli",)
    m["reflection.scalar.paths_per_s"] = _ratio(r.fact("records", scalar),
                                                r.sum(TOTAL_S, "reflection.", scalar))
    m["reflection.cli.accept_ratio"] = _ratio(r.fact("records", scalar),
                                              r.sum(CALLS, "sampler.sample_conditional", scalar))
    m["trace.overhead_s"] = overhead_s
    return m
