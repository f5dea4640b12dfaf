"""Spans and counters at the layer boundaries of the ``telegraph`` package.

The benchmark times each layer from outside.  ``install`` replaces public
functions, in the namespace of the module that calls them, with wrappers
that record the call; no program file changes.

Every wrapped call adds to a per-op aggregate (calls, total time, self time,
calls that raised, units of work).  Calls at a coarse boundary (a CLI
invocation, a check suite, a histogram, a batch reflection) also record one
span each: name, start, end, parent span and the op's trace id.  The hot
scalar law calls inside quadrature number about a million per run, so they
keep aggregates only.  A call made from inside the same layer is internal to
that layer and is not recorded, except for quadrature, which recurses through
its own integrands.

Self time is a call's duration minus the time of the wrapped calls made
directly inside it on the same thread.  Work that a call hands to worker
threads is counted in those threads, so a layer's self time is summed over
threads and can exceed the wall time of the op.
"""

import functools
import inspect
import itertools
import threading
from time import perf_counter

#: op of the verify-all workload -> the check suite it runs
VERIFY_SUITES = {
    "verify.identities": "run_identity_suite",
    "verify.normalization": "normalization_suite",
    "verify.mc-cross": "mc_cross_suite",
    "verify.kac": "kac_limit_check",
    "verify.random-walk": "random_walk_enumeration",
    "verify.return-printed": "return_printed_suite",
}

_span_ids = itertools.count(1)


class _ThreadState:
    def __init__(self):
        self.stack = []  # frames [layer, child_time, span_id]
        self.aggs = {}  # (trace_id, name) -> [calls, total_s, self_s, failed, units]
        self.spans = []  # (trace_id, span_id, parent_id, name, start, end)

    def agg(self, trace_id, name):
        key = (trace_id, name)
        agg = self.aggs.get(key)
        if agg is None:
            agg = self.aggs[key] = [0, 0.0, 0.0, 0, 0]
        return agg


class Tracer:
    """Collects aggregates and spans from every thread until the run ends."""

    def __init__(self):
        self.trace_id = None  # name of the op running now
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, fn, name, layer, *, span=False, reentrant=False, units=None):
        """Return ``fn`` wrapped to record its calls under ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack and stack[-1][0] == layer and not reentrant:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            span_id = next(_span_ids) if span else parent
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                agg = state.agg(tracer.trace_id, name)
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                agg[3] += failed
                if units is not None:
                    agg[4] += units(args, kwargs)
                if span:
                    state.spans.append((tracer.trace_id, span_id, parent, name, start, end))

        return traced

    def patch(self, module, attr, name, layer, **options):
        setattr(module, attr, self.wrap(getattr(module, attr), name, layer, **options))

    def count(self, name, units):
        """Add ``units`` of work under ``name`` without timing anything."""
        self._state().agg(self.trace_id, name)[4] += units

    def aggregates(self):
        """Aggregates of all threads as rows [trace_id, name, calls, total_s, self_s, failed, units]."""
        merged = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for key, agg in state.aggs.items():
                row = merged.setdefault(key, [0, 0.0, 0.0, 0, 0])
                for i, value in enumerate(agg):
                    row[i] += value
        return [[trace_id, name, *row] for (trace_id, name), row in sorted(merged.items())]

    def spans(self):
        with self._lock:
            threads = list(self._threads)
        return sorted((s for state in threads for s in state.spans), key=lambda s: s[4])


def _arg(index, keyword):
    return lambda args, kwargs: args[index] if len(args) > index else kwargs[keyword]


def _one(args, kwargs):
    return 1


def _count_integrand_calls(tracer, quadrature):
    """Wrap a traced ``quadrature`` so that each integrand call is counted."""

    @functools.wraps(quadrature)
    def counting(f, *args, **kwargs):
        calls = [0]

        def integrand(x):
            calls[0] += 1
            return f(x)

        try:
            return quadrature(integrand, *args, **kwargs)
        finally:
            tracer.count("verify.integrand", calls[0])

    return counting


def install(tracer):
    """Wrap the layer boundaries of ``telegraph`` for ``tracer``."""
    from telegraph import cli, laws, path, reflection, sampler, verify

    tracer.patch(cli, "main", "cli.main", "cli", span=True)

    # laws: every public law function, reached as ``laws.<name>`` by cli and verify
    for name, fn in inspect.getmembers(laws, inspect.isfunction):
        if fn.__module__ == laws.__name__ and not name.startswith("_"):
            tracer.patch(laws, name, f"laws.{name}", "laws")
    tracer.patch(laws, "bessel_i_scaled", "bessel.bessel_i_scaled", "bessel")

    for suite in VERIFY_SUITES.values():
        tracer.patch(verify, suite, f"verify.{suite}", "verify", span=True)
    tracer.patch(verify, "quadrature", "verify.quadrature", "quadrature", reentrant=True)
    verify.quadrature = _count_integrand_calls(tracer, verify.quadrature)

    # sampler, in the namespaces of its callers
    tracer.patch(cli, "mc_density_histogram", "sampler.mc_density_histogram", "sampler",
                 span=True, units=_arg(7, "reps"))
    tracer.patch(cli, "sample_conditional", "sampler.sample_conditional", "sampler", units=_one)
    tracer.patch(sampler, "mc_probability", "sampler.mc_probability", "sampler",
                 span=True, units=_arg(3, "reps"))
    tracer.patch(verify, "sample_switches_batch", "sampler.sample_switches_batch", "sampler",
                 units=_arg(2, "reps"))
    # mc_cross_suite imports these from the sampler module when it runs
    tracer.patch(sampler, "max_is_zero_batch", "sampler.max_is_zero_batch", "sampler")
    tracer.patch(sampler, "max_equals_position_batch", "sampler.max_equals_position_batch",
                 "sampler")

    for name in ("crossings_batch", "reflect_batch", "zero_return_crossings_batch",
                 "reflect_inverse_batch"):
        tracer.patch(reflection, name, f"reflection.{name}", "reflection", span=True)
    for name in ("negative_reflect", "negative_reflect_inverse", "classify_crossings",
                 "in_P_plus"):
        tracer.patch(cli, name, f"reflection.{name}", "reflection")

    tracer.patch(reflection, "running_max", "path.running_max", "path")
    tracer.patch(reflection, "position_at", "path.position_at", "path")
    tracer.patch(cli, "position_at", "path.position_at", "path")
    tracer.patch(verify, "running_max", "path.running_max", "path")
    tracer.patch(verify, "running_min", "path.running_min", "path")
    # the benchmark's own event predicate reaches path through the module
    tracer.patch(path, "running_max", "path.running_max", "path")
