"""Layer tracing for the benchmark, installed from outside the program.

The tracer replaces module attributes at each layer boundary of
``stocadmm`` with timing wrappers, so nothing under ``src/`` carries tracing
code.  Each wrapper records a span: its name, its thread, and its parent,
which is the innermost open span of the same thread.  Spans are aggregated in
memory per (thread, name, parent) as call count, total time and self time,
where self time is the span's duration minus the time of the spans opened
inside it.  Counters ride on the same wrappers.

Each span is timed twice: in wall time and in the thread's CPU time.  The
layer times reported are CPU time, because with the interpreter lock a
thread's wall time also counts the time other threads of the pool hold it;
CPU time adds up across threads.  harness.replications_s (the whole pool)
and trace.coverage use wall time.

A boundary that no longer resolves (renamed or deleted by a later change) is
listed in ``Tracer.missing`` and skipped; the metrics that depend on it read
zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
from collections import defaultdict
from time import perf_counter, thread_time

import numpy as np


def _arg(fn, name):
    """Extractor for argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    params = inspect.signature(fn).parameters
    if name not in params:
        raise LookupError(name)
    pos = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if len(args) > pos else default
    return get


def _nbytes(*values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += _nbytes(*v)
    return total


# Each counter factory takes the original function and returns
# count(args, kwargs, result) -> iterable of (counter name, increment).

def _count_calls(name):
    return lambda fn: (lambda a, k, r: ((name, 1),))


def _count_probes(fn):
    # check_y_optimality evaluates `probes` points in one call
    probes = _arg(fn, "probes")
    return lambda a, k, r: (("solvers.probes", probes(a, k)),)


def _count_run_steps(fn):
    cfg = _arg(fn, "cfg")
    return lambda a, k, r: (("solvers.steps", cfg(a, k).t_max),)


def _count_presample(fn):
    return lambda a, k, r: (("oracle.presample_bytes", _nbytes(r.indices, r.noise)),)


def _count_kernel(fn):
    # bytes are computed from array sizes (arguments and results), not
    # measured; the all-zeros noise rows built for finite-sum oracles count
    noise = _arg(fn, "noise")

    def count(a, k, r):
        steps = int(np.prod(np.shape(noise(a, k))[:-1]))
        return (("kernels.rep_steps", steps),
                ("kernels.bytes", _nbytes(*a, *k.values(), r)))
    return count


def _count_export(fn):
    path = _arg(fn, "path")
    return lambda a, k, r: (("harness.export_bytes", os.path.getsize(path(a, k))),)


# (span name or None for a counter-only wrapper, "module:attribute.path",
#  counter factory or None)
BOUNDARIES = (
    ("harness.experiment", "stocadmm.harness:run_experiment", None),
    ("presets.build", "stocadmm.harness:build_preset", None),
    ("metrics.reference", "stocadmm.harness:compute_reference", None),
    (None, "stocadmm.metrics:step_deterministic", _count_calls("metrics.reference_iters")),
    ("metrics.aggregate", "stocadmm.harness:estimate_expectation", None),
    ("metrics.aggregate", "stocadmm.harness:fit_rate", None),
    ("metrics.aggregate", "stocadmm.harness:high_prob_check", None),
    ("harness.replications", "stocadmm.harness:run_replications", None),
    ("harness.replication", "stocadmm.harness:run_replication", None),
    ("harness.export", "stocadmm.harness:write_trajectory_csv", _count_export),
    ("harness.export", "stocadmm.harness:write_aggregate_csv", _count_export),
    ("kernels.kernel", "stocadmm.kernels:admm_identity_split", _count_kernel),
    ("oracle.presample", "stocadmm.oracle:FiniteSumOracle.presample", _count_presample),
    ("oracle.presample", "stocadmm.oracle:AdditiveNoiseOracle.presample", _count_presample),
    ("oracle.sample", "stocadmm.oracle:FiniteSumOracle.sample_subgradient", None),
    ("oracle.sample", "stocadmm.oracle:AdditiveNoiseOracle.sample_subgradient", None),
    ("solvers.eta", "stocadmm.solvers:SolverConfig.eta", None),
    ("solvers.run", "stocadmm.harness:run", _count_run_steps),
    ("solvers.check", "stocadmm.solvers:_run_checks", None),
    (None, "stocadmm.solvers:three_points_check", _count_calls("solvers.probes")),
    (None, "stocadmm.solvers:step_inequality_check", _count_calls("solvers.probes")),
    (None, "stocadmm.solvers:check_y_optimality", _count_probes),
    ("prox.x_update", "stocadmm.solvers:solve_x_subproblem", None),
    ("prox.x_update", "stocadmm.solvers:min_quadratic_over_set", None),
    ("prox.y_update", "stocadmm.solvers:solve_y_update", None),
    ("problem.err_rho", "stocadmm.solvers:err_rho", None),
    ("problem.err_rho", "stocadmm.harness:err_rho", None),
)

# per-layer metric -> unit; the values are per experiment
LAYER_UNITS = {
    "presets.build_s": "s",
    "metrics.reference_s": "s",
    "metrics.reference_iters": "count",
    "metrics.aggregate_s": "s",
    "oracle.presample_s": "s",
    "oracle.presample_bytes": "B-computed",
    "oracle.sample_calls": "count",
    "oracle.sample_us": "us",
    "solvers.schedule_s": "s",
    "solvers.eta_calls": "count",
    "solvers.run_s": "s",
    "solvers.step_self_us": "us",
    "solvers.check_us": "us",
    "solvers.probes": "count",
    "prox.x_update_us": "us",
    "prox.y_update_us": "us",
    "prox.y_update_calls": "count",
    "problem.err_rho_us": "us",
    "problem.err_rho_calls": "count",
    "kernels.kernel_s": "s",
    "kernels.us_per_rep_step": "us",
    "kernels.rep_steps": "count",
    "kernels.bytes_per_step": "B/step-computed",
    "harness.replications_s": "s",
    "harness.export_s": "s",
    "harness.export_bytes": "B",
    "trace.overhead_s": "s",
    "trace.coverage": "share",
}


def _booked_to(name, parent):
    """Prox spans opened by the reference solve belong to metrics.reference;
    only those of the iteration loop count for prox."""
    if name.startswith("prox.") and parent != "solvers.run":
        return "metrics.reference"
    return name


class _ThreadTable:
    def __init__(self):
        self.thread = threading.get_ident()
        self.stack = []   # open frames: [name, child wall, child cpu]
        # (name, parent) -> [count, wall, wall self, cpu, cpu self]
        self.spans = {}
        self.counters = defaultdict(int)


class Tracer:
    """Installs the boundary wrappers; use as a context manager."""

    def __init__(self, boundaries=BOUNDARIES):
        self._boundaries = boundaries
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._undo = []
        self.missing = []

    def _table(self) -> _ThreadTable:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _ThreadTable()
            with self._lock:
                self._tables.append(table)
        return table

    def _wrap(self, name, fn, count):
        table_of = self._table

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = table_of()
            if name is None:
                result = fn(*args, **kwargs)
            else:
                stack = table.stack
                parent = stack[-1][0] if stack else None
                frame = [name, 0.0, 0.0]
                stack.append(frame)
                w0, c0 = perf_counter(), thread_time()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    cpu = thread_time() - c0
                    wall = perf_counter() - w0
                    stack.pop()
                    if stack:
                        stack[-1][1] += wall
                        stack[-1][2] += cpu
                    rec = table.spans.get((name, parent))
                    if rec is None:
                        rec = table.spans[(name, parent)] = [0, 0.0, 0.0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += wall
                    rec[2] += wall - frame[1]
                    rec[3] += cpu
                    rec[4] += cpu - frame[2]
            if count is not None:
                for key, inc in count(args, kwargs, result):
                    table.counters[key] += inc
            return result
        return wrapper

    def __enter__(self):
        for name, target, counter in self._boundaries:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                count = counter(fn) if counter else None
            except (ImportError, AttributeError, LookupError, TypeError, ValueError):
                self.missing.append(target)
                continue
            self._undo.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, self._wrap(name, fn, count))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            if original is None:  # the wrapper shadowed an inherited attribute
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        return False

    def span_table(self) -> list:
        """Every aggregated span as a dict, with its thread id."""
        keys = ("count", "wall_s", "wall_self_s", "cpu_s", "cpu_self_s")
        return [{"thread": t.thread, "name": name, "parent": parent, **dict(zip(keys, rec))}
                for t in self._tables for (name, parent), rec in t.spans.items()]

    def layer_self_s(self) -> dict:
        """CPU self time per layer (the span name before the dot), summed
        over threads."""
        out = defaultdict(float)
        for t in self._tables:
            for (name, parent), rec in t.spans.items():
                out[_booked_to(name, parent).split(".")[0]] += rec[4]
        return dict(out)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced calls (all LAYER_UNITS but
        trace.overhead_s, which needs an untraced run)."""
        agg = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        counters = defaultdict(int)
        for t in self._tables:
            for (name, parent), rec in t.spans.items():
                if _booked_to(name, parent) == name:  # others sit inside their owner
                    agg[name] = [a + b for a, b in zip(agg[name], rec)]
            for key, v in t.counters.items():
                counters[key] += v
        count = {k: v[0] for k, v in agg.items()}
        cpu = {k: v[3] for k, v in agg.items()}
        cpu_self = {k: v[4] for k, v in agg.items()}

        def get(table, key):
            return table.get(key, 0)

        def per(value, base, scale=1.0):
            return value * scale / base if base else 0.0

        def us_per_call(name):
            return per(get(cpu_self, name), get(count, name), 1e6)

        steps = counters["solvers.steps"]
        rep_steps = counters["kernels.rep_steps"]
        root_wall, root_wall_self = agg["harness.experiment"][1:3]
        return {
            "presets.build_s": get(cpu, "presets.build"),
            "metrics.reference_s": get(cpu, "metrics.reference"),
            "metrics.reference_iters": counters["metrics.reference_iters"],
            "metrics.aggregate_s": get(cpu, "metrics.aggregate"),
            "oracle.presample_s": get(cpu, "oracle.presample"),
            "oracle.presample_bytes": counters["oracle.presample_bytes"],
            "oracle.sample_calls": get(count, "oracle.sample"),
            "oracle.sample_us": us_per_call("oracle.sample"),
            "solvers.schedule_s": get(cpu, "solvers.eta"),
            "solvers.eta_calls": get(count, "solvers.eta"),
            "solvers.run_s": get(cpu, "solvers.run"),
            "solvers.step_self_us": per(get(cpu_self, "solvers.run"), steps, 1e6),
            "solvers.check_us": per(get(cpu, "solvers.check"), steps, 1e6),
            "solvers.probes": counters["solvers.probes"],
            "prox.x_update_us": us_per_call("prox.x_update"),
            "prox.y_update_us": us_per_call("prox.y_update"),
            "prox.y_update_calls": get(count, "prox.y_update"),
            "problem.err_rho_us": us_per_call("problem.err_rho"),
            "problem.err_rho_calls": get(count, "problem.err_rho"),
            "kernels.kernel_s": get(cpu, "kernels.kernel"),
            "kernels.us_per_rep_step": per(get(cpu, "kernels.kernel"), rep_steps, 1e6),
            "kernels.rep_steps": rep_steps,
            "kernels.bytes_per_step": per(counters["kernels.bytes"], rep_steps),
            "harness.replications_s": agg["harness.replications"][1],
            "harness.export_s": get(cpu, "harness.export"),
            "harness.export_bytes": counters["harness.export_bytes"],
            "trace.coverage": per(root_wall - root_wall_self, root_wall),
        }
