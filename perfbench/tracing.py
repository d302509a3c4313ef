"""Spans and counts at cylcov's layer boundaries, recorded from outside the program.

``Tracer.install`` replaces each public name where its calling module
looks it up (``cylcov.coverage.conditional_coverage``,
``cylcov.cli.coverage_probability``, methods of ``TabulatedDistribution``
and so on) with a wrapper, and ``uninstall`` puts the originals back.
A span wrapper records (id, parent, name, op, start, end); a count
wrapper only counts calls, for the hottest leaves, whose time then stays
in their caller's self time.  Spans are kept in memory and written out
when the run ends.

A span's parent is the innermost open span of its own thread or, in a
worker thread of the CLI's pool, of the main thread.  Self time is a
span's duration minus the part of it that its child spans cover, so
children running in parallel are not subtracted twice.
"""

import csv
import importlib
import statistics
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, kind, layer name).  Several entries can share a
# layer name when more than one module looks the same function up.
WRAPPED = [
    ("cylcov.cli", "cmd_pdf", "span", "cli.pdf"),
    ("cylcov.cli", "cmd_coverage", "span", "cli.coverage"),
    ("cylcov.cli", "build_cdf", "span", "distance.build_cdf"),
    ("cylcov.cli", "cylinder_pair_pdf_numeric", "span", "distance.pair_pdf"),
    ("cylcov.distance", "cylinder_pair_pdf_numeric", "span", "distance.pair_pdf"),
    ("cylcov.cli", "cylinder_pair_pdf_closed", "span", "distance.pair_pdf_closed"),
    ("cylcov.distance", "TabulatedDistribution.load", "classmethod", "cli.cache_load"),
    ("cylcov.distance", "TabulatedDistribution.integrate_pdf_product", "span",
     "distance.integrate"),
    ("cylcov.distance", "TabulatedDistribution.cdf", "count", "distance.table"),
    ("cylcov.distance", "TabulatedDistribution.sf", "count", "distance.table"),
    ("cylcov.distance", "TabulatedDistribution.pdf", "count", "distance.table"),
    ("cylcov.distance", "complete_K", "count", "special.elliptic"),
    ("cylcov.distance", "complete_E", "count", "special.elliptic"),
    ("cylcov.distance", "incomplete_F", "count", "special.elliptic"),
    ("cylcov.distance", "incomplete_E", "count", "special.elliptic"),
    ("cylcov", "build_receiver_cdfs", "span", "distance.receiver_tables"),
    ("cylcov.coverage", "laplace_with_derivatives", "span", "interference.laplace"),
    ("cylcov.coverage", "conditional_coverage", "span", "coverage.conditional"),
    ("cylcov.cli", "coverage_probability", "span", "coverage.paper_value"),
    ("cylcov", "exact_coverage_probability", "span", "coverage.exact_value"),
    ("cylcov.cli", "simulate_coverage", "trials", "simulation.simulate"),
    ("cylcov", "simulate_coverage", "trials", "simulation.simulate"),
    ("cylcov.cli", "empirical_distance_histogram", "span", "simulation.histogram"),
    ("cylcov.cli", "ppp_coverage", "span", "ppp.value"),
]

# Per-layer metrics: name -> unit.  "value" is one coverage value, a call of
# coverage_probability or exact_coverage_probability, failed ones included.
# A layer the workload does not reach reads 0.
METRICS = {
    "distance.build_cdf_s": "s/table",
    "distance.pair_pdf_calls": "calls/table",
    "distance.receiver_tables_s": "s/mixture",
    "distance.integrate_calls": "calls/value",
    "distance.integrate_self_s": "s/value",
    "distance.table_calls": "calls/value",
    "interference.laplace_calls": "calls/value",
    "interference.laplace_self_s": "s/value",
    "coverage.conditional_calls": "calls/value",
    "coverage.conditional_self_s": "s/value",
    "coverage.paper_value_s": "s/value",
    "coverage.exact_value_s": "s/value",
    "simulation.trials_per_s": "trials/s",
    "simulation.histogram_s": "s/histogram",
    "ppp.value_s": "s/value",
    "special.elliptic_calls": "calls/pdf",
    "cli.self_s": "s/op",
    "cli.cache_load_s": "s/load",
    "trace.overhead_s": "s",
}


def _owner(module, attr):
    """The object that holds attr ("name" or "Class.name") in module, and the name."""
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, op, start_ns, end_ns)
        self.counts = Counter()  # (name, op) -> calls
        self.trials = Counter()  # op -> simulated trials
        self.op = 0
        self._next_id = 1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, trials=False):
        def wrapped(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            with self._lock:
                sid = self._next_id
                self._next_id += 1
                if trials:
                    self.trials[self.op] += args[1]
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, name, self.op, start, end))

        return wrapped

    def _count(self, name, fn):
        def wrapped(*args, **kwargs):
            with self._lock:
                self.counts[(name, self.op)] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self):
        for module, path, kind, name in WRAPPED:
            owner, attr = _owner(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if kind == "classmethod":
                wrapped = classmethod(self._span(name, original.__func__))
            elif kind == "count":
                wrapped = self._count(name, original)
            else:
                wrapped = self._span(name, original, trials=kind == "trials")
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op_span(self, fn):
        """Run one op under a root span named "op"; later spans carry its op id."""
        self.op += 1
        return self._span("op", fn)()

    def write(self, path):
        with open(path, "w", encoding="ascii", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "op", "start_ns", "end_ns"])
            out.writerows(sorted(self.spans))

    def metrics(self, overhead_s):
        """The per-layer metrics of the spans and counts recorded so far."""
        children = defaultdict(list)
        for s in self.spans:
            children[s[1]].append(s)
        in_ops = [s for s in self.spans if s[3] > 0]

        def self_time(span):
            _, _, _, _, start, end = span
            covered, reach = 0, start
            for c in sorted(children[span[0]], key=lambda c: c[4]):
                lo, hi = max(c[4], reach), min(c[5], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            return (end - start - covered) * 1e-9

        def named(name, spans):
            return [s for s in spans if s[2] == name]

        def durations(name, spans=None):
            return [(s[5] - s[4]) * 1e-9 for s in named(name, self.spans if spans is None else spans)]

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        def counted(name):
            return sum(n for (key, op), n in self.counts.items() if key == name and op > 0)

        values = len(named("coverage.paper_value", in_ops)) + len(
            named("coverage.exact_value", in_ops)
        )
        per_value = 1.0 / values if values else 0.0
        tables = named("distance.build_cdf", self.spans)
        pdf_ops = len(named("cli.pdf", in_ops))
        sims = durations("simulation.simulate", in_ops)
        ops = len(named("op", in_ops))
        return {
            "distance.build_cdf_s": mean(durations("distance.build_cdf")),
            "distance.pair_pdf_calls": (
                sum(len(named("distance.pair_pdf", children[t[0]])) for t in tables) / len(tables)
                if tables else 0.0
            ),
            "distance.receiver_tables_s": mean(durations("distance.receiver_tables")),
            "distance.integrate_calls": len(named("distance.integrate", in_ops)) * per_value,
            "distance.integrate_self_s": sum(
                self_time(s) for s in named("distance.integrate", in_ops)) * per_value,
            "distance.table_calls": counted("distance.table") * per_value,
            "interference.laplace_calls": len(named("interference.laplace", in_ops)) * per_value,
            "interference.laplace_self_s": sum(
                self_time(s) for s in named("interference.laplace", in_ops)) * per_value,
            "coverage.conditional_calls": len(named("coverage.conditional", in_ops)) * per_value,
            "coverage.conditional_self_s": sum(
                self_time(s) for s in named("coverage.conditional", in_ops)) * per_value,
            "coverage.paper_value_s": mean(durations("coverage.paper_value", in_ops)),
            "coverage.exact_value_s": mean(durations("coverage.exact_value", in_ops)),
            "simulation.trials_per_s": (
                sum(n for op, n in self.trials.items() if op > 0) / sum(sims) if sims else 0.0
            ),
            "simulation.histogram_s": mean(durations("simulation.histogram", in_ops)),
            "ppp.value_s": mean(durations("ppp.value", in_ops)),
            "special.elliptic_calls": counted("special.elliptic") / pdf_ops if pdf_ops else 0.0,
            "cli.self_s": (
                sum(self_time(s) for s in in_ops if s[2] in ("cli.pdf", "cli.coverage")) / ops
                if ops else 0.0
            ),
            "cli.cache_load_s": mean(durations("cli.cache_load", in_ops)),
            "trace.overhead_s": overhead_s,
        }
