"""Span tracing of the calls into declqr's layers, installed from outside.

The tracer wraps each public function listed in TRACED at every declqr module
that holds a reference to it (so `from .matcore import solve_care` in lqr.py
is wrapped too), records one span per call (name, start, end, parent) in
memory, and computes per-layer metrics from the spans when the run ends.
Nothing in the program is edited; remove() puts every original back.
"""

import functools
import sys
import time
from collections import Counter

from stats import self_times

# (module, attribute) of every traced function; a class is traced through
# its __init__, which is where its inputs are validated.
TRACED = (
    ("matcore", "solve_lyapunov"),
    ("matcore", "solve_care"),
    ("matcore", "is_hurwitz"),
    ("matcore", "bass_stabilizing_gain"),
    ("matcore", "require_spd"),
    ("lqr", "LqrProblem"),
    ("lqr", "solve_lqr"),
    ("decentral", "pattern_decentralized"),
    ("decentral", "oracle_check"),
    ("decentral", "find_uniform_gain"),
    ("decentral", "uniform_gain_candidates"),
    ("spectral", "circulant_eigenvalues"),
    ("secondorder", "reduce_and_solve"),
    ("sweep", "run_sweep"),
    ("sweep", "csv_text"),
    ("sweep", "write_outputs"),
    ("serialize", "dumps_json"),
    ("serialize", "format_float"),
    ("sysfile", "load_system"),
    ("cli", "cli_main"),
)

OP_SPAN = "bench.op"

# Per-layer metrics reported by a traced run, in BENCHMARK.json order, with
# their units. Every figure except the trace.* ones is an average per op.
PER_LAYER = (
    ("matcore.solve_lyapunov.calls", "count"),
    ("matcore.solve_lyapunov.self_ms", "ms"),
    ("matcore.solve_lyapunov.operator_mb", "MB-computed"),
    ("matcore.solve_care.self_ms", "ms"),
    ("matcore.solve_care.iterations", "count"),
    ("matcore.is_hurwitz.calls", "count"),
    ("matcore.is_hurwitz.self_ms", "ms"),
    ("matcore.bass_stabilizing_gain.self_ms", "ms"),
    ("matcore.require_spd.calls", "count"),
    ("lqr.LqrProblem.self_ms", "ms"),
    ("lqr.solve_lqr.self_ms", "ms"),
    ("decentral.pattern_decentralized.self_ms", "ms"),
    ("decentral.oracle_check.self_ms", "ms"),
    ("decentral.find_uniform_gain.self_ms", "ms"),
    ("decentral.uniform_gain_candidates.self_ms", "ms"),
    ("spectral.circulant_eigenvalues.calls", "count"),
    ("spectral.circulant_eigenvalues.self_ms", "ms"),
    ("secondorder.reduce_and_solve.self_ms", "ms"),
    ("sweep.run_sweep.self_ms", "ms"),
    ("sweep.csv_text.self_ms", "ms"),
    ("sweep.write_outputs.self_ms", "ms"),
    ("serialize.dumps_json.self_ms", "ms"),
    ("serialize.format_float.calls", "count"),
    ("sysfile.load_system.self_ms", "ms"),
    ("cli.cli_main.self_ms", "ms"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """In-memory span recorder plus the counters that spans alone cannot give:
    Newton-Kleinman iterations per solve_care call and the computed bytes of
    every Kronecker Lyapunov operator (n^2 x n^2 float64, n^4 * 8 bytes)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.care_iterations = []
        self.lyapunov_operator_bytes = 0

    def wrap(self, name, fn, observe=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_care(self, args, result):
        self.care_iterations.append(result.iterations)

    def _observe_lyapunov(self, args, result):
        n = len(args[0])
        self.lyapunov_operator_bytes += 8 * n ** 4

    def install(self):
        """Wrap every TRACED function wherever a declqr module refers to it."""
        modules = [m for k, m in sys.modules.items() if k == "declqr" or k.startswith("declqr.")]
        observers = {
            "matcore.solve_care": self._observe_care,
            "matcore.solve_lyapunov": self._observe_lyapunov,
        }
        for mod_name, attr in TRACED:
            owner = sys.modules[f"declqr.{mod_name}"]
            original = getattr(owner, attr)
            name = f"{mod_name}.{attr}"
            if isinstance(original, type):
                init = original.__init__
                self._patch(original, "__init__", self.wrap(name, init), init)
                continue
            wrapper = self.wrap(name, original, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper, original)

    def _patch(self, obj, attr, new, old):
        setattr(obj, attr, new)
        self._patches.append((obj, attr, old))

    def remove(self):
        for obj, attr, old in reversed(self._patches):
            setattr(obj, attr, old)
        self._patches.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def layer_metrics(spans, care_iterations, lyapunov_operator_bytes):
    """Per-op averages of call counts and self times for every traced layer.

    The op count is the number of OP_SPAN spans. Returns {metric name: value}
    for every PER_LAYER metric except the trace.* ones.
    """
    ops = sum(1 for s in spans if s[0] == OP_SPAN)
    if ops == 0:
        raise ValueError("no op spans recorded")
    calls = Counter()
    self_s = Counter()
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    out = {}
    for metric, _ in PER_LAYER:
        layer, _, quantity = metric.rpartition(".")
        if quantity == "calls":
            out[metric] = calls[layer] / ops
        elif quantity == "self_ms":
            out[metric] = 1e3 * self_s[layer] / ops
        elif metric == "matcore.solve_lyapunov.operator_mb":
            out[metric] = lyapunov_operator_bytes / 1e6 / ops
        elif metric == "matcore.solve_care.iterations":
            out[metric] = sum(care_iterations) / len(care_iterations) if care_iterations else 0.0
    return out
