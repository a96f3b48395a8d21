"""Spans recorded from outside xbarsim, around the calls into each layer.

A Tracer replaces a module attribute (the name a caller looks up, such as
``xbarsim.simulator.crossbar_mvm``) with a wrapper that records one span
per call: name, start and end in ns, the index of the enclosing span and
an optional count taken from the return value. Spans are kept in memory
and written out once, when the run ends. Only calls made inside a span
opened by the benchmark itself (a job) are recorded.
"""

import functools
import json
import time

# (module, attribute, span name, count taken from the result)
LAYERS = [
    ("graph", "from_json", "graph.from_json", None),
    ("compiler", "compile_model", "compiler.compile", None),
    ("cli", "compile_model", "compiler.compile", None),
    ("compiler", "tile_tensors", "partition.tile", None),
    ("compiler", "place", "partition.place", None),
    ("compiler", "insert_data_movement", "partition.movement", None),
    ("schedule", "coalesce_mvms", "schedule.coalesce", None),
    ("schedule", "linearize", "schedule.linearize", None),
    ("regalloc", "allocate", "regalloc.allocate", None),
    ("container", "save", "container.save", len),
    ("container", "loads", "container.load", None),
    ("fixedpoint", "build_default_luts", "fixedpoint.luts", None),
    ("simulator", "slice_weights", "crossbar.slice", None),
    ("simulator", "apply_write_noise", "crossbar.noise", None),
    ("simulator", "crossbar_mvm", "crossbar.mvm", None),
    ("simulator.Machine", "__init__", "simulator.configure", None),
    ("simulator", "run", "simulator.run", lambda r: r.steps),
    ("cli", "sim_run", "simulator.run", lambda r: r.steps),
    ("cli", "sweep_point", "cli.sweep_point", None),
]


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start_ns, end_ns, parent index, count]
        self._stack = []
        self._undo = []

    def span(self, name, fn, *args, count=None, **kw):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kw)
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
        if count is not None:
            rec[4] = count(result)
        return result

    def wrap(self, owner, attr, name, count=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kw):
            if not self._stack:
                return original(*args, **kw)
            return self.span(name, original, *args, count=count, **kw)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def wrap_layers(self, mods):
        """Wrap every entry of LAYERS; mods maps module names to modules."""
        for path, attr, name, count in LAYERS:
            head, _, cls = path.partition(".")
            owner = getattr(mods[head], cls) if cls else mods[head]
            self.wrap(owner, attr, name, count)

    def unwrap(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "count"], "spans": self.spans}, fh)


class Totals:
    """Per-name sums over a range of spans: time, self time, calls, counts."""

    def __init__(self, spans, lo, hi):
        self.ms, self.self_ms, self.calls, self.counts = {}, {}, {}, {}
        child_ns = {}
        for k in range(lo, hi):
            _, start, end, parent, _ = spans[k]
            if parent >= lo:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        self.job_ns = self.uncovered_ns = 0
        for k in range(lo, hi):
            name, start, end, _, count = spans[k]
            dur = end - start
            own = dur - child_ns.get(k, 0)
            if name == "job":
                self.job_ns += dur
                self.uncovered_ns += own
                continue
            self.ms[name] = self.ms.get(name, 0.0) + dur / 1e6
            self.self_ms[name] = self.self_ms.get(name, 0.0) + own / 1e6
            self.calls[name] = self.calls.get(name, 0) + 1
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count
