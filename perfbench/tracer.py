"""Timing shims around the public functions of each qtsallis module.

:class:`Tracer` replaces every public function of the traced modules, in
every module namespace that binds it (so names imported by other modules
are timed too), with a shim that records a span: name, start, end and the
span that called it.  It also times ``DensityMatrix`` validation and
``numpy.linalg.eigvalsh``, recording the matrix side and the dense bytes
built.  Aggregates (calls, total and self time, per operation kind) are
kept for every span; the spans themselves are kept in memory up to a cap
and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

#: Spans kept in memory for the trace file; aggregates cover every span.
SPAN_CAP = 100_000
#: Aggregates are kept per (phase, operation kind, span name).  The phase
#: tells the time-bounded traced stretch of the named workload from the
#: fixed one-round probes, whose counts do not depend on the run's length.
PHASES = ("segment", "probe")


class Tracer:
    #: Spans whose every duration is kept, for medians.
    keep_durations = frozenset({"solver.threshold_for_q", "cli.main"})

    def __init__(self, package, module_names):
        self.package = package
        self.modules = [getattr(package, name) for name in module_names]
        self.root = ("none", "none")
        self.spans: list[tuple] = []
        self.names: dict[str, int] = {}
        # (phase, kind, name) -> [calls, total seconds, self seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, kind, counter) -> summed value
        self.counters = defaultdict(float)
        self.durations = defaultdict(list)
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def _span(self, name: str, fn, after=None):
        stack, totals = self._stack, self.totals

        def shim(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                entry = totals[self.root + (name,)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if name in self.keep_durations:
                    self.durations[self.root + (name,)].append(elapsed)
                if len(self.spans) < SPAN_CAP:
                    index = self.names.setdefault(name, len(self.names))
                    self.spans.append((span_id, index, start, end, parent))
            if after is not None:
                after(args, result)
            return result

        return shim

    def install(self, numpy_module) -> None:
        """Put the shims in place; :meth:`uninstall` takes them out."""
        shims = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    shims[id(obj)] = (obj, self._span(f"{short}.{attr}", obj))
        for namespace in [self.package, *self.modules]:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in shims and shims[id(obj)][0] is obj:
                    self._patch(namespace, attr, shims[id(obj)][1])

        quantum = self.package.quantum
        post_init = quantum.DensityMatrix.__post_init__

        def count_bytes(args, _):
            self.counters[self.root + ("dense_bytes",)] += args[0].entries.nbytes

        self._patch(quantum.DensityMatrix, "__post_init__",
                    self._span("quantum.DensityMatrix", post_init, count_bytes))

        def count_cube(args, _):
            self.counters[self.root + ("eigvalsh_d3",)] += float(args[0].shape[-1]) ** 3

        linalg = numpy_module.linalg
        self._patch(linalg, "eigvalsh",
                    self._span("quantum.eigvalsh", linalg.eigvalsh, count_cube))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- derived figures ---------------------------------------------------

    def calls(self, kind: str, name: str, phases=PHASES) -> int:
        return sum(self.totals[(p, kind, name)][0] for p in phases
                   if (p, kind, name) in self.totals)

    def total(self, kind: str, name: str, phases=PHASES) -> float:
        return sum(self.totals[(p, kind, name)][1] for p in phases
                   if (p, kind, name) in self.totals)

    def self_time(self, kind: str, name: str, phases=PHASES) -> float:
        return sum(self.totals[(p, kind, name)][2] for p in phases
                   if (p, kind, name) in self.totals)

    def count(self, kind: str, counter: str, phases=PHASES) -> float:
        return sum(self.counters[(p, kind, counter)] for p in phases
                   if (p, kind, counter) in self.counters)

    def mean(self, kind: str, *names: str) -> float:
        """Mean span duration over the named spans, in seconds."""
        calls = sum(self.calls(kind, name) for name in names)
        return sum(self.total(kind, name) for name in names) / calls if calls else 0.0

    def durations_of(self, kind: str, name: str) -> list[float]:
        return [d for p in PHASES for d in self.durations.get((p, kind, name), [])]

    def write(self, path) -> None:
        """Spans as [id, name index, start, end, parent id], start and end
        in seconds on the perf_counter clock; parent -1 marks a root."""
        names = sorted(self.names, key=self.names.get)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "span_cap": SPAN_CAP,
                       "spans_seen": self._next_id, "spans": self.spans}, handle)
