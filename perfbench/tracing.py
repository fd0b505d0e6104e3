"""In-memory spans recorded around calls into the program's public functions.

A span is ``[name, start, end, parent]`` with times from ``time.monotonic``
(CLOCK_MONOTONIC on Linux, shared by every process of the machine, so spans
written by a child process merge with the parent's) and ``parent`` the
index of the enclosing span, or -1.  The layer of a span is the part of its
name before the first dot.  Nothing in the program is edited: the tracer
replaces module attributes with timing wrappers while installed and puts
the originals back afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

#: (module, attribute, span name) for every binding the in-process workloads
#: call through.  The benchmark calls the library through the package
#: namespace; the CLI, scanner and measures call through their own module
#: globals, so those bindings are wrapped where they are looked up.
LIBRARY_BINDINGS = [
    ("qmaxent", "validate_constraints", "inference.validate"),
    ("qmaxent", "infer_state", "inference.infer_state"),
    ("qmaxent", "lagrange_multipliers", "inference.multipliers"),
    ("qmaxent", "fixed_point_residual", "inference.fixed_point"),
    ("qmaxent", "to_density_matrix", "inference.to_density_matrix"),
    ("qmaxent", "criterion_verdict", "entangle.criterion_verdict"),
    ("qmaxent", "ppt_verdict", "entangle.ppt_verdict"),
    ("qmaxent", "mutual_entropy", "measures.mutual_matrix"),
    ("qmaxent", "mutual_entropy_closed_form", "measures.mutual_closed"),
    ("qmaxent", "free_energy", "thermo.free_energy"),
    ("qmaxent", "legendre_report", "thermo.legendre_report"),
    ("qmaxent", "maxent_split_oracle", "oracle.split"),
    ("qmaxent", "maxent_general_oracle", "oracle.general"),
    ("qmaxent.entangle", "partial_transpose", "smallmat.partial_transpose"),
    ("qmaxent.entangle", "hermitian_eigen", "smallmat.hermitian_eigen"),
    ("qmaxent.measures", "partial_trace", "smallmat.partial_trace"),
    ("qmaxent.measures", "validate_density_matrix", "smallmat.validate_density_matrix"),
]

#: the calls ``qmaxent.cli`` makes into the other layers, plus its formatters
CLI_BINDINGS = [
    ("qmaxent.cli", "scan_region", "entangle.scan_region"),
    ("qmaxent.cli", "region_to_csv", "cli.region_to_csv"),
    ("qmaxent.cli", "to_json", "cli.format"),
    ("qmaxent.cli", "to_plain", "cli.format"),
    ("qmaxent.cli", "validate_constraints", "inference.validate"),
    ("qmaxent.cli", "infer_state", "inference.infer_state"),
    ("qmaxent.cli", "lagrange_multipliers", "inference.multipliers"),
    ("qmaxent.cli", "to_density_matrix", "inference.to_density_matrix"),
    ("qmaxent.cli", "criterion_verdict", "entangle.criterion_verdict"),
    ("qmaxent.cli", "mutual_entropy", "measures.mutual_matrix"),
    ("qmaxent.cli", "mutual_entropy_closed_form", "measures.mutual_closed"),
    ("qmaxent.cli", "entropy_of_state", "thermo.entropy_of_state"),
    ("qmaxent.cli", "legendre_report", "thermo.legendre_report"),
    ("qmaxent.cli", "maxent_split_oracle", "oracle.split"),
    ("qmaxent.cli", "compare_states", "oracle.compare_states"),
]

#: name of the span around one benchmark operation; its self time is the
#: benchmark's own work and, for a CLI child, what its own spans leave out
OP = "harness.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), 0.0, self.current()])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a finished span measured elsewhere, such as in a child process."""
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def install(self, bindings) -> None:
        for module_name, attr, name in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer: each span minus its children."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name.split(".", 1)[0]] += end - start - child_time[index]
        return dict(totals)

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[code[n], p, round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1)]
                for n, a, b, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"self_time_s": self.self_times(), "names": names,
                       "columns": ["name", "parent", "start_us", "end_us"],
                       "origin_monotonic_s": t0, "spans": rows}, fh, separators=(",", ":"))
