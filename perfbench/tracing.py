"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of each ``wignerosc``
module and patches the wrapper into every ``wignerosc`` module that
holds a reference to the original (so ``merge_lines`` is traced when
``gl_spectrum`` calls it, too). Layers are the modules. A wrapped call
records a span (id, name, start, end, parent span, job id) in memory;
functions called once per basis vector, pattern or matrix entry are
only counted, so their time stays in the caller's span. A function
that no longer exists simply reads as 0 calls.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "spectral", "coupling", "gl_spectrum", "osp_spectrum", "levels", "fock")

COUNT_ONLY = frozenset({
    "gl_eigenvalue", "gl_dimension", "krawtchouk_eval", "row_sum_signature", "osp_eigenvalue",
    "generalized_binomial", "conjugate", "partitions_of", "is_unirrep",
    "distinct_count_at_height", "weak_coupling_bound",
})

CALLS = ("spectral.decompose", "spectral.mode_frequencies", "coupling.critical_coupling",
         "gl_spectrum.enumerate_gl_basis", "gl_spectrum.gl_eigenvalue",
         "osp_spectrum.enumerate_gz", "levels.merge_lines")
BUSY = ("cli.main", "spectral.decompose", "coupling.critical_coupling",
        "gl_spectrum.gl_spectrum", "gl_spectrum.enumerate_gl_basis",
        "osp_spectrum.osp_spectrum", "osp_spectrum.enumerate_gz", "levels.merge_lines",
        "fock.build_fock_operators", "fock.verify_compatibility",
        "fock.reconstruct_observables", "fock.fock_spectrum")
COUNTS = (("cli.bytes_out", "B"), ("gl_spectrum.basis_vectors", "count"),
          ("osp_spectrum.patterns", "count"), ("levels.triples_in", "count"),
          ("levels.lines_out", "count"), ("fock.states", "count"),
          ("fock.operator_bytes", "B"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({f"{name}.busy_s": "s" for name in BUSY})
    units.update(dict(COUNTS))
    units.update({"gl_spectrum.builds_per_key": "ratio", "osp_spectrum.builds_per_key": "ratio",
                  "osp_spectrum.patterns_per_line": "ratio", "trace.overhead_frac": "ratio",
                  "trace.accounted_frac": "ratio"})
    return units


def _nbytes(obj) -> int:
    """Summed .nbytes of the arrays held by a result (dataclass fields, tuples)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _key(args, kwargs) -> tuple:
    return tuple(args) + tuple(sorted(kwargs.items()))


# counters measured at the layer boundary: name -> f(tracer, args, kwargs, result)
OBSERVERS = {
    "gl_spectrum.enumerate_gl_basis": lambda t, a, kw, r: t.build(
        "gl_spectrum", "basis_vectors", len(r), _key(a, kw)),
    "osp_spectrum.enumerate_gz": lambda t, a, kw, r: t.build(
        "osp_spectrum", "patterns", len(r), _key(a, kw)),
    "osp_spectrum.osp_spectrum": lambda t, a, kw, r: t.add("osp_spectrum.lines", len(r)),
    "levels.merge_lines": lambda t, a, kw, r: (
        t.add("levels.triples_in", len(a[0] if a else kw["raw"])),
        t.add("levels.lines_out", len(r))),
    "fock.build_fock_operators": lambda t, a, kw, r: (
        t.add("fock.states", r.dim), t.add("fock.operator_bytes", _nbytes(r))),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []      # (id, name, start_ns, end_ns, parent id, job id)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.job = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    # ---- counters used by OBSERVERS and the runner
    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def build(self, layer: str, what: str, size: int, key: tuple) -> None:
        self.counts[f"{layer}.{what}"] += size
        self.counts[f"{layer}.builds"] += 1
        self.keys[layer].add(key)

    # ---- patching
    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "wignerosc" or name.startswith("wignerosc.")]
        for layer in LAYERS:
            module = importlib.import_module(f"wignerosc.{layer}")
            for fname, fn in list(vars(module).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn, fname in COUNT_ONLY)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn, count_only: bool):
        layer = name.split(".", 1)[0]
        observe = OBSERVERS.get(name)

        if count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    self.errors[layer] += 1
                    raise
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.calls[name] += 1
            span_id, self._next_id = self._next_id, self._next_id + 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.job))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return spanned

    # ---- reports
    def root_ns_by_job(self) -> dict:
        """Summed duration of the outermost spans of each job."""
        out: Counter = Counter()
        for _, _, start, end, parent, job in self.spans:
            if parent is None:
                out[job] += end - start
        return out

    def metrics(self) -> dict[str, float]:
        child: Counter = Counter()
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy: Counter = Counter()
        self_ns: Counter = Counter()
        for span_id, name, start, end, _, _ in self.spans:
            busy[name] += end - start
            self_ns[name.split(".", 1)[0]] += end - start - child[span_id]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
            out[f"{layer}.errors"] = self.errors[layer]
        out.update({f"{name}.calls": self.calls[name] for name in CALLS})
        out.update({f"{name}.busy_s": busy[name] / 1e9 for name in BUSY})
        out.update({name: self.counts[name] for name, _ in COUNTS})
        for layer in ("gl_spectrum", "osp_spectrum"):
            keys = len(self.keys[layer])
            out[f"{layer}.builds_per_key"] = self.counts[f"{layer}.builds"] / keys if keys else 0.0
        lines = self.counts["osp_spectrum.lines"]
        out["osp_spectrum.patterns_per_line"] = (self.counts["osp_spectrum.patterns"] / lines
                                                 if lines else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "job": job}) + "\n")
