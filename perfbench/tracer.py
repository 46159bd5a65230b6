"""Span tracer that wraps qsep's public functions from outside the package.

The tracer replaces public module attributes (and public ``RegionGrid``
methods) with thin wrappers that record one span per call: name, start,
end, parent span and operation index.  Because the qsep modules call one
another through module attributes (``linalg.jacobi_eigh(...)``) and through
their own module globals, replacing the attribute catches both kinds of
call.  Spans live in flat in-memory arrays until the run ends.

A name the benchmark expects but the package no longer defines is recorded
as absent; its metrics read 0 and the report lists it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import time
from array import array

TRACED_MODULES = (
    "states", "linalg", "bipartite", "tripartite", "concurrence", "classify", "scan", "cli",
)

# Names the per-layer metrics refer to directly; each is checked for absence.
NAMED = (
    "linalg.jacobi_eigh", "linalg.singular_values", "linalg.psd_sqrt",
    "tripartite.huber_margins_grid", "tripartite.su_margins_grid",
    "tripartite.build_spin_observables",
    "scan.grid_scan", "scan.export_json", "scan.export_csv", "scan.export_svg",
    "scan.grid_report_dicts", "scan.margin_isolines",
    "scan.verdict_codes", "scan.report_at",
)
EXPORTERS = ("scan.export_csv", "scan.export_json", "scan.export_svg")


def _matrix_count(args, kwargs) -> int:
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) == 3 else 1


class Tracer:
    """Records spans for the wrapped functions while ``active`` is true."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = {"linalg.jacobi_eigh.matrices": 0, "scan.bytes_written": 0}
        self.absent: list[str] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        seen = set()
        for modname in TRACED_MODULES:
            try:
                mod = importlib.import_module(f"{self.package}.{modname}")
            except ImportError:
                self.absent.append(modname)
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                self._wrap(mod, attr, f"{modname}.{attr}", obj)
                seen.add(f"{modname}.{attr}")
            grid_cls = vars(mod).get("RegionGrid") if modname == "scan" else None
            if grid_cls is not None:
                for attr, obj in list(vars(grid_cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        self._wrap(grid_cls, attr, f"scan.{attr}", obj)
                        seen.add(f"scan.{attr}")
        self.absent.extend(name for name in NAMED if name not in seen)

    def uninstall(self) -> None:
        """Put the original functions back; ``reinstall`` undoes this."""
        for owner, attr, original, _ in reversed(self._installed):
            setattr(owner, attr, original)

    def reinstall(self) -> None:
        for owner, attr, _, wrapper in self._installed:
            setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, func) -> None:
        nid = len(self.names)
        self.names.append(name)
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        count = None
        if name == "linalg.jacobi_eigh":
            def count(args, kwargs):
                tracer.counters["linalg.jacobi_eigh.matrices"] += _matrix_count(args, kwargs)
        elif name in EXPORTERS:
            def count(args, kwargs):
                path = args[1] if len(args) > 1 else kwargs.get("path")
                if path is not None and os.path.exists(path):
                    tracer.counters["scan.bytes_written"] += os.path.getsize(path)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, func, wrapper))

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per wrapped name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        child spans; single-threaded nesting means children never overlap.
        No qsep function calls itself, so inclusive times do not overlap.
        """
        n = len(self.span_start)
        child = [0.0] * n
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        for k in range(n):
            p = parents[k]
            if p >= 0:
                child[p] += ends[k] - starts[k]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for k in range(n):
            dur = ends[k] - starts[k]
            entry = out[self.names[self.span_name[k]]]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[k]
        return out

    def write(self, path) -> None:
        """Write every span as gzip CSV: op,span,name,parent,start_s,end_s."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,span,name,parent,start_s,end_s\n")
            for k in range(len(self.span_start)):
                fh.write(
                    f"{self.span_op[k]},{k},{self.names[self.span_name[k]]},{self.span_parent[k]},"
                    f"{self.span_start[k] - base:.9f},{self.span_end[k] - base:.9f}\n"
                )
