"""Span tracing from outside the program, for the benchmark's traced runs.

:func:`install` replaces the public entry points of each layer with timing
wrappers defined here; the program itself is unchanged.  Every call records
one span ``(id, parent, name, start, end, thread)``.  Spans are kept in
memory and written out as JSON lines when the process exits, followed by
one ``counters`` record with the work counts read from the objects the
wrappers saw (catalogs, solvers, join runs).

A span's parent is the innermost open span on the same thread.  Worker
threads of ``lp_bound_many`` start with an empty stack; their spans take
the enclosing ``lp.bound_many`` span as parent, so self time (duration
minus the union of the children's intervals) stays attributable.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import sys
import threading
import time

#: span name -> (owning object path, attribute); see :func:`install`.
WRAPPED = {
    "query.parse": ("repro.query.parser", "parse_query"),
    "catalog.precompute": ("repro.core.catalog:StatisticsCatalog", "precompute"),
    "catalog.statistics_for": (
        "repro.core.catalog:StatisticsCatalog", "statistics_for",
    ),
    "lp.solve": ("repro.core.lp_bound:BoundSolver", "solve"),
    "lp.solve_family": ("repro.core.lp_bound:BoundSolver", "solve_family"),
    "lp.bound_many": ("repro.core.lp_bound", "lp_bound_many"),
    "certificate.verify": ("repro.core.certificates", "verify_certificate"),
    "relational.columnar": ("repro.relational.relation:Relation", "columnar"),
    "relational.trie": ("repro.relational.columnar:ColumnarRelation", "trie"),
    "wcoj.generic_join": ("repro.evaluation.wcoj", "generic_join"),
    "client.bound": ("repro.service.server:BoundClient", "bound"),
}

_SOLVE_SPANS = ("lp.solve", "lp.solve_family")


class Tracer:
    """In-memory span recorder plus the counters read at the boundaries."""

    def __init__(self, out_path: str) -> None:
        self.out_path = out_path
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._ambient: int | None = None
        self._lock = threading.Lock()
        self._catalogs: dict[int, object] = {}
        self._solvers: dict[int, object] = {}
        self.columnar_calls = 0
        self.columnar_hits = 0
        self.nodes_visited = 0
        self.enabled = True

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def parent_name(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def span(self, name: str):
        """Context manager recording one span named ``name``."""
        return _Span(self, name)

    def _open(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        parent = stack[-1][0] if stack else self._ambient
        span_id = next(self._ids)
        stack.append((span_id, name))
        return span_id, parent, time.perf_counter()

    def _close(self, name: str, span_id: int, parent, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        record = (span_id, parent, name, start, end, threading.get_ident())
        with self._lock:
            self.spans.append(record)

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            outer_solve = (
                name in _SOLVE_SPANS and tracer.parent_name() not in _SOLVE_SPANS
            )
            span_id, parent, start = tracer._open(name)
            ambient = tracer._ambient
            if name == "lp.bound_many":
                tracer._ambient = span_id
            try:
                result = fn(*args, **kwargs)
            finally:
                if name == "lp.bound_many":
                    tracer._ambient = ambient
                tracer._close(name, span_id, parent, start)
            tracer._observe(name, args, result, outer_solve)
            return result

        return traced

    def _observe(self, name: str, args, result, outer_solve: bool) -> None:
        with self._lock:
            if name.startswith("catalog."):
                self._catalogs.setdefault(id(args[0]), args[0])
            elif outer_solve:
                self._solvers.setdefault(id(args[0]), args[0])
            elif name == "relational.columnar":
                self.columnar_calls += 1
                self.columnar_hits += result is not None
            elif name == "wcoj.generic_join":
                self.nodes_visited += result.nodes_visited

    def counters(self) -> dict:
        """Work counts summed over every catalog and solver seen."""
        catalogs = list(self._catalogs.values())
        solvers = list(self._solvers.values())
        return {
            "catalog_lexsorts": sum(c.lexsorts_performed for c in catalogs),
            "catalog_sequences": sum(c.cached_sequences() for c in catalogs),
            "lp_solves": sum(s.solves for s in solvers),
            "lp_result_hits": sum(s.result_hits for s in solvers),
            "lp_assembly_hits": sum(s.assembly_hits for s in solvers),
            "lp_assembly_misses": sum(s.assembly_misses for s in solvers),
            "columnar_calls": self.columnar_calls,
            "columnar_hits": self.columnar_hits,
            "wcoj_nodes_visited": self.nodes_visited,
        }

    def write(self) -> None:
        """Write every span, then the counters, as JSON lines."""
        with open(self.out_path, "w") as handle:
            for span_id, parent, name, start, end, thread in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "thread": thread,
                }) + "\n")
            handle.write(json.dumps({"counters": self.counters()}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "state")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.state = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        span_id, parent, start = self.state
        self.tracer._close(self.name, span_id, parent, start)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: spans cost nothing."""

    enabled = False

    def span(self, name: str):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


def read(path: str) -> tuple[list[dict], dict]:
    """The spans and the counters record of one written trace file."""
    spans, counters = [], {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
            else:
                spans.append(record)
    return spans, counters


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus the union of its
    children's intervals (children on other threads may overlap)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    totals: dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(span["id"], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[span["name"]] = totals.get(span["name"], 0.0) + (
            end - start - covered
        )
    return totals


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = sys.modules[module_name]
    return getattr(owner, class_name) if class_name else owner


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry point in :data:`WRAPPED`; write spans at exit.

    Module-level functions are also rebound in every loaded ``repro``
    module that imported them by name (``from .x import f``), so calls
    through any import path are traced.
    """
    import repro.service.server  # noqa: F401 - load every wrapped owner
    import repro.evaluation.wcoj  # noqa: F401

    for name, (path, attribute) in WRAPPED.items():
        owner = _resolve(path)
        original = getattr(owner, attribute)
        wrapped = tracer.wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapped)
            continue
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            if getattr(module, attribute, None) is original:
                setattr(module, attribute, wrapped)
    atexit.register(tracer.write)
    return tracer
