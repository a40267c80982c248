"""Per-layer tracing of ``gcls`` from outside the package.

The layers are the ``gcls`` modules.  ``Tracer.install`` wraps every public
function (a function defined in a ``gcls`` module whose name has no leading
underscore) by rebinding the name in every ``gcls`` namespace that holds it,
including module-level dicts such as the CLI's scheme table, and wraps
``MultiClauseSet.__init__`` and ``IncidenceGraph.__init__`` to count builds.
Names imported inside a function body (``sat_fpt`` does that) are looked up
in the defining module at call time, so they see the wrappers too.

Each call records a span (name, start, end, parent span, request id) in
flat in-memory arrays; nothing is aggregated while the requests run.
Private helpers are not wrapped, so their time counts in the self time of
their public caller.  ``summary`` derives calls, self time, raised
exceptions and the result-derived counts from the spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from typing import Callable, Dict, List, Tuple

MODULES = ("core", "matching", "reductions", "satdec", "translate",
           "structure", "musat", "encode", "cli")

#: Classes whose construction is traced; their spans count as "builds".
BUILT = (("core", "MultiClauseSet"), ("matching", "IncidenceGraph"))

#: Counts read off a traced function's result: span name -> (stat, reader).
RESULT_COUNTS: Dict[str, Tuple[str, Callable]] = {
    "cli.parse_gcls": ("clauses", lambda result: result.c),
    "satdec.sat_fpt": ("leaves", lambda result: result.node_count),
}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised: Dict[int, int] = {}
        self.counts: Dict[str, int] = {}
        self.current = -1
        self.request = -1
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        count = RESULT_COUNTS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.span_name)
            parent = tracer.current
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent)
            tracer.span_request.append(tracer.request)
            tracer.span_end.append(0.0)
            tracer.current = index
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[nid] = tracer.raised.get(nid, 0) + 1
                raise
            finally:
                tracer.span_end[index] = clock()
                tracer.current = parent
            if count is not None:
                key = f"{name}.{count[0]}"
                tracer.counts[key] = tracer.counts.get(key, 0) + count[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing and removing the wrappers ------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and traced constructors of ``gcls``."""
        modules = [importlib.import_module(f"gcls.{m}") for m in MODULES]
        namespaces = modules + [importlib.import_module("gcls")]
        wrapped = {}
        for module in modules:
            short = module.__name__.split(".")[-1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrapped:
                    self._rebind(namespace, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._undo.append((obj, key, value))
                            obj[key] = wrapped[id(value)]
        for short, cls_name in BUILT:
            cls = getattr(importlib.import_module(f"gcls.{short}"), cls_name)
            self._rebind(cls, "__init__",
                         self._wrap(cls.__init__, f"{short}.{cls_name}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- deriving the metrics ----------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Totals over all recorded spans, keyed ``<module>.<name>.<stat>``.

        Stats: ``calls`` (``builds`` for traced constructors), ``self_ms``
        (span duration minus the durations of its child spans, which nest
        inside it because everything runs on one thread), ``raised``, the
        result counts of RESULT_COUNTS, and ``matching.surplus.graphs``,
        the incidence graphs built anywhere below a ``surplus`` span.
        """
        n = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        self_time = list(duration)
        surplus_id = self.name_ids.get("matching.surplus", -2)
        graph_id = self.name_ids.get("matching.IncidenceGraph", -2)
        below_surplus = [False] * n
        graphs_in_surplus = 0
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                self_time[parent] -= duration[i]
                below_surplus[i] = (below_surplus[parent]
                                    or self.span_name[parent] == surplus_id)
                if below_surplus[i] and self.span_name[i] == graph_id:
                    graphs_in_surplus += 1
        built = {f"{m}.{c}" for m, c in BUILT}
        out: Dict[str, float] = {}
        for nid, name in enumerate(self.names):
            calls_key = "builds" if name in built else "calls"
            out[f"{name}.{calls_key}"] = 0
            out[f"{name}.self_ms"] = 0.0
            out[f"{name}.raised"] = self.raised.get(nid, 0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls_key = "builds" if name in built else "calls"
            out[f"{name}.{calls_key}"] += 1
            out[f"{name}.self_ms"] += self_time[i] * 1000.0
        for name, (stat, _) in RESULT_COUNTS.items():
            if name in self.name_ids:
                out[f"{name}.{stat}"] = self.counts.get(f"{name}.{stat}", 0)
        out["matching.surplus.graphs"] = graphs_in_surplus
        return out

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start and end (s), parent, request."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.span_name)):
                handle.write(json.dumps([
                    self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i],
                    self.span_request[i]]) + "\n")
