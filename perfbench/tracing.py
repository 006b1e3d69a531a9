"""Spans around the calls into each layer, installed from outside the program.

``from x import f`` binds ``f`` in the importing module at import time, so
each function is wrapped at the binding its callers use (for example
``repro.engine.engine.compile_dnf``); classes are wrapped at their
methods.  Every wrapped call records a span ``[layer, name, start, end,
parent, op]``; an op is the root span of its calls.  Spans stay in memory
and are written once, by the caller, at the end.

A layer's self time is its spans' durations minus their child spans'.
``Tracer.install`` swaps the wrappers in and ``uninstall`` restores the
originals, so untraced rounds run the program untouched.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute, layer): module-level bindings of layer functions.
FUNCTION_SITES = (
    ("repro.engine.engine", "lineage_of_answers", "db"),
    ("repro.engine.serve", "lineage_of_answers", "db"),
    ("repro.engine.engine", "canonicalize", "canonical"),
    ("repro.engine.serve", "canonicalize", "canonical"),
    ("repro.engine.engine", "compile_dnf", "compile"),
    ("repro.engine.engine", "complete_compilation", "compile"),
    ("repro.engine.ranking", "complete_compilation", "compile"),
    ("repro.engine.engine", "exaban_all", "exaban"),
    ("repro.engine.ranking", "exaban_all", "exaban"),
    ("repro.engine.engine", "adaban_over_state", "adaban"),
    ("repro.engine.engine", "shared_state", "adaban"),
    ("repro.engine.engine", "compute_ranking", "ranking"),
    ("repro.engine.store", "decode_artifact", "artifact"),
    ("repro.engine.store", "encode_artifact", "artifact"),
    ("repro.engine.logstore", "decode_artifact", "artifact"),
    ("repro.engine.logstore", "encode_artifact", "artifact"),
)

_STORE_METHODS = ("get", "put", "get_artifact", "put_artifact", "flush")

#: (module, class, methods, layer).
METHOD_SITES = (
    ("repro.dtree.incremental", "IncrementalCompiler", ("expand_step",),
     "compile"),
    ("repro.dtree.arena", "DTreeArena", ("from_tree",), "arena"),
    ("repro.engine.store", "DiskStore",
     _STORE_METHODS + ("items", "artifact_items"), "store"),
    ("repro.engine.logstore", "LogStore",
     _STORE_METHODS + ("items", "artifact_items"), "store"),
    ("repro.reliability.resilient", "ResilientStore", ("get", "put", "flush"),
     "store"),
    ("repro.engine.serve", "AttributionService", ("__init__", "submit"),
     "serve"),
    ("repro.engine.engine", "Engine",
     ("__init__", "attribute_many", "rank_many", "attribute_lineages",
      "load_cache"), "engine"),
)

#: Backend methods whose calls count as store reads / writes / flushes.
STORE_COUNTS = {"get": "store.reads", "get_artifact": "store.reads",
                "put": "store.writes", "put_artifact": "store.writes",
                "flush": "store.flushes"}
BACKENDS = ("DiskStore", "LogStore")

Span = List  # [layer, name, start, end, parent index, op id]


class Tracer:
    """Records spans while installed; aggregates them per layer."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._op: Optional[str] = None
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #

    def _open(self, layer: str, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), None, parent,
                           self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def root(self, op: str, layer: str, call: Callable[[], object]):
        """Run ``call`` as the root span of op ``op``."""
        self._op = op
        index = self._open(layer, op)
        try:
            return call()
        finally:
            self._close(index)
            self._op = None

    def _wrap(self, layer: str, name: str, function: Callable,
              count: Optional[str] = None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.counts[count] += 1
            index = tracer._open(layer, name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            if name == "lineage_of_answers":
                tracer.counts["db.answers"] += len(result)
            return result

        return wrapper

    def _wrap_generator(self, layer: str, name: str,
                        function: Callable) -> Callable:
        """A generator's spans cover each resume, not the caller's work."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            generator = function(*args, **kwargs)
            while True:
                index = tracer._open(layer, name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield item

        return wrapper

    def _count_only(self, function: Callable, key: str) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return function(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------- #

    def _swap(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        import inspect

        for module_name, attribute, layer in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            self._swap(module, attribute, self._wrap(
                layer, attribute, getattr(module, attribute)))
        for module_name, class_name, methods, layer in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                original = cls.__dict__[method]
                name = f"{class_name}.{method}"
                if isinstance(original, classmethod):
                    self._swap(cls, method, classmethod(self._wrap(
                        layer, name, original.__func__)))
                elif inspect.isgeneratorfunction(original):
                    self._swap(cls, method, self._wrap_generator(
                        layer, name, original))
                else:
                    count = (STORE_COUNTS.get(method)
                             if class_name in BACKENDS else None)
                    self._swap(cls, method, self._wrap(layer, name, original,
                                                       count))
        compile_module = importlib.import_module("repro.dtree.compile")
        budget = compile_module.CompilationBudget
        self._swap(budget, "charge_shannon", self._count_only(
            budget.__dict__["charge_shannon"], "compile.shannon_steps"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def aggregate(spans: List[Span], factors: Dict[str, float]
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds, scaled per op.

    ``factors`` maps each op id to its scale factor.  ``total_s`` counts a
    span only when no ancestor has the same layer, so nested calls within
    one layer are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    rows: Dict[str, Dict[str, float]] = {}
    for index, (layer, name, start, end, parent, op) in enumerate(spans):
        factor = factors.get(op, 1.0)
        key = layer if parent < 0 else name
        row = rows.setdefault(key, {"layer": layer, "calls": 0,
                                    "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start - child_time[index]) * factor
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            row["total_s"] += (end - start) * factor
    return rows


def by_layer(rows: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    layers: Dict[str, Dict[str, float]] = {}
    for row in rows.values():
        total = layers.setdefault(row["layer"], {"calls": 0, "total_s": 0.0,
                                                 "self_s": 0.0})
        for field in ("calls", "total_s", "self_s"):
            total[field] += row[field]
    return layers
