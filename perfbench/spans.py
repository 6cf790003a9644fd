"""Span recorder for the traced run.

The recorder wraps the public functions each layer of the program
exposes (see :data:`HOOKS`), from the benchmark's own code: installing
replaces the attribute on its module or class with a wrapper, removing
puts the original back.  Every call of a wrapped function records a
span ``(span_id, name, start, end, parent_id, request_id)`` in memory.
Spans nest per thread, so the client thread and the program's
background rebuild thread each build their own trees; a span opened
with no parent starts a request of its own.

A span's self time is its duration minus the durations of its direct
children.  Calls inside one thread are strictly nested, so the self
times of a request's spans add up to the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["HOOKS", "SpanRecorder", "span_totals", "self_times",
           "layer_share"]

#: (module, class or None, attribute, span name) for every wrapped
#: function.  Functions a module imported by name are wrapped where that
#: module binds them (e.g. ``repro.indexes.robust.batch_topk``), since
#: that is the name the caller looks up.
HOOKS = (
    ("repro.engine.executor", None, "parse", "sql.parse"),
    ("repro.engine.planner", "CostBasedPlanner", "choose", "planner.choose"),
    ("repro.engine.executor", "TopKExecutor", "execute_auto",
     "executor.execute_auto"),
    ("repro.engine.executor", "TopKExecutor", "execute", "executor.execute"),
    ("repro.engine.executor", "TopKExecutor", "execute_many",
     "executor.execute_many"),
    ("repro.engine.relation", "Relation", "matrix", "relation.matrix"),
    ("repro.engine.relation", "Relation", "take", "relation.take"),
    ("repro.engine.storage", "BlockStore", "read_prefix",
     "storage.read_prefix"),
    ("repro.engine.cache", "ResultCache", "lookup", "cache.lookup"),
    ("repro.engine.cache", "ResultCache", "store", "cache.store"),
    ("repro.engine.catalog", "Catalog", "save_index_snapshots",
     "snapshot.save"),
    ("repro.engine.catalog", "Catalog", "load_index_snapshots",
     "snapshot.load"),
    ("repro.indexes.robust", "RobustIndex", "query", "index.query"),
    ("repro.indexes.robust", "RobustIndex", "query_batch",
     "index.query_batch"),
    ("repro.indexes.robust", None, "topk_select", "qkernel.topk_select"),
    ("repro.indexes.robust", None, "batch_topk", "qkernel.batch_topk"),
    ("repro.indexes.robust", None, "exact_build", "exact.build"),
    ("repro.indexes.robust", None, "appri_build", "appri.build"),
    ("repro.indexes.dynamic", "DynamicRobustIndex", "query",
     "dynamic.query"),
    ("repro.indexes.dynamic", "DynamicRobustIndex", "insert",
     "dynamic.insert"),
    ("repro.indexes.dynamic", "DynamicRobustIndex", "delete",
     "dynamic.delete"),
    ("repro.indexes.dynamic", "DynamicRobustIndex", "commit_rebuild",
     "rebuild.commit"),
    ("repro.indexes.dynamic", None, "topk_select", "qkernel.topk_select"),
    ("repro.core.dynamic", None, "layer_for_new_tuple",
     "dynamic.layer_for_new_tuple"),
    ("repro.core.dynamic", None, "appri_layers", "appri.layers"),
    ("repro.engine.rebuild", "RebuildManager", "rebuild_now", "rebuild.run"),
    ("repro.engine.rebuild", None, "appri_layers", "appri.layers"),
)


class _Request:
    """Root span of one client request (see :meth:`SpanRecorder.request`)."""

    __slots__ = ("_recorder", "_name", "_rid", "_sid", "_start")

    def __init__(self, recorder, name, rid):
        self._recorder = recorder
        self._name = name
        self._rid = rid

    def __enter__(self):
        recorder = self._recorder
        self._sid = next(recorder._ids)
        recorder._stack().append((self._sid, self._rid))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        recorder = self._recorder
        recorder._stack().pop()
        recorder.spans.append(
            (self._sid, self._name, self._start, end, -1, self._rid)
        )
        return False


class _NoRequest:
    """Stand-in for :class:`_Request` when nothing is traced."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_REQUEST = _NoRequest()


class SpanRecorder:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self):
        #: Finished spans: (span_id, name, start, end, parent_id, request_id).
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request(self, name: str, request_id):
        """Context manager recording one client request's root span.

        A no-op while the wrappers are not installed, so untraced
        phases pay nothing for it.
        """
        if not self._patches:
            return _NO_REQUEST
        return _Request(self, name, request_id)

    def _wrap(self, fn, name: str):
        ids, spans, stack_of = self._ids, self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent, rid = stack[-1] if stack else (-1, f"{name}#{sid}")
            stack.append((sid, rid))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, rid))

        return traced

    def install(self) -> None:
        """Replace every hooked function with its span wrapper."""
        if self._patches:
            raise RuntimeError("span wrappers are already installed")
        for module_name, class_name, attribute, span_name in HOOKS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            if not inspect.isfunction(original):
                raise TypeError(f"{module_name}.{attribute} is not a function")
            setattr(owner, attribute, self._wrap(original, span_name))
            self._patches.append((owner, attribute, original))

    def remove(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans):
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent, _rid in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return {
        sid: (end - start) - child_time[sid]
        for sid, _name, start, end, _parent, _rid in spans
    }


def span_totals(spans) -> dict:
    """Per span name: call count, total seconds and total self seconds."""
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for sid, name, start, end, _parent, _rid in spans:
        entry = totals.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["total"] += end - start
        entry["self"] += selfs[sid]
    return totals


def layer_share(spans) -> float:
    """Share of client request time spent inside wrapped layer functions.

    Client requests are the root spans the client loop opened (names
    starting with ``client.``); what they spend outside every child
    span is the client loop's own time.  A layer that is called but not
    wrapped counts as client time, so a missing hook lowers the share.
    """
    selfs = self_times(spans)
    roots = [s for s in spans if s[4] < 0 and s[1].startswith("client.")]
    root_time = sum(end - start for _sid, _name, start, end, _p, _r in roots)
    client_self = sum(selfs[s[0]] for s in roots)
    return 1.0 - client_self / root_time if root_time else 0.0
