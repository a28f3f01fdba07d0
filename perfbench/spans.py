"""Span tracer for the benchmark's traced runs.

The tracer wraps every public function of the eight mmslab modules from the
outside: it replaces the function object in each module namespace that holds
it, so calls between modules (``generators`` -> ``core.check_valid``,
``atoms`` -> ``observables.separation``) nest as child spans.  Spans stay in
memory and are written out once, when the run ends.  A span's self time is
its duration minus the time covered by its child spans; module and function
busy times are sums of self times.

``observables.partial_diameter`` and scipy's ``linprog`` (as seen by
``observables``) are counted but get no span: they run hundreds of thousands
of times in one heuristic search, and their time stays in the caller's self
time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("core", "observables", "boxmetric", "order", "functional", "atoms", "generators", "cli")

# Functions counted without a span.
COUNT_ONLY = {"observables.partial_diameter": "observables.partial_diameter.calls"}

# Spans beyond this many keep feeding the aggregates but are not stored.
MAX_STORED_SPANS = 1_000_000


class Tracer:
    """Span stack, stored spans and aggregates of one process."""

    def __init__(self):
        self.active = False
        self.names = []           # span name per name id
        self.name_module = []     # module index per name id (-1 for benchmark spans)
        self._name_ids = {}
        self.stack = []           # frames: [span_id, name_id, start, child_time]
        self.spans = []           # (span_id, parent_id, name_id, start, end, task)
        self.dropped = 0
        self.next_id = 0
        self.task = None
        self.task_counts = {}     # task key -> counter increments during that task
        self.self_s = {}          # name -> summed self time
        self.calls = {}           # name -> span count
        self.entry_calls = {m: 0 for m in MODULES}  # calls entering a module from outside
        self.counts = {
            "observables.lp_solves": 0,
            "observables.partial_diameter.calls": 0,
            "order.nodes_explored": 0,
            "generators.matrix_bytes": 0,
        }
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            mod = name.split(".", 1)[0]
            self.name_module.append(MODULES.index(mod) if mod in MODULES and "." in name else -1)
        return nid

    def enter(self, nid):
        sid = self.next_id
        self.next_id += 1
        self.stack.append([sid, nid, time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        sid, nid, start, child = self.stack.pop()
        dur = end - start
        name = self.names[nid]
        self.self_s[name] = self.self_s.get(name, 0.0) + (dur - child)
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self.stack[-1] if self.stack else None
        mod = self.name_module[nid]
        if mod >= 0 and (parent is None or self.name_module[parent[1]] != mod):
            self.entry_calls[MODULES[mod]] += 1
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((sid, parent[0] if parent else -1, nid, start, end, self.task))
        else:
            self.dropped += 1

    def span(self, name):
        """Context manager for a benchmark-side span (setup, task)."""
        return _Span(self, self.name_id(name))

    def inside(self, module):
        """True when an enclosing span belongs to ``module``."""
        idx = MODULES.index(module)
        return any(self.name_module[f[1]] == idx for f in self.stack)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the public functions of every mmslab module in place."""
        mods = {m: importlib.import_module(f"mmslab.{m}") for m in MODULES}
        pkg = importlib.import_module("mmslab")
        wrappers = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(obj, f"{mname}.{attr}")
        for mod in (*mods.values(), pkg):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        obs = mods["observables"]
        linprog = obs.linprog
        counts = self.counts

        @functools.wraps(linprog)
        def counted_linprog(*args, **kwargs):
            if self.active:
                counts["observables.lp_solves"] += 1
            return linprog(*args, **kwargs)

        self._restore.append((obs, "linprog", linprog))
        obs.linprog = counted_linprog

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def _wrap(self, fn, name):
        counter = COUNT_ONLY.get(name)
        if counter is not None:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    counts[counter] += 1
                return fn(*args, **kwargs)

            return counted
        nid = self.name_id(name)
        module = name.split(".", 1)[0]
        after = _AFTER.get(module) or _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nested = after is not None and module == "generators" and tracer.inside("generators")
            tracer.enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None and not nested:
                after(tracer, out)
            return out

        return traced

    # -- results -------------------------------------------------------------

    def module_metrics(self):
        """Per-module self time and entry calls, per-function self time, counts."""
        out = {}
        for m in MODULES:
            busy = sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == m and "." in k)
            out[f"{m}.busy_s"] = busy
            out[f"{m}.calls"] = self.entry_calls[m]
        for name, v in self.self_s.items():
            if name.split(".", 1)[0] in MODULES and "." in name:
                out[f"{name}.busy_s"] = v
        out.update(self.counts)
        return out

    def merge(self, data):
        """Add the aggregates another process wrote with ``dump``."""
        for k, v in data["self_s"].items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        for k, v in data["calls"].items():
            self.calls[k] = self.calls.get(k, 0) + v
        for k, v in data["entry_calls"].items():
            self.entry_calls[k] += v
        for k, v in data["counts"].items():
            self.counts[k] += v

    def dump(self, path, extra=None):
        data = {
            "names": self.names,
            "span_columns": ["span_id", "parent_id", "name_id", "start_s", "end_s", "task"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "self_s": self.self_s,
            "calls": self.calls,
            "entry_calls": self.entry_calls,
            "counts": self.counts,
            "task_counts": self.task_counts,
        }
        if extra:
            data.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


class _Span:
    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.tracer.enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.exit()
        return False


def _count_nodes(tracer, out):
    nodes = getattr(out, "nodes_explored", None)
    if nodes is not None:
        tracer.counts["order.nodes_explored"] += int(nodes)


def _count_matrix_bytes(tracer, out):
    items = out if isinstance(out, (tuple, list)) else (out,)
    for item in items:
        for sp in item if isinstance(item, (tuple, list)) else (item,):
            for arr in (getattr(sp, "dist", None), getattr(sp, "coords", None)):
                if arr is not None and hasattr(arr, "nbytes"):
                    tracer.counts["generators.matrix_bytes"] += int(arr.nbytes)


_AFTER = {"order.dominates": _count_nodes, "generators": _count_matrix_bytes}
