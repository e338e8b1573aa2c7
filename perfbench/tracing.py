"""Span tracing of kahlercone's public functions, installed from outside.

`Tracer.install()` replaces every public function of the layer modules,
and every public method of the form and polynomial classes, with a timing
wrapper. A function is replaced, matched by identity, in every kahlercone
namespace that binds it (so `special.kahler_metric`, `cubic.inertia` and
`cli.verify_identity` are traced as well as the defining module's own
binding). The linalg containers are left alone: their `build` methods run
the caller's entry callbacks, whose time belongs to the caller.

Spans stay in memory as (id, name, start, end, parent id, op id) tuples
until `write()`. `observe(name, fn)` hands each value the named function
returns to `fn`, after its span has closed. A span opened on a worker thread with nothing open on that
thread hangs under the span open on the installing thread at that moment.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import itertools
import threading
import time

LAYERS = ("cubic", "linalg", "geometry", "special", "poly", "report", "cli")
METHOD_CLASSES = {"cubic": ("CubicForm",), "poly": ("Poly",)}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.observers = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, local, main = self.spans, self._local, self._main
        ids, clock, observers = self._ids, time.perf_counter, self.observers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main[-1] if main else -1)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((sid, name, start, clock(), parent, self.op))
                stack.pop()
            observer = observers.get(name)
            if observer is not None:
                observer(result)
            return result
        return traced

    def observe(self, name, fn):
        """Call fn(result) after each call of `name`; fn=None stops it."""
        if fn is None:
            self.observers.pop(name, None)
        else:
            self.observers[name] = fn

    def install(self):
        self._local.stack = self._main
        modules = {m: importlib.import_module(f"kahlercone.{m}") for m in LAYERS}
        wrapped = {}                     # id(original) -> wrapper
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{short}.{name}", obj)
            for cls_name in METHOD_CLASSES.get(short, ()):
                self._wrap_methods(short, getattr(mod, cls_name))
        namespaces = [importlib.import_module("kahlercone"), *modules.values()]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._undo.append((ns, name, obj))
                    setattr(ns, name, wrapped[id(obj)])

    def _wrap_methods(self, short, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{short}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                new = self._wrap(label, attr)
            elif isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self._wrap(label, attr.__func__))
            else:
                continue
            self._undo.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def totals(self):
        """{name: [calls, self seconds]} over the spans recorded inside ops.

        Self time is a span's duration minus the union of its children's
        intervals, so children running in parallel are not counted twice.
        """
        kids = collections.defaultdict(list)
        for sid, name, start, end, parent, op in self.spans:
            if parent >= 0:
                kids[parent].append((start, end))
        out = {}
        for sid, name, start, end, parent, op in self.spans:
            if op < 0:
                continue
            covered, reach = 0.0, start
            for a, b in sorted(kids.get(sid, ())):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            row = out.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += end - start - covered
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{op}\n")
