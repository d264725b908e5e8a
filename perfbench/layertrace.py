"""Per-layer tracer for the ellgenus package, installed from outside it.

``LayerTracer.install()`` wraps every public function and method of the
package (names without a leading underscore, plus dunder methods) in every
module namespace and class that binds it, so ``from .x import y`` names and
aliases such as ``Cyclo.__rmul__ = __mul__`` all go through one wrapper per
function object.  A span is named ``<module>.<qualname>`` without the
``ellgenus.`` prefix, e.g. ``cyclo.Cyclo.__mul__``.

Each call opens a span whose parent is the innermost open span.  When a span
closes it is folded into per-name totals: call count, inclusive time (counted
at the outermost activation only, so recursion is not double counted) and
self time (the span minus the time covered by its child spans).  Folding
keeps memory constant however many million calls a job makes.

The tracer only observes: wrapped functions receive the same arguments and
return the same objects, so traced outputs are byte-identical to untraced ones.
"""

from __future__ import annotations

import functools
import sys
import time
import types

_SKIP_DUNDERS = {
    "__new__", "__init_subclass__", "__class_getitem__", "__subclasshook__",
    "__getattribute__", "__getattr__", "__setattr__", "__delattr__", "__del__",
}
_FUNCTION_TYPES = (types.FunctionType, functools._lru_cache_wrapper)


def _package_modules() -> list[types.ModuleType]:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "ellgenus" or name.startswith("ellgenus."))
    ]


def _owned(obj) -> bool:
    return str(getattr(obj, "__module__", "")).startswith("ellgenus")


def _span_name(fn) -> str:
    module = fn.__module__.removeprefix("ellgenus").lstrip(".") or "ellgenus"
    return f"{module}.{fn.__qualname__}"


def _traced_name(attr: str) -> bool:
    if attr.startswith("__") and attr.endswith("__"):
        return attr not in _SKIP_DUNDERS
    return not attr.startswith("_")


class LayerTracer:
    """Span totals per wrapped function; install() and uninstall() bracket a traced region."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s, open_depth]
        self.rref_rows = 0  # candidate rows fed to linalg.rref
        self.rref_rank = 0  # rows it returned
        self._stack: list[float] = []  # child time covered so far, per open span
        self._wrappers: dict[int, object] = {}
        self._originals: dict[str, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        name = _span_name(fn)
        self._originals[name] = fn
        target = self._count_rref(fn) if name == "linalg.rref" else fn
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[3] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return target(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[2] += dt - stack.pop()
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += dt
                if stack:
                    stack[-1] += dt

        self._wrappers[key] = wrapper
        return wrapper

    def _count_rref(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if args:
                self.rref_rows += len(args[0])
            if isinstance(result, tuple) and len(result) == 2:
                self.rref_rank += len(result[1])
            return result
        return counted

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if not _traced_name(attr):
                continue
            if isinstance(value, types.FunctionType):
                self._rebind(cls, attr, self._wrap(value))
            elif isinstance(value, (staticmethod, classmethod)) and \
                    isinstance(value.__func__, types.FunctionType):
                self._rebind(cls, attr, type(value)(self._wrap(value.__func__)))

    def install(self) -> None:
        """Wrap the package's public callables in every namespace that binds them."""
        seen_classes: set[int] = set()
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _owned(obj):
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException) and id(obj) not in seen_classes:
                        seen_classes.add(id(obj))
                        self._wrap_class(obj)
                elif isinstance(obj, _FUNCTION_TYPES):
                    self._rebind(module, attr, self._wrap(obj))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        """Totals as plain JSON data: spans, rref row counts, lru cache hits and misses."""
        caches = {}
        for name, fn in self._originals.items():
            info = getattr(fn, "cache_info", None)
            if info is not None:
                ci = info()
                caches[name] = [ci.hits, ci.misses]
        return {
            "spans": {name: s[:3] for name, s in self.stats.items() if s[0]},
            "rref": [self.rref_rows, self.rref_rank],
            "caches": caches,
        }


def merge(dumps: list[dict]) -> dict:
    """Sum several dump() results (one per job or process)."""
    spans: dict[str, list] = {}
    caches: dict[str, list] = {}
    rref = [0, 0]
    for d in dumps:
        for name, (calls, incl, self_s) in d["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for name, (hits, misses) in d["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
        rref[0] += d["rref"][0]
        rref[1] += d["rref"][1]
    return {"spans": spans, "rref": rref, "caches": caches}
