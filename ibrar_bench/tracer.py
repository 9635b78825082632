"""An in-memory span tracer that instruments the library from outside.

A :class:`Target` names one public entry point of a layer — a module-level
function (``"repro.compile.graph:capture_forward"``) or a method
(``"repro.compile.executor:Plan.forward"``) — and the span name its calls are
recorded under.  Installing a :class:`Tracer` replaces each entry point with a
thin timing wrapper; uninstalling restores the originals.  Nothing under
``src/`` is edited:

* a function is patched in its defining module *and* in every loaded
  ``repro`` module that imported it under any name;
* a method is patched on the class that defines it (found through the MRO),
  and with ``subclasses=True`` also on every subclass that overrides it.

Spans carry a name, a start, an end, a parent and a thread.  They stay in
memory (parents are per-thread stacks, so a parent is always a same-thread
span) and are written out only when :meth:`Tracer.dump` is called.  A span's
*self time* is its duration minus that of its same-thread children.

``delays`` maps a span name to extra seconds spent inside that span on every
call.  It exists so a test can slow one layer through the wrapper alone and
check that the layer comparison names it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Target",
    "Tracer",
    "self_times",
    "layer_self_ms",
    "compare_layers",
    "moved_layer",
]

_clock = time.perf_counter


class Span:
    """One timed call: ``name`` from ``start`` to ``end`` on ``thread``."""

    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name: str, start: float, parent: Optional[int], thread: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "attrs": _jsonable(self.attrs),
        }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


class Target:
    """One entry point to wrap.

    ``attrs(args, kwargs, result, before)`` may return a dict stored on the
    span; ``before(args, kwargs)`` runs just before the call and its value is
    handed to ``attrs``.  ``generator=True`` wraps a generator function so
    that each ``next()`` is one span (the time spent producing one item).
    """

    __slots__ = ("span", "ref", "attrs", "before", "subclasses", "generator")

    def __init__(
        self,
        span: str,
        ref: str,
        attrs: Optional[Callable] = None,
        before: Optional[Callable] = None,
        subclasses: bool = False,
        generator: bool = False,
    ) -> None:
        self.span = span
        self.ref = ref
        self.attrs = attrs
        self.before = before
        self.subclasses = subclasses
        self.generator = generator


def _all_subclasses(cls) -> List[type]:
    found, stack = [], list(cls.__subclasses__())
    while stack:
        sub = stack.pop()
        if sub not in found:
            found.append(sub)
            stack.extend(sub.__subclasses__())
    return found


def _patch_sites(ref: str, subclasses: bool) -> List[Tuple[Any, str, Any]]:
    """Every ``(owner, attribute, original)`` a target must be patched at."""
    module_name, _, qualname = ref.partition(":")
    module = importlib.import_module(module_name)
    if "." not in qualname:
        original = getattr(module, qualname)
        sites = []
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    sites.append((loaded, attr, original))
        return sites
    class_name, attr = qualname.split(".")
    cls = getattr(module, class_name)
    owners = [next(k for k in cls.__mro__ if attr in vars(k))]
    if subclasses:
        owners += [k for k in _all_subclasses(cls) if attr in vars(k)]
    return [(owner, attr, vars(owner)[attr]) for owner in owners]


class Tracer:
    """Records spans for the calls into a set of :class:`Target` entry points."""

    def __init__(self, targets: Iterable[Target], delays: Optional[Dict[str, float]] = None) -> None:
        self.targets = list(targets)
        self.delays = dict(delays or {})
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping -------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Tuple[List[int], Span]:
        stack = self._stack()
        span = Span(name, 0.0, stack[-1] if stack else None, threading.get_ident())
        spans = self.spans
        spans.append(span)
        stack.append(len(spans) - 1)
        span.start = _clock()
        return stack, span

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the caller (the benchmark's own units)."""
        stack, span = self._open(name)
        span.attrs = attrs or None
        try:
            yield span
        finally:
            span.end = _clock()
            stack.pop()

    # -- wrappers ---------------------------------------------------------------
    def _wrap(self, target: Target, original: Callable) -> Callable:
        name, attrs_hook, before_hook = target.span, target.attrs, target.before
        delay = self.delays.get(name, 0.0)
        tracer = self

        if target.generator:

            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                iterator = original(*args, **kwargs)
                while True:
                    stack, span = tracer._open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        span.end = _clock()
                        stack.pop()
                        return
                    if delay:
                        time.sleep(delay)
                    span.end = _clock()
                    stack.pop()
                    yield item

            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = before_hook(args, kwargs) if before_hook is not None else None
            stack, span = tracer._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                if delay:
                    time.sleep(delay)
                return result
            finally:
                span.end = _clock()
                stack.pop()
                if attrs_hook is not None:
                    span.attrs = attrs_hook(args, kwargs, result, before)

        return wrapper

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for target in self.targets:
                for owner, attr, original in _patch_sites(target.ref, target.subclasses):
                    setattr(owner, attr, self._wrap(target, original))
                    self._patches.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


# --------------------------------------------------------------------------- #
# self time and the per-layer comparison
# --------------------------------------------------------------------------- #
def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus its same-thread children's, in seconds."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    return [span.seconds - child[index] for index, span in enumerate(spans)]


def layer_self_ms(spans: Sequence[Span], skip: Tuple[str, ...] = ("bench",)) -> Dict[str, float]:
    """Self time per layer (the span name's first component), in ms."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span.layer
        if layer in skip:
            continue
        totals[layer] = totals.get(layer, 0.0) + own * 1e3
    return totals


def compare_layers(before: Dict[str, float], after: Dict[str, float]) -> List[Tuple[str, float, float, float]]:
    """``(layer, before_ms, after_ms, delta_ms)`` rows, largest increase first."""
    rows = [
        (layer, before.get(layer, 0.0), after.get(layer, 0.0), after.get(layer, 0.0) - before.get(layer, 0.0))
        for layer in sorted(set(before) | set(after))
    ]
    rows.sort(key=lambda row: row[3], reverse=True)
    return rows


def moved_layer(before: Dict[str, float], after: Dict[str, float]) -> str:
    """The layer whose self time grew the most between two runs."""
    return compare_layers(before, after)[0][0]
