"""Span tracing for the benchmark's traced run.

The tracer times calls into the program by rebinding names: every
``mtpspec`` module attribute (and every listed class attribute) that
holds a traced function is replaced by a timing wrapper, so calls are
caught where they are made, whichever module defined the function.
``Tracer.uninstall`` puts the originals back and ``assert_clean``
proves it before each untraced pass.

Each call opens a span. A span's self time is its duration minus the
durations of the traced calls made inside it, so the self times of all
spans add up to the durations of the outermost spans. Spans of layers
above the tensor ops are kept whole (id, parent, request, name, start,
end); tensor ops are only aggregated, because a pass makes about a
million of them.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

_MARK = "__perfbench_wrapper__"


def _mtpspec_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if (n == "mtpspec" or n.startswith("mtpspec.")) and m is not None]


def assert_clean() -> None:
    """Raise unless every traced name in mtpspec holds its original again."""
    for mod in _mtpspec_modules():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                raise AssertionError(f"{mod.__name__}.{attr} is still traced")
            if isinstance(value, type) and value.__module__.startswith("mtpspec"):
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, _MARK, False):
                        raise AssertionError(f"{mod.__name__}.{attr}.{cattr} is still traced")


@dataclass
class Target:
    """A function to trace.

    `owner` is the module that defines it or the class that holds it as
    a method; `name` is the span name, or a callable
    ``(tracer, args, kwargs) -> str`` that picks one per call. `hook`,
    when given, runs after a successful call as
    ``hook(tracer, args, kwargs, result)`` to record counts.
    """

    owner: Any
    attr: str
    name: str | Callable
    keep_spans: bool = True
    hook: Callable | None = None


@dataclass
class SpanStats:
    durations: array = field(default_factory=lambda: array("q"))
    selfs: array = field(default_factory=lambda: array("q"))

    @property
    def count(self) -> int:
        return len(self.durations)


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.request_id = -1
        self._stack: list[list] = []       # [name, child_ns, span_id]
        self._next_id = 0
        self._patches: list[tuple] = []     # (owner, attr, original)

    # -- installation -----------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _mtpspec_modules()
        for t in targets:
            if isinstance(t.owner, type):
                original = t.owner.__dict__[t.attr]
                self._patch(t.owner, t.attr, original, self._wrap(original, t))
                continue
            original = getattr(t.owner, t.attr)
            wrapper = self._wrap(original, t)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        name_of = target.name
        keep = target.keep_spans
        hook = target.hook
        tracer = self

        def wrapper(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(tracer, args, kwargs)
            frame = [name, 0, tracer._next_id]
            tracer._next_id += 1
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer._close(frame, parent, t0, t1, keep)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, True)
        return wrapper

    def _close(self, frame, parent, t0, t1, keep) -> None:
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = SpanStats()
        st.durations.append(dur)
        st.selfs.append(dur - frame[1])
        if keep:
            self.spans.append((frame[2], parent, self.request_id, frame[0], t0, t1))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        frame = [name, 0, self._next_id]
        self._next_id += 1
        parent = self._stack[-1][2] if self._stack else -1
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._close(frame, parent, t0, t1, True)

    def caller(self) -> str | None:
        """Name of the innermost open span; inside a naming callable, the caller."""
        return self._stack[-1][0] if self._stack else None

    def inside(self, prefix: str) -> bool:
        return any(frame[0].startswith(prefix) for frame in self._stack)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- results ----------------------------------------------------------

    def self_ns_by_layer(self) -> dict[str, int]:
        """Summed self time per layer, the layer being the span-name prefix."""
        out: dict[str, int] = {}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + sum(st.selfs)
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write('["span_id", "parent_id", "request_id", "name", "start_ns", "end_ns"]\n')
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
