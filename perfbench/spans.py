"""Spans and call capture around the program's public functions.

The benchmark never edits the program.  It replaces module attributes
(``blockra.bench.block_ra2``, ``blockra.algorithms.multivariate_dependence_exact``
and so on) with wrappers for the duration of a pass and restores them after.
Every wrapper records one :class:`Span` per call, holding the call's first
argument and its result so the workload can check them once timing has
stopped.  With tracing on the span also gets its start and end times.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Span:
    """One call into a layer: name, job id, parent span index, times, in/out."""

    name: str
    job: str
    parent: Optional[int]
    arg: Any
    start: float = 0.0
    end: float = 0.0
    result: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def shape(self) -> Optional[tuple]:
        shape = getattr(self.arg, "shape", None)
        return tuple(shape) if shape is not None else None


@dataclass
class Recorder:
    """Collects a span per wrapped call; times them only when ``tracing``."""

    tracing: bool
    job: str = ""
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.job, self._stack[-1] if self._stack else None,
                        args[0] if args else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                if self.tracing:
                    span.start = time.perf_counter()
                span.result = fn(*args, **kwargs)
            finally:
                if self.tracing:
                    span.end = time.perf_counter()
                self._stack.pop()
            return span.result

        return wrapper


class patched:
    """Context manager that swaps module attributes for recorder wrappers.

    ``targets`` maps a layer name (``"algorithms.block_ra2"``) to the modules
    whose attribute of that function name (the part after the dot) is
    wrapped: the defining module for direct calls, importing modules for the
    calls they make.
    """

    def __init__(self, recorder: Recorder, targets: dict):
        self.recorder = recorder
        self.targets = targets
        self.saved: list = []

    def __enter__(self) -> Recorder:
        for layer_name, modules in self.targets.items():
            attr = layer_name.split(".", 1)[1]
            for mod in modules:
                original = getattr(mod, attr)
                self.saved.append((mod, attr, original))
                setattr(mod, attr, self.recorder.wrap(layer_name, original))
        return self.recorder

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self.saved):
            setattr(mod, attr, original)
        self.saved.clear()


def self_time(spans: list, idx: int) -> float:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another on this single thread, so
    their intervals do not overlap and their durations can be summed.
    """
    covered = sum(s.duration for s in spans if s.parent == idx)
    return spans[idx].duration - covered


def spans_to_json(spans: list) -> list:
    return [
        {"name": s.name, "job": s.job, "parent": s.parent, "start": s.start,
         "end": s.end, "shape": list(s.shape) if s.shape else None}
        for s in spans
    ]
