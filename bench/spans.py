"""In-memory span recorder for the traced run.

Spans are recorded from outside the package: `Recorder.patched` swaps a
module attribute or a class method for a wrapper that opens a span around
the real call, and restores the original on exit.  The stage names are the
ones the in-program trace is to use, ``<module>.<function>``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str  # which call of which run; set where the spans are gathered
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """Wrap ``target.attr`` (target is ``module`` or ``module:Class``) in a
    span named ``stage``; ``counts`` maps the call's result to span counts."""

    target: str
    attr: str
    stage: str
    counts: Callable[[object], dict] | None = None


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Recorder:
    """Collects spans; safe to use from worker threads.

    A span opened on a thread with no open span of its own (a worker of a
    thread pool) takes the innermost span open on the recorder's own thread
    as its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count()

    def _parent(self) -> int | None:
        stack = self._stacks.get(threading.get_ident()) or self._stacks.get(self._owner)
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        counts: dict = {}
        with self._lock:
            span_id = next(self._ids)
            parent = self._parent()
            self._stacks.setdefault(threading.get_ident(), []).append(span_id)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            with self._lock:
                self._stacks[threading.get_ident()].pop()
                self.spans.append(Span(span_id, name, start, end, parent, "", counts))

    def _wrap(self, fn, hook: Hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(hook.stage) as counts:
                result = fn(*args, **kwargs)
                if hook.counts is not None:
                    counts.update(hook.counts(result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, hooks: Iterable[Hook]):
        """Install every hook; restore them all on exit.  A hook whose target
        is missing raises, so a moved call cannot turn its stage into 0."""
        undo = []
        try:
            for hook in hooks:
                owner = _resolve(hook.target)
                original = owner.__dict__[hook.attr]
                setattr(owner, hook.attr, self._wrap(original, hook))
                undo.append((owner, hook.attr, original))
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)



def dump(spans: Iterable[Span], path) -> None:
    with open(path, "w") as fh:
        json.dump([asdict(s) for s in spans], fh)
        fh.write("\n")


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_seconds(spans: list[Span], span: Span) -> float:
    """The span's duration minus the part of it that its children cover."""
    children = [(c.start, c.end) for c in spans if c.parent == span.id]
    return span.seconds - covered(children, span.start, span.end)
