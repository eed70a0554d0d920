"""In-memory span tracer for the benchmark's traced run.

The tracer replaces chosen public functions of the privlm modules with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Spans are kept in a list and turned into
per-layer numbers only after the run. Nothing under ``src/`` knows about it:
the wrappers are installed from the benchmark's own files and removed again
when a traced repetition ends, so untraced repetitions run the plain code.

Work a wrapper does for the benchmark itself (counting, output checks) runs
inside :meth:`Tracer.overhead`; its time is subtracted from every span that
was open, so layer timings and self times cover only program work.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    excluded: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start - self.excluded


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _finish(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._open.pop()

    @contextmanager
    def overhead(self):
        """Time spent in this block is removed from every open span."""
        t0 = perf_counter()
        try:
            yield
        finally:
            spent = perf_counter() - t0
            for idx in self._open:
                self.spans[idx].excluded += spent

    def _wrap(self, name: str, fn, annotate):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # One span per item produced; the consumer's work between items
            # is not part of the generator's time.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._finish(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._finish(idx)
            if annotate is not None:
                with tracer.overhead():
                    tracer.spans[idx].attrs.update(annotate(args, kwargs, result))
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, module, qualname: str, span_name: str, annotate=None) -> None:
        """Wrap ``module.qualname`` (a function or ``Class.method``).

        Plain functions are also replaced in every loaded module of the same
        package that imported them by name, so calls through
        ``from .corpus import minibatches`` are traced too.
        """
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span_name, raw.__func__, annotate))
            else:
                wrapped = self._wrap(span_name, raw, annotate)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self._wrap(span_name, original, annotate)
        package = module.__name__.partition(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != package:
                continue
            if vars(mod).get(attr) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def descendants_named(self, idx: int, name: str) -> int:
        """Number of spans called ``name`` below span ``idx``."""
        inside = {idx}
        count = 0
        for j in range(idx + 1, len(self.spans)):
            s = self.spans[j]
            if s.parent in inside:
                inside.add(j)
                count += s.name == name
        return count


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 90, with at least ten samples beyond it.

    Falls back to 50 when there are too few samples for any tail.
    """
    if n < 1:
        return 0
    return max(50, min(90, math.floor(100 * (1 - 10 / n))))


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
