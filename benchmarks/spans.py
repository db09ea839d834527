"""In-memory span tracer that wraps public functions of the ``eightvertex`` modules.

Nothing under ``src/`` is edited: while a :class:`Tracer` is installed, every
module attribute (and class attribute) that refers to a traced function is
replaced by a wrapper that records a span, and the originals are put back on
exit.  Spans nest by call order, so a layer's self time is its duration minus
the durations of its direct child spans.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# (span name, module, attribute, optional class holding the attribute).
# Hot per-step functions (``mcmc.step``, ``_LightChain.advance``) are left
# unwrapped on purpose: a wrapper per chain step would cost more than the step.
TARGETS = (
    ("cli.main", "eightvertex.cli", "main", None),
    ("graphs.parse", "eightvertex.graphs", "parse_graph", None),
    ("states.cycle_basis", "eightvertex.states", "cycle_basis", None),
    ("states.reference_orientation", "eightvertex.states",
     "reference_even_orientation", None),
    ("states.face_coloring", "eightvertex.states", "face_two_coloring", None),
    ("exact.census", "eightvertex.exact", "census_8v", None),
    ("exact.census", "eightvertex.exact", "census_ec", None),
    ("exact.evaluate", "eightvertex.exact", "evaluate", "Census"),
    ("exact.holant", "eightvertex.exact", "holant_exact", None),
    ("transforms.plan", "eightvertex.transforms", "plan_transform", None),
    ("transforms.in_yz", "eightvertex.transforms", "in_yz", None),
    ("mcmc.sample", "eightvertex.mcmc", "sample", None),
    ("estimator.schedule", "eightvertex.estimator", "build_schedule", None),
    ("estimator.anneal", "eightvertex.estimator", "anneal_estimate", None),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    end: float = 0.0
    states: int = 0  # census spans: states enumerated (2^dimension)
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Records spans while installed; use as a context manager around calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, clock(), stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].children_s += span.duration
            if name == "exact.census":
                span.states = 1 << result.dimension
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "eightvertex" or key.startswith("eightvertex.")
        ]
        for name, module_name, attr, owner in TARGETS:
            module = sys.modules[module_name]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one batch of spans (inclusive and self seconds, counts)."""
    out: dict[str, float] = {}

    def add(key: str, value: float):
        out[key] = out.get(key, 0.0) + value

    for span in spans:
        add(span.name + "_s", span.duration)
        add(span.name + "_self_s", span.self_s)
        add(span.name + "_calls", 1)
        if span.states:
            add(span.name + "_states", span.states)
    return out
