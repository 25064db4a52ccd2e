"""Structured tracing with dual clocks: simulated time and wall-clock time.

The paper's argument is about *where* work happens — duplicated contract
execution on every node (§I), compute moved to data instead of data to
compute (§IV).  This tracer makes that placement visible: every span records
which operation ran, under which parent, for how long in real time, and (when
a simulation kernel is bound) at what simulated time.

Design constraints:

- **Near-zero overhead when disabled.**  Tracing is off by default;
  :func:`trace_span` then returns a shared no-op span without allocating a
  real :class:`Span`, so instrumented hot paths cost one global read and one
  dict build per call.
- **Context-propagated nesting.**  The active span is tracked in a
  ``contextvars.ContextVar``, so parent/child links are correct across
  nested ``with`` blocks and across threads (each thread sees its own
  active-span chain).
- **Cross-process portability.**  :class:`Span` is a plain dataclass of
  primitives, picklable, with ids unique across processes (the pid is part
  of the id), so an RPC server can ship its spans back to the caller and
  :meth:`Tracer.adopt` can stitch them under the calling span.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

_SPAN_IDS = itertools.count(1)


def _new_span_id() -> str:
    """Process-unique, cross-process-collision-free span id."""
    return f"{os.getpid():x}-{next(_SPAN_IDS):x}"


@dataclass
class Span:
    """One completed (or in-flight) traced operation."""

    name: str
    span_id: str
    parent_id: Optional[str] = None
    start_wall_s: float = 0.0
    end_wall_s: float = 0.0
    start_sim_s: Optional[float] = None
    end_sim_s: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    pid: int = 0

    @property
    def wall_s(self) -> float:
        return max(0.0, self.end_wall_s - self.start_wall_s)

    @property
    def sim_s(self) -> float:
        if self.start_sim_s is None or self.end_sim_s is None:
            return 0.0
        return max(0.0, self.end_sim_s - self.start_sim_s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_wall_s": self.start_wall_s,
            "end_wall_s": self.end_wall_s,
            "wall_s": self.wall_s,
            "start_sim_s": self.start_sim_s,
            "end_sim_s": self.end_sim_s,
            "attrs": self.attrs,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start_wall_s=data.get("start_wall_s", 0.0),
            end_wall_s=data.get("end_wall_s", 0.0),
            start_sim_s=data.get("start_sim_s"),
            end_sim_s=data.get("end_sim_s"),
            attrs=dict(data.get("attrs") or {}),
            pid=data.get("pid", 0),
        )


# The active span id for the *current* execution context (thread/task).
_ACTIVE_SPAN: ContextVar[Optional[str]] = ContextVar("repro_active_span", default=None)


class _ActiveSpan:
    """Context manager recording one span on enter/exit."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span
        self._token = None

    @property
    def span_id(self) -> str:
        return self._span.span_id

    def set_attr(self, key: str, value: Any) -> None:
        self._span.attrs[key] = value

    def set_attrs(self, **attrs: Any) -> None:
        self._span.attrs.update(attrs)

    def begin(self) -> "_ActiveSpan":
        """Start the span without making it the context's active span.

        For spans one coroutine holds open side by side, such as one per
        site of a fan-out, which end out of nesting order; :meth:`end`
        records it.  Nothing opened meanwhile nests under it.
        """
        span = self._span
        if span.parent_id is None:
            span.parent_id = _ACTIVE_SPAN.get()
        source = self._tracer.sim_time_source
        if source is not None:
            span.start_sim_s = source()
        span.start_wall_s = perf_counter()
        return self

    def end(self) -> None:
        """Stop the span and record it."""
        span = self._span
        span.end_wall_s = perf_counter()
        source = self._tracer.sim_time_source
        if source is not None:
            span.end_sim_s = source()
        self._tracer.spans.append(span)

    def __enter__(self) -> "_ActiveSpan":
        self.begin()
        self._token = _ACTIVE_SPAN.set(self._span.span_id)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            _ACTIVE_SPAN.reset(self._token)
            self._token = None
        self.end()


class _NoopSpan:
    """Shared do-nothing span handle returned while tracing is disabled."""

    __slots__ = ()
    span_id = None

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def set_attrs(self, **attrs: Any) -> None:
        pass

    def begin(self) -> "_NoopSpan":
        return self

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects spans; bind ``sim_time_source`` to also record kernel time."""

    def __init__(self, sim_time_source: Optional[Callable[[], float]] = None):
        self.spans: List[Span] = []
        self.sim_time_source = sim_time_source

    def span(
        self, name: str, parent_id: Optional[str] = None, **attrs: Any
    ) -> _ActiveSpan:
        """Open a span; nests under the context's active span by default."""
        span = Span(
            name=name,
            span_id=_new_span_id(),
            parent_id=parent_id,
            attrs=attrs,
            pid=os.getpid(),
        )
        return _ActiveSpan(self, span)

    def bind_kernel(self, kernel: Any) -> None:
        """Record simulated time from a :class:`repro.sim.kernel.Kernel`."""
        self.sim_time_source = lambda: kernel.now

    def adopt(self, spans: Iterable[Span], parent_id: Optional[str] = None) -> None:
        """Absorb spans shipped from a worker, re-parenting orphan roots.

        Workers (other threads/processes) have no view of the coordinator's
        span stack; their root spans arrive with ``parent_id=None`` and are
        attached under ``parent_id`` so the trace tree stays connected.
        """
        for span in spans:
            if span.parent_id is None:
                span.parent_id = parent_id
            self.spans.append(span)

    def export(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans]

    def clear(self) -> None:
        self.spans = []


# -- module-level tracer management ------------------------------------------
#
# Two layers: a process-wide default (set by ``enable``/``disable``) and a
# per-context override (used by an RPC server to capture one request's spans
# without racing the process's own tracer).

_default_tracer: Optional[Tracer] = None
_override_tracer: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_tracer_override", default=None
)


def current_tracer() -> Optional[Tracer]:
    """The tracer in effect for this context, or None when disabled."""
    override = _override_tracer.get()
    if override is not None:
        return override
    return _default_tracer


def enable(sim_time_source: Optional[Callable[[], float]] = None) -> Tracer:
    """Install (and return) a fresh process-wide tracer."""
    global _default_tracer
    _default_tracer = Tracer(sim_time_source)
    return _default_tracer


def disable() -> None:
    """Drop the process-wide tracer; :func:`trace_span` becomes a no-op."""
    global _default_tracer
    _default_tracer = None


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Install an existing tracer process-wide (None to disable)."""
    global _default_tracer
    _default_tracer = tracer


@contextmanager
def tracer_override(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Temporarily route this context's spans to ``tracer``."""
    token = _override_tracer.set(tracer)
    try:
        yield tracer
    finally:
        _override_tracer.reset(token)


@contextmanager
def collect_spans(
    sim_time_source: Optional[Callable[[], float]] = None,
) -> Iterator[Tracer]:
    """Capture this context's spans into a fresh, isolated tracer.

    The serving layer uses this per request: the handler's spans land in the
    yielded tracer (never the process default), so they can be shipped back
    to the caller in the RPC response envelope and re-parented there via
    :meth:`Tracer.adopt` — cross-process trace propagation without any
    shared collector.
    """
    collector = Tracer(sim_time_source)
    token = _override_tracer.set(collector)
    # The caller's active-span chain belongs to the *other* side of the
    # boundary; detach it so the collected roots arrive with parent_id=None
    # and adopt() can re-parent them deterministically.
    span_token = _ACTIVE_SPAN.set(None)
    try:
        yield collector
    finally:
        _ACTIVE_SPAN.reset(span_token)
        _override_tracer.reset(token)


def tracing_enabled() -> bool:
    return current_tracer() is not None


def current_span_id() -> Optional[str]:
    """Id of the innermost open span in this context (None outside spans)."""
    return _ACTIVE_SPAN.get()


def trace_span(name: str, **attrs: Any):
    """Open a span on the current tracer, or a shared no-op when disabled.

    This is the one instrumentation entry point; hot paths call it
    unconditionally::

        with trace_span("contract.apply", kind=tx.kind) as span:
            receipt = ...
            span.set_attr("gas", receipt.gas_used)
    """
    tracer = current_tracer()
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)
