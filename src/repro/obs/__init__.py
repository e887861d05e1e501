"""Observability: metrics, tracing, profiling for the whole stack.

Every layer of the reproduction self-reports through this facade --
the runner, the result cache, the link simulators, the TDMA inventory
and the harvesting chain all call the module-level helpers::

    from ..obs import obs_counter, obs_enabled, obs_span

    obs_counter("tdma.slots").inc(len(slots))
    with obs_span("experiment.fig15", seed=seed):
        ...

Observability is **off by default**: the helpers return shared null
objects whose mutators are no-ops, so un-instrumented runs pay one
function call per site.  ``experiments run --obs`` (or
:func:`activate_obs` in code) installs a live :class:`MetricsRegistry`,
:class:`Tracer` and :class:`EventLog` for the duration of a run scope:

    scope = activate_obs()
    try:
        ...instrumented work...
        snapshot = scope.registry.snapshot()
        trace = scope.tracer.to_chrome_trace()
    finally:
        restore_obs(scope)

Scopes save and restore the previous state, so nested activations (a
test inside an observed runner) behave like a stack.  See
``docs/OBSERVABILITY.md`` for the metric catalog and file formats.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, Optional, Union

from .._lazy import lazy_exports
from . import events, metrics, tracing

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".events": (
        "DEFAULT_EVENT_CAPACITY",
        "EventLog",
        "NULL_EVENT_LOG",
        "NullEventLog",
    ),
    ".metrics": (
        "Counter",
        "DEFAULT_BUCKETS",
        "Gauge",
        "Histogram",
        "METRICS_SCHEMA",
        "MetricsRegistry",
        "NULL_METRIC",
        "escape_label_value",
        "parse_series",
        "prometheus_name",
        "render_prometheus_text",
        "render_snapshot_text",
        "series_name",
    ),
    ".profiling": (
        "PROFILE_SCHEMA",
        "ProfileProbe",
        "peak_rss_kb",
        "validate_profile",
    ),
    ".tracing": (
        "NULL_TRACER",
        "NullTracer",
        "Span",
        "TRACE_SCHEMA",
        "Tracer",
        "validate_chrome_trace",
    ),
})
__all__ += [
    "ObsScope",
    "activate_obs",
    "obs_counter",
    "obs_enabled",
    "obs_event",
    "obs_events",
    "obs_gauge",
    "obs_histogram",
    "obs_registry",
    "obs_span",
    "obs_tracer",
    "observed",
    "restore_obs",
]


class ObsScope:
    """One live observability activation (registry + tracer + events)."""

    __slots__ = ("registry", "tracer", "events", "_previous")

    def __init__(self, registry: metrics.MetricsRegistry,
                 tracer: tracing.Tracer, events: events.EventLog,
                 previous: "_State"):
        self.registry = registry
        self.tracer = tracer
        self.events = events
        self._previous = previous

    def export(self) -> Dict[str, Any]:
        """Everything this scope collected, JSON-ready.

        The metrics snapshot with the event log folded in -- the
        payload the runner writes as ``metrics.json``.
        """
        payload = self.registry.snapshot()
        payload["events"] = self.events.snapshot()
        return payload


class _State:
    __slots__ = ("enabled", "registry", "tracer", "events")

    def __init__(self, enabled: bool,
                 registry: Union[metrics.MetricsRegistry, None],
                 tracer: Union[tracing.Tracer, tracing.NullTracer],
                 events: events.EventLog):
        self.enabled = enabled
        self.registry = registry
        self.tracer = tracer
        self.events = events


_state = _State(False, None, tracing.NULL_TRACER, events.NULL_EVENT_LOG)


def obs_enabled() -> bool:
    """Whether a live observability scope is installed."""
    return _state.enabled


def activate_obs(process_label: Optional[str] = None) -> ObsScope:
    """Install a fresh registry/tracer/event-log; returns the scope.

    Pair with :func:`restore_obs` (or use :func:`observed`); the scope
    remembers the state it replaced, so activations nest.
    """
    global _state
    previous = _state
    registry = metrics.MetricsRegistry()
    tracer = tracing.Tracer(process_label=process_label)
    log = events.EventLog()
    _state = _State(True, registry, tracer, log)
    return ObsScope(registry, tracer, log, previous)


def restore_obs(scope: ObsScope) -> None:
    """Tear down ``scope`` and restore whatever preceded it."""
    global _state
    _state = scope._previous


@contextmanager
def observed(process_label: Optional[str] = None) -> Iterator[ObsScope]:
    """``with observed() as scope:`` -- scoped activation."""
    scope = activate_obs(process_label)
    try:
        yield scope
    finally:
        restore_obs(scope)


def obs_registry() -> Optional[metrics.MetricsRegistry]:
    """The live registry, or None when observability is off."""
    return _state.registry


def obs_tracer() -> Union[tracing.Tracer, tracing.NullTracer]:
    """The live tracer (the shared null tracer when off)."""
    return _state.tracer


def obs_events() -> events.EventLog:
    """The live event log (a store-nothing one when off)."""
    return _state.events


def obs_counter(name: str, help: str = "") -> Any:
    """The named counter, or the shared no-op metric when off."""
    if not _state.enabled:
        return metrics.NULL_METRIC
    return _state.registry.counter(name, help)


def obs_gauge(name: str, help: str = "") -> Any:
    """The named gauge, or the shared no-op metric when off."""
    if not _state.enabled:
        return metrics.NULL_METRIC
    return _state.registry.gauge(name, help)


def obs_histogram(name: str, help: str = "",
                  buckets: Iterable[float] = metrics.DEFAULT_BUCKETS) -> Any:
    """The named histogram, or the shared no-op metric when off."""
    if not _state.enabled:
        return metrics.NULL_METRIC
    return _state.registry.histogram(name, help, buckets=buckets)


def obs_span(name: str, **args: Any) -> Any:
    """A span context manager on the live tracer (no-op when off)."""
    return _state.tracer.span(name, **args)


def obs_event(level: str, name: str, **fields: Any) -> None:
    """Record a structured event (always mirrored to python logging)."""
    _state.events.emit(level, name, **fields)
