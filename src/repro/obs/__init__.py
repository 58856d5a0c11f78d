"""Observability: structured tracing, metrics, and trace tooling.

The subsystem has four pieces:

* :mod:`repro.obs.events` — the typed trace event model (message
  send/recv/drop, view-formation phases, lock waits, R5 recovery
  reads, transaction outcomes), all stamped with simulated time;
* :mod:`repro.obs.trace` — the :class:`Tracer` recorder, wired through
  ``Cluster(trace=True)``;
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry,
  loaded at the end of a run from the components' stats dataclasses
  by one generic export (:func:`~repro.obs.metrics.load_stats`);
* :mod:`repro.obs.export` / :mod:`repro.obs.analyze` — deterministic
  JSONL traces and the analyzer that reconstructs per-view timelines,
  message breakdowns, and lock-wait distributions from them
  (``repro trace`` / ``repro metrics`` on the command line).
"""

from .analyze import TraceAnalyzer, ViewFormation, vpid_key
from .events import TraceEvent, jsonable
from .export import dumps_jsonl, event_line, read_jsonl, write_jsonl
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LogBucketHistogram,
    MetricsRegistry,
)
from .trace import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LogBucketHistogram",
    "MetricsRegistry",
    "TraceAnalyzer",
    "TraceEvent",
    "Tracer",
    "ViewFormation",
    "dumps_jsonl",
    "event_line",
    "jsonable",
    "read_jsonl",
    "vpid_key",
    "write_jsonl",
]
