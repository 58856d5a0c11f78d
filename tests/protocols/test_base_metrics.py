"""Pin the run-level ProtocolMetrics total to the dataclass's full field list.

``Cluster.total_metrics`` totals processors with the field-generic
:func:`repro.obs.metrics.sum_stats`, so a counter added later is
aggregated automatically.  The test below sets every field to a
distinct value, so any hand-copied field list that forgets one fails
on exactly that field's name.
"""

from dataclasses import fields

from repro.obs.metrics import sum_stats
from repro.protocols.base import ProtocolMetrics


def test_merge_covers_every_field():
    a = ProtocolMetrics()
    b = ProtocolMetrics()
    for index, spec in enumerate(fields(ProtocolMetrics), start=1):
        kind = type(getattr(a, spec.name))
        if kind is dict:
            setattr(a, spec.name, {"only-a": index, "both": 1})
            setattr(b, spec.name, {"only-b": 5, "both": 2})
        elif kind is list:
            setattr(a, spec.name, [float(index)])
            setattr(b, spec.name, [100.0])
        else:
            setattr(a, spec.name, index)
            setattr(b, spec.name, 100)
    merged = sum_stats([a, b])
    for index, spec in enumerate(fields(ProtocolMetrics), start=1):
        value = getattr(merged, spec.name)
        if isinstance(value, dict):
            assert value == {"only-a": index, "only-b": 5,
                             "both": 3}, spec.name
        elif isinstance(value, list):
            assert value == [float(index), 100.0], spec.name
        else:
            assert value == index + 100, spec.name


def test_merge_does_not_mutate_its_inputs():
    a = ProtocolMetrics(logical_reads=1, by_reason={"x": 1},
                        in_doubt_dwell=[1.0])
    b = ProtocolMetrics(logical_reads=2, by_reason={"x": 2})
    merged = sum_stats([a, b])
    assert merged.logical_reads == 3 and merged.by_reason == {"x": 3}
    assert a.logical_reads == 1 and a.by_reason == {"x": 1}
    assert b.logical_reads == 2 and b.by_reason == {"x": 2}
    alone = sum_stats([a])
    assert alone is not a
    assert alone.by_reason is not a.by_reason
    assert alone.in_doubt_dwell is not a.in_doubt_dwell
