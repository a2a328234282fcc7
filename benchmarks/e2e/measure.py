"""Measurement helpers: order statistics, block medians, and spans.

Pure functions over lists of numbers plus the in-memory span recorder
the traced run uses.  Nothing here imports ``repro``; ``selftest.py``
exercises every helper.
"""

import json
import math
import statistics
import time


def percentile(values, q):
    """The ``q``-th percentile (0-100) by linear interpolation between
    the two nearest order statistics; ``q=50`` is the median."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count, q):
    """How many of ``count`` samples lie strictly beyond percentile
    ``q`` — the support a reported tail percentile stands on."""
    return count - int(math.floor((count - 1) * q / 100.0)) - 1


def block_rates(op_counts, seconds):
    """Per-block throughput: ops of each block ÷ its wall time."""
    return [n / s for n, s in zip(op_counts, seconds)]


def block_spread(rates):
    """(max − min) ÷ median of the block throughputs."""
    return (max(rates) - min(rates)) / statistics.median(rates)


def kind_geomean(latencies, kinds):
    """Geometric mean over op kinds of each kind's median latency, so a
    cheap kind and a dear kind weigh the same."""
    by_kind = {}
    for latency, kind in zip(latencies, kinds):
        by_kind.setdefault(kind, []).append(latency)
    return statistics.geometric_mean(
        [statistics.median(v) for v in by_kind.values()]
    )


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them —
    the same estimator the acceptance driver uses."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


class Tracer:
    """Records spans in memory; written out only when the run ends.

    A span is ``[name, start, end, parent, op]``: ``parent`` is the
    index of the enclosing span (-1 at top level) and ``op`` the id all
    spans of one operation share.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._clock = clock
        self._stack = []
        self.op = -1

    def span(self, name):
        return _Span(self, name)

    def durations(self):
        """``{span name: [duration]}`` over everything recorded."""
        by_name = {}
        for name, start, end, _parent, _op in self.spans:
            by_name.setdefault(name, []).append(end - start)
        return by_name

    def self_times(self):
        """Self time per span index: its duration minus the part of it
        its child spans cover."""
        return span_self_times(self.spans)

    def write_chrome(self, path, limit=50000):
        """Dump the first ``limit`` spans as a Chrome-trace JSON file."""
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"op": op, "parent": parent},
            }
            for name, start, end, parent, op in self.spans[:limit]
        ]
        with open(path, "w") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": {"spans_recorded": len(self.spans),
                               "spans_written": len(events)}},
                handle,
            )


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, -1, tracer.op]

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        record = self.record
        if stack:
            record[3] = stack[-1]
        stack.append(len(tracer.spans))
        tracer.spans.append(record)
        record[1] = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.record[2] = self.tracer._clock()
        self.tracer._stack.pop()
        return False


def span_self_times(spans):
    """``[self_time]`` parallel to ``spans``.

    Child intervals are clipped to the parent and merged before being
    subtracted, so overlapping or overhanging children are not counted
    twice.
    """
    children = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    result = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()),
                            key=lambda i: spans[i][1]):
            c_start = max(spans[child][1], cursor)
            c_end = min(spans[child][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def self_time_by_name(spans):
    """Total self time per span name."""
    totals = {}
    for span, own in zip(spans, span_self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals
