"""Self-test of the measurement helpers: ``python3 benchmarks/e2e/selftest.py``.

Covers the percentile, block-median, geomean and span self-time
arithmetic the reported numbers rest on.  Plain asserts, no pytest: the
file must not be collected by the repository's tier-1 run.
"""

import math
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402


def check_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50.5
    assert measure.percentile(values, 95) == 95.05
    assert measure.percentile(values, 0) == 1
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([7.0], 95) == 7.0
    shuffled = [3, 1, 2]
    assert measure.percentile(shuffled, 50) == 2
    assert shuffled == [3, 1, 2], "input must not be reordered"
    # 100 samples: ranks 95..99 lie beyond the interpolated p95.
    assert measure.samples_beyond(100, 95) == 5
    assert measure.samples_beyond(1060, 95) == 53


def check_blocks():
    rates = measure.block_rates([100, 100, 100], [1.0, 2.0, 4.0])
    assert rates == [100.0, 50.0, 25.0]
    assert statistics.median(rates) == 50.0
    assert measure.block_spread(rates) == 1.5


def check_geomean():
    # A cheap kind with many samples and a dear kind with few weigh the
    # same: geomean of the per-kind medians 1 and 100.
    latencies = [1.0] * 9 + [100.0]
    kinds = [0] * 9 + [1]
    assert math.isclose(measure.kind_geomean(latencies, kinds), 10.0)


def check_quartiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = measure.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert math.isclose(measure.iqr_share(values), (q3 - q1) / q2)
    assert measure.quartiles([4.0]) == (4.0, 4.0, 4.0)


def check_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = measure.Tracer(clock=lambda: next(ticks))
    tracer.op = 7
    with tracer.span("op"):            # 0 .. 10
        with tracer.span("parse"):     # 1 .. 3
            pass
        with tracer.span("eval"):      # 4 .. 6
            pass
    names = [span[0] for span in tracer.spans]
    assert names == ["op", "parse", "eval"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    assert all(span[4] == 7 for span in tracer.spans)
    assert tracer.self_times() == [6.0, 2.0, 2.0]
    assert tracer.durations()["eval"] == [2.0]
    assert measure.self_time_by_name(tracer.spans) == {
        "op": 6.0, "parse": 2.0, "eval": 2.0,
    }
    # Overlapping and overhanging children are clipped and merged, so
    # no instant is subtracted twice.
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 4.0, 7.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],
    ]
    assert measure.span_self_times(spans)[0] == 10.0 - (6.0 + 1.0)


def main():
    for check in (check_percentile, check_blocks, check_geomean,
                  check_quartiles, check_spans):
        check()
        print("ok  %s" % check.__name__)


if __name__ == "__main__":
    main()
