"""Tests of the benchmark's own statistics.

Run from the root of a checkout::

    python3 -m pytest -q e2ebench/test_stats.py
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from spans import Span, Tracer, self_times  # noqa: E402
from stats import (  # noqa: E402
    open_loop_latencies, percentile, quartile_spread, summarize,
    tail_percentile)


# ----------------------------------------------------------------------
# the tail rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (1, None), (39, None),          # below forty samples: median only
    (40, 75.0), (99, 75.0),         # 40 * 0.25 = 10 beyond p75
    (100, 90.0), (199, 90.0),       # 100 * 0.10 = 10 beyond p90
    (200, 95.0), (999, 95.0),       # 200 * 0.05 = 10 beyond p95
    (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_every_reported_tail_has_ten_samples_beyond_it():
    for n in range(40, 3000, 7):
        q = tail_percentile(n)
        assert n * (100.0 - q) / 100.0 >= 10


def test_summarize_reports_only_the_median_below_forty():
    out = summarize(list(range(39)))
    assert out == {"n": 39, "p50": 19.0}
    out = summarize(list(range(200)))
    assert out["tail_q"] == 95.0
    assert out["tail"] == pytest.approx(percentile(list(range(200)), 95.0))


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 0) == 1
    assert percentile([1, 2, 3, 4, 5], 100) == 5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_spread_matches_statistics_quantiles():
    med, q1, q3, spread = quartile_spread([10.0, 11.0, 9.0, 10.5, 9.5])
    assert (q1, med, q3) == (9.25, 10.0, 10.75)
    assert spread == pytest.approx(0.15)


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, None)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, "step", 0.0, 10.0),
        _span(2, "solve", 1.0, 7.0, parent=1),
        _span(3, "rhs", 2.0, 3.0, parent=2),
        _span(4, "rhs", 4.0, 6.0, parent=2),
        _span(5, "readout", 8.0, 9.0, parent=1),
    ]
    own = self_times(spans)
    assert own["step"] == (pytest.approx(10.0 - 6.0 - 1.0), 1)
    assert own["solve"] == (pytest.approx(6.0 - 3.0), 1)
    assert own["rhs"] == (pytest.approx(3.0), 2)
    assert own["readout"] == (pytest.approx(1.0), 1)
    # Self times partition the root's interval.
    assert sum(t for t, _ in own.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        _span(1, "batch", 0.0, 10.0),
        _span(2, "a", 2.0, 5.0, parent=1),
        _span(3, "b", 4.0, 6.0, parent=1),       # overlaps a
        _span(4, "c", 9.0, 12.0, parent=1),      # runs past the parent
    ]
    own = self_times(spans)
    assert own["batch"][0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_records_parent_and_inherits_key():
    tracer = Tracer()
    with tracer.span("step", key="step-3") as outer:
        with tracer.span("solve") as inner:
            with tracer.span("rhs"):
                pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["step"].parent is None
    assert by_name["solve"].parent == outer
    assert by_name["rhs"].parent == inner
    assert {s.key for s in tracer.spans} == {"step-3"}
    own = self_times(tracer.spans)
    total = by_name["step"].duration
    assert sum(t for t, _ in own.values()) == pytest.approx(total)


# ----------------------------------------------------------------------
# open-loop latency
# ----------------------------------------------------------------------
def test_open_loop_latency_is_timed_from_the_due_time():
    # The second request was due at 1.0 but sent late, at 1.5, because
    # the first one stalled; its latency counts the stall.
    due = [0.0, 1.0, 2.0]
    replied = [1.6, 1.7, 2.1]
    assert open_loop_latencies(due, replied) == pytest.approx([1.6, 0.7, 0.1])


def test_open_loop_latency_rejects_bad_pairs():
    with pytest.raises(ValueError):
        open_loop_latencies([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        open_loop_latencies([1.0], [0.5])
