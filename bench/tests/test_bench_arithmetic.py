"""Span self times, yardstick normalisation, quartiles and tails."""

import pytest

import run
import spans
import yardstick


def _span(id_, parent, start, end, name="x"):
    return {"id": id_, "parent": parent, "run": "r", "name": name, "start": start, "end": end}


def test_self_time_is_duration_minus_what_children_cover():
    recorded = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 0, 3.0, 6.0, "a"),   # overlaps the first child: union is 1..6
        _span(3, 1, 2.0, 3.0, "leaf"),
        _span(4, 0, 9.0, 12.0, "late"),  # sticks out: only 9..10 is covered
    ]
    selfs = spans.self_times(recorded)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert spans.self_time_by_name(recorded)["a"] == [pytest.approx(2.0), pytest.approx(3.0)]


def test_recorder_nests_and_graft_renumbers():
    rec = spans.Recorder(run="child")
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    assert [s["parent"] for s in rec.spans] == [None, 0]
    target = [_span(0, None, 0.0, 1.0, "bench.child")]
    spans.graft(target, rec.spans, parent=0, run="child3")
    assert [(s["id"], s["parent"], s["run"]) for s in target[1:]] == [
        (1, 0, "child3"), (2, 1, "child3"),
    ]
    with spans.NullRecorder().span("ignored") as nothing:
        assert nothing is None


def test_normalise_is_seconds_on_the_reference_machine():
    ref = yardstick.YARD_REF_S
    # the host ran the yardstick twice as slowly as the reference machine
    assert yardstick.normalise(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert yardstick.normalise(3.0, ref, 3 * ref) == pytest.approx(1.5)
    # work that is only half interpreter-bound slowed by sqrt(2), not 2
    assert yardstick.normalise(3.0, 2 * ref, 2 * ref, 0.5) == pytest.approx(3.0 / 2**0.5)
    assert yardstick.normalise(3.0, 2 * ref, 2 * ref, 0.0) == 3.0


def test_bracket_takes_one_yardstick_sample_per_back_to_back_call():
    bracket = yardstick.Bracket()
    assert len(bracket.yard_samples) == 1
    for _ in range(3):
        result, raw, reported = bracket.measure(lambda: 42, 0.5)
        assert result == 42 and raw >= 0 and reported >= 0
    # the sample after one call is the sample before the next
    assert len(bracket.yard_samples) == 4
    assert bracket.yard_ms() > 0 and yardstick.yard_np_ms() > 0


def test_low_quartile():
    assert yardstick.low_quartile([5.0]) == 5.0
    assert yardstick.low_quartile([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    # a burst of slow samples does not move it
    assert yardstick.low_quartile([1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0]) == 1.0


def test_summary_and_tail():
    s = run.summary([1.0, 2.0, 3.0, 4.0, 5.0], "s")
    assert (s["value"], s["n"], s["unit"]) == (3.0, 5, "s")
    assert s["q1"] < 3.0 < s["q3"]
    assert run.summary([2.5], "MiB")["q1"] == 2.5
    assert run.tail([1.0] * 19) == (50.0, 1.0)
    pct, value = run.tail(list(range(100)))
    assert pct == 90.0 and value == 89  # ten samples (90..99) lie beyond it
