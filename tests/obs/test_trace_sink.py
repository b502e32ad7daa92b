"""TraceSink: ring semantics, streaming aggregates, merge, heatmaps.

The heavyweight checks run one application of Algorithm 1 on a real 3x3
fabric and recount every aggregate brute-force from the retained
timeline — the streaming O(1) projections must match an exhaustive
recount exactly, and both must match the runtime's own counters.
"""

import json

import numpy as np
import pytest

from repro.core import CartesianMesh3D, FluidProperties, random_pressure
from repro.dataflow import WseFluxComputation
from repro.obs.trace import (
    DIRECTION_LABELS,
    LATENCY_BUCKETS,
    DeliveryRecord,
    TraceSink,
    latency_bucket_bounds,
    pack_link,
    unpack_link,
)
from repro.wse.geometry import Port


class FakeMsg:
    """Minimal message exposing the fields TraceSink.delivery reads."""

    def __init__(self, color=0, hops=1, source=(0, 0), born=0.0,
                 num_words=4, kind="data"):
        self.color = color
        self.hops = hops
        self.source = source
        self.born = born
        self.num_words = num_words
        self.kind = kind


def traced_run(capacity):
    """One 3x3 application with tracing; returns (sink, stats)."""
    mesh = CartesianMesh3D(3, 3, 4)
    wse = WseFluxComputation(
        mesh, FluidProperties(), dtype=np.float32,
        trace=True, trace_capacity=capacity,
    )
    result = wse.run_single(random_pressure(mesh, seed=0))
    return wse.trace_sink, result.stats


class TestRing:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceSink(capacity=0)
        with pytest.raises(ValueError):
            TraceSink(capacity=-3)
        assert TraceSink(capacity=None).ring.maxlen is None

    def test_wraparound_bounds_ring_not_aggregates(self):
        sink = TraceSink(capacity=8)
        for i in range(50):
            sink.delivery(float(i), (i % 3, 0), FakeMsg(color=i % 2))
        assert len(sink.ring) == 8
        assert sink.deliveries == 50  # aggregates saw every event
        # the ring retains exactly the most recent 8, oldest first
        times = [rec.time for rec in sink.timeline()]
        assert times == [float(i) for i in range(42, 50)]

    def test_timeline_yields_named_records(self):
        sink = TraceSink()
        msg = FakeMsg(color=3, hops=2)
        sink.delivery(5.0, (1, 2), msg)
        (rec,) = list(sink.timeline())
        assert isinstance(rec, DeliveryRecord)
        assert rec.time == 5.0
        assert rec.coord == (1, 2)
        assert rec.message is msg
        assert rec.color == 3 and rec.hops == 2
        # a record unpacks positionally as (time, coord, message)
        t, coord, m = rec
        assert (t, coord, m) == (5.0, (1, 2), msg)

    def test_clear_resets_everything(self):
        sink = TraceSink()
        sink.delivery(1.0, (0, 0), FakeMsg())
        sink._links[pack_link(0, 0, Port.EAST)] = [7, 1.5]
        sink.clear()
        assert sink.deliveries == 0
        assert len(sink.ring) == 0
        assert sink.link_words == {}


class TestLinkKeys:
    def test_pack_unpack_roundtrip(self):
        for x, y, port in [(0, 0, Port.NORTH), (5, 7, Port.WEST),
                           (757, 996, Port.RAMP)]:
            assert unpack_link(pack_link(x, y, port)) == (x, y, port)

    def test_latency_bucket_bounds(self):
        bounds = latency_bucket_bounds()
        assert len(bounds) == LATENCY_BUCKETS
        assert bounds[0] == (0.0, 1.0)
        assert bounds[1] == (1.0, 2.0)
        assert bounds[-1][1] == float("inf")
        # contiguous: each bucket starts where the previous ended
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo


class TestFabricRunBruteForce:
    """Streaming projections vs an exhaustive recount of the full ring."""

    @pytest.fixture(scope="class")
    def run(self):
        # capacity=None retains every delivery, so the ring IS the
        # ground truth the projections must reproduce
        return traced_run(None)

    def test_deliveries_match_runtime(self, run):
        sink, stats = run
        assert sink.deliveries == len(sink.ring)
        assert sink.deliveries == stats.messages_delivered

    def test_color_counters_match_recount(self, run):
        sink, _ = run
        messages, words, hops = {}, {}, {}
        for rec in sink.timeline():
            msg = rec.message
            messages[msg.color] = messages.get(msg.color, 0) + 1
            words[msg.color] = words.get(msg.color, 0) + msg.num_words
            hist = hops.setdefault(msg.color, {})
            hist[msg.hops] = hist.get(msg.hops, 0) + 1
        assert sink.color_messages == messages
        assert sink.color_words == words
        assert sink.color_hops == hops
        assert sink.total_words == sum(words.values())

    def test_hop_histogram_matches_recount(self, run):
        sink, _ = run
        expect = {}
        for rec in sink.timeline():
            expect[rec.hops] = expect.get(rec.hops, 0) + 1
        assert sink.hop_histogram() == expect

    def test_direction_latency_matches_recount(self, run):
        sink, _ = run
        expect = {}
        for rec in sink.timeline():
            msg = rec.message
            if msg.source is None:
                label = "unknown"
            else:
                dx = rec.coord[0] - msg.source[0]
                dy = rec.coord[1] - msg.source[1]
                sign = ((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))
                label = DIRECTION_LABELS[sign]
            bucket = min(int(rec.time - msg.born).bit_length(),
                         LATENCY_BUCKETS - 1)
            expect.setdefault(label, [0] * LATENCY_BUCKETS)[bucket] += 1
        assert sink.direction_latency == expect

    def test_link_totals_match_runtime_word_hops(self, run):
        sink, stats = run
        assert sink.link_word_hops == stats.fabric_word_hops
        assert sum(sink.link_words.values()) == stats.fabric_word_hops
        # the heatmap is a projection of the same per-link map
        grid = sink.heatmap(3, 3)
        assert grid.shape == (4, 3, 3)
        assert int(grid.sum()) == sum(
            words for key, (words, _) in sink._links.items()
            if unpack_link(key)[2] < 4
        )
        assert np.array_equal(sink.pe_heatmap(3, 3), grid.sum(axis=0))

    def test_small_ring_same_aggregates(self, run):
        """A tiny ring drops timeline records but not a single count."""
        full, _ = run
        small, stats = traced_run(16)
        assert len(small.ring) == 16
        assert small.deliveries == stats.messages_delivered
        assert small.color_messages == full.color_messages
        assert small.color_words == full.color_words
        assert small.color_hops == full.color_hops
        assert small.direction_latency == full.direction_latency
        assert small.link_words == full.link_words

    def test_as_dict_is_json_able_and_consistent(self, run):
        sink, stats = run
        doc = json.loads(json.dumps(sink.as_dict()))
        assert doc["deliveries"] == stats.messages_delivered
        assert doc["link_word_hops"] == stats.fabric_word_hops
        per_color = doc["per_color"]
        assert sum(c["messages"] for c in per_color.values()) == doc["deliveries"]


class TestMerge:
    def test_merge_sums_aggregates_and_extends_ring(self):
        a, b = TraceSink(capacity=64), TraceSink(capacity=64)
        for i in range(5):
            a.delivery(float(i), (1, 0), FakeMsg(color=0, hops=1, num_words=3))
        for i in range(7):
            b.delivery(float(i), (0, 1), FakeMsg(color=1, hops=2, num_words=2))
        b.delivery(9.0, (1, 0), FakeMsg(color=0, hops=1, num_words=3))
        a._links[pack_link(0, 0, Port.EAST)] = [10, 0.0]
        b._links[pack_link(0, 0, Port.EAST)] = [4, 2.5]
        b._links[pack_link(1, 1, Port.SOUTH)] = [6, 0.0]

        out = a.merge(b)
        assert out is a
        assert a.deliveries == 13
        assert a.color_messages == {0: 6, 1: 7}
        assert a.color_words == {0: 18, 1: 14}
        assert a.color_hops == {0: {1: 6}, 1: {2: 7}}
        assert a.link_words == {
            pack_link(0, 0, Port.EAST): 14,
            pack_link(1, 1, Port.SOUTH): 6,
        }
        assert a.link_wait == {pack_link(0, 0, Port.EAST): 2.5}
        assert len(a.ring) == 13
        # b is untouched
        assert b.deliveries == 8

    def test_merge_of_real_runs_matches_combined_counters(self):
        a, stats_a = traced_run(None)
        b, stats_b = traced_run(None)
        a.merge(b)
        assert a.deliveries == (
            stats_a.messages_delivered + stats_b.messages_delivered
        )
        assert a.link_word_hops == (
            stats_a.fabric_word_hops + stats_b.fabric_word_hops
        )
