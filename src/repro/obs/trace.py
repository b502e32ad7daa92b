"""Streaming trace aggregation: bounded ring + O(1)-per-event statistics.

A traced event run (``EventRuntime(trace_sink=...)``, the sink owned
by the caller: the event driver's, so it aggregates a whole
multi-application run) streams every delivery and hop into a
:class:`TraceSink` instead of an unbounded list of deliveries, which
dominated memory at benchmark-scale event counts (ROADMAP: "trace
compression for large runs").  The sink keeps

* a **bounded ring** of the most recent deliveries (``capacity``
  records; ``None`` keeps everything for tiny debugging fabrics) — the
  per-delivery timeline of ``examples/communication_trace.py``;
* **streaming aggregates** updated in O(1) per event: per-color message
  and word counters, per-color hop histograms, per-direction end-to-end
  latency histograms (log2 buckets of cycles), and a per-link traffic
  map over the fabric (words per directed link, plus accumulated
  contention wait) that renders as a per-PE heatmap.

The sink's two hot entry points — :meth:`delivery` and the inlined
per-hop link accounting (the runtime updates the internal ``_links``
map directly) — are written as a single dict lookup plus in-place list
increments so a traced run stays cheap (the ``bench/`` ledger's
``obs.trace_overhead_frac``); all public views are read-time projections.

Link keys pack the sender's coordinate,
``((x << 16) | y) << 3 | out_port`` (see :func:`pack_link` /
:func:`unpack_link`): the traced runtime packs them from its
``coords[index]`` per hop (its own link-busy map is keyed by the PE's
row-major index, ``index << 3 | out_port``).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, NamedTuple

import numpy as np

from repro.wse.geometry import Port

__all__ = [
    "DeliveryRecord",
    "TraceSink",
    "pack_link",
    "unpack_link",
    "latency_bucket_bounds",
    "DIRECTION_LABELS",
]

#: Number of log2 latency buckets: bucket ``i`` counts latencies whose
#: integer cycle count has bit length ``i`` (i.e. in ``[2^(i-1), 2^i)``;
#: bucket 0 is sub-cycle).  The last bucket absorbs everything larger.
LATENCY_BUCKETS = 24

#: Compass label of a delivery by the sign of its source -> target
#: displacement (x grows east, y grows south, the fabric convention).
DIRECTION_LABELS = {
    (0, -1): "N", (1, -1): "NE", (1, 0): "E", (1, 1): "SE",
    (0, 1): "S", (-1, 1): "SW", (-1, 0): "W", (-1, -1): "NW",
    (0, 0): "local",
}


def pack_link(x: int, y: int, port: int) -> int:
    """Pack a directed link (PE coordinate + out port) into one int."""
    return (((x << 16) | y) << 3) | port


def unpack_link(key: int) -> tuple[int, int, Port]:
    """Invert :func:`pack_link` -> ``(x, y, out_port)``."""
    port = Port(key & 0b111)
    xy = key >> 3
    return xy >> 16, xy & 0xFFFF, port


def latency_bucket_bounds() -> list[tuple[float, float]]:
    """Half-open cycle ranges ``[lo, hi)`` of each latency bucket."""
    bounds = [(0.0, 1.0)]
    for i in range(1, LATENCY_BUCKETS):
        bounds.append((float(2 ** (i - 1)), float(2**i)))
    lo, _ = bounds[-1]
    bounds[-1] = (lo, float("inf"))
    return bounds


class DeliveryRecord(NamedTuple):
    """One delivered message in the ring timeline.

    A named tuple so consumers address fields by name
    (``rec.time``/``rec.coord``/``rec.message``) instead of silently
    depending on positional layout, while old ``for t, coord, msg in
    ...`` unpacking keeps working.
    """

    time: float
    coord: tuple[int, int]
    message: object

    @property
    def color(self) -> int:
        return self.message.color

    @property
    def hops(self) -> int:
        return self.message.hops


class TraceSink:
    """Bounded delivery ring plus streaming per-event aggregates.

    Parameters
    ----------
    capacity:
        Ring size in delivery records.  ``None`` keeps every delivery
        (only sensible for tiny fabrics / protocol debugging); the
        aggregates are unaffected by the choice.
    """

    def __init__(self, capacity: int | None = 1024) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None)")
        self.capacity = capacity
        #: Plain ``(time, coord, msg)`` tuples — cheaper to append than a
        #: NamedTuple; :meth:`timeline` wraps them in DeliveryRecord.
        self.ring: deque[tuple] = deque(maxlen=capacity)
        self._ring_append = self.ring.append
        #: The single hot-path aggregate: ``(color, hops, sign dx,
        #: sign dy, latency bucket) -> [messages, words]``.  One dict
        #: lookup per delivery; every public view (per-color counters,
        #: hop histograms, direction latency) is a projection of this at
        #: read time.  Sign 2 marks a source-less (unknown) direction.
        self._agg: dict[tuple, list] = {}
        #: packed link key -> [words transmitted, contention wait cycles].
        #: The runtime updates this directly on its per-hop path (one
        #: dict lookup per hop); :attr:`link_words` / :attr:`link_wait`
        #: are read-time projections.
        self._links: dict[int, list] = {}

    # ------------------------------------------------------------------ #
    # Hot path
    # ------------------------------------------------------------------ #
    def delivery(self, time: float, coord: tuple[int, int], msg) -> None:
        """Record one delivered message (O(1) time and memory)."""
        self._ring_append((time, coord, msg))
        source = msg.source
        if source is None:
            sdx = sdy = 2
        else:
            dx = coord[0] - source[0]
            dy = coord[1] - source[1]
            sdx = (dx > 0) - (dx < 0)
            sdy = (dy > 0) - (dy < 0)
        bucket = int(time - msg.born).bit_length()
        if bucket >= LATENCY_BUCKETS:
            bucket = LATENCY_BUCKETS - 1
        key = (msg.color, msg.hops, sdx, sdy, bucket)
        agg = self._agg.get(key)
        if agg is None:
            agg = self._agg[key] = [0, 0]
        agg[0] += 1
        agg[1] += msg.num_words

    # The per-hop side has no method: the runtime updates ``_links``
    # directly with the key it packs per hop (one dict lookup per hop
    # keeps traced runs inside the overhead budget).

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def merge(self, other: "TraceSink") -> "TraceSink":
        """Accumulate *other*'s aggregates (and ring tail) into this sink."""
        for key, (msgs, words) in other._agg.items():
            mine = self._agg.get(key)
            if mine is None:
                mine = self._agg[key] = [0, 0]
            mine[0] += msgs
            mine[1] += words
        for key, (words, wait) in other._links.items():
            mine_l = self._links.get(key)
            if mine_l is None:
                mine_l = self._links[key] = [0, 0.0]
            mine_l[0] += words
            mine_l[1] += wait
        self.ring.extend(other.ring)
        return self

    # ------------------------------------------------------------------ #
    # Derived views (projections of the composite-key aggregate)
    # ------------------------------------------------------------------ #
    @property
    def deliveries(self) -> int:
        """Deliveries observed (the ring may hold fewer)."""
        return sum(agg[0] for agg in self._agg.values())

    @property
    def color_messages(self) -> dict[int, int]:
        """color -> delivered message count."""
        out: dict[int, int] = {}
        for (color, *_), (msgs, _) in self._agg.items():
            out[color] = out.get(color, 0) + msgs
        return out

    @property
    def color_words(self) -> dict[int, int]:
        """color -> delivered words."""
        out: dict[int, int] = {}
        for (color, *_), (_, words) in self._agg.items():
            out[color] = out.get(color, 0) + words
        return out

    @property
    def color_hops(self) -> dict[int, dict[int, int]]:
        """color -> {hops: count} histogram at delivery."""
        out: dict[int, dict[int, int]] = {}
        for (color, hops, *_), (msgs, _) in self._agg.items():
            hist = out.setdefault(color, {})
            hist[hops] = hist.get(hops, 0) + msgs
        return out

    @property
    def direction_latency(self) -> dict[str, list[int]]:
        """direction label -> log2 latency histogram (injection->delivery)."""
        out: dict[str, list[int]] = {}
        for (_, _, sdx, sdy, bucket), (msgs, _) in self._agg.items():
            label = DIRECTION_LABELS.get((sdx, sdy), "unknown")
            hist = out.get(label)
            if hist is None:
                hist = out[label] = [0] * LATENCY_BUCKETS
            hist[bucket] += msgs
        return out
    @property
    def total_words(self) -> int:
        """Words delivered (sum over colors)."""
        return sum(agg[1] for agg in self._agg.values())

    @property
    def link_words(self) -> dict[int, int]:
        """packed link key -> words transmitted over that directed link."""
        return {key: agg[0] for key, agg in self._links.items()}

    @property
    def link_wait(self) -> dict[int, float]:
        """packed link key -> accumulated contention wait (cycles)."""
        return {key: agg[1] for key, agg in self._links.items() if agg[1] > 0.0}

    @property
    def link_word_hops(self) -> int:
        """Total link traffic in word-hops; matches
        ``RuntimeStats.fabric_word_hops`` for the same run."""
        return sum(agg[0] for agg in self._links.values())

    def hop_histogram(self) -> dict[int, int]:
        """Hop histogram over all colors."""
        out: dict[int, int] = {}
        for (_, hops, *_), (msgs, _) in self._agg.items():
            out[hops] = out.get(hops, 0) + msgs
        return out

    def heatmap(self, width: int, height: int) -> np.ndarray:
        """Per-link traffic as a ``(4, height, width)`` word-count array.

        Axis 0 is the out-port (NORTH, EAST, SOUTH, WEST) of the sending
        PE; sum over axis 0 for a per-PE outbound-traffic heatmap.
        """
        grid = np.zeros((4, height, width), dtype=np.int64)
        for key, (words, _) in self._links.items():
            x, y, port = unpack_link(key)
            if port < 4 and x < width and y < height:
                grid[port, y, x] += words
        return grid

    def pe_heatmap(self, width: int, height: int) -> np.ndarray:
        """Outbound words per PE: ``(height, width)``."""
        return self.heatmap(width, height).sum(axis=0)

    def timeline(self) -> Iterator[DeliveryRecord]:
        """The retained delivery records, oldest first."""
        return map(DeliveryRecord._make, self.ring)

    def as_dict(self) -> dict:
        """JSON-able snapshot of every aggregate (ring excluded)."""
        messages = self.color_messages
        words = self.color_words
        hops = self.color_hops
        return {
            "capacity": self.capacity,
            "deliveries": self.deliveries,
            "retained": len(self.ring),
            "total_words": self.total_words,
            "link_word_hops": self.link_word_hops,
            "per_color": {
                str(color): {
                    "messages": messages[color],
                    "words": words[color],
                    "hops": {
                        str(h): n for h, n in sorted(hops[color].items())
                    },
                }
                for color in sorted(messages)
            },
            "direction_latency_log2": {
                label: list(hist)
                for label, hist in sorted(self.direction_latency.items())
            },
            "links": {
                f"{x},{y}:{port.name}": {
                    "words": words,
                    "wait_cycles": round(wait, 3),
                }
                for key, (words, wait) in sorted(self._links.items())
                for x, y, port in (unpack_link(key),)
            },
        }
