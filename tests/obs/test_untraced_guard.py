"""Guard: disabled observability must add zero work or allocations.

The runtime's hop and delivery (_transmit/_deliver) carry a trace
branch, and only a traced or faulted runtime calls them: an untraced
drain runs their inlined bodies, which have none — no sink object, no
record tuples, no aggregate updates.  The poison test
proves the branch is never entered: any attribute access or call on the
planted objects raises.  The same holds for phase spans: with no
recorder installed, a fused construction + run must never build a span.
"""

import numpy as np
import pytest

from repro.wse.fabric import Fabric
from repro.wse.geometry import Port
from repro.wse.perf import WsePerfModel
from repro.wse.runtime import EventRuntime

COLOR = 0


class _Poison:
    """Raises on any use — planted where a traced runtime caches sink
    internals, so a single touched trace instruction fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"untraced hot path touched trace state ({name})")

    def __call__(self, *args, **kwargs):
        raise AssertionError("untraced hot path appended a trace record")


def make_untraced_runtime():
    fabric = Fabric(3, 3)
    rt = EventRuntime(fabric, WsePerfModel())  # no trace_sink: untraced
    fabric.configure_color(
        COLOR,
        lambda c: [
            {
                Port.RAMP: (Port.EAST,),
                Port.WEST: (Port.SOUTH,),
                Port.NORTH: (Port.RAMP,),
            }
        ],
    )
    return fabric, rt


class TestUntracedDefaults:
    def test_no_sink_is_created(self):
        _, rt = make_untraced_runtime()
        assert rt.trace_sink is None
        assert rt._trace is False
        # the cached hot-path bindings only exist on traced runtimes
        assert not hasattr(rt, "_sink_agg")
        assert not hasattr(rt, "_sink_links")
        assert not hasattr(rt, "_sink_ring_append")

    def test_hot_path_never_touches_trace_state(self):
        fabric, rt = make_untraced_runtime()
        # plant poison where the traced fast path would look
        rt._sink_ring_append = _Poison()
        rt._sink_agg = _Poison()
        rt._sink_links = _Poison()
        delivered = []
        fabric.bind_all(COLOR, lambda r, pe, m: delivered.append(pe.coord))
        for _ in range(5):
            rt.inject((0, 0), COLOR, np.zeros(4, dtype=np.float32))
        rt.run()  # any per-event trace work would raise AssertionError
        assert delivered == [(1, 1)] * 5
        assert rt.stats.messages_delivered == 5
        assert rt.stats.fabric_word_hops > 0  # counters still accrue

    def test_injected_sink_implies_tracing(self):
        from repro.obs.trace import TraceSink

        fabric = Fabric(2, 1)
        sink = TraceSink(capacity=8)
        rt = EventRuntime(fabric, WsePerfModel(), trace_sink=sink)
        assert rt._trace is True
        assert rt.trace_sink is sink
        fabric.configure_color(
            COLOR, lambda c: [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.RAMP,)}]
        )
        rt.inject((0, 0), COLOR, np.zeros(1, dtype=np.float32))
        rt.run()
        assert sink.deliveries == 1
        # a caller-owned sink survives reset (the runtime doesn't own it)
        rt.reset()
        assert sink.deliveries == 1


class TestUnrecordedSpans:
    def test_fused_setup_and_fold_never_build_a_span(self, monkeypatch):
        from repro.core import CartesianMesh3D, FluidProperties
        from repro.ir import derive_ir, lower_to_fused
        from repro.obs import spans

        assert spans.get_recorder() is None
        # plant poison where an installed recorder would construct spans
        monkeypatch.setattr(spans, "Span", _Poison())
        monkeypatch.setattr(spans, "_SpanContext", _Poison())
        mesh = CartesianMesh3D(7, 6, 2)
        drv = lower_to_fused(derive_ir(mesh), mesh, FluidProperties())
        result = drv.run([np.full(mesh.shape_zyx, 1.0e7)])
        assert result.applications == 1
