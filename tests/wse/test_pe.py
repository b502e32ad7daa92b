"""Unit tests for the processing element and the tasks it runs."""

import numpy as np
import pytest

from repro.wse.fabric import Fabric
from repro.wse.geometry import Port
from repro.wse.packet import KIND_CONTROL, KIND_DATA
from repro.wse.pe import ProcessingElement
from repro.wse.runtime import EventRuntime


@pytest.fixture
def pe():
    return ProcessingElement(coord=(2, 3))


def _east_pair(*colors) -> Fabric:
    """A 2x1 fabric on which (0, 0) sends each of *colors* to (1, 0)."""
    fabric = Fabric(2, 1)
    for color in colors:
        fabric.router(0, 0).configure(color, [{Port.RAMP: (Port.EAST,)}])
        fabric.router(1, 0).configure(color, [{Port.WEST: (Port.RAMP,)}])
    return fabric


def _send(fabric, color, kind=KIND_DATA) -> EventRuntime:
    rt = EventRuntime(fabric)
    payload = np.zeros(1, dtype=np.float32) if kind == KIND_DATA else None
    rt.inject((0, 0), color, payload, kind=kind)
    rt.run()
    return rt


class TestBindings:
    """Tasks are bound per color for the whole fabric
    (`Fabric.bind_all`); the runtime runs the one a wavelet's color and
    kind select, with the receiving PE as its argument."""

    def test_data_handler_dispatch(self):
        fabric = _east_pair(4)
        calls = []
        fabric.bind_all(4, lambda rt, p, m: calls.append((p, m.color)))
        _send(fabric, 4)
        assert calls == [(fabric.pe(1, 0), 4)]
        assert calls[0][0] is fabric.pe(1, 0)

    def test_control_handler_separate(self):
        fabric = _east_pair(4)
        hits = []
        fabric.bind_all(4, lambda rt, p, m: hits.append(("data", p.coord)))
        fabric.bind_all(4, lambda rt, p, m: hits.append(("ctrl", p.coord)), control=True)
        _send(fabric, 4, KIND_CONTROL)
        assert hits == [("ctrl", (1, 0))]
        _send(fabric, 4)
        assert hits == [("ctrl", (1, 0)), ("data", (1, 0))]

    def test_unbound_returns_none(self):
        """An unbound color (or kind) is delivered and runs nothing."""
        fabric = _east_pair(9)
        fabric.bind_all(9, lambda rt, p, m: p.dsd.fadds(np.empty(4), 1.0, 2.0))
        rt = _send(fabric, 9, KIND_CONTROL)
        pe = fabric.pe(1, 0)
        assert rt.stats.messages_delivered == pe.messages_received == 1
        assert pe.dsd.flops == 0 and pe.busy_until == 0.0
        fabric = _east_pair(9)
        rt = _send(fabric, 9)
        assert rt.stats.messages_delivered == 1
        assert fabric.pe(1, 0).busy_until == 0.0

    def test_double_bind_rejected(self):
        fabric = Fabric(1, 1)
        fabric.bind_all(1, lambda rt, p, m: None)
        with pytest.raises(ValueError, match="already bound"):
            fabric.bind_all(1, lambda rt, p, m: None)

    def test_double_control_bind_rejected(self):
        fabric = Fabric(1, 1)
        fabric.bind_all(1, lambda rt, p, m: None)  # the data task is another
        fabric.bind_all(1, lambda rt, p, m: None, control=True)
        with pytest.raises(ValueError, match="already bound"):
            fabric.bind_all(1, lambda rt, p, m: None, control=True)


class TestState:
    def test_coordinates(self, pe):
        assert pe.coord == (2, 3)
        assert pe.x == 2
        assert pe.y == 3

    def test_default_memory_is_wse2(self, pe):
        assert pe.memory.capacity == 48 * 1024

    def test_dsd_engine_attached(self, pe):
        pe.dsd.fadds(np.empty(2), 1.0, 2.0)
        assert pe.dsd.flops == 2

    def test_counters_start_zero(self, pe):
        assert pe.messages_received == 0
        assert pe.words_sent == 0
        assert pe.busy_until == 0.0
        assert pe.row == -1  # runs no program yet

    def test_a_fabric_pe_starts_as_a_constructed_one(self):
        """`ProcessingElement.grid` builds a fabric's PEs without a
        constructor call each: every slot holds what `__init__` sets."""
        fabric = Fabric(3, 2, vectorized=False)
        built = fabric.pe(2, 1)
        made = ProcessingElement((2, 1), index=5)
        for name in ProcessingElement.__slots__:
            if name not in ("dsd", "_memory", "_fabric"):
                assert getattr(built, name) == getattr(made, name), name
        assert built.dsd == type(made.dsd)(vectorized=False)
        assert built._fabric is fabric and built._memory is None
        assert [pe.index for pe in fabric.pes()] == list(range(6))
