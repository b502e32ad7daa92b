"""Wafer-scale engine simulator: fabric, routers, PEs, DSD datapath.

This substrate stands in for the Cerebras CS-2 (paper Sec. 4): a 2D mesh
of processing elements with private single-level memories, connected by a
low-latency fabric routed per color, programmed by binding tasks to
colors.  The dataflow TPFA implementation (:mod:`repro.dataflow`) runs on
top of it.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "color": ("MAX_ROUTABLE_COLORS", "ColorAllocator"),
        "dsd": ("OP_FLOPS", "OP_TRAFFIC", "DsdEngine", "OpTraffic"),
        "fabric": ("WSE2_MAX_FABRIC", "Fabric"),
        "geometry": (
            "CARDINAL_PORTS",
            "Port",
            "in_bounds",
            "port_for_connection",
            "shift",
        ),
        "memory": (
            "WSE2_PE_MEMORY_BYTES",
            "Allocation",
            "PEMemoryError",
            "Scratchpad",
        ),
        "packet": ("KIND_CONTROL", "KIND_DATA", "WORD_BYTES", "Message"),
        "pe": ("ProcessingElement",),
        "perf": ("WSE2", "WsePerfModel"),
        "router": ("ColorConfig", "Router"),
        "runtime": ("EventRuntime", "RuntimeStats"),
    },
)

__all__ = [
    "ColorAllocator",
    "MAX_ROUTABLE_COLORS",
    "DsdEngine",
    "OpTraffic",
    "OP_TRAFFIC",
    "OP_FLOPS",
    "Fabric",
    "WSE2_MAX_FABRIC",
    "Port",
    "CARDINAL_PORTS",
    "shift",
    "in_bounds",
    "port_for_connection",
    "Scratchpad",
    "Allocation",
    "PEMemoryError",
    "WSE2_PE_MEMORY_BYTES",
    "Message",
    "KIND_DATA",
    "KIND_CONTROL",
    "WORD_BYTES",
    "ProcessingElement",
    "WsePerfModel",
    "WSE2",
    "Router",
    "ColorConfig",
    "EventRuntime",
    "RuntimeStats",
]
