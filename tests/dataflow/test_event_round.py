"""The event backend's per-round arithmetic (DESIGN.md §8 item 7).

The receive task books its cycles per delivery and logs the halo; the
face-flux arithmetic runs once per round over the whole PE-major block.
Pinned here:

* the bytes and counts of the per-delivery kernel this replaced
  (``TestParentBytes``: every value was computed with it and checked in);
* the structure — the kernel-call count per application does not grow
  with the PE count, and an aborted round leaks no halo into the next;
* event residual bytes == fused residual bytes on generated inputs.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dataflow.program as program_module
from repro.core import FluidProperties, PressureSequence
from repro.dataflow import SpareColumnRemap, WseFluxComputation
from repro.faults.errors import FabricStallError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFault
from repro.ir import derive_ir, lower_to_event, lower_to_fused
from repro.workloads import make_geomodel
from repro.wse.geometry import Port
from repro.wse.perf import WSE2
from repro.wse.runtime import EventBudgetError, EventRuntime

FLUID = FluidProperties()


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _memory_sha(program) -> str:
    """Every named allocation of every program PE, in logical PE order
    then allocation order: the whole PE-major block except the zero row
    padding no name covers (receive windows and scratch included)."""
    digest = hashlib.sha256()
    for _x, _y, pe in program.program_pes():
        for name in pe.memory.names():
            digest.update(pe.memory.array(name).tobytes())
    return digest.hexdigest()[:16]


class _Shas:
    """A ``record=`` sink keeping one residual sha per application."""

    def __init__(self):
        self.shas = []

    def record_step(self, _pressure, residual):
        self.shas.append(_sha(residual))


def _corrupting_link():
    plan = FaultPlan(seed=3, link_faults=(LinkFault(1, 1, Port.EAST, mode="corrupt"),))
    return FaultInjector(plan)


#: name -> (shape, applications, driver keywords); pressures are a
#: lognormal geomodel's PressureSequence, seed 7
CASES = {
    "24x24x8": ((24, 24, 8), 1, {}),
    "5x4x3-f64": ((5, 4, 3), 1, {"dtype": np.float64}),
    "7x6x5-no-reuse": ((7, 6, 5), 1, {"reuse_buffers": False}),
    "7x6x5-no-reuse-deferred": (
        (7, 6, 5), 1, {"reuse_buffers": False, "overlap_compute": False}
    ),
    "6x5x4-comm-only": ((6, 5, 4), 1, {"compute_fluxes": False}),
    "1x6x3": ((1, 6, 3), 1, {}),
    "6x1x3": ((6, 1, 3), 1, {}),
    "5x4x3-remap": (
        (5, 4, 3), 1, {"remap": SpareColumnRemap.around_dead_pes((5, 4), [(2, 1)])}
    ),
    "6x5x4-2-apps": ((6, 5, 4), 2, {}),
    "4x4x3-corrupt-link": ((4, 4, 3), 1, {"faults": "corrupt"}),
}


def _measure(name):
    """Everything a run exposes, for one case of :data:`CASES`."""
    (nx, ny, nz), apps, options = CASES[name]
    options = dict(options)
    if options.get("faults") == "corrupt":
        options["faults"] = _corrupting_link()
    mesh = make_geomodel(nx, ny, nz, kind="lognormal", seed=7)
    shas = _Shas()
    drv = WseFluxComputation(mesh, FLUID, record=shas, **options)
    result = drv.run(PressureSequence(mesh, num_applications=apps, seed=7))
    return {
        "residual": shas.shas,
        "device_cycles": result.device_cycles,
        "compute_cycles": result.compute_cycles,
        "flops": result.flops,
        "instruction_counts": list(result.instruction_counts.items()),
        "stats": dataclasses.astuple(result.stats),  # every field, declared order
        "memory": _memory_sha(drv.program),
    }


#: computed with the per-delivery kernel (one face-flux call per
#: received halo, ``pending_halos`` under ``overlap_compute=False``)
PARENT = {
    "24x24x8": {
        "residual": ["8fbf88f3b054f3c1"],
        "device_cycles": 861.0,
        "compute_cycles": 721664.0,
        "flops": 597184,
        "instruction_counts": [
            ("AUX_FEXP", 4608), ("FSUB", 170624), ("FMUL", 255936), ("FADD", 42656),
            ("FMA", 42656), ("FNEG", 42656), ("FMOV", 69184),
        ],
        "stats": (16228, 6912, 6532, 380, 0, 4512, 106720, 2, 0),
        "memory": "ec67907e5dd79590",
    },
    "5x4x3-f64": {
        "residual": ["39e54e0201ebfce3"],
        "device_cycles": 329.0,
        "compute_cycles": 7120.0,
        "flops": 5740,
        "instruction_counts": [
            ("AUX_FEXP", 60), ("FSUB", 1640), ("FMUL", 2460), ("FADD", 410),
            ("FMA", 410), ("FNEG", 410), ("FMOV", 660),
        ],
        "stats": (494, 240, 172, 68, 0, 142, 2126, 2, 0),
        "memory": "fde9d7f92e92e245",
    },
    "7x6x5-no-reuse": {
        "residual": ["d8899965b0a40bf9"],
        "device_cycles": 801.0,
        "compute_cycles": 30284.0,
        "flops": 23044,
        "instruction_counts": [
            ("AUX_FEXP", 210), ("FSUB", 6584), ("FMUL", 9876), ("FADD", 1646),
            ("FMA", 1646), ("FNEG", 1646), ("FMOV_LOCAL", 2100), ("FMOV", 2620),
        ],
        "stats": (1092, 504, 404, 100, 0, 310, 4182, 2, 0),
        "memory": "6f9a879192c628ad",
    },
    "7x6x5-no-reuse-deferred": {
        "residual": ["e24affca203d2ffa"],
        "device_cycles": 641.0,
        "compute_cycles": 30284.0,
        "flops": 23044,
        "instruction_counts": [
            ("AUX_FEXP", 210), ("FSUB", 6584), ("FMUL", 9876), ("FADD", 1646),
            ("FMA", 1646), ("FNEG", 1646), ("FMOV_LOCAL", 2100), ("FMOV", 2620),
        ],
        "stats": (1092, 504, 404, 100, 0, 310, 4182, 2, 0),
        "memory": "43e2d1a789d050e2",
    },
    "6x5x4-comm-only": {
        "residual": ["4b48f21a4b7a02bf"],
        "device_cycles": 113.0,
        "compute_cycles": 2864.0,
        "flops": 0,
        "instruction_counts": [
            ("AUX_FEXP", 120), ("FMOV", 1424),
        ],
        "stats": (764, 360, 276, 84, 0, 218, 2306, 2, 0),
        "memory": "37b00446b57dfa20",
    },
    "1x6x3": {
        "residual": ["888f735798288e65"],
        "device_cycles": 167.0,
        "compute_cycles": 1032.0,
        "flops": 756,
        "instruction_counts": [
            ("AUX_FEXP", 18), ("FSUB", 216), ("FMUL", 324), ("FADD", 54),
            ("FMA", 54), ("FNEG", 54), ("FMOV", 60),
        ],
        "stats": (108, 72, 20, 52, 0, 34, 130, 1, 0),
        "memory": "a7fd5978259a36e3",
    },
    "6x1x3": {
        "residual": ["888f735798288e65"],
        "device_cycles": 167.0,
        "compute_cycles": 1032.0,
        "flops": 756,
        "instruction_counts": [
            ("AUX_FEXP", 18), ("FSUB", 216), ("FMUL", 324), ("FADD", 54),
            ("FMA", 54), ("FNEG", 54), ("FMOV", 60),
        ],
        "stats": (108, 72, 20, 52, 0, 34, 130, 1, 0),
        "memory": "c4dc80564ffa61a4",
    },
    "5x4x3-remap": {
        "residual": ["6895632e55215b28"],
        "device_cycles": 311.0,
        "compute_cycles": 7120.0,
        "flops": 5740,
        "instruction_counts": [
            ("AUX_FEXP", 60), ("FSUB", 1640), ("FMUL", 2460), ("FADD", 410),
            ("FMA", 410), ("FNEG", 410), ("FMOV", 660),
        ],
        "stats": (494, 240, 172, 68, 0, 142, 1094, 2, 0),
        "memory": "d206797f3461094b",
    },
    "6x5x4-2-apps": {
        "residual": ["bd97b64a984b41b8", "4f491520bcfa4d01"],
        "device_cycles": 842.0,
        "compute_cycles": 30704.0,
        "flops": 24976,
        "instruction_counts": [
            ("AUX_FEXP", 240), ("FSUB", 7136), ("FMUL", 10704), ("FADD", 1784),
            ("FMA", 1784), ("FNEG", 1784), ("FMOV", 2848),
        ],
        "stats": (1528, 720, 552, 168, 0, 436, 4612, 2, 0),
        "memory": "bfe7003b51b980bc",
    },
    "4x4x3-corrupt-link": {
        "residual": ["f18171d576d67465"],
        "device_cycles": 311.0,
        "compute_cycles": 5504.0,
        "flops": 4424,
        "instruction_counts": [
            ("AUX_FEXP", 48), ("FSUB", 1264), ("FMUL", 1896), ("FADD", 316),
            ("FMA", 316), ("FNEG", 316), ("FMOV", 504),
        ],
        "stats": (388, 192, 132, 60, 0, 112, 840, 2, 0),
        "memory": "92018f14e8fbce20",
    },
}


class TestParentBytes:
    @pytest.mark.parametrize("name", list(CASES))
    def test_bytes_and_counts(self, name):
        assert _measure(name) == PARENT[name]


# ---------------------------------------------------------------------- #
# Structure
# ---------------------------------------------------------------------- #
@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts every face-flux kernel call of the event program's round
    hooks."""
    calls = []
    original = program_module.face_flux

    def spy(*args):
        calls.append(args)
        original(*args)

    monkeypatch.setattr(program_module, "face_flux", spy)
    return calls


class TestKernelCalls:
    @staticmethod
    def _calls_per_application(calls, shape):
        mesh = make_geomodel(*shape, kind="lognormal", seed=7)
        drv = WseFluxComputation(mesh, FLUID)
        pressures = PressureSequence(mesh, num_applications=2, seed=7)
        drv.run([pressures.field(0)])
        calls.clear()
        drv.run([pressures.field(1)])
        return len(calls)

    def test_the_call_count_does_not_grow_with_the_fabric(self, kernel_calls):
        small = self._calls_per_application(kernel_calls, (4, 4, 3))
        large = self._calls_per_application(kernel_calls, (24, 24, 8))
        # the per-delivery kernel made 2 * 576 + 4 324 = 5 476 at 24x24x8
        assert small == large <= 3


class TestAbortedRound:
    """A round the runtime cuts short leaves no halo for the next one:
    beginning a round clears the log."""

    @staticmethod
    def _abort(program, how):
        if how == "budget":
            rt = EventRuntime(program.fabric, WSE2)
            program.exchange.begin(rt)
            with pytest.raises(EventBudgetError):
                rt.run(max_events=300)
        else:
            delay = LinkFault(1, 1, Port.EAST, mode="delay", delay_cycles=5e4)
            rt = EventRuntime(
                program.fabric,
                WSE2,
                faults=FaultInjector(FaultPlan(seed=1, link_faults=(delay,))),
                watchdog_cycles=1e3,
            )
            program.exchange.begin(rt)
            with pytest.raises(FabricStallError):
                rt.run()

    @pytest.mark.parametrize("how", ["budget", "stall"])
    @pytest.mark.parametrize(
        "options",
        [{}, {"reuse_buffers": False, "overlap_compute": False}],
        ids=["overlap", "deferred"],
    )
    def test_beginning_a_round_clears_the_log(self, how, options):
        mesh = make_geomodel(5, 4, 3, kind="lognormal", seed=7)
        program = WseFluxComputation(mesh, FLUID, **options).program
        pressure = PressureSequence(mesh, num_applications=1, seed=7).field(0)
        program.load_pressure(pressure)
        self._abort(program, how)
        assert program.round_log  # the cut came after some deliveries
        program.exchange.begin(EventRuntime(program.fabric, WSE2))
        assert program.round_log == []


# ---------------------------------------------------------------------- #
# Event == fused on generated inputs (ROADMAP item 1's event row)
# ---------------------------------------------------------------------- #
#: the program options the fused backend lowers (buffer reuse only)
FUSED_OPTIONS = [
    {},
    {"compute_fluxes": False},
    {"vectorized": False},
]


@settings(max_examples=15, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=7),
    ny=st.integers(min_value=1, max_value=7),
    nz=st.integers(min_value=1, max_value=4),
    dtype=st.sampled_from([np.float32, np.float64]),
    options=st.sampled_from(FUSED_OPTIONS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_event_residual_bytes_equal_fused(nx, ny, nz, dtype, options, seed):
    mesh = make_geomodel(nx, ny, nz, kind="lognormal", seed=seed)
    ir = derive_ir(mesh, dtype=dtype, **options)
    pressure = PressureSequence(mesh, num_applications=1, seed=seed).field(0)
    event = lower_to_event(ir, mesh, FLUID).run_single(pressure).residual
    fused = lower_to_fused(ir, mesh, FLUID).run([pressure]).residual
    assert event.dtype == fused.dtype == np.dtype(dtype)
    assert event.tobytes() == fused.tobytes()
