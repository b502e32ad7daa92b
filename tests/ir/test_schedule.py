"""The derived fold schedule against its oracle, a full-fabric event run.

``arrival_schedule`` simulates nothing: it derives every PE's arrival
order from the exchange protocol's timing, for a program with buffer
reuse (``repro.ir.schedule``'s docstring) — the only programs the fused
backend lowers.  The oracle is :func:`event_orders`, one event
application of the program on the unreduced shape.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CartesianMesh3D, FluidProperties
from repro.core.stencil import Connection
from repro.dataflow.program import FluxProgram
from repro.ir import derive_ir, lower_to_fused
from repro.ir import schedule as schedule_module
from repro.ir.fused import _fold_steps
from repro.ir.schedule import arrival_schedule, fold_program, schedule_classes
from repro.wse.perf import WSE2
from repro.wse.runtime import EventRuntime

OPTION_NAMES = ("reuse_buffers", "overlap_compute", "vectorized")
#: every option set fused lowers: buffer reuse (which needs overlap),
#: vectorized or scalar
OPTION_SETS = [
    {"reuse_buffers": True, "overlap_compute": True, "vectorized": vectorized}
    for vectorized in (True, False)
]
TIER1_SHAPES = [(nx, ny) for nx in range(1, 10) for ny in range(1, 10)] + [
    (24, 24),
    (25, 24),
    (33, 17),
]
SLOW_SHAPES = [(nx, ny) for nx in range(1, 14) for ny in range(1, 14)] + [
    (48, 48),
    (65, 47),
    (96, 64),
]


def _option_id(options):
    return "".join(
        name[0] if options[name] else "-" for name in OPTION_NAMES
    )


def event_orders(
    nx, ny, *, nz=1, dtype="float32", compute_fluxes=False, vectorized=True,
    pressure=0.0,
):
    """The oracle: each PE's X-Y arrival order, as connection names, in
    one event application of the buffer-reuse program on ``nx x ny``."""
    program = FluxProgram(
        CartesianMesh3D(nx, ny, nz),
        FluidProperties(),
        dtype=np.dtype(dtype).type,
        vectorized=vectorized,
        compute_fluxes=compute_fluxes,
    )
    orders = {}
    exchange, tasks = program.exchange, program.fabric.tasks
    for color, task in tasks.items():  # partial(on_data, conn)

        def capture(rt, pe, msg, _task=task):
            lx, ly, _pe = exchange.pes[pe.row]
            orders.setdefault((lx, ly), []).append(_task.args[0].name)
            _task(rt, pe, msg)

        tasks[color] = capture  # the runtime reads the table at call time
    program.load_pressure(np.full((nz, ny, nx), pressure))
    exchange.run(EventRuntime(program.fabric, WSE2))
    return {coord: tuple(order) for coord, order in orders.items()}


def _mismatches(shapes, options, **program):
    return [
        shape
        for shape in shapes
        if arrival_schedule(*shape)
        != event_orders(*shape, vectorized=options["vectorized"], **program)
    ]


def _spy_on_the_simulator(monkeypatch) -> list:
    """The names of every FluxProgram and EventRuntime constructed from
    here on, in order."""
    built = []
    for cls, method in ((FluxProgram, "__post_init__"), (EventRuntime, "__init__")):

        def spy(self, *args, _original=getattr(cls, method), **kwargs):
            built.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, spy)
    return built


@pytest.mark.parametrize("options", OPTION_SETS, ids=_option_id)
class TestTilingMatchesTheFullProbe:
    def test_small_and_threshold_shapes(self, options):
        assert _mismatches(TIER1_SHAPES, options) == []

    @pytest.mark.slow
    def test_sweep(self, options):
        """CI's conform job: a change to ``wse.runtime`` timing or the
        router cost model that the derivation does not follow fails here
        rather than silently changing fused's summation order."""
        assert _mismatches(SLOW_SHAPES, options) == []
        # a deep float64 program with the kernel on: the derivation is
        # handed none of the three
        deep = dict(nz=8, dtype="float64", compute_fluxes=True)
        assert _mismatches(SLOW_SHAPES, options, **deep) == []


class TestDerivedScheduleIsTheProbe:
    """No ``nz``, dtype, kernel or ``vectorized`` value reorders the
    full-fabric event run away from the derivation."""

    @settings(max_examples=100, deadline=None)
    @given(
        nx=st.integers(min_value=1, max_value=9),
        ny=st.integers(min_value=1, max_value=9),
        nz=st.integers(min_value=1, max_value=8),
        dtype=st.sampled_from(["float32", "float64"]),
        compute_fluxes=st.booleans(),
        options=st.sampled_from(OPTION_SETS),
    )
    def test_any_program_with_buffer_reuse(
        self, nx, ny, nz, dtype, compute_fluxes, options
    ):
        assert arrival_schedule(nx, ny) == event_orders(
            nx, ny, nz=nz, dtype=dtype, compute_fluxes=compute_fluxes,
            vectorized=options["vectorized"],
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("nz", [64, 200])
    @pytest.mark.parametrize("shape", [(4, 4), (5, 5)])
    def test_deep_columns(self, shape, nz, dtype):
        """Long trains and long receive bookings: ``W`` and ``F`` grow
        with ``nz``, the roles' order does not."""
        assert arrival_schedule(*shape) == event_orders(
            *shape, nz=nz, dtype=dtype, compute_fluxes=True
        )

    @pytest.mark.parametrize("shape", TIER1_SHAPES + SLOW_SHAPES[-3:])
    def test_the_tiling_law_follows_from_the_derivation(self, shape):
        """Derived over the whole fabric, every PE orders as its class's
        stand-in on the reduced fabric does."""
        whole = schedule_module._derive_schedule.__wrapped__(*shape)
        assert whole == arrival_schedule(*shape)

    def test_a_fused_lowering_builds_no_program_and_no_runtime(
        self, monkeypatch
    ):
        mesh = CartesianMesh3D(7, 6, 3)
        built = _spy_on_the_simulator(monkeypatch)
        for options in [{}, {"vectorized": False}, {"dtype": np.float64},
                        {"compute_fluxes": False}]:
            lower_to_fused(derive_ir(mesh, **options), mesh, FluidProperties())
        # a program without buffer reuse is refused, not probed
        with pytest.raises(ValueError, match="event backend"):
            lower_to_fused(
                derive_ir(mesh, reuse_buffers=False), mesh, FluidProperties()
            )
        assert built == []

    def test_the_module_imports_no_simulator(self):
        """``repro.ir.schedule`` loads neither the event program nor the
        wse layer, at module level or inside a function."""
        tree = ast.parse(Path(schedule_module.__file__).read_text())
        anywhere = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                anywhere += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                anywhere.append(node.module)
        simulator = [
            name for name in anywhere
            if name == "repro.dataflow.program" or name.startswith("repro.wse")
        ]
        assert simulator == []
        assert "repro.dataflow.cardinal" in anywhere  # the walk sees imports


class TestProbeInvariances:
    """What lets one derivation, handed no ``nz``, dtype or kernel,
    stand for every program with buffer reuse: an event run of the real
    program, on real pressure, orders the same."""

    @pytest.mark.parametrize(
        "nz, dtype, compute_fluxes",
        [
            (7, "float32", False),
            (1, "float64", False),
            (1, "float32", True),
            (5, "float64", True),
        ],
        ids=["nz", "dtype", "compute_fluxes", "all-three"],
    )
    @pytest.mark.parametrize("shape", [(4, 4), (5, 4), (5, 5)])
    def test_order_ignores_nz_dtype_and_the_flux_kernel(
        self, shape, nz, dtype, compute_fluxes
    ):
        assert event_orders(
            *shape, nz=nz, dtype=dtype, compute_fluxes=compute_fluxes,
            pressure=1.0e7,
        ) == arrival_schedule(*shape)


class TestScheduleShape:
    @pytest.mark.parametrize("shape", [(5, 5), (6, 6), (7, 12), (48, 48)])
    def test_few_orders_each_a_permutation_of_the_neighbours(self, shape):
        nx, ny = shape
        schedule = arrival_schedule(nx, ny)
        assert len(schedule) == nx * ny
        assert len(set(schedule.values())) <= 16
        xy = [c for c in Connection if c.offset[2] == 0]
        for (x, y), order in schedule.items():
            neighbours = {
                c.name
                for c in xy
                if 0 <= x + c.offset[0] < nx and 0 <= y + c.offset[1] < ny
            }
            assert len(order) == len(neighbours)
            assert set(order) == neighbours

    def test_only_reduced_fabrics_are_ever_derived(self, monkeypatch):
        """A fabric of any size derives its orders on its <= 5x5
        stand-in (the tiling law) and tiles them."""
        derived = []
        derive = schedule_module._derive_schedule

        def spy(nx, ny):
            derived.append((nx, ny))
            return derive(nx, ny)

        monkeypatch.setattr(schedule_module, "_derive_schedule", spy)
        for shape in [(6, 6), (48, 48), (65, 47), (750, 994), (3, 200)]:
            schedule_classes(*shape)
        assert derived == [(4, 4), (4, 4), (5, 5), (4, 4), (3, 4)]


class TestFoldPlan:
    @pytest.mark.parametrize("options", OPTION_SETS, ids=_option_id)
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 5), (5, 5), (6, 5), (7, 9), (24, 24)]
    )
    def test_plan_covers_each_pe_arrival_exactly_once(self, shape, options):
        """Project the fold program's lane masks onto each PE: the steps
        whose mask selects it are its own arrivals, in the order an
        event run of the program delivers them."""
        nx, ny = shape
        classes = schedule_classes(nx, ny)
        program = fold_program(classes)
        assert all(members for _name, members in program)
        steps = _fold_steps(classes, (ny + 2, nx + 2), np.dtype(np.float32))
        assert [conn.name for conn, _mask in steps] == [n for n, _m in program]
        rebuilt = {}
        for conn, mask in steps:
            assert mask.dtype == np.uint32 and mask.shape == ((ny + 2) * (nx + 2),)
            lanes = mask.reshape(ny + 2, nx + 2)
            assert set(np.unique(lanes)) <= {0, 0xFFFFFFFF}
            interior = lanes[1:-1, 1:-1]
            assert np.count_nonzero(lanes) == np.count_nonzero(interior) > 0
            for y, x in zip(*np.nonzero(interior)):
                rebuilt.setdefault((int(x), int(y)), []).append(conn.name)
        assert {
            coord: tuple(order) for coord, order in rebuilt.items()
        } == event_orders(nx, ny, vectorized=options["vectorized"])

    def test_masks_are_all_ones_words_of_the_dtype_width(self):
        classes = schedule_classes(7, 9)
        for _conn, mask in _fold_steps(classes, (11, 9), np.dtype(np.float64)):
            assert mask.dtype == np.uint64
            assert set(np.unique(mask)) == {0, 2**64 - 1}

    def test_interior_classes_are_stride_two_slices(self):
        classes = schedule_classes(48, 48)
        assert len(classes) == 16
        assert {
            (xs.start, xs.stop, xs.step) for _order, _ys, xs in classes
        } == {(0, 1, None), (1, 47, 2), (2, 47, 2), (47, 48, None)}
        # a common supersequence of 16 orders of <= 8 arrivals each, in
        # place of 84 class-slice adds
        assert 8 <= len(fold_program(classes)) <= 16
