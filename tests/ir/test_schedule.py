"""The derived fold schedule against its oracle, the full-fabric probe.

With buffer reuse ``arrival_schedule`` simulates nothing: it derives
every PE's arrival order from the exchange protocol's timing
(``repro.ir.schedule``'s docstring).  Without buffer reuse it probes a
<= 5x5 fabric and tiles the result.  The oracle of both is one event
application of the program on the unreduced shape
(``probe_schedule.__wrapped__`` — past the cache, which must only ever
hold reduced no-reuse shapes).
"""

import ast
from itertools import product
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
from repro.ir.schedule import (
    arrival_schedule,
    fold_program,
    probe_schedule,
    schedule_classes,
)
from repro.wse.perf import WSE2
from repro.wse.runtime import EventRuntime

OPTION_NAMES = ("reuse_buffers", "overlap_compute", "vectorized")
#: every legal (reuse_buffers, overlap_compute, vectorized)
OPTION_SETS = [
    dict(zip(OPTION_NAMES, bits))
    for bits in product((True, False), repeat=3)
    if bits[1] or not bits[0]
]
REUSE_OPTION_SETS = [o for o in OPTION_SETS if o["reuse_buffers"]]
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


def full_fabric_probe(nx, ny, options, **program):
    """The oracle: one event application of the program on ``nx x ny``;
    *program* is ``nz``, ``dtype`` (a name) and ``compute_fluxes``."""
    return probe_schedule.__wrapped__(
        nx, ny, *(options[name] for name in OPTION_NAMES), **program
    )


def _mismatches(shapes, options, **program):
    return [
        shape
        for shape in shapes
        if arrival_schedule(*shape, **options, **program)
        != full_fabric_probe(*shape, options, **program)
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
        router cost model that the derivation (or, without buffer reuse,
        the period-2 tiling) does not follow fails here rather than
        silently changing fused's summation order."""
        assert _mismatches(SLOW_SHAPES, options) == []
        if options["reuse_buffers"]:
            # a deep float64 program with the kernel on: the derivation
            # is handed none of the three
            deep = dict(nz=8, dtype="float64", compute_fluxes=True)
            assert _mismatches(SLOW_SHAPES, options, **deep) == []


class TestDerivedScheduleIsTheProbe:
    """With buffer reuse no ``nz``, dtype, kernel or ``vectorized``
    value reorders the full-fabric probe away from the derivation."""

    @settings(max_examples=100, deadline=None)
    @given(
        nx=st.integers(min_value=1, max_value=9),
        ny=st.integers(min_value=1, max_value=9),
        nz=st.integers(min_value=1, max_value=8),
        dtype=st.sampled_from(["float32", "float64"]),
        compute_fluxes=st.booleans(),
        options=st.sampled_from(REUSE_OPTION_SETS),
    )
    def test_any_program_with_buffer_reuse(
        self, nx, ny, nz, dtype, compute_fluxes, options
    ):
        program = dict(nz=nz, dtype=dtype, compute_fluxes=compute_fluxes)
        assert arrival_schedule(nx, ny, **options, **program) == (
            full_fabric_probe(nx, ny, options, **program)
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("nz", [64, 200])
    @pytest.mark.parametrize("shape", [(4, 4), (5, 5)])
    def test_deep_columns(self, shape, nz, dtype):
        """Long trains and long receive bookings: ``W`` and ``F`` grow
        with ``nz``, the roles' order does not."""
        options = REUSE_OPTION_SETS[0]
        program = dict(nz=nz, dtype=dtype, compute_fluxes=True)
        assert arrival_schedule(*shape) == (
            full_fabric_probe(*shape, options, **program)
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
        probe_schedule.cache_clear()
        built = _spy_on_the_simulator(monkeypatch)
        for options in [{}, {"vectorized": False}, {"dtype": np.float64},
                        {"compute_fluxes": False}]:
            lower_to_fused(derive_ir(mesh, **options), mesh, FluidProperties())
        assert built == []
        # the spy does see the probe that a no-reuse program still runs
        lower_to_fused(
            derive_ir(mesh, reuse_buffers=False), mesh, FluidProperties()
        )
        assert built == ["FluxProgram", "EventRuntime"]

    def test_the_module_imports_no_simulator(self):
        """``repro.ir.schedule`` loads neither the event program nor the
        wse layer; only the no-reuse probe imports them, when it runs."""
        tree = ast.parse(Path(schedule_module.__file__).read_text())
        module_level, anywhere = [], []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                anywhere.append(node.module)
        pending = list(tree.body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.Import):
                module_level += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module_level.append(node.module)
            else:
                pending.extend(ast.iter_child_nodes(node))
        simulator = [
            name for name in module_level
            if name == "repro.dataflow.program" or name.startswith("repro.wse")
        ]
        assert simulator == []
        assert "repro.dataflow.program" in anywhere  # the guard is not vacuous


class TestProbeInvariances:
    """What lets one derivation, handed no ``nz``, dtype or kernel,
    stand for every program with buffer reuse: a probe of the real
    program, on real pressure, orders the same."""

    @staticmethod
    def _orders(nx, ny, nz, dtype, compute_fluxes):
        program = FluxProgram(
            CartesianMesh3D(nx, ny, nz),
            FluidProperties(),
            dtype=dtype,
            compute_fluxes=compute_fluxes,
        )
        orders = {}
        original = program.exchange.on_data

        def capture(pe, msg, conn):
            lx, ly, _pe = program.exchange.pes[pe.row]
            orders.setdefault((lx, ly), []).append(conn.name)
            original(pe, msg, conn)

        program.exchange.on_data = capture
        program.load_pressure(np.full((nz, ny, nx), 1.0e7))
        program.exchange.run(EventRuntime(program.fabric, WSE2))
        return {coord: tuple(order) for coord, order in orders.items()}

    @pytest.mark.parametrize(
        "nz, dtype, compute_fluxes",
        [
            (7, np.float32, False),
            (1, np.float64, False),
            (1, np.float32, True),
            (5, np.float64, True),
        ],
        ids=["nz", "dtype", "compute_fluxes", "all-three"],
    )
    @pytest.mark.parametrize("shape", [(4, 4), (5, 4), (5, 5)])
    def test_order_ignores_nz_dtype_and_the_flux_kernel(
        self, shape, nz, dtype, compute_fluxes
    ):
        assert self._orders(*shape, nz, dtype, compute_fluxes) == (
            arrival_schedule(*shape)
        )


class TestWithoutBufferReuse:
    """Without buffer reuse the order follows ``nz``, the dtype and the
    flux kernel, so the probe runs the program's own values."""

    PROGRAMS = [
        (1, "float64", False),
        (2, "float32", True),
        (3, "float64", True),
    ]

    @pytest.mark.parametrize("nz, dtype, compute_fluxes", PROGRAMS)
    @pytest.mark.parametrize("overlap_compute", [True, False])
    @pytest.mark.parametrize("shape", [(5, 5), (7, 7), (9, 6)])
    def test_tiling_matches_the_full_probe_of_the_program(
        self, shape, overlap_compute, nz, dtype, compute_fluxes
    ):
        program = dict(nz=nz, dtype=dtype, compute_fluxes=compute_fluxes)
        options = dict(reuse_buffers=False, overlap_compute=overlap_compute)
        full = probe_schedule.__wrapped__(
            *shape, False, overlap_compute, True, nz, dtype, compute_fluxes
        )
        assert arrival_schedule(*shape, **options, **program) == full

    def test_the_canonical_probe_would_misorder_them(self):
        canonical = arrival_schedule(5, 5, reuse_buffers=False)
        assert all(
            arrival_schedule(
                5, 5, reuse_buffers=False, nz=nz, dtype=dtype,
                compute_fluxes=compute_fluxes,
            ) != canonical
            for nz, dtype, compute_fluxes in self.PROGRAMS
        )


class TestScheduleShape:
    @pytest.mark.parametrize("options", OPTION_SETS, ids=_option_id)
    @pytest.mark.parametrize("shape", [(5, 5), (6, 6), (7, 12), (48, 48)])
    def test_few_orders_each_a_permutation_of_the_neighbours(
        self, shape, options
    ):
        nx, ny = shape
        schedule = arrival_schedule(nx, ny, **options)
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

    def test_only_reduced_fabrics_are_ever_probed(self):
        """With buffer reuse nothing is probed; without, only the
        reduced stand-ins of each shape."""
        probe_schedule.cache_clear()
        shapes = [(6, 6), (48, 48), (65, 47), (750, 994), (3, 200)]
        for shape in shapes:
            schedule_classes(*shape)
            schedule_classes(*shape, vectorized=False)
        assert probe_schedule.cache_info().currsize == 0
        for shape in shapes:
            schedule_classes(*shape, reuse_buffers=False)
        info = probe_schedule.cache_info()
        # 4x4, 4x4 again, 5x5, 4x4 again, 3x4
        assert (info.currsize, info.hits) == (3, 2)

    def test_illegal_option_set_raises_and_caches_nothing(self, monkeypatch):
        """The program's own refusal, word for word, with no program
        built to raise it."""
        probe_schedule.cache_clear()
        built = _spy_on_the_simulator(monkeypatch)
        with pytest.raises(ValueError, match="overlap_compute=False") as derived:
            arrival_schedule(
                8, 8, reuse_buffers=True, overlap_compute=False
            )
        assert built == []
        assert probe_schedule.cache_info().currsize == 0
        with pytest.raises(ValueError) as program:
            FluxProgram(
                CartesianMesh3D(8, 8, 1), FluidProperties(),
                overlap_compute=False,
            )
        assert str(derived.value) == str(program.value)


class TestFoldPlan:
    @pytest.mark.parametrize("options", OPTION_SETS, ids=_option_id)
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 5), (5, 5), (6, 5), (7, 9), (24, 24)]
    )
    def test_plan_covers_each_pe_arrival_exactly_once(self, shape, options):
        """Project the fold program's lane masks onto each PE: the steps
        whose mask selects it are its own arrivals, in its own order."""
        nx, ny = shape
        classes = schedule_classes(nx, ny, **options)
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
        } == arrival_schedule(nx, ny, **options)

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
        unordered = schedule_classes(48, 48, reuse_buffers=False)
        assert len(fold_program(unordered)) <= 12

    @pytest.mark.parametrize(
        "options",
        [{}, {"reuse_buffers": False}, {"vectorized": False}],
        ids=["default", "no-reuse", "scalar"],
    )
    @pytest.mark.parametrize("shape", [(5, 5), (7, 9), (48, 48)])
    def test_annotation_is_per_class_and_expands_to_the_schedule(
        self, shape, options
    ):
        """``"fold_schedule"`` on a lowered IR: O(classes) entries, not
        O(PEs), that still say every PE's order."""
        nx, ny = shape
        mesh = CartesianMesh3D(nx, ny, 2)
        ir = derive_ir(mesh, **options)
        lower_to_fused(ir, mesh, FluidProperties())
        annotation = ir.annotations["fold_schedule"]
        assert len(annotation) <= (16 if min(shape) > 5 else nx * ny)
        expanded = {
            (x, y): tuple(entry["order"])
            for entry in annotation
            for y in range(*entry["y"])
            for x in range(*entry["x"])
        }
        # the lowered program's own schedule: nz and the kernel only
        # count without buffer reuse (module docstring)
        assert expanded == arrival_schedule(
            nx, ny, nz=mesh.nz, compute_fluxes=True, **options
        )
