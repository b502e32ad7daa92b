"""The tiled fold schedule against its oracle, the full-fabric probe.

``arrival_schedule`` only ever simulates a <= 5x5 fabric and tiles the
result by the period-2 law in ``repro.ir.schedule``'s docstring.  The
oracle is the *same* probe applied to the unreduced shape
(``probe_schedule.__wrapped__`` — past the cache, which must only hold
reduced shapes).
"""

from itertools import product

import numpy as np
import pytest

from repro.core import CartesianMesh3D, FluidProperties
from repro.core.stencil import Connection
from repro.dataflow.program import FluxProgram
from repro.ir import derive_ir, lower_to_fused
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


def full_fabric_probe(nx, ny, options):
    return probe_schedule.__wrapped__(
        nx, ny, *(options[name] for name in OPTION_NAMES)
    )


def _mismatches(shapes, options):
    return [
        shape
        for shape in shapes
        if arrival_schedule(*shape, **options)
        != full_fabric_probe(*shape, options)
    ]


@pytest.mark.parametrize("options", OPTION_SETS, ids=_option_id)
class TestTilingMatchesTheFullProbe:
    def test_small_and_threshold_shapes(self, options):
        assert _mismatches(TIER1_SHAPES, options) == []

    @pytest.mark.slow
    def test_sweep(self, options):
        """CI's conform job: a change to ``wse.runtime`` timing or the
        router cost model that breaks the period-2 law fails here rather
        than silently changing fused's summation order."""
        assert _mismatches(SLOW_SHAPES, options) == []


class TestProbeInvariances:
    """What lets one nz=1, float32, kernel-off probe stand for all."""

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
            orders.setdefault(pe.state["logical"], []).append(conn.name)
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
        probe_schedule.cache_clear()
        for shape in [(6, 6), (48, 48), (65, 47), (750, 994), (3, 200)]:
            schedule_classes(*shape)
        info = probe_schedule.cache_info()
        # 4x4, 4x4 again, 5x5, 4x4 again, 3x4
        assert (info.currsize, info.hits) == (3, 2)

    def test_illegal_option_set_raises_and_caches_nothing(self):
        probe_schedule.cache_clear()
        with pytest.raises(ValueError, match="overlap_compute=False"):
            arrival_schedule(
                8, 8, reuse_buffers=True, overlap_compute=False
            )
        assert probe_schedule.cache_info().currsize == 0


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
