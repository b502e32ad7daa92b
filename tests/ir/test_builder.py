"""Compiler vs capture: ``derive_ir(mesh, ...) == build_ir(program)``.

The byte-for-byte invariant pins the closed-form derivation to what the
runtime actually installs — if either side drifts (a route formula, an
allocation order, a color id), the serialized documents stop matching.
"""

import gc

import numpy as np
import pytest

from repro.check import check_ir
from repro.core import CartesianMesh3D, FluidProperties
from repro.dataflow.cardinal import CARDINAL_CHANNELS
from repro.dataflow.diagonal import DIAGONAL_CHANNELS
from repro.dataflow.mapping import SpareColumnRemap
from repro.dataflow.program import FluxProgram
from repro.ir import KIND_FABRIC, build_ir, derive_exchange, derive_ir
from repro.util.jsonio import stable_dumps

VARIANTS = {
    "default": {},
    "float64": {"dtype": np.float64},
    "no-reuse": {"reuse_buffers": False},
    "no-overlap": {"reuse_buffers": False, "overlap_compute": False},
    "comm-only": {"compute_fluxes": False},
}


#: the blocks of a program IR that `derive_exchange` derives on its own
EXCHANGE_BLOCKS = (
    "colors", "routes", "expected_receivers", "injectors", "contracts", "remap",
)


def _program(dims, **kwargs) -> FluxProgram:
    return FluxProgram(CartesianMesh3D(*dims), FluidProperties(), **kwargs)


def _assert_exchange_of(ir, remap=None):
    """`derive_exchange` of *ir*'s footprint is *ir*'s exchange half, byte
    for byte, with no memory plan of its own."""
    nx, ny, _nz = ir.mesh_shape
    exchange = derive_exchange(nx, ny, remap=remap)
    assert exchange.kind == KIND_FABRIC
    for block in EXCHANGE_BLOCKS:
        assert stable_dumps(exchange.doc[block]) == stable_dumps(ir.doc[block])
    envelope = ("width", "height", "bypass_columns")
    assert exchange.doc["fabric"] == {k: ir.doc["fabric"][k] for k in envelope}
    assert exchange.doc["memory"]["classes"] == []
    assert set(exchange.doc["memory"]["assignment"]) == {-1}
    return exchange


class TestCompilerMatchesCapture:
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_derive_equals_build_byte_for_byte(self, name):
        kwargs = VARIANTS[name]
        program = _program((4, 3, 4), **kwargs)
        derived = derive_ir(program.mesh, **kwargs)
        captured = build_ir(program)
        assert derived.dumps() == captured.dumps()

    def test_remap_variant_matches(self):
        remap = SpareColumnRemap.around_dead_pes((6, 5), [(2, 1)])
        mesh = CartesianMesh3D(6, 5, 4)
        program = FluxProgram(mesh, FluidProperties(), remap=remap)
        derived = derive_ir(mesh, remap=remap)
        assert derived.dumps() == build_ir(program).dumps()

    def test_repeated_derivation_is_deterministic(self):
        mesh = CartesianMesh3D(5, 4, 3)
        assert derive_ir(mesh).dumps() == derive_ir(mesh).dumps()


class TestClosedForm:
    """`derive_ir` evaluates the channel formulas along one line per
    cardinal channel and broadcasts; `build_ir` walks every live router.
    Odd/even footprints and 1-wide meshes have different boundary
    classes (PR 12), so the whole small-shape square is swept."""

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_every_shape_up_to_9x9_matches_the_capture(self, name):
        kwargs = VARIANTS[name]
        for nx in range(1, 10):
            for ny in range(1, 10):
                program = _program((nx, ny, 3), **kwargs)
                derived = derive_ir(program.mesh, **kwargs)
                assert derived.dumps() == build_ir(program).dumps(), (nx, ny)
                _assert_exchange_of(derived)

    def test_check_ir_finds_the_same_in_the_exchange_alone(self):
        """Every finding on a flux program's IR is about its exchange
        (the memory and plan analyzers find nothing at these sizes)."""
        for nx in range(1, 10):
            for ny in range(1, 10):
                derived = derive_ir(CartesianMesh3D(nx, ny, 3))
                assert check_ir(_assert_exchange_of(derived)).findings == (
                    check_ir(derived).findings
                ), (nx, ny)

    @pytest.mark.parametrize("dead_column", [0, 3, 6])
    def test_remap_around_first_middle_and_last_column(self, dead_column):
        remap = SpareColumnRemap.around_dead_pes((6, 5), [(dead_column, 2)])
        assert dead_column in remap.bypassed_columns
        mesh = CartesianMesh3D(6, 5, 3)
        program = FluxProgram(mesh, FluidProperties(), remap=remap)
        derived = derive_ir(mesh, remap=remap)
        assert derived.dumps() == build_ir(program).dumps()
        exchange = _assert_exchange_of(derived, remap)
        assert check_ir(exchange).findings == check_ir(derived).findings

    def test_held_ir_is_o_classes_gc_objects_at_any_fabric_size(self):
        """A per-PE list of small ints is one container to the collector;
        v1's per-PE dict entries and `[x, y]` lists were 7.8k at 24x24."""

        def containers_added(n: int) -> int:
            mesh = CartesianMesh3D(n, n, 8)
            gc.collect()
            before = len(gc.get_objects())
            ir = derive_ir(mesh)
            gc.collect()
            added = len(gc.get_objects()) - before
            assert ir.width == n
            return added

        derive_ir(CartesianMesh3D(2, 2, 8))  # one-time caches are not the IR's
        small, large = containers_added(24), containers_added(96)
        assert small <= 250
        assert abs(large - small) <= 10


class TestColorTable:
    def test_colors_are_cardinal_then_diagonal_in_channel_order(self):
        ir = derive_ir(CartesianMesh3D(3, 3, 3))
        expected = [
            ch.name for ch in (*CARDINAL_CHANNELS, *DIAGONAL_CHANNELS)
        ]
        assert [ir.colors[i] for i in range(len(expected))] == expected
        assert ir.route_color_ids() == tuple(range(len(expected)))


class TestInjectorSets:
    def test_injector_sets_match_the_live_step1_channels(self):
        program = _program((5, 4, 3))
        ir = build_ir(program)
        live = {ch.name: set() for ch in CARDINAL_CHANNELS}
        for _lx, _ly, pe in program.program_pes():
            for channel in pe.state["step1_channels"]:
                live[channel.name].add(pe.coord)
        for name, coords in live.items():
            assert ir.injector_coords(name) == coords
