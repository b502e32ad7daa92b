"""Set-up by class equals set-up by PE, and PEs stay private.

`FluxProgram` plans its memory map once and installs route classes, not
routers (DESIGN.md Sec. 19); the wave and matrix-free programs install
their own column plans the same way.  The reference here does the same
job the long way, through the per-object API only — `Router.configure`
per router and `plan_pe_memory` / `alloc_array` on every PE's own
`Scratchpad` — and every router and scratchpad of the class-installed
fabric must equal it.
"""

import copy
import sys
from itertools import combinations

import numpy as np
import pytest

from repro.check import check_fabric, check_ir
from repro.core import CartesianMesh3D, FluidProperties, random_pressure
from repro.core.stencil import ALL_CONNECTIONS
from repro.dataflow.halos import bind_trains, plan_pe_memory
from repro.dataflow.mapping import SpareColumnRemap
from repro.dataflow.matfree import WseMatrixFreeJacobian
from repro.dataflow.program import FluxProgram
from repro.ir import FabricProgramIR, build_ir, derive_ir
from repro.wave import TTIMedium, WseWavePropagator
from repro.workloads import make_geomodel
from repro.wse.fabric import Fabric
from repro.wse.geometry import Port
from repro.wse.memory import PEMemoryError, Scratchpad

#: 1-wide, odd/even mixes, nz = 1, both ablation layouts, float64 and a
#: bypassed column
CASES = {
    "1x1x1": ((1, 1, 1), {}),
    "1x5x3": ((1, 5, 3), {}),
    "6x1x2": ((6, 1, 2), {}),
    "4x3x1": ((4, 3, 1), {}),
    "5x4x3": ((5, 4, 3), {}),
    "4x7x2-float64": ((4, 7, 2), {"dtype": np.float64}),
    "7x6x2-no-reuse": ((7, 6, 2), {"reuse_buffers": False}),
    "5x5x3-no-overlap": (
        (5, 5, 3), {"reuse_buffers": False, "overlap_compute": False}
    ),
    "6x5x4-remap": (
        (6, 5, 4), {"remap": SpareColumnRemap.around_dead_pes((6, 5), [(2, 1)])}
    ),
}


def _empty_fabric(ir) -> Fabric:
    return Fabric(
        ir.width,
        ir.height,
        pe_memory_bytes=ir.pe_memory_bytes,
        pe_memory_reserved=ir.pe_memory_reserved,
        vectorized=ir.vectorized,
        bypass_columns=ir.bypass_columns,
    )


def _per_pe_reference(ir) -> Fabric:
    """The IR's fabric, one router and one scratchpad at a time."""
    fabric = _empty_fabric(ir)
    for color in ir.route_color_ids():
        for coord in ir.route_coords(color):
            positions, initial = ir.route_for(color, coord)
            fabric.router(*coord).configure(color, positions, initial=initial)
    for coord in ir.memory_coords():
        plan_pe_memory(
            fabric.pe_map[coord].memory,
            ir.mesh_shape[2],
            dtype=np.dtype(ir.params["dtype"]),
            reuse_buffers=ir.params["reuse_buffers"],
        )
    return fabric


def _memory_facts(memory) -> dict:
    return {
        "names": memory.names(),
        "regions": [
            (a.name, a.offset, a.nbytes, a.end, a.array.shape, a.array.dtype)
            for a in map(memory.get, memory.names())
        ],
        "used": memory.used,
        "free": memory.free,
        "high_water": memory.high_water,
        "overlaps": memory.overlap_pairs(),
    }


def _router_facts(router) -> dict:
    colors = router.configured_colors()
    return {
        "coord": router.coord,
        "configs": {c: router.config(c) for c in colors},
        "table": dict(router.table),
        "position": {c: router.position(c) for c in colors},
        "routes": {(c, port): router.routes(c, port) for c in colors for port in Port},
    }


def _routers(fabric) -> dict:
    """Every router of *fabric* as a view, by coordinate."""
    return {pe.coord: fabric.router(*pe.coord) for pe in fabric.pes()}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("lowered", [True, False], ids=["from-ir", "self-derived"])
def test_class_installed_fabric_equals_the_per_pe_reference(name, lowered):
    dims, kwargs = CASES[name]
    mesh = CartesianMesh3D(*dims)
    ir = derive_ir(mesh, **kwargs)
    program = FluxProgram(
        mesh, FluidProperties(), ir=ir if lowered else None, **kwargs
    )
    reference = _per_pe_reference(ir)
    assert reference.pe_map.keys() == program.fabric.pe_map.keys()
    for coord, router in _routers(program.fabric).items():
        assert _router_facts(router) == _router_facts(reference.router(*coord))
    for coord, pe in program.fabric.pe_map.items():
        assert _memory_facts(pe.memory) == _memory_facts(
            reference.pe_map[coord].memory
        ), coord
    assert (
        program.fabric.max_memory_high_water()
        == reference.max_memory_high_water()
    )
    assert build_ir(program) == ir


def _trains(program, pe) -> list:
    """Every train view the program's hooks read for *pe*, as rows
    ``pe.row`` of the block: outgoing, staging and the eight receive
    windows."""
    row = pe.row
    staging = () if program._staging is None else (
        program._staging[row], program._columns["p_rho"][row]
    )
    return [
        program._trains[row], *staging,
        *(windows[row] for windows, _slot in program._halos.values()),
    ]


@pytest.mark.parametrize("reuse", [True, False])
def test_a_pe_writes_only_its_own_memory(reuse):
    mesh = CartesianMesh3D(5, 4, 3)
    program = FluxProgram(mesh, FluidProperties(), reuse_buffers=reuse)
    pes = [pe for _x, _y, pe in program.program_pes()]
    for i, pe in enumerate(pes):
        for name in pe.memory.names():
            pe.memory.array(name)[...] = i + 1
    for i, pe in enumerate(pes):
        # the per-PE views and the lazily built records are one storage
        train = program._trains[pe.row]
        assert np.shares_memory(train, pe.memory.array("p_rho")) == reuse
        for arr in _trains(program, pe):
            assert np.all(arr == i + 1)
    for a, b in zip(pes, pes[1:]):
        for name in a.memory.names():
            assert not np.shares_memory(a.memory.array(name), b.memory.array(name))
        for mine, theirs in zip(_trains(program, a), _trains(program, b)):
            assert not np.shares_memory(mine, theirs)


def test_the_send_train_is_the_live_pressure_and_density():
    program = FluxProgram(CartesianMesh3D(4, 3, 5), FluidProperties())
    for _x, _y, pe in program.program_pes():
        train = program._trains[pe.row]
        pressure, density = pe.memory.array("p_rho")
        assert np.shares_memory(train, pressure)
        assert np.shares_memory(train, density)
        pressure[:] = 3.0
        density[:] = 5.0
        assert train.tolist() == [3.0] * 5 + [5.0] * 5
        for windows, _slot in program._halos.values():
            flat = windows[pe.row]
            window = pe.memory.array("recv_shared")
            assert np.shares_memory(flat, window)
            flat[:] = np.arange(10)
            p_l, rho_l = window
            assert p_l.tolist() == [0, 1, 2, 3, 4]
            assert rho_l.tolist() == [5, 6, 7, 8, 9]


@pytest.mark.parametrize("train", ["p_rho", "recv_shared"])
def test_bind_refuses_a_train_that_would_flatten_into_a_copy(train):
    pad = Scratchpad()
    plan_pe_memory(pad, 4)
    plan = pad.plan()
    columns = plan.columns(plan.block(3))
    columns[train] = np.zeros((3, 2, 8), dtype=np.float32)[..., ::2]
    with pytest.raises(ValueError, match="must be contiguous"):
        bind_trains(columns)


class TestRouterIsolation:
    def _program(self):
        mesh = CartesianMesh3D(6, 5, 2)
        return FluxProgram(mesh, FluidProperties(), ir=derive_ir(mesh))

    @pytest.mark.parametrize("edit", ["replace-list", "edit-dict"])
    def test_an_edit_and_refresh_changes_that_router_only(self, edit, edit_route):
        """Class-mates share one schedule, so a router is edited through
        the IR (it gets a class of its own) and refreshed by installing
        the edited IR: only that router's routes change."""
        program = self._program()
        color = program.colors.lookup("card_east")
        victim = (2, 2)
        before = {c: _router_facts(r) for c, r in _routers(program.fabric).items()}

        def change(positions):
            if edit == "replace-list":
                positions[:] = [{"RAMP": ["NORTH"]}, {}]
            else:
                positions[0]["RAMP"] = ["NORTH"]
                positions[1].clear()

        mesh = program.mesh
        ir = edit_route(derive_ir(mesh), color, victim, change)
        routers = _routers(FluxProgram(mesh, FluidProperties(), ir=ir).fabric)
        router = routers[victim]
        assert router.routes(color, Port.RAMP) == (Port.NORTH,)
        # (4, 3) was its class-mate and keeps the class's schedule
        assert router.config(color) is not routers[(4, 3)].config(color)
        router.advance(color)
        assert router.table.keys().isdisjoint((color << 3) | port for port in Port)
        for coord, other in routers.items():
            if coord != victim:
                assert _router_facts(other) == before[coord], coord

    def test_advancing_one_router_leaves_its_class_mates_in_place(self):
        program = self._program()
        routers = _routers(program.fabric)
        color = program.colors.lookup("card_east")
        # (4, 3) is a class-mate: the two hold one schedule object
        assert routers[(2, 2)].config(color) is routers[(4, 3)].config(color)
        start = routers[(4, 3)].position(color)
        routers[(2, 2)].advance(color)
        assert routers[(2, 2)].position(color) == 1 - start
        assert routers[(4, 3)].position(color) == start
        assert routers[(4, 3)].table != routers[(2, 2)].table


def test_the_flux_fabric_has_a_handful_of_switch_states():
    """At 24x24 the routers fall into 16 route signatures (seed edge,
    even and odd distance per cardinal, crossed); their 256 reachable
    switch states read 16 distinct tables — at 48x48 too: the switch
    state tables do not grow with the fabric."""
    for side in (24, 48):
        mesh = CartesianMesh3D(side, side, 1)
        fabric = FluxProgram(mesh, FluidProperties(), ir=derive_ir(mesh)).fabric
        switch = fabric.switch_tables()
        assert len(switch.parts) == 16
        assert len(switch.tables) == 256
        assert len({id(table) for table in switch.tables}) == 16
        assert len({id(steps) for steps in switch.steps}) == 16


def test_a_corrupted_ir_still_materializes_with_the_per_router_findings():
    """A self-forwarding port is refused by `Router.configure`, yet
    `repro check` must rebuild exactly what the IR says.  The reference
    installs each router on its own, loops admitted."""
    doc = copy.deepcopy(derive_ir(CartesianMesh3D(4, 3, 2)).doc)
    doc["routes"]["0"]["classes"][1]["positions"][0]["EAST"] = ["EAST"]
    ir = FabricProgramIR(doc)

    with pytest.raises(ValueError, match="routing loop"):
        FluxProgram(CartesianMesh3D(4, 3, 2), FluidProperties(), ir=ir)

    reference = _empty_fabric(ir)
    cells = [pe.coord for pe in reference.pes()]
    for color in ir.route_color_ids():
        for coord in ir.route_coords(color):
            reference.install_routes(
                color,
                [ir.route_for(color, coord)],
                [0 if cell == coord else -1 for cell in cells],
                allow_loops=True,
            )
    expected = check_fabric(
        reference,
        colors=ir.colors,
        expected_receivers={
            c: frozenset(ir.expected_receivers(c)) for c in ir.route_color_ids()
        },
        only={"deadlock", "colors", "routes", "switches"},
    )
    report = check_ir(ir, only={"deadlock", "colors", "routes", "switches"})
    assert report.findings == expected.findings
    conflicts = [f for f in report.findings if f.code == "color-conflict"]
    assert sorted(f.coord for f in conflicts) == [
        (1, 0), (1, 1), (1, 2), (3, 0), (3, 1), (3, 2)
    ]
    assert all(f.port == "EAST" and f.color_name == "card_east" for f in conflicts)


# --------------------------------------------------------------------- #
# The wave and matrix-free programs: their own column plans, installed
# by class over the exchange's PEs
# --------------------------------------------------------------------- #
MEDIUM = TTIMedium(epsilon=0.2, theta=0.4)


def _wave(nx, ny, nz):
    """A zero-argument constructor of a wave program on an nx x ny x nz mesh."""
    mesh = CartesianMesh3D(nx, ny, nz, dx=10.0, dy=10.0, dz=10.0)
    dt = 0.5 * MEDIUM.max_stable_dt(10.0, 10.0, 10.0)
    return lambda: WseWavePropagator(mesh, MEDIUM, dt)


def _matfree(nx, ny, nz):
    """A zero-argument constructor of a matrix-free Jacobian; the host
    residual and linearization point are built outside it."""
    from repro.solver import FlowResidual

    mesh = make_geomodel(nx, ny, nz, kind="lognormal", seed=3)
    residual = FlowResidual(mesh, FluidProperties(), dt=3600.0)
    pressure = random_pressure(mesh, seed=13, amplitude=2e5)
    return lambda: WseMatrixFreeJacobian(residual, pressure)


#: program -> (constructor factory, the float64 Z columns every PE used to
#: allocate for itself, in that order)
EXTENSIONS = {
    "wave": (_wave, ("u_prev", "u_curr", "lap", "recv", "tmp")),
    "matfree": (
        _matfree,
        ("v", "out", "recv", "tmp", "diag",
         *(f"offd_{conn.name}" for conn in ALL_CONNECTIONS)),
    ),
}


def _bound_columns(program, pe) -> dict:
    """name -> the array the program's physics reads for that column:
    row ``pe.row`` of the block column."""
    return {name: column[pe.row] for name, column in program._columns.items()}


@pytest.mark.parametrize(
    "dims", [(1, 1, 3), (1, 5, 2), (6, 1, 2), (5, 4, 3)],
    ids=lambda dims: "x".join(map(str, dims)),
)
@pytest.mark.parametrize("kind", sorted(EXTENSIONS))
def test_extension_memory_equals_the_per_pe_reference(kind, dims):
    factory, names = EXTENSIONS[kind]
    program = factory(*dims)()
    pes = [pe for _x, _y, pe in program.exchange.pes]
    assert len(pes) == program.fabric.num_pes
    for pe in pes:
        reference = Scratchpad()
        for name in names:
            reference.alloc_array(name, dims[2], np.float64)
        assert _memory_facts(pe.memory) == _memory_facts(reference), pe.coord
        bound = _bound_columns(program, pe)
        for name in names:
            assert np.shares_memory(bound[name], pe.memory.array(name))
    for a, b in combinations(pes, 2):
        for name in names:
            assert not np.shares_memory(a.memory.array(name), b.memory.array(name))


def test_matfree_coefficients_land_in_their_own_pe():
    jac = _matfree(4, 3, 2)()
    diag = jac.diagonal()
    for x, y, pe in jac.exchange.pes:
        assert np.array_equal(jac._columns["diag"][pe.row], diag[:, y, x])
        for conn, columns in jac._offd.items():
            field = jac._fields[f"offd_{conn.name}"]
            assert np.array_equal(columns[pe.row], field[:, y, x])


def test_an_over_budget_wave_column_raises_the_per_pe_text():
    """The probe raises what the first PE's own allocation did."""
    with pytest.raises(
        PEMemoryError,
        match=r"^PE memory overflow allocating 'tmp': need 10400 B, "
        r"have 7552 B of 49152 B$",
    ):
        _wave(2, 2, 1300)()


@pytest.mark.parametrize("side", [24, 48])
@pytest.mark.parametrize("kind", sorted(EXTENSIONS))
def test_extension_set_up_is_by_class_not_by_pe(kind, side):
    """Python frames entered while the program is constructed, per PE,
    counted as `tests/test_backends.py` counts `lower_to_event`'s.  A
    one-layer flux IR plus one `alloc_array` per PE per name read 55
    (wave) and 124 (matfree); the exchange IR plus one installed plan
    leave ~30, the same at both sizes."""
    make = EXTENSIONS[kind][0](side, side, 4)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        make()
    finally:
        sys.setprofile(previous)
    assert calls <= 40 * side * side, f"{calls / side / side:.0f} per PE"
