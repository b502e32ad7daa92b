"""The Sec. 5.2 neighbour protocol on its own (`ColumnExchange`), and the
byte pins that hold the wave and matrix-free programs to their bytes
from before they shared it."""

import hashlib

import numpy as np
import pytest

from repro.check import Severity, check_fabric
from repro.core import CartesianMesh3D, FluidProperties, random_pressure
from repro.core.stencil import XY_CONNECTIONS
from repro.dataflow import FluxProgram, SpareColumnRemap, WseMatrixFreeJacobian
from repro.dataflow.exchange import ColumnExchange
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFault
from repro.ir import derive_exchange
from repro.wave import TTIMedium, WseWavePropagator, ricker_wavelet
from repro.workloads import make_geomodel
from repro.wse.fabric import Fabric
from repro.wse.geometry import Port
from repro.wse.runtime import EventRuntime

SHAPES = [(1, 1), (1, 5), (5, 1), (2, 2), (3, 4), (6, 5)]
REMAPPED = (5, 4, [(2, 1)])  # nx, ny, dead PEs: physical column 2 bypassed
SOURCES = ["ir", "formulas"]


class Tagged:
    """An exchange whose every PE sends its own logical coordinate and
    logs ``(conn, tag)`` per arrival."""

    def __init__(self, nx, ny, source, dead=None, faults=None):
        remap = dead and SpareColumnRemap.around_dead_pes((nx, ny), dead)
        if remap:
            self.fabric = Fabric(
                remap.physical_width, ny, bypass_columns=remap.bypassed_columns
            )
        else:
            self.fabric = Fabric(nx, ny)
        self.log = {}
        self.faults = faults
        self.remap = remap
        self.exchange = ColumnExchange(
            self.fabric, nx, ny,
            start=lambda pe: None,
            payload=lambda pe: pe.state["tag"],
            on_data=self.on_data,
            ir=derive_exchange(nx, ny, remap=remap) if source == "ir" else None,
            remap=remap,
        )
        for x, y, pe in self.exchange.pes:
            pe.state["tag"] = np.array([x, y], dtype=np.float32)

    def on_data(self, pe, msg, conn):
        tag = tuple(int(v) for v in msg.payload)
        self.log.setdefault(pe.state["logical"], []).append((conn, tag))

    def round(self):
        """One round: ``(device cycles, arrival log)``."""
        self.log = {}
        rt = EventRuntime(self.fabric, faults=self.faults)
        return self.exchange.run(rt), self.log

    def switch_state(self):
        """Every router's live (flattened) route table."""
        return {
            coord: dict(router.table)
            for coord, router in self.fabric.router_map.items()
        }


def _cases():
    for source in SOURCES:
        for nx, ny in SHAPES:
            yield pytest.param(nx, ny, source, None, id=f"{nx}x{ny}-{source}")
        nx, ny, dead = REMAPPED
        yield pytest.param(nx, ny, source, dead, id=f"remap-{nx}x{ny}-{source}")


class TestExactlyOnce:
    @pytest.mark.parametrize("nx, ny, source, dead", _cases())
    def test_every_neighbour_column_arrives_once_under_its_conn(
        self, nx, ny, source, dead
    ):
        tagged = Tagged(nx, ny, source, dead)
        _cycles, log = tagged.round()
        for y in range(ny):
            for x in range(nx):
                want = {
                    conn: (x + conn.offset[0], y + conn.offset[1])
                    for conn in XY_CONNECTIONS
                    if 0 <= x + conn.offset[0] < nx
                    and 0 <= y + conn.offset[1] < ny
                }
                got = log.get((x, y), [])
                assert len(got) == len(want), (x, y)
                assert dict(got) == want, (x, y)
        # the closed-form counts are the sizes of the IR's receiver sets
        ir = derive_exchange(nx, ny, remap=tagged.remap)
        receivers = [
            set(ir.expected_receivers(color))
            for _ch, color in tagged.exchange.channels
        ]
        for _x, _y, pe in tagged.exchange.pes:
            assert pe.state["expected"] == sum(pe.coord in r for r in receivers)

    @pytest.mark.parametrize("nx, ny, source, dead", _cases())
    def test_a_round_leaves_the_switches_where_it_found_them(
        self, nx, ny, source, dead
    ):
        tagged = Tagged(nx, ny, source, dead)
        before = tagged.switch_state()
        first = tagged.round()
        assert tagged.switch_state() == before
        assert tagged.round() == first

    def test_both_install_sources_configure_the_same_fabric(self):
        nx, ny, dead = REMAPPED
        a, b = (Tagged(nx, ny, source, dead) for source in SOURCES)
        assert a.switch_state() == b.switch_state()
        assert a.round() == b.round()
        for (_x, _y, pa), (_x, _y, pb) in zip(a.exchange.pes, b.exchange.pes):
            assert pa.coord == pb.coord
            for key in ("logical", "expected", "step1_channels"):
                assert pa.state[key] == pb.state[key]

    def test_a_color_table_that_disagrees_is_refused(self):
        ir = derive_exchange(3, 3)
        ir.doc["colors"][0], ir.doc["colors"][1] = (
            {**ir.doc["colors"][0], "id": 1}, {**ir.doc["colors"][1], "id": 0},
        )
        with pytest.raises(ValueError, match="IR color table maps 'card_east' to 1"):
            ColumnExchange(
                Fabric(3, 3), 3, 3, start=None, payload=None, on_data=None, ir=ir
            )


#: The one delivery-error text (3x3, west edge of row 0 cut off from its
#: east neighbour: (1, 0) misses the column of (0, 0), the diagonal that
#: turns at (0, 0), and never hears the control wavelet either).
PINNED = r"^PE \(1, 0\): received 3 neighbour columns, expected 5$"


def _break_east_receive(fabric, color):
    """PE (1, 0) drops everything arriving from the west on *color*."""
    router = fabric.router(1, 0)
    router.configs[color].positions[1] = {}
    router.refresh(color)


class TestOneDeliveryError:
    @pytest.mark.parametrize("source", SOURCES)
    def test_a_dropped_link_raises_the_pinned_message(self, source):
        plan = FaultPlan(seed=1, link_faults=(LinkFault(0, 0, Port.EAST),))
        tagged = Tagged(3, 3, source, faults=FaultInjector(plan))
        with pytest.raises(RuntimeError, match=PINNED):
            tagged.round()

    def test_flux_wave_and_matfree_share_the_text(self):
        pattern = r"^PE \(1, 0\): received 4 neighbour columns, expected 5$"
        mesh = CartesianMesh3D(3, 3, 2, dx=10.0, dy=10.0, dz=10.0)
        flux = FluxProgram(mesh, FluidProperties())
        _break_east_receive(flux.fabric, flux.colors.lookup("card_east"))
        flux.load_pressure(mesh.full(1.0e7))
        with pytest.raises(RuntimeError, match=pattern):
            flux.exchange.run(EventRuntime(flux.fabric))

        medium = TTIMedium(epsilon=0.2, theta=0.4)
        wave = WseWavePropagator(
            mesh, medium, 0.5 * medium.max_stable_dt(10.0, 10.0, 10.0)
        )
        _break_east_receive(wave.fabric, wave.colors.lookup("card_east"))
        with pytest.raises(RuntimeError, match=pattern):
            wave.step()

        jac = _jacobian(3, 3, 2, seed=5)
        _break_east_receive(jac.fabric, jac.colors.lookup("card_east"))
        with pytest.raises(RuntimeError, match=pattern):
            jac.matvec(np.ones(jac.n))


# --------------------------------------------------------------------- #
# Byte pins, generated at the parent of the PR that introduced the
# exchange (private copies of the protocol in wave/dataflow.py and
# dataflow/matfree.py, formula-installed).
# --------------------------------------------------------------------- #
def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _jacobian(nx, ny, nz, seed):
    from repro.solver import FlowResidual

    mesh = make_geomodel(nx, ny, nz, kind="lognormal", seed=seed)
    residual = FlowResidual(mesh, FluidProperties(), dt=3600.0)
    return WseMatrixFreeJacobian(
        residual, random_pressure(mesh, seed=13, amplitude=2e5)
    )


def _wave(nx, ny, nz):
    medium = TTIMedium(epsilon=0.2, theta=0.4)
    mesh = CartesianMesh3D(nx, ny, nz, dx=10.0, dy=10.0, dz=10.0)
    return mesh, medium, 0.7 * medium.max_stable_dt(10.0, 10.0, 10.0)


class TestParentBytes:
    @pytest.mark.parametrize(
        "shape, source, steps, sha, cycles, counts",
        [
            ((6, 5, 4), (3, 2, 2), 10, "b45739e60c0c478e", 40000.0,
             {"FADD": 8920, "FMA": 6920, "FMOV": 7120, "FMOV_LOCAL": 5720,
              "FMUL": 10120, "FSUB": 1200}),
            ((1, 5, 3), (0, 2, 1), 6, "2d90a9f73c0a21e7", 1470.0,
             {"FADD": 264, "FMA": 354, "FMOV": 144, "FMOV_LOCAL": 264,
              "FMUL": 354, "FSUB": 90}),
        ],
        ids=["6x5x4", "1x5x3"],
    )
    def test_wavefield(self, shape, source, steps, sha, cycles, counts):
        mesh, medium, dt = _wave(*shape)
        wse = WseWavePropagator(mesh, medium, dt, source=source)
        field = wse.run(ricker_wavelet(steps, dt, peak_frequency=40.0))
        assert _sha(field) == sha
        assert sum(pe.dsd.cycles for pe in wse.fabric.pes()) == cycles
        assert wse.fabric.total_counts() == counts

    @pytest.mark.parametrize(
        "shape, seed, shas, cycles, counts",
        [
            ((5, 4, 4), 12,
             ["d3f3706da30b7f09", "28f29e4b26cdff88", "16f320b1f06627b7"],
             291.0, {"FADD": 1680, "FMOV": 1320, "FMUL": 1920}),
            ((3, 1, 2), 5,
             ["388c40ab66595109", "ebedb14c1208005a", "1163125b0c76c038"],
             117.0, {"FADD": 42, "FMOV": 24, "FMUL": 60}),
        ],
        ids=["5x4x4", "3x1x2"],
    )
    def test_matvec(self, shape, seed, shas, cycles, counts):
        jac = _jacobian(*shape, seed=seed)
        rng = np.random.default_rng(1)
        got = [_sha(jac.matvec(rng.standard_normal(jac.n))) for _ in shas]
        assert got == shas
        assert jac.total_device_cycles == cycles
        assert jac.fabric.total_counts() == counts


class TestCheckSeesTheExtensions:
    """`repro check` only ever built flux programs; the static analyzers
    must say about the other two fabrics exactly what they say about the
    flux fabric of that footprint: nothing beyond the informational
    boundary-broadcast exits."""

    @staticmethod
    def _findings(program):
        exchange = program.exchange
        ir = derive_exchange(exchange.nx, exchange.ny)
        report = check_fabric(
            program.fabric,
            colors={c: ch.name for ch, c in exchange.channels},
            expected_receivers={
                c: frozenset(ir.expected_receivers(c))
                for _ch, c in exchange.channels
            },
            only={"deadlock", "colors", "routes", "switches"},
        )
        return report.findings

    def _quiet_like_flux(self, program):
        findings = self._findings(program)
        assert [f for f in findings if f.severity is not Severity.INFO] == []
        nx, ny = program.exchange.nx, program.exchange.ny
        flux = FluxProgram(CartesianMesh3D(nx, ny, 1), FluidProperties())
        assert findings == self._findings(flux)

    @pytest.mark.parametrize("shape", [(4, 4, 3), (6, 5, 2), (1, 3, 2)])
    def test_wave_fabric(self, shape):
        mesh, medium, dt = _wave(*shape)
        self._quiet_like_flux(WseWavePropagator(mesh, medium, dt))

    @pytest.mark.parametrize("shape", [(4, 4, 3), (5, 3, 2)])
    def test_matfree_fabric(self, shape):
        self._quiet_like_flux(_jacobian(*shape, seed=3))

    def test_a_missing_receiver_is_a_finding(self):
        """The receiver sets are not vacuous."""
        mesh, medium, dt = _wave(4, 4, 3)
        wave = WseWavePropagator(mesh, medium, dt)
        _break_east_receive(wave.fabric, wave.colors.lookup("card_east"))
        assert any(
            f.severity is Severity.ERROR for f in self._findings(wave)
        )
