"""The backend table: every entry builds, runs and releases the same way.

One parametrized pass over :data:`repro.backends.BACKENDS` on a 6x5x3
lognormal mesh replaces per-backend construction boilerplate elsewhere:
if an entry is added, it is exercised here without touching this file.
"""

import ast
import importlib
import inspect
import os
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from repro.backends import BACKENDS, Backend, get_backend, release
from repro.core import FluidProperties, compute_flux_residual, random_pressure
from repro.core.stencil import EXCHANGE_PLAN
from repro.faults import FaultPlan
from repro.ir.schedule import schedule_classes
from repro.workloads import make_geomodel

MESH = make_geomodel(6, 5, 3, kind="lognormal", seed=4)
FLUID = FluidProperties()
PRESSURES = [random_pressure(MESH, seed=30 + i) for i in range(2)]
#: the reference fold of the last field in each fold class's order
REFERENCE = {
    "phased": compute_flux_residual(MESH, FLUID, PRESSURES[-1]),
    "event": compute_flux_residual(
        MESH, FLUID, PRESSURES[-1], order=schedule_classes(MESH.nx, MESH.ny)
    ),
}


def _calls_outside(allowed, wanted) -> list[str]:
    """``path:line name`` of every call under ``src/repro``, outside the
    *allowed* module paths, of a function or class whose name is
    *wanted*."""
    import repro

    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(set(root.rglob("*.py")) - {root / p for p in allowed}):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", "")
                if wanted(called):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno} {called}")
    return offenders


def _shm_segments() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


#: printed by the children below: what a flux run must not have loaded
#: (SciPy, the assembled solver, the scaling harness and its cost model)
_OFF_THE_FLUX_PATH = (
    "print(sorted(m for m in sys.modules"
    " if m.split('.')[0] == 'scipy' or m.startswith('repro.solver')"
    " or m in ('repro.par.scale', 'repro.cluster.perf')))\n"
)


@pytest.fixture(scope="module")
def runs():
    """name -> (result, metrics, recorded residuals, segments leaked),
    one run per entry."""
    out = {}
    for name, entry in BACKENDS.items():
        before = _shm_segments()
        recorded = []

        class Recorder:
            def record_step(self, pressure, residual):
                recorded.append(np.array(residual, copy=True))

        drv = entry.build(
            MESH, FLUID, dtype=np.float64, record=Recorder(), px=2, py=2
        )
        try:
            result = drv.run(PRESSURES)
            metrics = entry.metrics(drv, result)
        finally:
            release(drv)
        out[name] = (result, metrics, recorded, _shm_segments() - before)
    return out


class TestTable:
    def test_order_and_names(self):
        assert list(BACKENDS) == [
            "event", "fused", "lockstep", "gpu", "cluster", "par"
        ]
        assert all(BACKENDS[n].name == n for n in BACKENDS)

    def test_table_is_closed(self):
        with pytest.raises(TypeError):
            BACKENDS["tpu"] = BACKENDS["gpu"]
        with pytest.raises(AttributeError):
            BACKENDS["gpu"].fold_class = "event"

    def test_unknown_name_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="'tpu'.*event, fused"):
            get_backend("tpu")

    def test_flags(self):
        assert [n for n, b in BACKENDS.items() if b.rank_decomposed] == [
            "cluster", "par"
        ]
        assert [n for n, b in BACKENDS.items() if b.multi_process] == ["par"]
        assert {n: b.injects for n, b in BACKENDS.items()} == {
            "event": "fabric", "fused": None, "lockstep": None,
            "gpu": None, "cluster": "ranks", "par": "ranks",
        }

    def test_only_the_table_constructs_a_driver(self):
        """No module under ``src/repro`` calls a driver class or a
        ``lower_to_*`` pass except the table and the lowering module:
        whoever needs a driver asks ``BACKENDS[name].build``."""
        drivers = {
            "WseFluxComputation", "LockstepWseSimulation",
            "FusedFluxComputation", "GpuFluxComputation",
            "ClusterFluxComputation", "ParClusterFluxComputation",
        }
        assert _calls_outside(
            {"backends.py", "ir/lower.py"},
            lambda called: called in drivers or called.startswith("lower_to_"),
        ) == []

    def test_only_the_sweeps_call_a_flux_kernel(self):
        """The face-flux statement has two callers: the core slab sweep
        (fused, lockstep, gpu, cluster and par) and the event program's
        round hooks; the reference fold and the unstructured residual may
        too.  A driver that grows its
        own padded layout, slab, tile or phase loop again fails here."""
        assert _calls_outside(
            {"core/sweep.py", "dataflow/program.py",
             "core/flux.py", "core/unstructured.py"},
            "face_flux".__eq__,
        ) == []

    def test_one_face_flux_statement(self):
        """Eq. 4's bit-select is built in ``core/kernels.py`` alone — no
        other module names ``bitwise_xor`` or ``upwind_select`` — and no
        module under ``src/repro`` defines a second vectorized face flux:
        only ``core/kernels.py`` defines a function named ``face_flux*``.
        A backend or oracle that restates the face flux fails here."""
        import repro

        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(set(root.rglob("*.py")) - {root / "core" / "kernels.py"}):
            for node in ast.walk(ast.parse(path.read_text())):
                named = (
                    getattr(node, "id", None) or getattr(node, "attr", None)
                    or (isinstance(node, ast.alias) and node.name)
                )
                if named in ("bitwise_xor", "upwind_select"):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno} {named}")
        assert offenders == []
        definitions = [
            f"{path.relative_to(root)}:{node.lineno} {node.name}"
            for path in sorted(set(root.rglob("*.py")) - {root / "core" / "kernels.py"})
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("face_flux")
        ]
        assert definitions == []

    def test_only_the_exchange_states_the_neighbour_protocol(self):
        """The Sec. 5.2 protocol has one statement: the channel formulas
        are named (imported, called, passed on) only by the modules that
        define them, ``ColumnExchange``, the listing and the IR compiler,
        and nothing outside ``repro/wse`` but the exchange sends a
        control wavelet.  The fold schedule, derived from the protocol's
        timing, may ask who sends in step 1 and nothing else.  A fabric
        program that grows its own routing or send-once rule again fails
        here."""
        import repro

        root = Path(repro.__file__).parent
        dataflow = root / "dataflow"
        formulas = {"switch_positions_for", "static_position", "is_step1_sender"}
        may_name = {
            dataflow / "exchange.py": formulas, dataflow / "cardinal.py": formulas,
            dataflow / "diagonal.py": formulas, dataflow / "codegen.py": formulas,
            root / "ir" / "builder.py": formulas,
            root / "ir" / "schedule.py": {"is_step1_sender"},
        }
        offenders = []
        for path in sorted(root.rglob("*.py")):
            guarded = formulas - may_name.get(path, set())
            if root / "wse" not in path.parents and path != dataflow / "exchange.py":
                guarded.add("KIND_CONTROL")
            for node in ast.walk(ast.parse(path.read_text())):
                # names, attribute accesses and imports; the lazy export
                # map of dataflow/__init__.py holds strings, not references
                named = (
                    getattr(node, "id", None) or getattr(node, "attr", None)
                    or (isinstance(node, ast.alias) and node.name)
                )
                if named in guarded:
                    offenders.append(
                        f"{path.relative_to(root)}:{node.lineno} {named}"
                    )
        assert offenders == []

    def test_only_the_rank_program_builds_a_host_kernel(self):
        """``PaddedLayout``, ``SlabWorkspace`` and ``SlabSweep`` are
        built in three places: the fabric models' batched driver
        (``dataflow/padded.py``), ``cluster/flux.py::RankSet`` and gpu's
        single-block sweep (``GpuFluxComputation.__init__``).  The
        cluster driver runs that rank program over every rank and each
        par worker over its own, so par == cluster is one program over
        two transports; gpu cannot be a one-rank ``RankSet``, whose
        ranks derive their transmissibilities from their local meshes,
        because it sweeps the caller's ``trans``.  A host driver that
        builds its own sweep or workspace again fails here."""
        import repro

        root = Path(repro.__file__).parent

        def lines(module, *path):
            node = ast.parse((root / module).read_text())
            for name in path:
                node = next(
                    child for child in node.body
                    if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == name
                )
            return module, range(node.lineno, node.end_lineno + 1)

        sanctioned = [
            lines("cluster/flux.py", "RankSet"),
            lines("gpu/reference.py", "GpuFluxComputation", "__init__"),
        ]
        sites = _calls_outside(
            {"dataflow/padded.py"},
            {"PaddedLayout", "SlabWorkspace", "SlabSweep"}.__contains__,
        )

        def is_sanctioned(site):
            path, line = site.split()[0].rsplit(":", 1)
            return any(path == module and int(line) in span for module, span in sanctioned)

        assert [site for site in sites if not is_sanctioned(site)] == []
        assert len(sites) == 6

    @pytest.mark.parametrize("side", [24, 48])
    def test_event_lowering_is_by_class_not_by_pe(self, side):
        """A set-up budget with no clock in it: Python frames entered
        while `lower_to_event` runs, per PE (Python 3.11).  One
        `alloc_array` per PE per name and one `route_for` -> `configure`
        round trip per router per color spent 322; planning memory once
        and installing route classes left 43.4 / 42.3 at 24^2 / 48^2, 15
        of them binding a per-PE layout object over the block.  Taking
        each PE's trains as rows of the block left 29.3 / 28.3, 20 of
        them 12 per-PE task binds and 8 per-router schedule copies.
        Binding tasks per color and sharing each class's schedule left
        9.2 / 8.3, 3 of them a per-PE halo dict, a per-PE protocol-fact
        list and a per-PE ``row_bytes`` evaluation.  Reading block rows
        and the exchange's tables by ``pe.row`` left 6.3 / 5.3 (6.40 /
        5.35, 5.02 at 192^2, measured again before the switch-state
        tables), 4 of them a `Router`, a `Scratchpad` and its `adopt`
        and a `ProcessingElement` constructor per PE.  Routing as shared
        switch states, PE memory as block rows and the PEs built in one
        loop leave 2.21 / 1.30 (1.02 at 192^2): each PE's `DsdEngine`,
        and the IR's route cache filled on this first lowering.  A
        per-PE object, bind or comprehension coming back lands over 3."""
        self._assert_lowering_frames(side)

    @pytest.mark.slow
    def test_event_lowering_is_by_class_not_by_pe_at_192(self):
        """The frames budget at 192x192 (36 864 PEs): 5.02 per PE
        before the switch-state tables, 1.02 after."""
        self._assert_lowering_frames(192)

    def _assert_lowering_frames(self, side):
        import sys

        lower = self._event_lowering(side)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            drv = lower()
        finally:
            sys.setprofile(previous)
        release(drv)
        assert calls <= 3 * side * side, f"{calls / side / side:.2f} per PE"

    @pytest.mark.parametrize("side", [24, 48])
    def test_event_lowering_memory_is_by_class_not_by_pe(self, side):
        """The memory side of the same budget, no clock in it either:
        bytes `tracemalloc` sees still allocated once `lower_to_event`
        returns (the driver, its fabric and the PE memory block), per PE
        (Python 3.11, NumPy 2).  With a task table per PE and a copy of
        each schedule per router it read 9.9 KiB at both 24^2 and 48^2
        (5.56 / 22.2 MiB); one table per color and one schedule per
        class read 5.4 / 5.3 KiB (3.02 / 12.0 MiB).  Without the per-PE
        halo dicts and protocol facts (the programs read block rows and
        the exchange's tables by ``pe.row``) it read 3.09 / 3.06 KiB
        (1.74 / 6.9 MiB; 3.17 / 3.15 measured again): the scratchpads,
        their block rows, the routers and a stacked copy of the X-Y
        transmissibilities.  With no `Router` or `Scratchpad` per PE, the
        switch states shared (16 tables serve the 256 states at 24^2)
        and the X-Y transmissibilities read as a view of the block it
        reads 1.37 / 1.31 KiB (0.77 / 2.95 MiB; 1.29 KiB at 192^2): the
        640-byte block row, the PE, its `DsdEngine` and its
        coordinate, and the exchange's row.  The bound is that plus
        about 10%: per-PE copies coming back cross it."""
        self._assert_lowering_memory(side)

    @pytest.mark.slow
    def test_event_lowering_memory_is_by_class_not_by_pe_at_192(self):
        """The memory budget at 192x192: 3.14 KiB per PE (113 MiB)
        before the switch-state tables, 1.29 KiB (46 MiB) after."""
        self._assert_lowering_memory(192)

    def _assert_lowering_memory(self, side):
        import gc
        import tracemalloc

        lower = self._event_lowering(side)
        release(lower())  # warm: the IR's route cache, lazy imports
        gc.collect()
        tracemalloc.start()
        try:
            drv = lower()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        release(drv)
        per_pe = retained / (side * side)
        assert per_pe <= 1.5 * 1024, f"{per_pe / 1024:.2f} KiB per PE"

    def test_event_drain_queues_per_timestamp_not_per_event(self):
        """A drain budget with no clock in it: over one 24x24x8
        application, C calls into `_heapq` (Python 3.11).  A `(time,
        seq)` heap entry per event made 32 456 heap calls (16 228
        pushes, as many pops); the calendar queue pushes and pops each
        of the application's 15 distinct timestamps once (30 calls).  A
        per-event heap coming back lands over 2 calls per timestamp.
        The timestamps are the ``due`` times the pushing frame (the
        runtime's `schedule`, `send` or inlined hop) hands the heap."""
        heap_calls = 0
        times = set()

        def count(frame, event, arg):
            nonlocal heap_calls
            if event == "c_call" and getattr(arg, "__module__", None) == "_heapq":
                heap_calls += 1
                if arg.__name__ == "heappush":
                    times.add(frame.f_locals["due"])

        drv, _ = self._profile_event_application(count)
        assert drv.last_runtime.stats.events_processed == 16_228
        assert heap_calls <= 2 * len(times), (heap_calls, len(times))

    def test_event_drain_enters_about_one_frame_per_event(self):
        """The other drain budget with no clock in it: Python frames
        entered over one warm 24x24x8 application, per event (Python
        3.11).  A `_transmit` / `_deliver` frame per hop and delivery, a
        checked `inject` and `Message` per send, and an FMOV and a flux
        booking per received column read 78 915 (4.86).  With those
        bodies inlined in the drain loop, unchecked exchange sends and
        receive tasks that book only cycles it read 38 476 (2.37).
        With the switch advance inlined too, the program's `on_data` as
        the data task (no exchange closure around it), the exchange's
        `_send` as the control task (no `_on_control` around it) and
        the per-application totals over a stored PE list (no generator
        resume per PE) it reads 23 973 (1.48): per message its `send`
        (6 912), per delivered column the program's task (4 324), per
        control delivery and step-1 send the exchange's `_send` (3 360),
        per send the program's payload (2 880), and per PE its
        `schedule`, the start task and its bookings, the round's
        `book_receives` and the counter reset (~6 500, with the round
        hooks' NumPy calls).  A per-hop, per-delivery, per-advance
        or per-PE-total frame coming back lands over 1.5.  A
        watchdog-armed application (every `repro chaos` and `repro
        supervise --inject` driver) walks the same loop, checked once
        per timestamp, to the same bytes: a per-event loop of `_arrive`
        frames for armed runs read 4.30."""
        counts = {}
        residuals = {}
        for watchdog in (None, 20_000.0):
            frames = 0

            def count(frame, event, arg):
                nonlocal frames
                frames += event == "call"

            drv, result = self._profile_event_application(
                count, watchdog_cycles=watchdog
            )
            events = drv.last_runtime.stats.events_processed
            assert events == 16_228
            counts[watchdog] = frames / events
            residuals[watchdog] = result.residual.tobytes()
        assert max(counts.values()) <= 1.5, counts
        assert residuals[20_000.0] == residuals[None]

    @staticmethod
    def _profile_event_application(count, **options):
        """One warm 24x24x8 event application under ``sys.setprofile(
        count)``; returns the released driver and the profiled run's
        result.  *options* go to the event backend's ``build``.  The
        collector is off while counting: a gc callback (hypothesis
        installs one) would add frames that are not the runtime's."""
        import gc
        import sys

        mesh = make_geomodel(24, 24, 8, kind="lognormal", seed=7)
        drv = BACKENDS["event"].build(mesh, FLUID, dtype=np.float32, **options)
        pressure = [random_pressure(mesh, seed=1).astype(np.float32)]
        drv.run(pressure)  # warm: lazy imports
        previous, collecting = sys.getprofile(), gc.isenabled()
        gc.disable()
        sys.setprofile(count)
        try:
            result = drv.run(pressure)
        finally:
            sys.setprofile(previous)
            if collecting:
                gc.enable()
            release(drv)
        return drv, result

    @staticmethod
    def _event_lowering(side):
        """``lower() -> driver``: `lower_to_event` of a lognormal
        side x side x 8 mesh whose IR and transmissibility are ready."""
        import repro.dataflow.driver  # noqa: F401  lower_to_event's lazy import
        from repro.core import Transmissibility
        from repro.ir import derive_ir
        from repro.ir.lower import lower_to_event

        mesh = make_geomodel(side, side, 8, kind="lognormal", seed=7)
        trans, ir = Transmissibility(mesh), derive_ir(mesh)
        return lambda: lower_to_event(ir, mesh, FLUID, trans)

    def test_event_takes_a_remap(self):
        """``remap`` reaches both ``derive_ir`` and the fabric: a program
        laid out around a bypassed column is bit-identical to the plain
        one and says so in its IR."""
        from repro.dataflow import SpareColumnRemap

        remap = SpareColumnRemap.around_dead_pes((MESH.nx, MESH.ny), [(2, 1)])
        build = BACKENDS["event"].build
        plain = build(MESH, FLUID, dtype=np.float64)
        spared = build(MESH, FLUID, dtype=np.float64, remap=remap)
        assert spared.ir.content_hash != plain.ir.content_hash
        assert spared.program.remap == remap
        assert (
            spared.run(PRESSURES).residual.tobytes()
            == plain.run(PRESSURES).residual.tobytes()
        )

    def test_import_pulls_in_no_driver(self, fresh_interpreter):
        out = fresh_interpreter(
            "import sys, repro.backends\n"
            "drivers = ['repro.dataflow.driver', 'repro.dataflow.lockstep',"
            " 'repro.ir.fused', 'repro.gpu.reference', 'repro.cluster.flux',"
            " 'repro.par.flux']\n"
            "print([m for m in drivers if m in sys.modules])\n"
        )
        assert out == "[]"

    def test_import_of_the_ir_loads_no_backend_it_does_not_build(
        self, fresh_interpreter
    ):
        """`repro.dataflow`, `repro.wse`, `repro.faults` and `repro.obs`
        resolve their public names on first access, so deriving an IR or
        running fused pays for none of these.  After a fused run to its
        first residual 288 modules are loaded (this snippet, Python 3.11,
        NumPy 2.4; the ledger's `import.modules` is the exact
        measurement); 290 is the tripwire for a new top-level import (the
        eager package inits loaded 291, SciPy adds ~360)."""
        out = fresh_interpreter(
            "import sys, numpy as np, repro.core, repro.workloads, repro.ir\n"
            "unused = ['repro.dataflow.' + m for m in ('codegen',"
            " 'matfree', 'lockstep', 'driver', 'instrcount')]\n"
            "unused += ['repro.faults.' + m for m in"
            " ('chaos', 'injector', 'plan')]\n"
            "unused += ['repro.obs.' + m for m in"
            " ('profile', 'report', 'replay', 'metrics', 'trace')]\n"
            "print([m for m in unused if m in sys.modules])\n"
            "from repro.backends import BACKENDS\n"
            "mesh = repro.workloads.make_geomodel(24, 24, 8, seed=7)\n"
            "BACKENDS['fused'].build(mesh, repro.core.FluidProperties(),"
            " dtype=np.float32).run([repro.core.random_pressure(mesh, seed=7)])\n"
            "print(len(sys.modules))\n"
        )
        unused, modules = out.splitlines()
        assert unused == "[]"
        assert int(modules) <= 290


#: The parameters of every driver constructor and of the classes its
#: options reach, in order.  Each has a caller outside the tests
#: (DESIGN.md §17 names it): a new knob is an edit here, next to that
#: caller, not a keyword nobody sets.
SIGNATURES = {
    "repro.dataflow.driver.WseFluxComputation": (
        "mesh fluid trans trace trace_capacity faults watchdog_cycles record"
        " program_options"
    ),
    "repro.dataflow.program.FluxProgram": (
        "mesh fluid trans dtype reuse_buffers vectorized compute_fluxes"
        " overlap_compute pe_memory_bytes pe_memory_reserved remap ir"
    ),
    "repro.ir.fused.FusedFluxComputation": "mesh fluid trans ir record",
    "repro.dataflow.lockstep.LockstepWseSimulation": "mesh fluid trans ir record",
    "repro.dataflow.padded.PaddedSweep": (
        "mesh fluid trans ir program name halo_copies record"
    ),
    "repro.gpu.reference.GpuFluxComputation": (
        "mesh fluid trans variant dtype record"
    ),
    "repro.cluster.flux.ClusterFluxComputation": (
        "mesh fluid px py dtype faults record"
    ),
    "repro.par.flux.ParClusterFluxComputation": (
        "mesh fluid px py workers dtype plan respawn record lease_seconds"
        " failure_mode"
    ),
    "repro.core.sweep.PaddedLayout": "mesh fluid dtype trans",
    "repro.core.sweep.SlabSweep": "layout program workspace name compute_fluxes",
}
#: the six driver classes among them
DRIVERS = [p for p in SIGNATURES if p.endswith(("Computation", "Simulation"))]


def _resolve(path):
    module, name = path.rsplit(".", 1)
    return getattr(importlib.import_module(module), name)


class TestDriverSurface:
    @pytest.mark.parametrize("path", list(SIGNATURES))
    def test_every_parameter_is_pinned(self, path):
        params = inspect.signature(_resolve(path)).parameters
        assert " ".join(params) == SIGNATURES[path]

    @pytest.mark.parametrize("path", DRIVERS)
    def test_run_takes_the_pressures_and_nothing_else(self, path):
        """Every application's residual goes to ``record=``; no run
        keyword keeps them a second way."""
        assert list(inspect.signature(_resolve(path).run).parameters) == [
            "self", "pressures"
        ]


class TestFluxPathLoadsNoScipy:
    """Cold start is most of a user-shaped run (bench/README.md finding
    1) and SciPy was most of the cold start, for an assembled-matrix
    helper and a Delaunay mesher that no flux residual needs.  One
    fresh interpreter per row, so a row cannot hide behind another's
    imports."""

    @pytest.mark.parametrize("name", list(BACKENDS))
    def test_build_and_run_through_the_table(self, fresh_interpreter, name):
        out = fresh_interpreter(
            "import sys, numpy as np\n"
            "from repro.backends import BACKENDS, release\n"
            "from repro.core import FluidProperties, random_pressure\n"
            "from repro.workloads import make_geomodel\n"
            "mesh = make_geomodel(6, 5, 3, kind='lognormal', seed=4)\n"
            f"drv = BACKENDS[{name!r}].build(\n"
            "    mesh, FluidProperties(), dtype=np.float64, px=2, py=2)\n"
            "try:\n"
            "    drv.run([random_pressure(mesh, seed=30)])\n"
            "finally:\n"
            "    release(drv)\n" + _OFF_THE_FLUX_PATH
        )
        assert out == "[]"

    def test_cli_validate(self, fresh_interpreter):
        out = fresh_interpreter(
            "import io, sys\n"
            "from repro.cli import main\n"
            "argv = ['validate', '--nx', '6', '--ny', '5', '--nz', '3']\n"
            "assert main(argv, out=io.StringIO()) == 0\n" + _OFF_THE_FLUX_PATH
        )
        assert out == "[]"


@pytest.mark.parametrize("name", list(BACKENDS))
class TestEveryEntry:
    def test_residual_matches_the_reference(self, runs, name):
        """The reference fold's bytes in the entry's fold order."""
        result, _metrics, _recorded, _leaked = runs[name]
        assert result.residual.dtype == np.float64
        assert result.residual.tobytes() == REFERENCE[BACKENDS[name].fold_class].tobytes()

    def test_record_hook_sees_every_application(self, runs, name):
        result, _metrics, recorded, _leaked = runs[name]
        assert len(recorded) == len(PRESSURES)
        assert recorded[-1].tobytes() == result.residual.tobytes()

    def test_metrics_is_a_dict_of_counter_collectors(self, runs, name):
        result, metrics, _recorded, _leaked = runs[name]
        assert isinstance(result.as_metrics(), dict)
        assert metrics and all(
            isinstance(source, str) and isinstance(collector(), dict)
            for source, collector in metrics.items()
        )

    def test_release_leaves_no_shared_segment(self, runs, name):
        assert runs[name][3] == set()


class TestFoldClasses:
    @pytest.mark.parametrize(
        "a, b",
        [
            (a, b) for a, b in combinations(BACKENDS, 2)
            if BACKENDS[a].fold_class == BACKENDS[b].fold_class
        ],
    )
    def test_same_class_is_byte_equal(self, runs, a, b):
        assert runs[a][0].residual.tobytes() == runs[b][0].residual.tobytes()

    def test_one_fold_class_hands_the_sweep_one_program(self, monkeypatch):
        """The backends that run the core slab sweep differ only in the
        fold program they hand it, and one fold class hands it one
        program: lockstep's UP, DOWN and exchange plan, unmasked, is
        ``PHASED_PROGRAM``, which gpu's one block, every cluster rank and
        every rank of a par worker's rank program get; fused gets UP,
        DOWN and masked steps."""
        from repro.cluster.decomposition import BlockDecomposition
        from repro.cluster.flux import RankSet, halo_links
        from repro.core import sweep
        from repro.core.stencil import VERTICAL
        from repro.par import worker

        seen = []
        build = sweep.SlabSweep.__init__

        def spy(self, layout, program, *args, **kwargs):
            seen.append(tuple((conn, mask is None) for conn, mask in program))
            build(self, layout, program, *args, **kwargs)

        monkeypatch.setattr(sweep.SlabSweep, "__init__", spy)
        programs = {}
        for name in ("fused", "lockstep", "gpu", "cluster"):
            seen.clear()
            drv = BACKENDS[name].build(MESH, FLUID, dtype=np.float64, px=2, py=2)
            try:
                drv.run(PRESSURES)
            finally:
                release(drv)
            programs[name] = set(seen)
        # a par worker builds the rank program the way the cluster does
        assert worker.RankSet is RankSet
        cluster = BACKENDS["cluster"].build(MESH, FLUID, dtype=np.float64, px=2, py=2)
        seen.clear()
        RankSet(BlockDecomposition(MESH, 2, 2), (1, 3), FLUID, np.float64,
                halo_links(cluster.decomp, cluster.grid))
        programs["par"] = set(seen)

        phased = tuple((conn, True) for conn, _mask in sweep.PHASED_PROGRAM)
        vertical = tuple((conn, True) for conn in VERTICAL)
        plan = tuple(
            (conn, True) for conns, _hops, _phase in EXCHANGE_PLAN for conn in conns
        )
        assert phased == vertical + plan
        assert (programs["lockstep"] == programs["gpu"] == programs["cluster"]
                == programs["par"] == {phased})
        (fused,) = programs["fused"]
        assert fused[:2] == vertical and not any(unmasked for _c, unmasked in fused[2:])

    def test_the_pairs_are_the_documented_ones(self):
        classes = {}
        for name, entry in BACKENDS.items():
            classes.setdefault(entry.fold_class, []).append(name)
        assert classes == {
            "event": ["event", "fused"],
            "phased": ["lockstep", "gpu", "cluster", "par"],
        }


class TestPlanNarrowing:
    PLAN = FaultPlan.seeded(7, fabric_shape=(6, 5), ranks=4)

    def _plan_seen_by(self, entry: Backend):
        seen = {}

        def spy(mesh, fluid, *, plan, **_):
            seen["plan"] = plan

        Backend(entry.name, entry.fold_class, entry.injects, spy).build(
            MESH, FLUID, dtype=np.float64, plan=self.PLAN
        )
        return seen["plan"]

    def test_each_entry_keeps_only_its_half(self):
        assert not self.PLAN.only_fabric().empty
        assert not self.PLAN.only_ranks().empty
        for name, entry in BACKENDS.items():
            plan = self._plan_seen_by(entry)
            if entry.injects is None:
                assert plan is None, name
            elif entry.injects == "fabric":
                assert plan == self.PLAN.only_fabric(), name
            else:
                assert plan == self.PLAN.only_ranks(), name

    def test_an_empty_half_is_no_plan(self):
        ranks_only = self.PLAN.only_ranks()
        seen = {}
        Backend(
            "event", "event", "fabric",
            lambda mesh, fluid, *, plan, **_: seen.setdefault("plan", plan),
        ).build(MESH, FLUID, dtype=np.float64, plan=ranks_only)
        assert seen["plan"] is None
