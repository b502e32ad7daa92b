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
from repro.faults import FaultPlan
from repro.workloads import make_geomodel

MESH = make_geomodel(6, 5, 3, kind="lognormal", seed=4)
FLUID = FluidProperties()
PRESSURES = [random_pressure(MESH, seed=30 + i) for i in range(2)]
REFERENCE = compute_flux_residual(MESH, FLUID, PRESSURES[-1])
#: float64 agreement with the NumPy oracle across summation orders
#: (the ``repro validate`` bound is 1e-10; observed ~1e-15)
RTOL = 1e-12


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
        """The face-flux kernels have three callers: the padded slab
        sweep (lockstep and fused), the event program's round hooks and
        the instruction counter.  A driver that grows its own slab or phase
        loop again fails here."""
        kernels = {"compute_face_flux_column", "store_face_flux_column"}
        assert _calls_outside(
            {"dataflow/padded.py", "dataflow/program.py", "dataflow/instrcount.py"},
            kernels.__contains__,
        ) == []

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
        """``FlatFluxKernel`` and ``FlatWorkspace`` are built in one
        place, ``cluster/flux.py::RankSet``: the cluster driver runs that
        rank program over every rank and each par worker over its own,
        so par == cluster is one program over two transports.  A host
        driver that builds its own kernels or workspace again fails
        here."""
        import repro

        flux = Path(repro.__file__).parent / "cluster" / "flux.py"
        rank_set = next(
            node for node in ast.parse(flux.read_text()).body
            if isinstance(node, ast.ClassDef) and node.name == "RankSet"
        )
        lines = range(rank_set.lineno, rank_set.end_lineno + 1)
        sites = _calls_outside(set(), {"FlatFluxKernel", "FlatWorkspace"}.__contains__)

        def in_rank_set(site):
            path, line = site.split()[0].rsplit(":", 1)
            return path == "cluster/flux.py" and int(line) in lines

        assert [site for site in sites if not in_rank_set(site)] == []
        assert len(sites) == 2

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
        and the exchange's tables by ``pe.row`` leaves 6.3 / 5.3.  A
        per-PE bind, dict or comprehension coming back lands over 7."""
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
        assert calls <= 7 * side * side, f"{calls / side / side:.1f} per PE"

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
        the exchange's tables by ``pe.row``) it reads 3.09 / 3.06 KiB
        (1.74 / 6.9 MiB): the scratchpads, their block rows and the
        routers.  The bound is that plus about 10%: per-PE copies coming
        back cross it."""
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
        assert per_pe <= 3.4 * 1024, f"{per_pe / 1024:.2f} KiB per PE"

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
        receive tasks that book only cycles it reads 38 476 (2.37): per
        message one `send`, per received column the exchange's task and
        `on_data`, per control wavelet the router's `advance`.  A
        per-hop, per-delivery or per-send frame coming back lands over
        2.6.  A watchdog-armed application (every `repro chaos` and
        `repro supervise --inject` driver) walks the same loop, checked
        once per timestamp, to the same bytes: a per-event loop of
        `_arrive` frames for armed runs read 4.30."""
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
        assert max(counts.values()) <= 2.6, counts
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
        first residual 265 modules are loaded (the ledger's
        `import.modules` is the exact measurement); 290 is the tripwire
        for a new top-level import (the eager package inits loaded 291,
        SciPy adds ~360)."""
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
    "repro.dataflow.padded.PaddedFlatLayout": "mesh fluid trans ir halo_copies",
    "repro.dataflow.padded.PaddedSweep": "layout fold name record",
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
    "repro.core.flat.FlatFluxKernel": "mesh fluid workspace",
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
        result, _metrics, _recorded, _leaked = runs[name]
        scale = float(np.abs(REFERENCE).max())
        assert result.residual.dtype == np.float64
        assert np.abs(result.residual - REFERENCE).max() <= RTOL * scale

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

    def test_the_pairs_are_the_documented_ones(self):
        classes = {}
        for name, entry in BACKENDS.items():
            classes.setdefault(entry.fold_class, []).append(name)
        assert classes == {
            "event": ["event", "fused"], "lockstep": ["lockstep"],
            "gpu": ["gpu"], "host": ["cluster", "par"],
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
