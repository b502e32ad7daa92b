"""The backend table: every entry builds, runs and releases the same way.

One parametrized pass over :data:`repro.backends.BACKENDS` on a 6x5x3
lognormal mesh replaces per-backend construction boilerplate elsewhere:
if an entry is added, it is exercised here without touching this file.
"""

import ast
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
        import repro

        drivers = {
            "WseFluxComputation", "LockstepWseSimulation",
            "FusedFluxComputation", "GpuFluxComputation",
            "ClusterFluxComputation", "ParClusterFluxComputation",
        }
        root = Path(repro.__file__).parent
        allowed = {root / "backends.py", root / "ir" / "lower.py"}
        offenders = []
        for path in sorted(set(root.rglob("*.py")) - allowed):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", "")
                if called in drivers or called.startswith("lower_to_"):
                    offenders.append(
                        f"{path.relative_to(root)}:{node.lineno} {called}"
                    )
        assert offenders == []

    def test_only_the_exchange_states_the_neighbour_protocol(self):
        """The Sec. 5.2 protocol has one statement: the channel formulas
        are named (imported, called, passed on) only by the modules that
        define them, ``ColumnExchange``, the listing and the IR compiler,
        and nothing outside ``repro/wse`` but the exchange sends a
        control wavelet.  A fabric program that grows its own routing or
        send-once rule again fails here."""
        import repro

        root = Path(repro.__file__).parent
        dataflow = root / "dataflow"
        formulas = {"switch_positions_for", "static_position", "is_step1_sender"}
        may_name_formulas = {
            dataflow / "exchange.py", dataflow / "cardinal.py",
            dataflow / "diagonal.py", dataflow / "codegen.py",
            root / "ir" / "builder.py",
        }
        offenders = []
        for path in sorted(root.rglob("*.py")):
            guarded = set() if path in may_name_formulas else set(formulas)
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

    @pytest.mark.parametrize("side", [24, 48])
    def test_event_lowering_is_by_class_not_by_pe(self, side):
        """A set-up budget with no clock in it: Python frames entered
        while `lower_to_event` runs, per PE.  The parent of PR 22 spent
        322 (one `alloc_array` per PE per name, one `route_for` ->
        `configure` round trip per router per color); planning memory
        once and installing route classes leaves ~37, the same at both
        sizes.  A per-PE-per-name or per-router-per-color Python loop
        that comes back costs >= 8 per PE each and lands over 100."""
        import sys

        import repro.dataflow.driver  # noqa: F401  lower_to_event's lazy import
        from repro.core import Transmissibility
        from repro.ir import derive_ir
        from repro.ir.lower import lower_to_event

        mesh = make_geomodel(side, side, 8, kind="lognormal", seed=7)
        trans, ir = Transmissibility(mesh), derive_ir(mesh)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            drv = lower_to_event(ir, mesh, FLUID, trans)
        finally:
            sys.setprofile(previous)
        release(drv)
        assert calls <= 100 * side * side, f"{calls / side / side:.0f} per PE"

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
