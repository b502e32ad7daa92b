"""`repro check` on serialized IR reproduces findings on live objects.

The four known-bad fabrics from the analyzer test suites are captured
with :func:`ir_from_fabric`, round-tripped through JSON, and re-checked:
the findings must match the live ``check_fabric`` report exactly, and
each fabric's dedicated analyzer must report exactly one ERROR.  The
shipped example programs get the same treatment through
``check --program``-style serialized IR.
"""

import io

import numpy as np
import pytest

from repro.check import check_fabric, check_ir, check_program
from repro.check.runner import EXAMPLE_PROGRAMS
from repro.cli import main
from repro.ir import FabricProgramIR, build_ir, ir_from_fabric
from repro.wse.fabric import Fabric
from repro.wse.geometry import Port
from repro.wse.memory import WSE2_PE_MEMORY_BYTES

COLOR = 5


def _color_conflict() -> Fabric:
    fabric = Fabric(3, 1)
    fabric.router(0, 0).configure(COLOR, [{Port.RAMP: (Port.EAST,)}])
    fabric.router(1, 0).configure(
        COLOR, [{Port.RAMP: (Port.EAST,), Port.WEST: (Port.EAST,)}]
    )
    fabric.router(2, 0).configure(COLOR, [{Port.WEST: (Port.RAMP,)}])
    return fabric


def _deadlock_cycle() -> Fabric:
    # ColorConfig rejects u-turn entries unless asked to admit them, so
    # the corrupt classes are installed with allow_loops — exactly what
    # ir_from_fabric and check_ir's materialization must both preserve.
    fabric = Fabric(2, 1)
    fabric.install_routes(
        COLOR,
        [
            ([{Port.RAMP: (Port.EAST,), Port.EAST: (Port.EAST,)}], 0),
            ([{Port.WEST: (Port.WEST,)}], 0),
        ],
        [0, 1],
        allow_loops=True,
    )
    return fabric


def _mem_overflow() -> Fabric:
    fabric = Fabric(2, 2, pe_memory_bytes=4 * WSE2_PE_MEMORY_BYTES)
    fabric.pe(1, 1).memory.alloc_array(
        "column", (WSE2_PE_MEMORY_BYTES // 4 + 16,), dtype=np.float32
    )
    return fabric


def _switch_stale() -> Fabric:
    fabric = Fabric(2, 1)
    fabric.router(1, 0).configure(
        COLOR, [{Port.WEST: (Port.RAMP,)}, {Port.NORTH: (Port.RAMP,)}]
    )
    return fabric


#: code -> (factory, the analyzer that reports it)
BAD_FABRICS = {
    "color-conflict": (_color_conflict, "colors"),
    "deadlock-cycle": (_deadlock_cycle, "deadlock"),
    "mem-overflow": (_mem_overflow, "memory"),
    "switch-stale": (_switch_stale, "switches"),
}


def _key(finding):
    return (
        finding.severity.name,
        finding.code,
        finding.message,
        finding.coord,
        finding.color,
    )


def _round_trip(ir, tmp_path) -> FabricProgramIR:
    path = tmp_path / "ir.json"
    ir.to_json(path)
    return FabricProgramIR.from_json(path)


class TestKnownBadFabrics:
    @pytest.mark.parametrize("code", sorted(BAD_FABRICS))
    def test_ir_findings_match_live_findings(self, code, tmp_path):
        factory, _analyzer = BAD_FABRICS[code]
        fabric = factory()
        live = check_fabric(fabric)
        ir = _round_trip(ir_from_fabric(fabric), tmp_path)
        via_ir = check_ir(ir)
        assert sorted(map(_key, via_ir.findings)) == sorted(
            map(_key, live.findings)
        )
        assert any(f.code == code for f in via_ir.errors)

    @pytest.mark.parametrize("code", sorted(BAD_FABRICS))
    def test_dedicated_analyzer_reports_exactly_one_error(
        self, code, tmp_path
    ):
        factory, analyzer = BAD_FABRICS[code]
        ir = _round_trip(ir_from_fabric(factory()), tmp_path)
        report = check_ir(ir, only={analyzer})
        assert len(report.errors) == 1
        assert report.errors[0].code == code


class TestExamplesThroughSerializedIR:
    @pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
    def test_serialized_ir_report_matches_live_report(self, name, tmp_path):
        program = EXAMPLE_PROGRAMS[name]()
        live = check_program(program)
        ir = _round_trip(build_ir(program), tmp_path)
        via_ir = check_ir(ir)
        assert sorted(map(_key, via_ir.findings)) == sorted(
            map(_key, live.findings)
        )
        assert live.ok and via_ir.ok


class TestCliProgramFlag:
    def test_emit_then_verify_round_trip(self, tmp_path):
        path = tmp_path / "program.json"
        code = main(
            [
                "check",
                "--nx", "4", "--ny", "3", "--nz", "3",
                "--emit-ir", str(path),
            ],
            out=io.StringIO(),
        )
        assert code == 0
        assert path.exists()
        assert main(["check", "--program", str(path)], out=io.StringIO()) == 0

    def test_missing_file_is_usage_error_naming_path(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        code = main(["check", "--program", str(missing)], out=io.StringIO())
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    def test_invalid_json_is_usage_error_naming_path(self, capsys, tmp_path):
        mangled = tmp_path / "mangled.json"
        mangled.write_text("{this is not json", encoding="utf-8")
        code = main(["check", "--program", str(mangled)], out=io.StringIO())
        assert code == 2
        assert "mangled.json" in capsys.readouterr().err
