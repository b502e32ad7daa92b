"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_validate_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert (args.nx, args.ny, args.nz) == (6, 5, 4)
        assert args.geomodel == "lognormal"


class TestTables:
    def test_reproduces_all_artifacts(self):
        code, out = run_cli("tables")
        assert code == 0
        assert "Table 1" in out
        assert "0.0823" in out
        assert "Table 2" in out
        assert "Table 3" in out
        assert "Table 4" in out
        assert "140 FLOPs/cell" in out
        assert "Fig. 8" in out
        assert "GFLOP/W" in out


class TestValidate:
    def test_passes_on_default_mesh(self):
        code, out = run_cli("validate")
        assert code == 0
        assert out.splitlines()[1:] == [
            "  gpu/raja      phased fold: bytes equal",
            "  gpu/cuda      phased fold: bytes equal",
            "  wse/event     event fold: bytes equal",
            "  wse/lockstep  phased fold: bytes equal",
            "VALIDATION PASSED",
        ]

    def test_channelized_workload(self):
        code, out = run_cli(
            "validate", "--geomodel", "channelized", "--nx", "5",
            "--ny", "5", "--nz", "2", "--seed", "3",
        )
        assert code == 0
        assert "VALIDATION PASSED" in out


class TestScaling:
    def test_prints_all_rows(self):
        code, out = run_cli("scaling")
        assert code == 0
        assert "200x200x246" in out
        assert "750x950x246" in out
        assert "x" in out  # speedup column

    def test_applications_flag(self):
        code, out = run_cli("scaling", "--applications", "10")
        assert code == 0
        assert "10 applications" in out


class TestListing:
    def test_emits_program(self):
        code, out = run_cli("listing", "--nx", "3", "--ny", "3", "--nz", "4")
        assert code == 0
        assert "@get_color" in out
        assert "flux_face" in out
        assert "mesh 3 x 3 x 4" in out


class TestInject:
    def test_short_run_conserves_mass(self):
        code, out = run_cli("inject", "--steps", "2")
        assert code == 0
        assert "mass balance error" in out
