"""Tests for the scaling harnesses and their CLI front end."""

import json

import pytest

from repro.cli import main
from repro.par.runtime import available_cpus
from repro.par.scale import parse_grids, render_scaling, weak_scaling


class TestParseGrids:
    def test_basic(self):
        assert parse_grids("1x1,2x2,3x2") == [(1, 1), (2, 2), (3, 2)]

    def test_whitespace_and_case(self):
        assert parse_grids(" 1x1 , 2X2 ") == [(1, 1), (2, 2)]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="expected PXxPY"):
            parse_grids("1x1,banana")
        with pytest.raises(ValueError, match="no grids"):
            parse_grids(" , ")


class TestWeakScaling:
    @pytest.fixture(scope="class")
    def points(self):
        return weak_scaling(
            [(1, 1), (2, 1)], base_nx=6, base_ny=6, nz=2, applications=1
        )

    def test_base_point_is_reference(self, points):
        assert points[0].measured_efficiency == 1.0
        assert points[0].modelled_efficiency == 1.0
        assert points[0].ranks == 1

    def test_measured_alongside_modelled(self, points):
        for pt in points:
            assert pt.measured_seconds > 0
            assert pt.modelled_seconds > 0
            assert pt.measured_efficiency > 0
            assert pt.modelled_efficiency > 0

    def test_every_point_verified(self, points):
        assert all(pt.bit_identical for pt in points)

    def test_weak_scaling_grows_mesh(self, points):
        assert points[0].nx == 6
        assert points[1].nx == 12
        assert points[1].ny == 6

    def test_distinct_pids_reported(self, points):
        assert points[1].distinct_pids == 2

    def test_render_table(self, points):
        table = render_scaling(points)
        assert "model eff" in table
        assert "1x1" in table and "2x1" in table
        assert "yes" in table


class TestParScaleCli:
    def test_cli_runs_and_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "scale.json"
        code = main(
            [
                "par-scale",
                "--grids", "1x1,2x1",
                "--base-nx", "6", "--base-ny", "6", "--nz", "2",
                "--applications", "1",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert len(doc) == 2
        assert doc[0]["measured_efficiency"] == 1.0
        assert all(pt["bit_identical"] for pt in doc)

    def test_cli_rejects_bad_grids(self, capsys):
        assert main(["par-scale", "--grids", "nope"]) == 2

    def test_cli_rejects_workers_beyond_cpus(self, capsys):
        """Requesting more workers than usable CPUs is a usage error:
        an oversubscribed run cannot measure scaling."""
        too_many = available_cpus() + 1
        code = main(["par-scale", "--workers", str(too_many)])
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    def test_cli_rejects_workers_below_one(self, capsys):
        assert main(["par-scale", "--workers", "0"]) == 2
        assert ">= 1" in capsys.readouterr().err

    # the strong-scaling sweep (--mesh / --grid / a comma list of worker
    # counts) is gone: the ledger's par.* rows on par_2w_128x128x16 are
    # that measurement now, and its options are argparse usage errors
    def _usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["par-scale", *argv])
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    def test_cli_rejects_sweep_list_without_mesh(self, capsys):
        err = self._usage_error(["--workers", "1,2"], capsys)
        assert "invalid int value" in err

    def test_cli_rejects_bad_mesh(self, capsys):
        for mesh in ("8x8x2", "12x10"):
            err = self._usage_error(["--mesh", mesh], capsys)
            assert "unrecognized arguments: --mesh" in err
