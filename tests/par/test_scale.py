"""Tests for the scaling harnesses and their CLI front end."""

import json

import pytest

from repro.cli import main
from repro.par.runtime import available_cpus
from repro.par.scale import (
    parse_grids,
    parse_mesh,
    parse_workers,
    render_scaling,
    render_sweep,
    weak_scaling,
    worker_sweep,
)


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


class TestParseMeshAndWorkers:
    def test_parse_mesh(self):
        assert parse_mesh("64x64x8") == (64, 64, 8)
        assert parse_mesh(" 12X10x4 ") == (12, 10, 4)

    def test_parse_mesh_rejects_garbage(self):
        with pytest.raises(ValueError, match="expected NXxNYxNZ"):
            parse_mesh("64x64")
        with pytest.raises(ValueError, match=">= 1"):
            parse_mesh("0x4x4")

    def test_parse_workers(self):
        assert parse_workers("4") == [4]
        assert parse_workers(" 1, 2 ,4 ") == [1, 2, 4]

    def test_parse_workers_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad worker count"):
            parse_workers("1,two")
        with pytest.raises(ValueError, match=">= 1"):
            parse_workers("0")
        with pytest.raises(ValueError, match="no worker counts"):
            parse_workers(" , ")


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


class TestWorkerSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return worker_sweep(
            [1, 2], nx=12, ny=10, nz=2, px=2, py=1,
            applications=2, repeats=1,
        )

    def test_fixed_mesh_varying_workers(self, points):
        assert [pt.workers for pt in points] == [1, 2]
        assert all((pt.nx, pt.ny, pt.nz) == (12, 10, 2) for pt in points)
        assert points[1].distinct_pids == 2

    def test_every_point_verified(self, points):
        assert all(pt.bit_identical for pt in points)

    def test_speedup_and_efficiency_consistent(self, points):
        for pt in points:
            assert pt.speedup == pytest.approx(
                pt.serial_seconds / pt.par_seconds
            )
            assert pt.efficiency == pytest.approx(pt.speedup / pt.workers)

    def test_rejects_more_workers_than_ranks(self):
        with pytest.raises(ValueError, match="workers must be in"):
            worker_sweep(
                [4], nx=8, ny=8, nz=2, px=2, py=1, applications=1,
                repeats=1,
            )

    def test_render_table(self, points):
        table = render_sweep(points)
        assert "speedup" in table
        assert "overlap" not in table
        assert "12x10x2" in table
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

    def test_cli_sweep_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        code = main(
            [
                "par-scale",
                "--mesh", "12x10x2", "--grid", "2x1", "--workers", "1",
                "--applications", "1",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert [pt["workers"] for pt in doc] == [1]
        assert "overlap" not in doc[0]
        assert all(pt["bit_identical"] for pt in doc)
        assert doc[0]["speedup"] > 0

    def test_cli_rejects_workers_beyond_cpus(self, capsys):
        """Requesting more workers than usable CPUs is a usage error:
        an oversubscribed sweep cannot measure scaling."""
        too_many = available_cpus() + 1
        code = main(
            ["par-scale", "--mesh", "8x8x2", "--workers", str(too_many)]
        )
        assert code == 2
        assert "exceeds" in capsys.readouterr().err

    def test_cli_rejects_sweep_list_without_mesh(self, capsys):
        code = main(["par-scale", "--workers", "1,2"])
        err = capsys.readouterr().err
        assert code == 2
        # on a 1-CPU host the CPU bound trips first; either way exit 2
        assert "needs --mesh" in err or "exceeds" in err

    def test_cli_rejects_bad_mesh(self, capsys):
        assert main(["par-scale", "--mesh", "12x10"]) == 2

    def test_cli_rejects_more_workers_than_ranks(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.par.runtime.available_cpus", lambda: 64
        )
        code = main(
            ["par-scale", "--mesh", "8x8x2", "--grid", "2x1",
             "--workers", "4"]
        )
        assert code == 2
        assert "rank(s)" in capsys.readouterr().err
