"""End-to-end CLI: ``repro conform`` and the par-backend ``repro trace``."""

import io
import json

import pytest

from repro.cli import main


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


class TestConformCommand:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "cluster.rpz"
        code, text = run_cli(
            ["conform", "--record", "--backend", "cluster",
             "--nx", "4", "--ny", "4", "--nz", "3",
             "--applications", "2", "--out", str(path)]
        )
        assert code == 0 and path.exists(), text
        return path

    def test_record_prints_description(self, artifact, tmp_path):
        code, text = run_cli(
            ["conform", "--record", "--backend", "cluster",
             "--nx", "4", "--ny", "4", "--nz", "3",
             "--applications", "2", "--out", str(tmp_path / "a.rpz")]
        )
        assert code == 0
        assert "recorded cluster run" in text

    def test_replay_passes_and_reports(self, artifact, tmp_path):
        report = tmp_path / "rep"
        code, text = run_cli(
            ["conform", str(artifact), "--backend", "event",
             "--report", str(report)]
        )
        assert code == 0
        assert "[PASS]" in text and "cluster -> event" in text
        doc = json.loads((report / "conform.json").read_text())
        assert doc["ok"] is True
        assert doc["results"][0]["replay_backend"] == "event"

    def test_forced_bit_exact_mismatch_exits_nonzero(
        self, artifact, tmp_path
    ):
        report = tmp_path / "rep"
        code, text = run_cli(
            ["conform", str(artifact), "--backend", "event",
             "--tolerance", "bit-exact", "--report", str(report)]
        )
        assert code == 1
        assert "[FAIL]" in text and "FIRST DIVERGENCE" in text
        doc = json.loads((report / "conform.json").read_text())
        assert doc["ok"] is False
        div = doc["results"][0]["divergence"]
        assert div["step"] == 0 and div["cell"] is not None

    def test_golden_mode(self, tmp_path):
        report = tmp_path / "rep"
        code, text = run_cli(
            ["conform", "--golden", "--backends", "cluster,lockstep",
             "--report", str(report)]
        )
        assert code == 0, text
        assert "golden replay(s) passed" in text
        doc = json.loads((report / "conform.json").read_text())
        assert doc["ok"] is True and doc["results"]

    def test_golden_mode_rejects_unknown_backend_names(self, capsys):
        code, text = run_cli(
            ["conform", "--golden", "--backends", "lockstep,fuzed"]
        )
        assert code == 2 and "[PASS]" not in text
        err = capsys.readouterr().err
        assert "'fuzed'" in err and "event, fused, lockstep" in err

    def test_replay_without_backend_is_usage_error(self, artifact):
        code, _ = run_cli(["conform", str(artifact)])
        assert code == 2

    def test_no_mode_is_usage_error(self):
        code, _ = run_cli(["conform"])
        assert code == 2


class TestTraceParBackend:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("trace-par")
        code, text = run_cli(
            ["trace", "--backend", "par", "--workers", "2",
             "--nx", "6", "--ny", "6", "--nz", "3",
             "--applications", "2", "--out", str(outdir)]
        )
        return code, text, outdir

    def test_exit_code(self, artifacts):
        code, text, _ = artifacts
        assert code == 0, text

    def test_merged_timeline_has_multiple_worker_pids(self, artifacts):
        _, _, outdir = artifacts
        doc = json.loads((outdir / "trace.json").read_text())
        events = doc["traceEvents"]
        worker_pids = {
            e["pid"] for e in events if e["ph"] == "X" and e["pid"] != 1
        }
        assert len(worker_pids) >= 2  # spans from distinct OS processes
        named = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        for pid in worker_pids:
            assert named[pid] == f"par worker (pid {pid})"

    def test_host_spans_still_present(self, artifacts):
        _, _, outdir = artifacts
        doc = json.loads((outdir / "trace.json").read_text())
        host = {
            e["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 1
        }
        assert any(name.startswith("par.") for name in host)

    def test_report_merges_rank_stats(self, artifacts):
        _, text, outdir = artifacts
        doc = json.loads((outdir / "report.json").read_text())
        metrics = doc["metrics"]
        assert "par" in metrics and "par_ranks_merged" in metrics
        merged = metrics["par_ranks_merged"]
        assert merged["messages_sent"] > 0
        assert "distinct worker pid(s)" in text

    def test_trace_json_byte_stable_keys(self, artifacts):
        _, _, outdir = artifacts
        raw = (outdir / "trace.json").read_text()
        doc = json.loads(raw)
        assert raw == json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        ) + "\n"
