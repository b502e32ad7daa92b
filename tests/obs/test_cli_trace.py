"""End-to-end: ``repro trace`` writes a Perfetto file + consistent report."""

import io
import json

import pytest

from repro.cli import main


#: where each backend's arithmetic runs: the slab sweep's spans
#: (DESIGN.md §16; lockstep's fold steps run its X-Y kernels, so it
#: stores no contributions, "rounds"), and the event backend's round
#: hooks inside each application (DESIGN.md §8 item 7)
SWEEP_SPANS = {
    "fused": {"fused.schedule", "fused.run", "fused.local", "fused.rounds", "fused.fold"},
    "lockstep": {"lockstep.run", "lockstep.local", "lockstep.fold"},
    "event": {"wse.application", "wse.flux_local", "wse.drain_events", "wse.flux_round"},
}


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


class TestEventBackend:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("trace-event")
        code, text = run_cli(
            ["trace", "--nx", "4", "--ny", "4", "--nz", "3",
             "--applications", "1", "--out", str(outdir)]
        )
        return code, text, outdir

    def test_exit_code_is_consistency_verdict(self, artifacts):
        code, _, _ = artifacts
        assert code == 0  # nonzero would mean aggregates != runtime counters

    def test_report_text(self, artifacts):
        _, text, _ = artifacts
        assert "Per-color traffic" in text
        assert "per-PE outbound words" in text
        assert "OK" in text and "MISMATCH" not in text

    def test_perfetto_document(self, artifacts):
        _, _, outdir = artifacts
        doc = json.loads((outdir / "trace.json").read_text())
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        # host spans, fabric instants and process metadata all present
        assert {"X", "i", "M"} <= {e["ph"] for e in events}
        for e in events:
            assert "name" in e and "ph" in e and "pid" in e

    def test_report_json_consistency(self, artifacts):
        _, _, outdir = artifacts
        doc = json.loads((outdir / "report.json").read_text())
        check = doc["consistency"]
        assert check["messages_match"] and check["word_hops_match"]
        assert check["per_color_messages"] == check["stats_messages_delivered"]
        trace = doc["trace"]
        assert trace["deliveries"] == check["stats_messages_delivered"]
        assert trace["link_word_hops"] == check["stats_fabric_word_hops"]
        assert doc["pe_heatmap"]  # 4x4 fabric grid
        assert doc["metrics"]  # registry snapshot rides along
        assert doc["spans"]  # phase timers were recording
        assert SWEEP_SPANS["event"] <= set(doc["spans"])
        # one X-Y pass per application, not one kernel call per halo
        assert doc["spans"]["wse.flux_round"]["count"] == 1


class TestOtherBackends:
    def test_lockstep(self, tmp_path):
        code, text = run_cli(
            ["trace", "--backend", "lockstep", "--nx", "4", "--ny", "4",
             "--nz", "3", "--applications", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["metrics"] and SWEEP_SPANS["lockstep"] <= set(doc["spans"])
        assert "lockstep.rounds" in doc["spans"]  # its four X-Y kernels
        # no fabric sink for lockstep, but the span timeline still exports
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_fused_shows_setup_and_fold_lines(self, tmp_path):
        code, _ = run_cli(
            ["trace", "--backend", "fused", "--nx", "7", "--ny", "6",
             "--nz", "3", "--applications", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert "fused" in doc["metrics"]
        assert {"ir.derive"} | SWEEP_SPANS["fused"] <= set(doc["spans"])
        assert doc["spans"]["ir.derive"]["total_seconds"] > 0

    def test_gpu(self, tmp_path):
        code, _ = run_cli(
            ["trace", "--backend", "gpu", "--variant", "raja", "--nx", "4",
             "--ny", "4", "--nz", "3", "--applications", "1",
             "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert "gpu" in doc["metrics"]

    def test_cluster(self, tmp_path):
        code, _ = run_cli(
            ["trace", "--backend", "cluster", "--nx", "4", "--ny", "4",
             "--nz", "3", "--applications", "1", "--px", "2", "--py", "1",
             "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert "cluster" in doc["metrics"]


class TestProfileFlag:
    def test_profile_and_baseline_diff(self, tmp_path):
        base = tmp_path / "base"
        code, text = run_cli(
            ["trace", "--nx", "3", "--ny", "3", "--nz", "3",
             "--applications", "1", "--profile", "--out", str(base)]
        )
        assert code == 0
        profile_path = base / "profile.json"
        rows = json.loads(profile_path.read_text())
        assert rows and all("cumtime" in r for r in rows)
        code, text = run_cli(
            ["trace", "--nx", "3", "--ny", "3", "--nz", "3",
             "--applications", "1", "--profile",
             "--profile-baseline", str(profile_path)]
        )
        assert code == 0
        assert "delta" in text  # diff columns rendered

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file or directory"),
            ("{not json", "not a profile (JSONDecodeError"),
            ('{"function": "f"}', "not a profile (ValueError"),
        ],
    )
    def test_unreadable_baseline_is_a_usage_error_before_the_run(
        self, content, reason, tmp_path, capsys
    ):
        path = tmp_path / "profile.json"
        if content is not None:
            path.write_text(content)
        code, text = run_cli(
            ["trace", "--nx", "3", "--ny", "3", "--nz", "3", "--profile",
             "--profile-baseline", str(path)]
        )
        assert code == 2 and text == ""  # nothing ran, nothing printed
        assert f"error: {path}: {reason}" in capsys.readouterr().err
