"""`repro supervise`: the CLI front end of the resilience supervisor."""

import io
import json

import pytest

from repro.cli import main


class TestSupervise:
    def test_clean_run_exits_zero(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "run.json"
        code = main([
            "supervise", "--applications", "2", "--postmortem", "none",
            "--out", str(path),
        ], out=out)
        assert code == 0
        text = out.getvalue()
        assert "SUPERVISION CLEAN" in text
        assert "2 application(s) committed on chain event" in text
        doc = json.loads(path.read_text())
        assert doc["backend_chain"] == ["event"]
        assert doc["restarts"] == 0
        assert len(doc["steps"]) == 2

    def test_injected_stall_is_recovered(self):
        out = io.StringIO()
        code = main([
            "supervise", "--inject", "--applications", "2",
            "--postmortem", "none",
        ], out=out)
        assert code == 0
        text = out.getvalue()
        assert "FabricStallError" in text
        assert "restored to application" in text
        assert "SUPERVISION RECOVERED" in text

    def test_policy_file_drives_the_run(self, tmp_path):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({
            "max_restarts": 1, "backoff_base": 0.0,
            "backoff_jitter": 0.0, "ladder": ["gpu", "lockstep"],
        }))
        out = io.StringIO()
        code = main([
            "supervise", "--backend", "gpu", "--applications", "1",
            "--policy", str(policy_path), "--postmortem", "none",
        ], out=out)
        assert code == 0
        assert "ladder gpu -> lockstep" in out.getvalue()

    def test_bad_policy_file_is_a_usage_error(self, tmp_path, capsys):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({"bogus_knob": 1}))
        out = io.StringIO()
        code = main([
            "supervise", "--policy", str(policy_path),
        ], out=out)
        assert code == 2
        assert "bad --policy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file or directory"),
            ('{"seed": 1, "dead_pes": "x"}', "not a fault plan (ValueError"),
        ],
    )
    def test_unreadable_plan_file_is_a_usage_error(
        self, content, reason, tmp_path, capsys
    ):
        plan_path = tmp_path / "plan.json"
        if content is not None:
            plan_path.write_text(content)
        code = main(["supervise", "--plan", str(plan_path)], out=io.StringIO())
        assert code == 2
        assert f"error: {plan_path}: {reason}" in capsys.readouterr().err

    def test_misspelt_ladder_rung_is_a_usage_error(self, tmp_path, capsys):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({"ladder": ["gpu", "lockstpe"]}))
        code = main(
            ["supervise", "--policy", str(policy_path)], out=io.StringIO()
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "bad --policy file" in err and "'lockstpe'" in err

    def test_zero_applications_is_a_usage_error(self, capsys):
        out = io.StringIO()
        code = main(["supervise", "--applications", "0"], out=out)
        assert code == 2
        assert "--applications" in capsys.readouterr().err

    def test_checkpoints_mirrored_to_disk(self, tmp_path):
        ckdir = tmp_path / "ck"
        out = io.StringIO()
        code = main([
            "supervise", "--applications", "2", "--postmortem", "none",
            "--checkpoint-dir", str(ckdir),
        ], out=out)
        assert code == 0
        assert sorted(p.name for p in ckdir.glob("*.npz")) == [
            "checkpoint_000001.npz", "checkpoint_000002.npz",
        ]
