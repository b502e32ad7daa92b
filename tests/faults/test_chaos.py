"""The chaos harness and the ``repro chaos`` CLI end to end."""

import io
import json

import pytest

from repro.cli import main
from repro.faults import ChaosReport, FaultOutcome, FaultPlan, run_chaos
from repro.faults.chaos import _TABLE, SCENARIOS

#: every scenario but the two checkpoint drills (``only=`` is the one
#: selector; these tests do not need the SciPy-backed solver)
NO_CHECKPOINT_DRILLS = [
    name for name in SCENARIOS
    if name not in ("solver/checkpoint-restart", "checkpoint/corruption")
]


class TestOutcomeSemantics:
    def test_status_ladder(self):
        base = dict(scenario="s", fault="f", injected=True)
        assert FaultOutcome(**base, detected=False, recovered=True).status == "RECOVERED"
        assert FaultOutcome(**base, detected=True, recovered=False).status == "DETECTED"
        assert (
            FaultOutcome(**base, detected=False, recovered=False, benign=True).status
            == "BENIGN"
        )
        assert FaultOutcome(**base, detected=False, recovered=False).status == "MISSED"
        missed = FaultOutcome(
            scenario="s", fault="f", injected=False, detected=True, recovered=True
        )
        assert missed.status == "NOT INJECTED"
        assert not missed.ok

    def test_empty_report_is_not_ok(self):
        report = ChaosReport(seed=0, fabric_shape=(4, 4), ranks=4, plan=FaultPlan())
        assert not report.ok


class TestRunChaos:
    def test_seeded_plan_fully_detected_or_recovered(self):
        """The ISSUE acceptance scenario: seeded plan on a 4x4 fabric with
        a dead PE, a lossy link and a transient rank failure."""
        report = run_chaos(seed=7)
        assert report.ok, report.render()
        scenarios = {o.scenario: o for o in report.outcomes}
        assert scenarios["dead-pe/detect"].detected
        assert scenarios["dead-pe/remap"].recovered
        assert "bit-identical" in scenarios["dead-pe/remap"].detail
        assert scenarios["link-drop/detect"].detected
        assert scenarios["rank-failure/re-exchange"].recovered
        assert scenarios["par/worker-kill/detect"].detected
        assert scenarios["par/worker-kill/respawn"].recovered
        assert "bit-identical" in scenarios["par/worker-kill/respawn"].detail
        assert scenarios["solver/checkpoint-restart"].recovered

    def test_report_is_deterministic(self):
        a = run_chaos(seed=11, only=NO_CHECKPOINT_DRILLS)
        b = run_chaos(seed=11, only=NO_CHECKPOINT_DRILLS)
        assert a.as_dict() == b.as_dict()

    def test_router_stall_plan_trips_watchdog(self):
        plan = FaultPlan.seeded(
            3, fabric_shape=(4, 4),
            dead_pes=0, lossy_links=0, rank_failures=0,
            router_stalls=1, stall_cycles=1e6,
        )
        report = run_chaos(plan, only=["router-stall/watchdog"])
        assert report.ok
        (outcome,) = report.outcomes
        assert outcome.scenario == "router-stall/watchdog"
        assert "stalled" in outcome.detail

    def test_render_names_every_scenario(self):
        report = run_chaos(seed=7, only=NO_CHECKPOINT_DRILLS)
        text = report.render()
        for outcome in report.outcomes:
            assert outcome.scenario in text
        assert "CHAOS PASSED" in text


class TestScenarioTable:
    def test_public_mapping_is_the_table(self):
        """``SCENARIOS`` (name -> ``--list`` intent) and the table that
        runs the drills cannot drift apart, and stay in report order."""
        assert list(SCENARIOS) == list(_TABLE) == [
            "dead-pe/detect",
            "dead-pe/remap",
            "link-drop/detect",
            "link-corrupt/cross-check",
            "link-delay/detect",
            "router-stall/watchdog",
            "rank-failure/re-exchange",
            "par/worker-kill/detect",
            "par/worker-kill/respawn",
            "par/worker-hang/lease",
            "solver/checkpoint-restart",
            "checkpoint/corruption",
            "supervisor/transient-repeat",
            "supervisor/crash-during-recovery",
            "supervisor/degrade-ladder",
        ]
        assert all(SCENARIOS[name] == row.intent for name, row in _TABLE.items())

    def test_every_listed_name_is_accepted_by_only(self, tmp_path, capsys):
        out = io.StringIO()
        assert main(["chaos", "--list"], out=out) == 0
        listed = [line.split()[0] for line in out.getvalue().splitlines()]
        assert sorted(listed) == sorted(SCENARIOS)
        # an empty plan is rejected *after* --only has been validated, so
        # this exercises the selector without running a single drill
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(FaultPlan().to_dict()))
        code = main(["chaos", "--only", ",".join(listed), "--plan", str(empty)])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown chaos scenario" not in err
        assert "injects no faults" in err

    def test_unknown_name_raises_naming_the_valid_set(self):
        with pytest.raises(ValueError, match="no-such-drill.*dead-pe/detect"):
            run_chaos(seed=7, only=["no-such-drill"])

    def test_include_switches_are_gone(self):
        with pytest.raises(TypeError, match="include_par_drill"):
            run_chaos(seed=7, include_par_drill=False)


class TestChaosCli:
    def test_chaos_exit_zero_and_json_report(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "chaos.json"
        code = main(["chaos", "--seed", "7", "--out", str(path)], out=out)
        assert code == 0
        assert "CHAOS PASSED" in out.getvalue()
        doc = json.loads(path.read_text())
        assert doc["ok"] is True
        assert len(doc["outcomes"]) == 13
        assert doc["plan"]["seed"] == 7

    def test_chaos_accepts_a_plan_file(self, tmp_path):
        plan = FaultPlan.seeded(5, fabric_shape=(4, 4), ranks=4)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan.to_dict()))
        out = io.StringIO()
        code = main(["chaos", "--plan", str(plan_path)], out=out)
        assert code == 0
        assert "seed 5" in out.getvalue()

    def test_list_names_every_scenario(self):
        from repro.faults.chaos import SCENARIOS

        out = io.StringIO()
        code = main(["chaos", "--list"], out=out)
        assert code == 0
        text = out.getvalue()
        for name, blurb in SCENARIOS.items():
            assert name in text
            assert blurb in text

    def test_only_filters_to_the_named_scenarios(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "chaos.json"
        code = main([
            "chaos", "--seed", "7", "--postmortem", "none",
            "--only", "solver/checkpoint-restart,checkpoint/corruption",
            "--out", str(path),
        ], out=out)
        assert code == 0
        doc = json.loads(path.read_text())
        assert sorted(o["scenario"] for o in doc["outcomes"]) == [
            "checkpoint/corruption", "solver/checkpoint-restart",
        ]

    def test_unknown_only_name_is_a_usage_error(self, capsys):
        out = io.StringIO()
        code = main(["chaos", "--only", "no-such-drill"], out=out)
        assert code == 2
        err = capsys.readouterr().err
        assert "no-such-drill" in err
        assert "dead-pe/detect" in err  # names the valid set

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
        code = main(["chaos", "--plan", str(plan_path)], out=io.StringIO())
        assert code == 2
        assert f"error: {plan_path}: {reason}" in capsys.readouterr().err

    def test_empty_plan_file_is_a_usage_error(self, tmp_path, capsys):
        """An empty plan exercises nothing; exiting 0 on it would report
        a hollow green run.  It must be rejected as a usage error."""
        plan_path = tmp_path / "empty.json"
        plan_path.write_text(json.dumps(FaultPlan().to_dict()))
        out = io.StringIO()
        code = main(["chaos", "--plan", str(plan_path)], out=out)
        assert code == 2
        assert "injects no faults" in capsys.readouterr().err
