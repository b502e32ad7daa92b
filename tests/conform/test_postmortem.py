"""Chaos post-mortem bundles: failed drills leave replayable evidence."""

import pytest

from repro.conform import replay
from repro.faults import FaultPlan, run_chaos
from repro.faults.chaos import SCENARIOS
from repro.faults.plan import DeadPE
from repro.obs.replay import ReplayArtifact

#: everything but the checkpoint and worker-process drills
FAST_DRILLS = [
    name for name in SCENARIOS
    if not name.startswith(("solver/", "checkpoint/", "par/"))
]


@pytest.fixture(scope="module")
def failed_report(tmp_path_factory):
    # a dead PE outside the fabric never fires -> NOT INJECTED -> the
    # drill fails deterministically without depending on seed luck
    plan = FaultPlan(seed=3, dead_pes=(DeadPE(50, 50),))
    out = tmp_path_factory.mktemp("postmortem")
    report = run_chaos(
        plan, nx=4, ny=4, nz=3, px=2, py=2,
        only=FAST_DRILLS,
        postmortem_dir=str(out),
    )
    return report


class TestPostmortemBundle:
    def test_failed_drill_records_bundle(self, failed_report):
        assert not failed_report.ok
        assert failed_report.postmortem_path is not None
        assert failed_report.postmortem_path.endswith(
            "chaos-seed3-postmortem.rpz"
        )

    def test_bundle_path_in_failure_line(self, failed_report):
        text = failed_report.render()
        assert "CHAOS FAILED" in text
        assert failed_report.postmortem_path in text
        assert failed_report.as_dict()["postmortem_path"] == (
            failed_report.postmortem_path
        )

    def test_bundle_carries_plan_and_failed_outcomes(self, failed_report):
        art = ReplayArtifact.load(failed_report.postmortem_path)
        pm = art.meta["postmortem"]
        assert pm["plan"] == failed_report.plan.to_dict()
        assert [o["status"] for o in pm["failed"]] == ["NOT INJECTED"]
        # the plan lives under the postmortem key, NOT fault_plan: a
        # plain replay of the bundle must run the healthy reference
        assert art.meta["fault_plan"] is None

    def test_bundle_replays_clean(self, failed_report):
        art = ReplayArtifact.load(failed_report.postmortem_path)
        result = replay(art, "event")
        assert result.ok, result.render()

    def test_passing_drill_records_nothing(self, tmp_path):
        report = run_chaos(
            nx=4, ny=4, nz=3, seed=7, px=2, py=2,
            only=FAST_DRILLS,
            postmortem_dir=str(tmp_path),
        )
        assert report.ok, report.render()
        assert report.postmortem_path is None
        assert list(tmp_path.iterdir()) == []
