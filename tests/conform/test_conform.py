"""Cross-backend conformance: replay, divergence localization, goldens."""

import numpy as np
import pytest

from repro.conform import (
    BACKENDS,
    named_tolerance,
    record_run,
    replay,
    run_golden,
)
from repro.faults import FaultPlan
from repro.obs.replay import ReplayArtifact, digest_array


@pytest.fixture(scope="module")
def cluster_artifact():
    return record_run("cluster", nx=4, ny=4, nz=3, applications=2)


SERIAL_BACKENDS = [b for b in BACKENDS if b != "par"]


class TestReplay:
    @pytest.mark.parametrize("backend", SERIAL_BACKENDS)
    def test_cluster_recording_replays_everywhere(
        self, cluster_artifact, backend
    ):
        result = replay(cluster_artifact, backend)
        assert result.ok, result.render()
        assert result.steps_checked == 2
        assert result.divergence is None

    def test_same_fold_class_is_bit_exact(self, cluster_artifact):
        result = replay(cluster_artifact, "cluster")
        assert result.tolerance == "bit-exact"
        assert all(s["match"] == "bit-exact" for s in result.steps)

    def test_cross_fold_class_uses_ulp_budget(self, cluster_artifact):
        result = replay(cluster_artifact, "event")
        assert result.tolerance == "ulp-bounded"
        assert result.ok

    def test_render_mentions_backends(self, cluster_artifact):
        result = replay(cluster_artifact, "gpu")
        text = result.render()
        assert "cluster -> gpu" in text and "[PASS]" in text

    def test_rejects_unknown_backend(self, cluster_artifact):
        with pytest.raises(ValueError):
            replay(cluster_artifact, "tpu")


class TestDivergenceLocalization:
    def _perturbed(self, artifact, step, cell):
        # flip the recorded truth by exactly one ulp at one cell, so a
        # faithful replay must be reported as diverging there
        snapshots = {k: v.copy() for k, v in artifact.snapshots.items()}
        snap = snapshots[step]
        snap[cell] = np.nextafter(snap[cell], np.inf)
        meta = {**artifact.meta}
        steps = [dict(s) for s in artifact.steps]
        steps[step]["residual_sha256"] = digest_array(snap)
        meta["steps"] = steps
        return ReplayArtifact(meta=meta, snapshots=snapshots)

    def test_one_ulp_perturbation_caught_bit_exact(self, cluster_artifact):
        cell = (2, 1, 3)
        bad = self._perturbed(cluster_artifact, 1, cell)
        result = replay(bad, "cluster")
        assert not result.ok
        div = result.divergence
        assert div.step == 1
        assert div.cell == cell
        assert div.ulps == 1.0
        assert div.pe == (cell[2], cell[1])  # PE (x, y) owns the column
        assert div.expected_bits != div.actual_bits
        assert "FIRST DIVERGENCE at step 1" in div.render()

    def test_earliest_divergence_wins(self, cluster_artifact):
        bad = self._perturbed(cluster_artifact, 0, (0, 0, 0))
        bad = self._perturbed(bad, 1, (1, 1, 1))
        result = replay(bad, "cluster")
        assert result.divergence.step == 0
        assert result.steps_checked == 1  # stopped at first divergence

    def test_tolerance_override_tightens(self, cluster_artifact):
        # event replays a cluster recording within ulps, but demanding
        # bit-exactness across fold classes must fail and localize
        result = replay(
            cluster_artifact, "event",
            tolerance=named_tolerance("bit-exact"),
        )
        assert not result.ok
        assert result.divergence.step == 0
        assert result.divergence.cell is not None

    def test_divergence_as_dict_is_jsonable(self, cluster_artifact):
        import json

        bad = self._perturbed(cluster_artifact, 0, (0, 2, 1))
        result = replay(bad, "cluster")
        doc = json.loads(json.dumps(result.as_dict()))
        assert doc["divergence"]["step"] == 0
        assert doc["divergence"]["cell"] == [0, 2, 1]


class TestFaultedReplay:
    def test_faulted_recording_replays_bit_exact(self):
        # recovery must reproduce the fault-free bits, so a replay that
        # re-injects the recorded plan still matches bit-for-bit
        plan = FaultPlan.seeded(
            7, fabric_shape=(4, 4), ranks=4
        ).only_ranks()
        assert plan.rank_failures  # seed 7 must actually fault a rank
        art = record_run(
            "cluster", nx=4, ny=4, nz=3, applications=2,
            seed=7, plan=plan,
        )
        assert art.meta["fault_plan"] is not None
        result = replay(art, "cluster")
        assert result.ok, result.render()
        assert result.tolerance == "bit-exact"

    @pytest.mark.parametrize("backend", ["fused", "lockstep", "gpu"])
    def test_recovered_recording_replays_on_non_injecting_backends(
        self, backend
    ):
        # a recording of a recovered run holds healthy residuals, so a
        # backend that cannot inject the plan drops it and replays clean
        from repro.conform.runner import golden_dir

        art = ReplayArtifact.load(golden_dir() / "faulted-recovery.rpz")
        assert art.meta["fault_plan"]
        result = replay(art, backend)
        assert result.ok, result.render()
        # lockstep and gpu share the cluster recording's fold class
        assert result.tolerance == ("ulp-bounded" if backend == "fused" else "bit-exact")


class TestGoldenRegistry:
    def test_golden_registry_passes(self):
        results = run_golden(skip_par=True)
        assert results, "golden registry is empty"
        failed = [r.render() for r in results if not r.ok]
        assert not failed, "\n".join(failed)

    def test_forced_order_entry_demands_bits(self):
        results = run_golden(backends=["lockstep", "gpu"], skip_par=True)
        forced = [r for r in results if r.artifact == "forced-order"]
        assert [r.replay_backend for r in forced] == ["lockstep", "gpu"]
        assert all(r.tolerance == "bit-exact" and r.ok for r in forced)
