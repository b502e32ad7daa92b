"""Replay artifact container: byte-stability, schema, snapshot policy."""

import json
import zipfile

import numpy as np
import pytest

from repro.conform import record_run
from repro.core import CartesianMesh3D, FluidProperties, random_pressure
from repro.dataflow import WseFluxComputation
from repro.obs.replay import (
    ARTIFACT_KIND,
    SCHEMA_VERSION,
    ReplayArtifact,
    ReplayRecorder,
    digest_array,
)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    art = record_run("cluster", nx=4, ny=4, nz=3, applications=2)
    path = art.save(tmp_path_factory.mktemp("rpz") / "run.rpz")
    return art, path


class TestDigest:
    def test_covers_bits_not_values(self):
        a = np.asarray([0.0])
        b = np.asarray([-0.0])
        assert a[0] == b[0]
        assert digest_array(a) != digest_array(b)

    def test_covers_dtype_and_shape(self):
        a = np.zeros(4, dtype=np.float64)
        assert digest_array(a) != digest_array(a.astype(np.float32))
        assert digest_array(a) != digest_array(a.reshape(2, 2))

    def test_layout_independent(self):
        a = np.arange(12.0).reshape(3, 4)
        assert digest_array(a.T) == digest_array(np.ascontiguousarray(a.T))


class TestContainer:
    def test_save_load_save_byte_identical(self, recorded, tmp_path):
        art, path = recorded
        again = ReplayArtifact.load(path).save(tmp_path / "again.rpz")
        assert again.read_bytes() == path.read_bytes()

    def test_re_record_byte_identical(self, recorded, tmp_path):
        art, path = recorded
        fresh = record_run("cluster", nx=4, ny=4, nz=3, applications=2)
        fresh_path = fresh.save(tmp_path / "fresh.rpz")
        assert fresh_path.read_bytes() == path.read_bytes()

    def test_loaded_snapshots_bit_identical(self, recorded):
        art, path = recorded
        loaded = ReplayArtifact.load(path)
        for index, snap in art.snapshots.items():
            assert np.array_equal(loaded.snapshot(index), snap)
            assert loaded.snapshot(index).dtype == snap.dtype

    def test_meta_round_trips(self, recorded):
        art, path = recorded
        loaded = ReplayArtifact.load(path)
        assert loaded.meta == art.meta
        assert loaded.schema == SCHEMA_VERSION
        assert loaded.backend == "cluster"
        assert loaded.applications == 2

    def test_rejects_foreign_zip(self, tmp_path):
        path = tmp_path / "not-an-artifact.rpz"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("meta.json", json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a replay artifact"):
            ReplayArtifact.load(path)

    def test_rejects_newer_schema(self, recorded, tmp_path):
        art, _ = recorded
        future = ReplayArtifact(
            meta={**art.meta, "schema": SCHEMA_VERSION + 1},
            snapshots=art.snapshots,
        )
        path = future.save(tmp_path / "future.rpz")
        with pytest.raises(ValueError, match="schema"):
            ReplayArtifact.load(path)

    def test_config_fingerprint_tracks_inputs(self, recorded):
        art, _ = recorded
        other = record_run("cluster", nx=4, ny=4, nz=3, applications=2,
                           seed=1)
        assert (
            other.meta["config_fingerprint"]
            != art.meta["config_fingerprint"]
        )

    def test_kind_marker_present(self, recorded):
        art, _ = recorded
        assert art.meta["kind"] == ARTIFACT_KIND


class TestRecorder:
    def _run(self, recorder, applications=4):
        mesh = CartesianMesh3D(3, 2, 3)
        wse = WseFluxComputation(
            mesh, FluidProperties(), record=recorder
        )
        wse.run(
            [random_pressure(mesh, seed=i) for i in range(applications)]
        )

    def test_sparse_snapshots_keep_final_step(self):
        # 4 steps with snapshot_every=3 keep steps 0 and 3: the cadence
        # gives 0, and finalize promotes the final step so cell-level
        # diffs always have an anchor
        recorder = ReplayRecorder(
            {"backend": "event", "mesh": {"nx": 3, "ny": 2, "nz": 3}},
            snapshot_every=3,
        )
        self._run(recorder, applications=4)
        art = recorder.finalize()
        assert sorted(art.snapshots) == [0, 3]
        assert [s["snapshot"] for s in art.steps] == [
            True, False, False, True,
        ]
        assert digest_array(art.snapshot(3)) == (
            art.steps[3]["residual_sha256"]
        )

    def test_dense_snapshots_every_step(self):
        recorder = ReplayRecorder({"backend": "event", "mesh": {}})
        self._run(recorder, applications=3)
        art = recorder.finalize()
        assert sorted(art.snapshots) == [0, 1, 2]

    def test_rejects_empty_recording(self):
        with pytest.raises(ValueError, match="no steps"):
            ReplayRecorder({}).finalize()

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError):
            ReplayRecorder({}, snapshot_every=0)

    def test_ring_wraparound_while_recording(self, tmp_path):
        # a tiny trace ring forced to wrap during a recorded run: the
        # aggregates stay consistent and the artifact stays byte-stable
        def run_once():
            mesh = CartesianMesh3D(4, 4, 3)
            recorder = ReplayRecorder(
                {"backend": "event", "mesh": {"nx": 4, "ny": 4, "nz": 3},
                 "dtype": "float32", "pressure_seed": 0}
            )
            wse = WseFluxComputation(
                mesh, FluidProperties(),
                trace=True, trace_capacity=8, record=recorder,
            )
            wse.run([random_pressure(mesh, seed=i) for i in range(2)])
            sink = wse.trace_sink
            assert sink.deliveries > 8  # the ring definitely wrapped
            assert len(sink.ring) == 8
            return recorder.finalize(trace=sink.as_dict())

        first = run_once().save(tmp_path / "a.rpz")
        second = run_once().save(tmp_path / "b.rpz")
        assert first.read_bytes() == second.read_bytes()
        trace = ReplayArtifact.load(first).meta["trace"]
        assert trace is not None
