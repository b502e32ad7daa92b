"""Deterministic replay artifacts: record a run, re-execute it anywhere.

The repo's product is bit-identity across backends, and the replay
artifact is how that claim becomes *portable*: a single-file bundle
capturing everything needed to re-execute a recorded run on any backend
and diff the result (DESIGN.md Sec. 13):

* **meta.json** — schema version, backend name + configuration, the
  mesh/geomodel recipe (regenerable from its seed), the fault plan and
  RNG seeds, the program fingerprint (for the IR-lowered backends, the
  :class:`~repro.ir.schema.FabricProgramIR` content hash), per-step
  pressure and residual SHA-256 digests, TraceSink aggregates, the span
  timeline and a metrics snapshot;
* **snapshots/stepNNNNNN.npy** — periodic full residual fields (every
  ``snapshot_every`` steps plus always the last), so divergences can be
  localized to a cell, not just a step.

The container is a ZIP with *pinned* entry metadata (epoch timestamps,
no compression) and byte-stable JSON, so recording the same run twice
produces byte-identical files — golden artifacts diff cleanly in git
and CI caches can key on their hashes.

Recording is wired into every backend driver through a ``record=`` hook
(:class:`ReplayRecorder`); the cross-backend conformance runner lives in
:mod:`repro.conform`.
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from pathlib import Path

import numpy as np

from repro.util.jsonio import stable_dumps

__all__ = [
    "SCHEMA_VERSION",
    "ARTIFACT_KIND",
    "digest_array",
    "fingerprint_document",
    "ReplayRecorder",
    "ReplayArtifact",
]

#: Bump on any incompatible change to the artifact layout; readers
#: refuse newer schemas, and ``repro conform --golden`` loads every
#: golden artifact under that rule.
SCHEMA_VERSION = 1

#: Sanity marker distinguishing replay bundles from arbitrary ZIPs.
ARTIFACT_KIND = "repro-replay-artifact"

#: What a replay reads of ``meta.json`` before its first step.
_REPLAYED_KEYS = ("backend", "mesh", "dtype", "pressure_seed", "applications", "steps")

#: Fixed ZIP entry timestamp (the format's epoch) so identical content
#: always produces identical bytes.
_EPOCH = (1980, 1, 1, 0, 0, 0)


def digest_array(arr: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and exact bit pattern.

    The digest covers the bytes of the C-contiguous view, so two arrays
    are digest-equal iff they are bit-identical fields of the same
    dtype and shape — the currency of the conformance suite.
    """
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(f"{a.dtype.str}:{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def fingerprint_document(doc: dict) -> str:
    """SHA-256 over the byte-stable JSON form of *doc*."""
    return hashlib.sha256(stable_dumps(doc, indent=None).encode()).hexdigest()


class ReplayRecorder:
    """Per-step digesting hook handed to a backend driver as ``record=``.

    The driver calls :meth:`record_step` once per application with the
    input pressure and output residual; the recorder digests both in
    O(bytes) and keeps a full residual snapshot every
    ``snapshot_every`` steps (``1`` snapshots everything — the golden
    registry's policy, so divergence always localizes to a cell).
    :meth:`finalize` assembles the :class:`ReplayArtifact`.

    ``meta`` must carry at least ``backend``, ``mesh`` and
    ``pressure_seed``; :func:`repro.conform.record_run` builds it.
    """

    def __init__(self, meta: dict, *, snapshot_every: int = 1) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.meta = dict(meta)
        self.snapshot_every = int(snapshot_every)
        self.steps: list[dict] = []
        self.snapshots: dict[int, np.ndarray] = {}
        self._last_residual: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def record_step(self, pressure: np.ndarray, residual: np.ndarray) -> None:
        """Digest one application's input/output pair (driver hot hook)."""
        index = len(self.steps)
        snapshot = index % self.snapshot_every == 0
        self.steps.append(
            {
                "index": index,
                "pressure_sha256": digest_array(pressure),
                "residual_sha256": digest_array(residual),
                "snapshot": snapshot,
            }
        )
        if snapshot:
            self.snapshots[index] = np.array(residual, copy=True)
            self._last_residual = self.snapshots[index]
        else:
            # kept so finalize() can promote the final step to a
            # snapshot under sparse policies (snapshot_every > 1)
            self._last_residual = np.array(residual, copy=True)

    # ------------------------------------------------------------------ #
    def finalize(
        self,
        *,
        trace: dict | None = None,
        spans: list | None = None,
        metrics: dict | None = None,
        program_fingerprint: str | None = None,
    ) -> "ReplayArtifact":
        """Assemble the artifact (always snapshotting the final step)."""
        if not self.steps:
            raise ValueError("no steps recorded")
        last = self.steps[-1]
        if not last["snapshot"]:
            # the final state is the cheapest always-useful snapshot:
            # it anchors cell-level diffs even under sparse policies
            last["snapshot"] = True
            self.snapshots[last["index"]] = self._last_residual
        meta = dict(self.meta)
        meta["schema"] = SCHEMA_VERSION
        meta["kind"] = ARTIFACT_KIND
        meta["applications"] = len(self.steps)
        meta["snapshot_every"] = self.snapshot_every
        meta["steps"] = self.steps
        meta["program_fingerprint"] = program_fingerprint
        meta["trace"] = trace
        meta["spans"] = spans or []
        meta["metrics"] = metrics
        meta["config_fingerprint"] = fingerprint_document(
            {
                "backend": meta.get("backend"),
                "backend_config": meta.get("backend_config"),
                "mesh": meta.get("mesh"),
                "dtype": meta.get("dtype"),
                "pressure_seed": meta.get("pressure_seed"),
                "fault_plan": meta.get("fault_plan"),
                "applications": meta["applications"],
            }
        )
        return ReplayArtifact(meta=meta, snapshots=dict(self.snapshots))


class ReplayArtifact:
    """One recorded run: byte-stable metadata + residual snapshots.

    Save/load round-trips are exact: ``load(path).save(other)`` writes
    byte-identical files, and re-recording the same deterministic run
    reproduces the same bytes (tested in ``tests/conform``).
    """

    def __init__(self, meta: dict, snapshots: dict[int, np.ndarray]) -> None:
        self.meta = meta
        self.snapshots = snapshots

    # -- convenience views --------------------------------------------- #
    @property
    def schema(self) -> int:
        return int(self.meta.get("schema", -1))

    @property
    def backend(self) -> str:
        return self.meta["backend"]

    @property
    def applications(self) -> int:
        return int(self.meta["applications"])

    @property
    def steps(self) -> list[dict]:
        return self.meta["steps"]

    def snapshot(self, index: int) -> np.ndarray | None:
        """The full residual recorded at step *index* (None if not kept)."""
        return self.snapshots.get(index)

    def describe(self) -> str:
        mesh = self.meta["mesh"]
        plan = self.meta.get("fault_plan")
        return (
            f"{self.backend} run, mesh {mesh['nx']}x{mesh['ny']}x{mesh['nz']}"
            f" ({mesh['kind']}, seed {mesh['seed']}), "
            f"{self.applications} step(s), {len(self.snapshots)} snapshot(s)"
            + (", faulted" if plan else "")
        )

    # -- persistence ---------------------------------------------------- #
    def save(self, path) -> Path:
        """Write the deterministic single-file bundle to *path*."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
            zf.writestr(
                zipfile.ZipInfo("meta.json", date_time=_EPOCH),
                stable_dumps(self.meta),
            )
            for index in sorted(self.snapshots):
                arr = io.BytesIO()
                np.lib.format.write_array(
                    arr,
                    np.ascontiguousarray(self.snapshots[index]),
                    version=(1, 0),
                )
                zf.writestr(
                    zipfile.ZipInfo(
                        f"snapshots/step{index:06d}.npy", date_time=_EPOCH
                    ),
                    arr.getvalue(),
                )
        path.write_bytes(buf.getvalue())
        return path

    @classmethod
    def load(cls, path) -> "ReplayArtifact":
        """Read a bundle written by :meth:`save`; validates the schema
        and that ``meta.json`` holds what a replay reads (ValueError)."""
        path = Path(path)
        with zipfile.ZipFile(path, "r") as zf:
            import json

            meta = json.loads(zf.read("meta.json"))
            if not isinstance(meta, dict):
                raise ValueError("meta.json is not a JSON object")
            if meta.get("kind") != ARTIFACT_KIND:
                raise ValueError(f"{path} is not a replay artifact")
            missing = [key for key in _REPLAYED_KEYS if key not in meta]
            if missing:
                raise ValueError(f"meta.json lacks {', '.join(missing)}")
            if int(meta.get("schema", -1)) > SCHEMA_VERSION:
                raise ValueError(
                    f"{path} uses artifact schema {meta.get('schema')}; "
                    f"this build reads up to {SCHEMA_VERSION}"
                )
            snapshots: dict[int, np.ndarray] = {}
            for name in zf.namelist():
                if name.startswith("snapshots/") and name.endswith(".npy"):
                    index = int(name[len("snapshots/step"):-len(".npy")])
                    snapshots[index] = np.lib.format.read_array(
                        io.BytesIO(zf.read(name))
                    )
        return cls(meta=meta, snapshots=snapshots)
