"""Record and replay runs for cross-backend conformance.

:func:`record_run` executes a configuration on one backend with a
:class:`~repro.obs.replay.ReplayRecorder` attached and returns the
finished :class:`~repro.obs.replay.ReplayArtifact`.  :func:`replay` then
re-executes an artifact on any backend — rebuilding the mesh, geomodel
and pressure sequence from the recorded seeds — and diffs every step
against the recording under a :class:`~repro.conform.tolerance.ToleranceClass`,
stopping at the **first divergence** (step, cell coordinate, owning PE,
expected/actual bit patterns).

The golden registry (``tests/conform/golden/``) is a set of recorded
artifacts plus ``registry.json`` naming, for each, the backends it must
replay on and any per-backend tolerance overrides (event vs the phased
fold class is bit-exact only on the forced-order fabric shapes, so the
override lives with the artifact that was recorded on one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backends import BACKENDS, get_backend, release
from repro.conform.tolerance import (
    BIT_EXACT,
    ULP_BOUNDED,
    ToleranceClass,
    default_tolerance,
    ulp_distance,
)
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.state import random_pressure
from repro.faults.plan import FaultPlan
from repro.obs.replay import ReplayArtifact, ReplayRecorder, digest_array

__all__ = [
    "Divergence",
    "ConformResult",
    "record_run",
    "replay",
    "load_registry",
    "run_golden",
    "named_tolerance",
]

_DEFAULT_PRESSURE_SEED = 2024


def _build_mesh(mesh_meta: dict) -> CartesianMesh3D:
    """Rebuild the recorded mesh exactly from its recipe."""
    kind = mesh_meta["kind"]
    nx, ny, nz = mesh_meta["nx"], mesh_meta["ny"], mesh_meta["nz"]
    dz_layers = mesh_meta.get("dz_layers")
    if kind == "plain":
        return CartesianMesh3D(nx, ny, nz, dz_layers=dz_layers)
    from repro.workloads.geomodels import make_geomodel

    return make_geomodel(
        nx, ny, nz, kind=kind, seed=mesh_meta["seed"], dz_layers=dz_layers
    )


def _pressures(mesh: CartesianMesh3D, seed: int, applications: int):
    """The recorded pressure sequence (seeded, hence reproducible)."""
    return [
        random_pressure(mesh, seed=seed + i) for i in range(applications)
    ]


def _build(backend: str, mesh: CartesianMesh3D, meta: dict, record):
    """The *backend* driver for a recorded configuration, with the
    recording hook attached (release it with :func:`repro.backends.release`)."""
    plan_doc = meta.get("fault_plan")
    config = meta.get("backend_config") or {}
    return get_backend(backend).build(
        mesh,
        FluidProperties(),
        dtype=meta["dtype"],
        record=record,
        plan=FaultPlan.from_dict(plan_doc) if plan_doc else None,
        # unset keys (workers=None, a post-mortem's variant=None) take
        # the backend's defaults
        **{k: v for k, v in config.items() if v is not None},
    )


# --------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------- #
def record_run(
    backend: str,
    *,
    nx: int,
    ny: int,
    nz: int,
    geomodel: str = "lognormal",
    seed: int = 0,
    applications: int = 2,
    dtype: str = "float64",
    px: int = 2,
    py: int = 2,
    workers: int | None = None,
    variant: str = "raja",
    plan: FaultPlan | None = None,
    pressure_seed: int = _DEFAULT_PRESSURE_SEED,
    snapshot_every: int = 1,
    dz_layers=None,
    trace: dict | None = None,
    spans: list | None = None,
    metrics: dict | None = None,
    extra_meta: dict | None = None,
) -> ReplayArtifact:
    """Execute one run on *backend* and capture it as a replay artifact.

    ``dz_layers`` (a length-``nz`` thickness list) rides in the mesh
    recipe so replays rebuild the variable-thickness mesh exactly.
    ``extra_meta`` keys pass straight through into the artifact's
    metadata (the chaos harness uses this for post-mortem context).
    """
    mesh_meta = {
        "nx": nx, "ny": ny, "nz": nz, "kind": geomodel, "seed": seed,
    }
    if dz_layers is not None:
        mesh_meta["dz_layers"] = [float(t) for t in dz_layers]
    meta = {
        "backend": backend,
        "backend_config": {
            "px": px, "py": py, "workers": workers, "variant": variant,
        },
        "mesh": mesh_meta,
        "dtype": dtype,
        "pressure_seed": pressure_seed,
        "fault_plan": plan.to_dict() if plan is not None else None,
    }
    if extra_meta:
        meta.update(extra_meta)
    mesh = _build_mesh(meta["mesh"])
    recorder = ReplayRecorder(meta, snapshot_every=snapshot_every)
    drv = _build(backend, mesh, meta, recorder)
    try:
        drv.run(_pressures(mesh, pressure_seed, applications))
    finally:
        release(drv)
    # the IR-lowered backends are fingerprinted by their IR's content
    # hash: colors, route tables, memory layouts, injector/receiver sets
    # and the fold-order contracts all feed it, so any routing or layout
    # drift between record and replay time shows up as a mismatch
    ir = getattr(drv, "ir", None)
    if trace is None and getattr(drv, "trace_sink", None) is not None:
        trace = drv.trace_sink.as_dict()
    return recorder.finalize(
        trace=trace, spans=spans, metrics=metrics,
        program_fingerprint=ir.content_hash if ir is not None else None,
    )


# --------------------------------------------------------------------- #
# Replay + diff
# --------------------------------------------------------------------- #
@dataclass
class Divergence:
    """The first point where a replay left the recording's tolerance."""

    step: int
    backend_pair: tuple[str, str]
    tolerance: str
    #: ``(z, y, x)`` of the worst offending cell; None when the recording
    #: kept no snapshot for the step (digest-only mismatch).
    cell: tuple[int, int, int] | None = None
    #: Owning PE ``(x, y)`` on the fabric mapping (column x, row y).
    pe: tuple[int, int] | None = None
    expected_bits: str | None = None
    actual_bits: str | None = None
    expected_value: float | None = None
    actual_value: float | None = None
    ulps: float | None = None
    detail: str = ""

    def render(self) -> str:
        rec, rep = self.backend_pair
        lines = [
            f"FIRST DIVERGENCE at step {self.step} "
            f"(recorded on {rec}, replayed on {rep}, {self.tolerance})"
        ]
        if self.cell is not None:
            z, y, x = self.cell
            lines.append(
                f"  cell (z={z}, y={y}, x={x})"
                + (f", PE (x={self.pe[0]}, y={self.pe[1]})"
                   if self.pe is not None else "")
            )
            lines.append(
                f"  expected {self.expected_value!r} [{self.expected_bits}]"
            )
            lines.append(
                f"  actual   {self.actual_value!r} [{self.actual_bits}]"
            )
            if self.ulps is not None:
                lines.append(f"  distance {self.ulps:g} ulp(s)")
        if self.detail:
            lines.append(f"  {self.detail}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "backend_pair": list(self.backend_pair),
            "tolerance": self.tolerance,
            "cell": list(self.cell) if self.cell is not None else None,
            "pe": list(self.pe) if self.pe is not None else None,
            "expected_bits": self.expected_bits,
            "actual_bits": self.actual_bits,
            "expected_value": self.expected_value,
            "actual_value": self.actual_value,
            "ulps": self.ulps,
            "detail": self.detail,
        }


@dataclass
class ConformResult:
    """Outcome of replaying one artifact on one backend."""

    artifact: str
    recorded_backend: str
    replay_backend: str
    tolerance: str
    steps_checked: int = 0
    divergence: Divergence | None = None
    #: Per-step summaries: index, pressure_ok, residual match kind.
    steps: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        head = (
            f"[{status}] {self.artifact}: {self.recorded_backend} -> "
            f"{self.replay_backend}, {self.steps_checked} step(s), "
            f"{self.tolerance}"
        )
        if self.divergence is None:
            return head
        return head + "\n" + self.divergence.render()

    def as_dict(self) -> dict:
        return {
            "artifact": self.artifact,
            "recorded_backend": self.recorded_backend,
            "replay_backend": self.replay_backend,
            "tolerance": self.tolerance,
            "steps_checked": self.steps_checked,
            "ok": self.ok,
            "divergence": (
                self.divergence.as_dict() if self.divergence else None
            ),
            "steps": self.steps,
        }


class _CheckingRecorder:
    """A record hook that *diffs* each step instead of storing it.

    Duck-types ``record_step`` so the same driver-side hook serves both
    recording and replay; raises :class:`_Stop` at the first divergence
    so long batches don't waste work past the point of failure.
    """

    def __init__(
        self,
        artifact: ReplayArtifact,
        replay_backend: str,
        tol: ToleranceClass,
    ) -> None:
        self.artifact = artifact
        self.backend_pair = (artifact.backend, replay_backend)
        self.tol = tol
        self.steps: list[dict] = []
        self.divergence: Divergence | None = None

    # -- helpers -------------------------------------------------------- #
    def _bits(self, value: np.ndarray) -> str:
        width = value.dtype.itemsize
        uint = {8: np.uint64, 4: np.uint32}[width]
        return f"0x{int(value.view(uint)):0{2 * width}x}"

    def _pe_of(self, cell: tuple[int, int, int]) -> tuple[int, int]:
        # every backend maps mesh column (x, y) to fabric PE (x, y)
        _z, y, x = cell
        return (x, y)

    def _diverge_on_cells(
        self, index: int, expected: np.ndarray, actual: np.ndarray
    ) -> Divergence:
        bad = self.tol.failures(expected, actual)
        flat = int(np.argmax(bad))
        cell = tuple(int(c) for c in np.unravel_index(flat, bad.shape))
        ev = expected[cell]
        av = actual[cell]
        ulps = float(ulp_distance(ev.reshape(1), av.reshape(1))[0])
        return Divergence(
            step=index,
            backend_pair=self.backend_pair,
            tolerance=self.tol.describe(),
            cell=cell,
            pe=self._pe_of(cell),
            expected_bits=self._bits(ev),
            actual_bits=self._bits(av),
            expected_value=float(ev),
            actual_value=float(av),
            ulps=ulps,
            detail=f"{int(bad.sum())} cell(s) out of tolerance",
        )

    # -- the hook -------------------------------------------------------- #
    def record_step(self, pressure: np.ndarray, residual: np.ndarray) -> None:
        index = len(self.steps)
        recorded = self.artifact.steps[index]
        # the inputs must match exactly or the diff means nothing
        p_digest = digest_array(np.asarray(pressure))
        if p_digest != recorded["pressure_sha256"]:
            self.divergence = Divergence(
                step=index,
                backend_pair=self.backend_pair,
                tolerance=self.tol.describe(),
                detail=(
                    "replayed pressure field does not match the recording "
                    "(environment drift — RNG or dtype mismatch)"
                ),
            )
            raise _Stop()
        actual = np.asarray(residual)
        r_digest = digest_array(actual)
        digest_match = r_digest == recorded["residual_sha256"]
        if digest_match:
            self.steps.append({"index": index, "match": "bit-exact"})
            return
        snapshot = self.artifact.snapshot(index)
        if self.tol.bit_exact:
            if snapshot is not None:
                self.divergence = self._diverge_on_cells(
                    index, snapshot, actual
                )
            else:
                self.divergence = Divergence(
                    step=index,
                    backend_pair=self.backend_pair,
                    tolerance=self.tol.describe(),
                    detail=(
                        f"residual digest mismatch (expected "
                        f"{recorded['residual_sha256'][:16]}..., got "
                        f"{r_digest[:16]}...); no snapshot kept for this "
                        f"step, so the cell cannot be localized"
                    ),
                )
            raise _Stop()
        if snapshot is None:
            # ulp-bounded without a snapshot: nothing to compare against,
            # and a digest mismatch is *expected* across fold classes
            self.steps.append({"index": index, "match": "unchecked"})
            return
        bad = self.tol.failures(snapshot, actual)
        if bad.any():
            self.divergence = self._diverge_on_cells(index, snapshot, actual)
            raise _Stop()
        self.steps.append({"index": index, "match": "within-tolerance"})


class _Stop(Exception):
    """Internal: first divergence found, abandon the rest of the batch."""


def replay(
    artifact: ReplayArtifact,
    backend: str,
    *,
    tolerance: ToleranceClass | None = None,
    artifact_name: str = "<artifact>",
) -> ConformResult:
    """Re-execute *artifact* on *backend* and diff against the recording;
    ValueError if it records no pressure seed (a post-mortem bundle)."""
    meta = artifact.meta
    if meta["pressure_seed"] is None:
        raise ValueError(
            "the artifact records no pressure seed; its pressures cannot be replayed"
        )
    tol = tolerance or default_tolerance(artifact.backend, backend)
    mesh = _build_mesh(meta["mesh"])
    checker = _CheckingRecorder(artifact, backend, tol)
    drv = _build(backend, mesh, meta, checker)
    try:
        drv.run(
            _pressures(
                mesh, meta["pressure_seed"], artifact.applications
            )
        )
    except _Stop:
        pass
    finally:
        release(drv)
    return ConformResult(
        artifact=artifact_name,
        recorded_backend=artifact.backend,
        replay_backend=backend,
        tolerance=tol.name,
        steps_checked=len(checker.steps) + (0 if checker.divergence is None else 1),
        divergence=checker.divergence,
        steps=checker.steps,
    )


# --------------------------------------------------------------------- #
# Golden registry
# --------------------------------------------------------------------- #
def golden_dir() -> Path:
    """The checked-in golden artifact registry directory."""
    return (
        Path(__file__).resolve().parents[3] / "tests" / "conform" / "golden"
    )


def load_registry(directory: Path | None = None) -> list[dict]:
    """Entries of ``registry.json``: artifact file, backends, overrides."""
    import json

    directory = Path(directory) if directory else golden_dir()
    doc = json.loads((directory / "registry.json").read_text())
    entries = []
    for entry in doc["artifacts"]:
        entries.append(
            {
                "name": entry["name"],
                "path": directory / entry["file"],
                "backends": list(entry["backends"]),
                "tolerance_overrides": dict(
                    entry.get("tolerance_overrides", {})
                ),
            }
        )
    return entries


def named_tolerance(name: str) -> ToleranceClass:
    classes = {"bit-exact": BIT_EXACT, "ulp-bounded": ULP_BOUNDED}
    try:
        return classes[name]
    except KeyError:
        raise ValueError(
            f"unknown tolerance class {name!r}; choose from {sorted(classes)}"
        ) from None


def run_golden(
    directory: Path | None = None,
    *,
    backends: list[str] | None = None,
    skip_par: bool = False,
) -> list[ConformResult]:
    """Replay every golden artifact on its registered backends.

    ``backends`` restricts the replay set; ``skip_par`` drops the
    multi-process backends (on a single-CPU host spawning a worker pool
    is pure overhead, though the replay would still pass).
    """
    results: list[ConformResult] = []
    for entry in load_registry(directory):
        artifact = ReplayArtifact.load(entry["path"])
        for backend in entry["backends"]:
            if backends is not None and backend not in backends:
                continue
            if skip_par and BACKENDS[backend].multi_process:
                continue
            override = entry["tolerance_overrides"].get(backend)
            results.append(
                replay(
                    artifact,
                    backend,
                    tolerance=(
                        named_tolerance(override) if override else None
                    ),
                    artifact_name=entry["name"],
                )
            )
    return results
