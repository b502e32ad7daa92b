"""Scaling harnesses: measured efficiency next to the modelled curve.

The cluster layer already *predicts* scaling through the alpha-beta
:class:`~repro.cluster.perf.ClusterPerfModel`; this module *measures*
it.  Each grid point keeps the per-rank block constant (``base_nx x
base_ny x nz`` cells) and grows the global mesh with the rank grid, the
standard weak-scaling protocol, then times real applications through
:class:`~repro.par.flux.ParClusterFluxComputation` and reports

    efficiency(p) = T(1x1) / T(px x py)

side by side with the model's prediction for the same decompositions.
Every timed point is optionally verified bit-identical against the
serial :class:`~repro.cluster.flux.ClusterFluxComputation` on the same
global mesh, so a scaling number can never come from a wrong answer.

On an oversubscribed host (fewer cores than workers) measured
efficiency degrades below the model — that gap is the point: it is the
difference between executing and modelling.

:func:`worker_sweep` is the strong-scaling companion: one fixed global
mesh, the worker count swept (1, 2, 4, ...), every point timed against
the serial cluster backend on the same fields — the curve that decides
whether the process pool actually *wins* on this host.  Points where
the host cannot physically parallelize (fewer usable cores than
workers, :func:`~repro.par.runtime.available_cpus`) are still measured
and recorded honestly; gating on them is the caller's (CI's) decision.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.cluster.flux import ClusterFluxComputation
from repro.cluster.perf import ClusterPerfModel
from repro.core.state import PressureSequence
from repro.workloads.geomodels import make_geomodel
from repro.workloads.scenarios import FluxScenario
from repro.par.flux import ParClusterFluxComputation
from repro.par.runtime import available_cpus

__all__ = [
    "ScalePoint",
    "SweepPoint",
    "parse_grids",
    "parse_mesh",
    "parse_workers",
    "weak_scaling",
    "worker_sweep",
    "render_scaling",
    "render_sweep",
]


@dataclass
class ScalePoint:
    """One measured (and modelled) weak-scaling grid point."""

    px: int
    py: int
    ranks: int
    workers: int
    nx: int
    ny: int
    nz: int
    applications: int
    #: Measured seconds per application through the process pool.
    measured_seconds: float
    #: Modelled per-application seconds (ClusterPerfModel).
    modelled_seconds: float
    #: T(1x1)/T(p), measured wall clock (1.0 at the base point).
    measured_efficiency: float
    #: Model-predicted weak-scaling efficiency for the same grids.
    modelled_efficiency: float
    distinct_pids: int
    messages_per_application: int
    halo_bytes_per_application: int
    #: Residual matched the serial cluster backend exactly (None when
    #: verification was skipped).
    bit_identical: bool | None = None

    def as_dict(self) -> dict:
        """Plain-dict form for JSON reports (``repro par-scale --out``)."""
        return asdict(self)


@dataclass
class SweepPoint:
    """One measured strong-scaling (worker-sweep) point."""

    workers: int
    ranks: int
    px: int
    py: int
    nx: int
    ny: int
    nz: int
    applications: int
    #: Serial cluster-backend seconds per application (the reference).
    serial_seconds: float
    #: Multiprocess seconds per application at this worker count.
    par_seconds: float
    #: serial / par wall clock (> 1 means the process pool wins).
    speedup: float
    #: speedup / workers.
    efficiency: float
    distinct_pids: int
    #: Residual matched the serial cluster backend exactly (None when
    #: verification was skipped).
    bit_identical: bool | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def parse_grids(spec: str) -> list[tuple[int, int]]:
    """Parse ``"1x1,2x2,3x2"`` into ``[(1, 1), (2, 2), (3, 2)]``."""
    grids = []
    for part in spec.split(","):
        part = part.strip().lower()
        if not part:
            continue
        try:
            px_s, py_s = part.split("x")
            grids.append((int(px_s), int(py_s)))
        except ValueError as exc:
            raise ValueError(
                f"bad grid {part!r} in {spec!r}: expected PXxPY like '2x2'"
            ) from exc
    if not grids:
        raise ValueError(f"no grids in {spec!r}")
    return grids


def parse_mesh(spec: str) -> tuple[int, int, int]:
    """Parse ``"64x64x8"`` into ``(64, 64, 8)``."""
    parts = spec.strip().lower().split("x")
    try:
        nx, ny, nz = (int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(
            f"bad mesh {spec!r}: expected NXxNYxNZ like '64x64x8'"
        ) from exc
    if min(nx, ny, nz) < 1:
        raise ValueError(f"bad mesh {spec!r}: dimensions must be >= 1")
    return nx, ny, nz


def parse_workers(spec: str) -> list[int]:
    """Parse ``"1,2,4"`` into ``[1, 2, 4]`` (a single count is fine)."""
    counts = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            count = int(part)
        except ValueError as exc:
            raise ValueError(
                f"bad worker count {part!r} in {spec!r}: expected an "
                f"integer or a comma list like '1,2,4'"
            ) from exc
        if count < 1:
            raise ValueError(f"worker counts must be >= 1, got {count}")
        counts.append(count)
    if not counts:
        raise ValueError(f"no worker counts in {spec!r}")
    return counts


def weak_scaling(
    grids,
    *,
    base_nx: int = 16,
    base_ny: int = 16,
    nz: int = 4,
    applications: int = 2,
    workers: int | None = None,
    seed: int = 0,
    dtype=np.float64,
    verify: bool = True,
    perf_model: ClusterPerfModel | None = None,
) -> list[ScalePoint]:
    """Measure weak scaling over *grids* (``(px, py)`` pairs).

    The per-rank block is fixed at ``base_nx x base_ny x nz`` cells; the
    grid point ``(px, py)`` therefore runs a ``base_nx*px x base_ny*py x
    nz`` global mesh over ``px*py`` ranks.  ``workers`` bounds the
    process count per point (default: one worker per rank, capped at
    the host's cores).  Includes one untimed warm-up application per
    point (first-touch page faults and import costs land there).
    """
    grids = [(int(px), int(py)) for px, py in grids]
    model = perf_model if perf_model is not None else ClusterPerfModel()
    points: list[ScalePoint] = []
    base_measured: float | None = None
    base_modelled: float | None = None
    for px, py in grids:
        nx, ny = base_nx * px, base_ny * py
        mesh = make_geomodel(nx, ny, nz, kind="lognormal", seed=seed)
        seq = PressureSequence(
            mesh, num_applications=applications + 1, seed=seed, dtype=dtype
        )
        fluid = FluxScenario(nx=nx, ny=ny, nz=nz).fluid
        point_workers = workers if workers is not None else px * py
        point_workers = min(point_workers, px * py)
        with ParClusterFluxComputation(
            mesh, fluid, px=px, py=py, workers=point_workers, dtype=dtype
        ) as par:
            par.run_single(seq.field(0))  # warm-up, untimed
            t0 = time.perf_counter_ns()
            result = par.run(seq.field(i + 1) for i in range(applications))
            elapsed = (time.perf_counter_ns() - t0) / 1e9
        measured = elapsed / applications
        modelled = model.application_seconds(par.decomp)
        if base_measured is None:
            base_measured = measured
            base_modelled = modelled
        bit_identical: bool | None = None
        if verify:
            serial = ClusterFluxComputation(
                mesh, fluid, px=px, py=py, dtype=dtype
            )
            reference = serial.run(
                seq.field(i + 1) for i in range(applications)
            )
            bit_identical = bool(
                np.array_equal(result.residual, reference.residual)
            )
        points.append(
            ScalePoint(
                px=px,
                py=py,
                ranks=px * py,
                workers=point_workers,
                nx=nx,
                ny=ny,
                nz=nz,
                applications=applications,
                measured_seconds=measured,
                modelled_seconds=modelled,
                measured_efficiency=base_measured / measured,
                modelled_efficiency=base_modelled / modelled,
                distinct_pids=result.distinct_pids,
                messages_per_application=result.messages_per_application,
                halo_bytes_per_application=result.halo_bytes_per_application,
                bit_identical=bit_identical,
            )
        )
    return points


def worker_sweep(
    workers_list,
    *,
    nx: int = 64,
    ny: int = 64,
    nz: int = 8,
    px: int = 2,
    py: int = 2,
    applications: int = 4,
    seed: int = 0,
    dtype=np.float64,
    verify: bool = True,
    repeats: int = 3,
) -> list[SweepPoint]:
    """Strong-scaling sweep: one global mesh, varying worker counts.

    The serial cluster backend is timed once (best of ``repeats``) as
    the common reference; each worker count then runs the identical
    applications through :class:`ParClusterFluxComputation` (one
    untimed warm-up run per point, best of ``repeats`` timed runs).
    Worker counts above ``px * py`` ranks are invalid and raise.
    """
    workers_list = [int(w) for w in workers_list]
    mesh = make_geomodel(nx, ny, nz, kind="lognormal", seed=seed)
    fluid = FluxScenario(nx=nx, ny=ny, nz=nz).fluid
    seq = PressureSequence(
        mesh, num_applications=applications, seed=seed, dtype=dtype
    )
    fields = [seq.field(i) for i in range(applications)]

    serial = ClusterFluxComputation(mesh, fluid, px=px, py=py, dtype=dtype)
    reference = serial.run(iter(fields))  # warm-up
    best_serial = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        reference = serial.run(iter(fields))
        best_serial = min(
            best_serial, (time.perf_counter_ns() - t0) / 1e9
        )

    points: list[SweepPoint] = []
    for workers in workers_list:
        with ParClusterFluxComputation(
            mesh, fluid, px=px, py=py, workers=workers, dtype=dtype
        ) as par:
            par.run(iter(fields))  # warm-up (pool lease + first touch)
            best_par = float("inf")
            result = None
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                result = par.run(iter(fields))
                best_par = min(
                    best_par, (time.perf_counter_ns() - t0) / 1e9
                )
        bit_identical: bool | None = None
        if verify:
            bit_identical = bool(
                np.array_equal(result.residual, reference.residual)
            )
        speedup = best_serial / best_par
        points.append(
            SweepPoint(
                workers=workers,
                ranks=px * py,
                px=px,
                py=py,
                nx=nx,
                ny=ny,
                nz=nz,
                applications=applications,
                serial_seconds=best_serial / applications,
                par_seconds=best_par / applications,
                speedup=speedup,
                efficiency=speedup / workers,
                distinct_pids=result.distinct_pids,
                bit_identical=bit_identical,
            )
        )
    return points


def render_scaling(points: list[ScalePoint]) -> str:
    """Fixed-width table of measured vs modelled weak-scaling numbers."""
    header = (
        f"{'grid':>6} {'ranks':>5} {'wrk':>4} {'mesh':>12} "
        f"{'t/app [ms]':>11} {'eff':>6} {'model eff':>9} "
        f"{'pids':>5} {'identical':>9}"
    )
    lines = [header, "-" * len(header)]
    for pt in points:
        ident = "-" if pt.bit_identical is None else (
            "yes" if pt.bit_identical else "NO"
        )
        grid = f"{pt.px}x{pt.py}"
        mesh = f"{pt.nx}x{pt.ny}x{pt.nz}"
        lines.append(
            f"{grid:>6} {pt.ranks:>5} {pt.workers:>4} {mesh:>12} "
            f"{pt.measured_seconds * 1e3:>11.2f} "
            f"{pt.measured_efficiency:>6.2f} {pt.modelled_efficiency:>9.2f} "
            f"{pt.distinct_pids:>5} {ident:>9}"
        )
    return "\n".join(lines)


def render_sweep(points: list[SweepPoint]) -> str:
    """Fixed-width table of measured strong-scaling (sweep) numbers."""
    header = (
        f"{'wrk':>4} {'ranks':>5} {'mesh':>12} "
        f"{'serial [ms]':>11} {'par [ms]':>9} {'speedup':>7} "
        f"{'eff':>6} {'pids':>5} {'identical':>9}"
    )
    lines = [header, "-" * len(header)]
    for pt in points:
        ident = "-" if pt.bit_identical is None else (
            "yes" if pt.bit_identical else "NO"
        )
        mesh = f"{pt.nx}x{pt.ny}x{pt.nz}"
        lines.append(
            f"{pt.workers:>4} {pt.ranks:>5} {mesh:>12} "
            f"{pt.serial_seconds * 1e3:>11.2f} "
            f"{pt.par_seconds * 1e3:>9.2f} {pt.speedup:>7.2f} "
            f"{pt.efficiency:>6.2f} {pt.distinct_pids:>5} {ident:>9}"
        )
    return "\n".join(lines)
