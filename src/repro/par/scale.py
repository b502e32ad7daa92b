"""Scaling harnesses: measured efficiency next to the modelled curve.

The cluster layer already *predicts* scaling through the alpha-beta
:class:`~repro.cluster.perf.ClusterPerfModel`; this module *measures*
it.  Each grid point keeps the per-rank block constant (``base_nx x
base_ny x nz`` cells) and grows the global mesh with the rank grid, the
standard weak-scaling protocol, then times real applications through
the ``par`` entry of :data:`repro.backends.BACKENDS` and reports

    efficiency(p) = T(1x1) / T(px x py)

side by side with the model's prediction for the same decompositions.
Every timed point is optionally verified bit-identical against the
serial ``cluster`` entry on the same global mesh, so a scaling number
can never come from a wrong answer.

On an oversubscribed host (fewer cores than workers) measured
efficiency degrades below the model — that gap is the point: it is the
difference between executing and modelling.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.backends import BACKENDS, release
from repro.cluster.perf import ClusterPerfModel
from repro.core.state import PressureSequence
from repro.workloads.geomodels import make_geomodel
from repro.workloads.scenarios import FluxScenario

__all__ = [
    "ScalePoint",
    "parse_grids",
    "weak_scaling",
    "render_scaling",
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
        config = dict(dtype=dtype, px=px, py=py, workers=point_workers)
        par = BACKENDS["par"].build(mesh, fluid, **config)
        try:
            par.run([seq.field(0)])  # warm-up, untimed
            t0 = time.perf_counter_ns()
            result = par.run(seq.field(i + 1) for i in range(applications))
            elapsed = (time.perf_counter_ns() - t0) / 1e9
        finally:
            release(par)
        measured = elapsed / applications
        modelled = model.application_seconds(par.decomp)
        if base_measured is None:
            base_measured = measured
            base_modelled = modelled
        bit_identical: bool | None = None
        if verify:
            serial = BACKENDS["cluster"].build(mesh, fluid, **config)
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
