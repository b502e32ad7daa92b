"""Energy-efficiency comparison (paper Sec. 7.2).

"When steady state is reached during the experiments, the CS-2 consumes
an average 23 kW of power.  This corresponds to 13.67 GFLOP/W ...  In
comparison, the A100 runs consume a peak of 250 W under the same
workload.  The dataflow implementation achieves a 2.2x energy efficiency
with respect to the reference implementation in aggregate and without
considering the host or the networking equipment."

The 2.2x is an *energy per job* ratio: the CS-2 finishes the same 1000
applications ~205x faster at ~92x the power.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import PAPER_ITERATIONS, PAPER_MESH
from repro.core.kernels import FLOPS_PER_CELL
from repro.perf.timing import (
    A100_RAJA_TIME_MODEL,
    CS2_TIME_MODEL,
    Cs2TimeModel,
    GpuTimeModel,
)

__all__ = ["EnergyComparison", "compare_energy"]

#: Steady-state CS-2 system power (Sec. 7.2, from [11]).
CS2_POWER_W = 23_000.0

#: A100 peak board power under the workload (Sec. 7.2).
A100_POWER_W = 250.0


@dataclass(frozen=True)
class EnergyComparison:
    """Energy metrics of both platforms for one experiment."""

    mesh: tuple[int, int, int]
    applications: int
    cs2_seconds: float
    a100_seconds: float
    cs2_power_w: float
    a100_power_w: float

    @property
    def cs2_joules(self) -> float:
        """CS-2 energy for the job."""
        return self.cs2_seconds * self.cs2_power_w

    @property
    def a100_joules(self) -> float:
        """A100 energy for the job."""
        return self.a100_seconds * self.a100_power_w

    @property
    def total_flops(self) -> float:
        """FLOPs of the job (140 per cell per application)."""
        nx, ny, nz = self.mesh
        return float(nx * ny * nz) * FLOPS_PER_CELL * self.applications

    @property
    def cs2_gflops_per_watt(self) -> float:
        """CS-2 energy efficiency (13.67 GFLOP/W in the paper)."""
        return self.total_flops / self.cs2_seconds / self.cs2_power_w / 1e9

    @property
    def energy_efficiency_ratio(self) -> float:
        """A100 energy / CS-2 energy per job (2.2x in the paper)."""
        return self.a100_joules / self.cs2_joules


def compare_energy(
    mesh: tuple[int, int, int] = PAPER_MESH,
    applications: int = PAPER_ITERATIONS,
    *,
    cs2_model: Cs2TimeModel = CS2_TIME_MODEL,
    gpu_model: GpuTimeModel = A100_RAJA_TIME_MODEL,
) -> EnergyComparison:
    """Build the Sec.-7.2 energy comparison from the calibrated models."""
    nx, ny, nz = mesh
    return EnergyComparison(
        mesh=mesh,
        applications=applications,
        cs2_seconds=cs2_model.seconds(nx, ny, nz, applications),
        a100_seconds=gpu_model.seconds(nx, ny, nz, applications),
        cs2_power_w=CS2_POWER_W,
        a100_power_w=A100_POWER_W,
    )
