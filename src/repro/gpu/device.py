"""Simulated GPU device specification and occupancy model.

The paper's reference platform is *Cypress*: four NVIDIA A100-40GB GPUs
(one used), CUDA 11.2 (Sec. 7.1).  :class:`DeviceSpec` carries the
hardware parameters the cost and roofline models need;
:class:`OccupancyModel` reproduces the occupancy math Nsight reported for
the reference kernel (Sec. 7.2: 30.79 of 32 theoretical warps per SM,
48.11% of 50% theoretical occupancy); :class:`TransferLog` accounts the
host/device copies against the PCIe bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceSpec", "OccupancyModel", "A100_40GB", "TransferLog"]


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware parameters of a simulated GPU.

    All bandwidths in bytes/s, rates in FLOP/s, memory in bytes.
    """

    name: str
    num_sms: int
    clock_hz: float
    peak_flops_sp: float
    hbm_bandwidth: float
    l2_bandwidth: float
    device_memory_bytes: int
    pcie_bandwidth: float
    max_threads_per_block: int
    max_threads_per_sm: int
    warp_size: int
    registers_per_sm: int
    tdp_watts: float

    @property
    def max_warps_per_sm(self) -> int:
        """Hardware warp slots per SM."""
        return self.max_threads_per_sm // self.warp_size


#: NVIDIA A100-SXM4-40GB (the paper's reference GPU).
A100_40GB = DeviceSpec(
    name="NVIDIA A100-40GB",
    num_sms=108,
    clock_hz=1.41e9,
    peak_flops_sp=19.5e12,
    hbm_bandwidth=1555e9,
    l2_bandwidth=3.75e12,  # calibrated: paper Fig. 8 kernel AI/achieved point
    device_memory_bytes=40 * 1024**3,
    pcie_bandwidth=25e9,
    max_threads_per_block=1024,
    max_threads_per_sm=2048,
    warp_size=32,
    registers_per_sm=65536,
    tdp_watts=250.0,
)


@dataclass(frozen=True)
class OccupancyModel:
    """Static occupancy of a kernel launch on a :class:`DeviceSpec`.

    Parameters
    ----------
    device:
        Target device.
    threads_per_block:
        Launch block size (1024 in the paper, Sec. 6).
    registers_per_thread:
        Register pressure of the kernel; the flux kernel's working set
        (cell state, 10 neighbour states, transmissibilities) sits at 64
        registers/thread, which is what limits the A100 launch to 50%
        theoretical occupancy.
    achieved_fraction:
        Ratio of achieved to theoretical occupancy observed at runtime
        (paper: 48.11 / 50).
    """

    device: DeviceSpec
    threads_per_block: int = 1024
    registers_per_thread: int = 64
    achieved_fraction: float = 48.11 / 50.0

    def __post_init__(self) -> None:
        if self.threads_per_block > self.device.max_threads_per_block:
            raise ValueError(
                f"block of {self.threads_per_block} threads exceeds device "
                f"limit {self.device.max_threads_per_block}"
            )
        if self.threads_per_block % self.device.warp_size:
            raise ValueError("block size must be a multiple of the warp size")

    @property
    def blocks_per_sm(self) -> int:
        """Resident blocks per SM under thread and register limits."""
        by_threads = self.device.max_threads_per_sm // self.threads_per_block
        regs_per_block = self.registers_per_thread * self.threads_per_block
        by_registers = self.device.registers_per_sm // regs_per_block
        return max(0, min(by_threads, by_registers))

    @property
    def theoretical_warps_per_sm(self) -> int:
        """Warp slots occupied at the register/thread limit."""
        return (
            self.blocks_per_sm
            * self.threads_per_block
            // self.device.warp_size
        )

    @property
    def theoretical_occupancy(self) -> float:
        """Theoretical occupancy (0.50 for the paper's launch)."""
        return self.theoretical_warps_per_sm / self.device.max_warps_per_sm

    @property
    def achieved_warps_per_sm(self) -> float:
        """Average active warps per SM (30.79 in the paper)."""
        return self.theoretical_warps_per_sm * self.achieved_fraction

    @property
    def achieved_occupancy(self) -> float:
        """Achieved occupancy (0.4811 in the paper)."""
        return self.theoretical_occupancy * self.achieved_fraction


@dataclass
class TransferLog:
    """Accumulated host<->device traffic."""

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    h2d_transfers: int = 0
    d2h_transfers: int = 0

    def h2d(self, nbytes: int, count: int = 1) -> None:
        """Book *count* host-to-device copies of *nbytes* each."""
        self.h2d_bytes += nbytes * count
        self.h2d_transfers += count

    def d2h(self, nbytes: int) -> None:
        """Book one device-to-host copy of *nbytes*."""
        self.d2h_bytes += nbytes
        self.d2h_transfers += 1

    def transfer_seconds(self, device: DeviceSpec) -> float:
        """Modelled PCIe time of all transfers so far."""
        return (self.h2d_bytes + self.d2h_bytes) / device.pcie_bandwidth
