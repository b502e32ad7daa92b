"""Reference GPU implementation on a simulated A100-class device.

The paper's RAJA and CUDA kernels (Sec. 6) as a cost model: the residual
is the phased slab sweep's (:mod:`repro.core.sweep`), and the device
model counts 16x8x8-tiled 1024-thread launches, host/device transfers
and an occupancy matching the paper's Nsight readings.
"""

from repro.gpu.device import A100_40GB, DeviceSpec, OccupancyModel, TransferLog
from repro.gpu.launch import PAPER_TILE, TiledLaunch
from repro.gpu.reference import GpuFluxComputation, GpuRunResult

__all__ = [
    "GpuFluxComputation",
    "GpuRunResult",
    "DeviceSpec",
    "A100_40GB",
    "OccupancyModel",
    "TransferLog",
    "TiledLaunch",
    "PAPER_TILE",
]
