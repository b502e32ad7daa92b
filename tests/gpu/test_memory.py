"""Unit tests for the device-memory capacity check and transfer accounting."""

from dataclasses import replace

import numpy as np
import pytest

import repro.gpu.reference as reference
from repro.core import CartesianMesh3D
from repro.gpu.device import A100_40GB, TransferLog


class TestAllocation:
    def test_oom(self, monkeypatch, fluid):
        """The 14 device fields are counted against device memory before
        anything is built; the first that does not fit is named."""
        monkeypatch.setattr(reference, "A100_40GB", replace(A100_40GB, device_memory_bytes=100))
        with pytest.raises(
            MemoryError,
            match=r"^device OOM allocating 'elevation': need 32 B, used 96 of 100 B$",
        ):
            reference.GpuFluxComputation(CartesianMesh3D(2, 2, 2), fluid, dtype=np.float32)

    def test_paper_mesh_fits_a100(self):
        """The full 750x994x246 working set fits 40 GB (Sec. 6 claim)."""
        cells = 750 * 994 * 246
        fields = 4 + 10  # p, rho, residual, z + 10 trans
        assert cells * fields * 4 < A100_40GB.device_memory_bytes


class TestTransfers:
    def test_transfer_seconds_model(self):
        log = TransferLog()
        log.h2d(4096)
        assert (log.h2d_bytes, log.h2d_transfers) == (4096, 1)
        t = log.transfer_seconds(A100_40GB)
        assert t == pytest.approx(4096 / A100_40GB.pcie_bandwidth)
