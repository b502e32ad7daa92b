"""Memory-budget, aliasing, column-plan, and DSD-bounds checks."""

import numpy as np

from repro.check import (
    Severity,
    check_column_plan,
    check_dsd_bounds,
    check_memory,
)
from repro.dataflow.halos import max_nz_for_memory
from repro.wse.fabric import Fabric
from repro.wse.memory import WSE2_PE_MEMORY_BYTES


class TestCheckMemory:
    def test_overflowing_pe_is_exactly_one_error_with_coordinates(self):
        """ISSUE bad fabric (c): a Z-column blowing the 48 KB model.

        The fabric is built with an inflated scratchpad (a what-if
        study), but the verifier audits against real hardware."""
        fabric = Fabric(2, 2, pe_memory_bytes=4 * WSE2_PE_MEMORY_BYTES)
        fabric.pe(1, 1).memory.alloc_array(
            "column", (WSE2_PE_MEMORY_BYTES // 4 + 16,), dtype=np.float32
        )
        findings = check_memory(fabric)
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert len(errors) == 1
        err = errors[0]
        assert err.code == "mem-overflow"
        assert err.coord == (1, 1)
        assert str(WSE2_PE_MEMORY_BYTES) in err.message

    def test_within_budget_fabric_is_clean(self):
        fabric = Fabric(2, 2)
        fabric.pe(0, 0).memory.alloc_array("small", (64,))
        assert check_memory(fabric) == []

    def test_deliberate_alias_is_one_info(self):
        fabric = Fabric(1, 1)
        mem = fabric.pe(0, 0).memory
        mem.alloc_array("buf", (32,))
        mem.alias("reused", "buf")
        findings = check_memory(fabric)
        assert [f.severity for f in findings] == [Severity.INFO]
        assert findings[0].code == "alias-overlap"


class TestColumnPlan:
    def test_fit_is_silent(self):
        assert check_column_plan(246, reuse_buffers=True) == []

    def test_overflow_names_largest_admissible_nz(self):
        max_nz = max_nz_for_memory(
            WSE2_PE_MEMORY_BYTES, reserved_bytes=2048, reuse_buffers=True
        )
        findings = check_column_plan(max_nz + 1, reuse_buffers=True)
        assert len(findings) == 1
        err = findings[0]
        assert err.code == "mem-plan" and err.severity is Severity.ERROR
        assert str(max_nz) in err.detail

    def test_reuse_buys_headroom(self):
        """The Sec.-5.3.1 reuse (20 vs 36 words/cell) admits deeper
        columns; a plan that fits only with reuse must fail without."""
        nz = max_nz_for_memory(
            WSE2_PE_MEMORY_BYTES, reserved_bytes=2048, reuse_buffers=True
        )
        assert check_column_plan(nz, reuse_buffers=True) == []
        assert check_column_plan(nz, reuse_buffers=False) != []


class TestDsdBounds:
    def _layouts(self, nx=3, ny=3, nz=4):
        from repro.check.runner import _dsd_layouts_from_ir
        from repro.core import CartesianMesh3D
        from repro.ir import derive_ir

        return _dsd_layouts_from_ir(derive_ir(CartesianMesh3D(nx, ny, nz)))

    def test_real_program_layouts_are_clean(self):
        assert check_dsd_bounds(self._layouts()) == []

    def test_truncated_recv_window_is_an_error(self):
        layouts = self._layouts()
        coord = (1, 1)
        layout = layouts[coord]
        conn = next(iter(layout._recv_flat))
        layout._recv_flat[conn] = layout._recv_flat[conn][:-1]
        findings = check_dsd_bounds(layouts)
        assert len(findings) == 1
        err = findings[0]
        assert err.code == "dsd-bounds" and err.severity is Severity.ERROR
        assert err.coord == coord
