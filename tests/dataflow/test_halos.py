"""Unit tests for the per-PE memory plan and buffer-reuse planner."""

import numpy as np
import pytest

from repro.core import CartesianMesh3D, FluidProperties
from repro.core.stencil import Connection
from repro.core.kernels import FluxScratch
from repro.dataflow.halos import (
    TRANS_NAMES,
    layout_words_per_cell,
    max_nz_for_memory,
    plan_pe_memory,
)
from repro.dataflow.program import FluxProgram
from repro.wse.memory import PEMemoryError, Scratchpad, WSE2_PE_MEMORY_BYTES


class TestLayoutWords:
    def test_reuse_smaller(self):
        assert layout_words_per_cell(reuse_buffers=True) < layout_words_per_cell(
            reuse_buffers=False
        )

    def test_known_values(self):
        # 4 state + 10 trans + shared recv 2 + scratch 4
        assert layout_words_per_cell(reuse_buffers=True) == 20
        # 4 state + 10 trans + 16 recv + 2 send + 4 scratch
        assert layout_words_per_cell(reuse_buffers=False) == 36


class TestMaxNz:
    def test_paper_nz_fits_wse2(self):
        """The paper's Nz = 246 must fit a 48 KB PE either way."""
        assert max_nz_for_memory(WSE2_PE_MEMORY_BYTES, reuse_buffers=True) >= 246
        assert max_nz_for_memory(WSE2_PE_MEMORY_BYTES, reuse_buffers=False) >= 246

    def test_reuse_fits_larger_problems(self):
        """The Sec. 5.3.1 claim: reuse lets larger problems fit."""
        lean = max_nz_for_memory(WSE2_PE_MEMORY_BYTES, reuse_buffers=True)
        fat = max_nz_for_memory(WSE2_PE_MEMORY_BYTES, reuse_buffers=False)
        assert lean > 1.5 * fat

    def test_zero_when_reserved_consumes_all(self):
        assert max_nz_for_memory(1024, reserved_bytes=1024) == 0

    def test_consistent_with_actual_allocation(self):
        """A layout at the predicted max Nz allocates; max+1 overflows."""
        cap, reserved = 16 * 1024, 2048
        for reuse in (True, False):
            nz = max_nz_for_memory(cap, reserved_bytes=reserved, reuse_buffers=reuse)
            pad = Scratchpad(cap, reserved=reserved)
            plan_pe_memory(pad, nz, reuse_buffers=reuse)
            pad2 = Scratchpad(cap, reserved=reserved)
            with pytest.raises(PEMemoryError):
                plan_pe_memory(pad2, nz + 1, reuse_buffers=reuse)


def _program(nz=8, **kwargs):
    return FluxProgram(CartesianMesh3D(3, 3, nz), FluidProperties(), **kwargs)


def _pes(program):
    return [pe for _x, _y, pe in program.program_pes()]


def _windows(program, pe):
    """``conn -> pe``'s receive window: row ``pe.row`` of the block's
    window rows the receive task reads."""
    return {conn: rows[pe.row] for conn, (rows, _slot) in program._halos.items()}


def _address(array):
    return array.__array_interface__["data"][0]


class TestPEColumnLayout:
    """The Sec. 5.1 column layout: the names :func:`plan_pe_memory`
    allocates, and what `FluxProgram` hands each PE from the block."""

    @pytest.fixture
    def pad(self):
        pad = Scratchpad(WSE2_PE_MEMORY_BYTES)
        plan_pe_memory(pad, 8, reuse_buffers=True)
        return pad

    def test_columns_have_nz(self, pad):
        assert pad.array("p_rho").shape == (2, 8)
        assert pad.array("residual").shape == (8,)
        assert pad.array("z").shape == (8,)

    def test_ten_transmissibilities(self, pad):
        assert len(TRANS_NAMES) == 10
        for conn in Connection:
            assert pad.array(TRANS_NAMES[conn]).shape == (8,)

    def test_four_scratch_columns(self):
        pad = Scratchpad(WSE2_PE_MEMORY_BYTES)
        plan_pe_memory(pad, 16)
        scratch = [pad.get(name) for name in FluxScratch.NAMES]
        assert [a.array.shape for a in scratch] == [(16,)] * 4
        assert sum(a.nbytes for a in scratch) == 4 * 16 * 4
        assert [a.offset for a in scratch[1:]] == [a.end for a in scratch[:-1]]

    def test_shared_recv_window(self, pad):
        assert "recv_shared" in pad.names()
        program = _program()
        for pe in _pes(program):
            windows = list(_windows(program, pe).values())
            assert len(windows) == 8
            # one window reused for all 8 neighbours
            assert set(map(_address, windows)) == {
                _address(pe.memory.array("recv_shared"))
            }
            assert all(w.shape == (16,) for w in windows)

    def test_separate_recv_without_reuse(self):
        program = _program(reuse_buffers=False)
        for pe in _pes(program):
            windows = _windows(program, pe)
            assert len(set(map(_address, windows.values()))) == 8
            for conn, window in windows.items():
                assert np.shares_memory(window, pe.memory.array(f"recv_{conn.name}"))

    def test_send_train_is_view_with_reuse(self):
        program = _program()
        for pe in _pes(program):
            p_rho = pe.memory.array("p_rho")
            p_rho[0], p_rho[1] = 3.0, 4.0
            train = program.exchange.payload(pe)
            assert train.tolist() == [3.0] * 8 + [4.0] * 8
            p_rho[0, 0] = 9.0
            assert train[0] == 9.0  # zero-copy: live view
            assert "FMOV_LOCAL" not in pe.dsd.counts

    def test_send_train_staged_without_reuse(self):
        program = _program(4, reuse_buffers=False)
        for pe in _pes(program):
            p_rho = pe.memory.array("p_rho")
            p_rho[0], p_rho[1] = 1.0, 2.0
            train = program.exchange.payload(pe)
            assert train.tolist() == [1.0] * 4 + [2.0] * 4
            assert np.shares_memory(train, pe.memory.array("send_staging"))
            p_rho[0, 0] = 7.0
            assert train[0] == 1.0  # staged copy, not a view
            assert pe.dsd.counts["FMOV_LOCAL"] == 8  # two column moves

    def test_overflow_raises_with_context(self):
        pad = Scratchpad(1024)
        with pytest.raises(PEMemoryError, match="reuse_buffers=True"):
            plan_pe_memory(pad, 1000, reuse_buffers=True)
        # the allocation order decides which name overflows first
        for reuse, name in ((True, "recv_shared"), (False, "recv_EAST")):
            with pytest.raises(
                PEMemoryError,
                match=rf"^nz=55 does not fit this PE memory with "
                rf"reuse_buffers={reuse}: PE memory overflow allocating "
                rf"'{name}': need 440 B, have 136 B of 4096 B$",
            ):
                plan_pe_memory(Scratchpad(4096), 55, reuse_buffers=reuse)

    def test_float64_layout(self):
        pad = Scratchpad(WSE2_PE_MEMORY_BYTES)
        plan_pe_memory(pad, 8, dtype=np.float64)
        assert pad.array("p_rho").dtype == np.float64
        program = _program(dtype=np.float64)
        for pe in _pes(program):
            assert program.exchange.payload(pe).dtype == np.float64
            windows = _windows(program, pe).values()
            assert all(w.dtype == np.float64 for w in windows)
