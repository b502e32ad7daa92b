"""Unit tests for the shared-memory layout and arena."""

import pickle

import numpy as np
import pytest

from repro.core import CartesianMesh3D
from repro.cluster.comm import CartGrid
from repro.cluster.decomposition import BlockDecomposition
from repro.cluster.flux import halo_links
from repro.par.layout import NUM_PARITIES, SEQ_BYTES, HaloLayout
from repro.par.shm import SharedArena


def make_layout(nx=8, ny=8, nz=3, px=2, py=2, dtype=np.float64):
    mesh = CartesianMesh3D(nx, ny, nz)
    decomp = BlockDecomposition(mesh, px, py)
    grid = CartGrid(px, py)
    return HaloLayout.from_decomposition(decomp, grid, dtype=dtype), decomp, grid


class TestHaloLayout:
    def test_fields_disjoint_and_aligned(self):
        layout, _, _ = make_layout()
        field_bytes = 3 * 8 * 8 * 8
        assert layout.pressure_offsets[0] == 0
        assert layout.pressure_offsets[1] >= field_bytes
        assert layout.residual_offset >= layout.pressure_offsets[1] + field_bytes
        assert layout.residual_offset % 8 == 0
        for slot in layout.slots:
            for parity in range(NUM_PARITIES):
                assert slot.seq_offsets[parity] % 8 == 0
                assert slot.payload_offsets[parity] % 8 == 0
                assert (
                    slot.payload_offsets[parity]
                    >= slot.seq_offsets[parity] + SEQ_BYTES
                )

    def test_permeability_region_is_float64_and_disjoint(self):
        for dtype in (np.float32, np.float64):
            layout, _, _ = make_layout(dtype=dtype)
            field_bytes = 3 * 8 * 8 * layout.dtype.itemsize
            assert layout.permeability_offset % 8 == 0
            assert (layout.permeability_offset
                    >= layout.residual_offset + field_bytes)
            assert (layout.heartbeat_offset
                    >= layout.permeability_offset + 3 * 8 * 8 * 8)

    def test_slots_do_not_overlap(self):
        layout, _, _ = make_layout(px=3, py=2, nx=9)
        prev_end = layout.residual_offset + 3 * 8 * 9 * 8
        for slot in layout.slots:
            for parity in range(NUM_PARITIES):
                assert slot.seq_offsets[parity] >= prev_end
                prev_end = slot.payload_offsets[parity] + slot.payload_bytes
        assert layout.total_bytes >= prev_end

    def test_one_slot_per_halo_link(self):
        layout, decomp, grid = make_layout(px=3, py=2, nx=9)
        links = halo_links(decomp, grid)
        assert [slot.link for slot in layout.slots] == links
        for link in links:
            slot = layout.slot(link.source, link.dest, link.tag)
            assert slot.link == link
        with pytest.raises(KeyError):
            layout.slot(0, 0, 99)

    def test_payload_bytes_match_strip(self):
        layout, decomp, _ = make_layout()
        nz = decomp.mesh.nz
        for slot in layout.slots:
            assert slot.payload_bytes == slot.link.cells(nz) * 8

    def test_picklable(self):
        layout, _, _ = make_layout()
        layout.slot(0, 1, 0)  # populate the key cache
        clone = pickle.loads(pickle.dumps(layout))
        assert clone.total_bytes == layout.total_bytes
        assert (
            clone.slot(0, 1, 0).payload_offsets
            == layout.slot(0, 1, 0).payload_offsets
        )


class TestSharedArena:
    def test_views_roundtrip(self):
        layout, _, _ = make_layout()
        arena = SharedArena(layout, create=True)
        try:
            arena.pressure(0)[:] = 7.5
            arena.pressure(1)[:] = 8.5
            key = layout.slots[0].key
            arena.payload(key, 0)[:] = 1.25
            arena.payload(key, 1)[:] = 2.25
            assert arena.seq(key, 0) == 0
            arena.set_seq(key, 0, 3)
            assert arena.seq(key, 1) == 0  # parities are independent
            # a second attachment sees the same bytes
            other = SharedArena(layout, name=arena.name, create=False)
            try:
                assert float(other.pressure(0)[0, 0, 0]) == 7.5
                assert float(other.pressure(1)[0, 0, 0]) == 8.5
                assert float(other.payload(key, 0).ravel()[0]) == 1.25
                assert float(other.payload(key, 1).ravel()[0]) == 2.25
                assert other.seq(key, 0) == 3
                assert other.seq(key, 1) == 0
            finally:
                other.close()
        finally:
            arena.close()

    def test_permeability_is_read_only_where_attached(self):
        layout, _, _ = make_layout(dtype=np.float32)
        arena = SharedArena(layout, create=True)
        try:
            kappa = np.arange(3 * 8 * 8, dtype=np.float64).reshape(3, 8, 8)
            np.copyto(arena.permeability, kappa)
            other = SharedArena(layout, name=arena.name, create=False)
            try:
                assert other.permeability.dtype == np.float64
                assert other.permeability.tobytes() == kappa.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    other.permeability[0, 0, 0] = 1.0
            finally:
                other.close()
        finally:
            arena.close()

    @pytest.mark.parametrize(
        "completed,even,odd",
        [
            (0, 0, 0),
            (1, 1, 0),  # exchange 0 published 1 into parity 0
            (2, 1, 2),  # exchange 1 published 2 into parity 1
            (3, 3, 2),
            (6, 5, 6),
        ],
    )
    def test_reset_seqs_parity_values(self, completed, even, odd):
        layout, _, _ = make_layout()
        arena = SharedArena(layout, create=True)
        try:
            for slot in layout.slots:
                arena.set_seq(slot.key, 0, 99)
                arena.set_seq(slot.key, 1, 99)
            arena.reset_seqs(completed)
            for slot in layout.slots:
                assert arena.seq(slot.key, 0) == even
                assert arena.seq(slot.key, 1) == odd
        finally:
            arena.close()

    def test_owner_unlinks(self):
        layout, _, _ = make_layout()
        arena = SharedArena(layout, create=True)
        name = arena.name
        arena.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name, create=False)

    def test_finalizer_unlinks_without_close(self):
        """An arena dropped without close() must not leak the segment."""
        layout, _, _ = make_layout()
        arena = SharedArena(layout, create=True)
        name = arena.name
        arena._finalizer()  # what gc / atexit would run
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name, create=False)
