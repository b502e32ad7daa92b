"""Unit tests for the PE scratchpad allocator."""

import numpy as np
import pytest

from repro.wse.memory import (
    WSE2_PE_MEMORY_BYTES,
    PEMemoryError,
    Scratchpad,
)


class TestAllocation:
    def test_capacity_default(self):
        pad = Scratchpad()
        assert pad.capacity == WSE2_PE_MEMORY_BYTES == 48 * 1024

    def test_alloc_array_zeroed(self):
        pad = Scratchpad(1024)
        arr = pad.alloc_array("a", 10, np.float32)
        assert arr.shape == (10,)
        assert np.all(arr == 0)
        assert pad.used == 40

    def test_reserved_reduces_capacity(self):
        pad = Scratchpad(1024, reserved=1000)
        with pytest.raises(PEMemoryError):
            pad.alloc_array("a", 10, np.float32)  # 40 B > 24 B free

    def test_overflow_message(self):
        pad = Scratchpad(100)
        with pytest.raises(PEMemoryError, match="overflow allocating 'big'"):
            pad.alloc_array("big", 100, np.float32)

    def test_duplicate_name(self):
        pad = Scratchpad(1024)
        pad.alloc_array("a", 2)
        with pytest.raises(ValueError, match="already exists"):
            pad.alloc_array("a", 2)

    def test_free_and_used(self):
        pad = Scratchpad(1000)
        pad.alloc_array("a", 10, np.float32)
        assert pad.free == 960
        assert pad.used == 40

    def test_high_water_tracks_peak(self):
        pad = Scratchpad(1000)
        pad.alloc_array("a", 50, np.float32)  # 200 B
        pad.free_allocation("a")
        assert pad.used == 0
        assert pad.high_water == 200

    def test_2d_allocation(self):
        pad = Scratchpad(1024)
        arr = pad.alloc_array("m", (2, 8), np.float32)
        assert arr.shape == (2, 8)
        assert pad.used == 64

    def test_exact_fit(self):
        pad = Scratchpad(40)
        pad.alloc_array("a", 10, np.float32)
        assert pad.free == 0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Scratchpad(0)
        with pytest.raises(ValueError):
            Scratchpad(10, reserved=10)


class TestAlias:
    def test_alias_shares_storage(self):
        pad = Scratchpad(1024)
        a = pad.alloc_array("a", 8, np.float32)
        b = pad.alias("b", "a")
        assert b is a
        assert pad.used == 32  # no extra memory

    def test_alias_appears_in_overlaps(self):
        pad = Scratchpad(1024)
        pad.alloc_array("a", 8)
        pad.alias("b", "a")
        assert ("a", "b") in pad.overlap_pairs()

    def test_alias_of_missing(self):
        pad = Scratchpad(1024)
        with pytest.raises(KeyError):
            pad.alias("b", "nope")

    def test_alias_duplicate_name(self):
        pad = Scratchpad(1024)
        pad.alloc_array("a", 4)
        with pytest.raises(ValueError):
            pad.alias("a", "a")


class TestFree:
    def test_free_last_returns_bytes(self):
        pad = Scratchpad(1024)
        pad.alloc_array("a", 8, np.float32)
        pad.alloc_array("b", 8, np.float32)
        pad.free_allocation("b")
        assert pad.used == 32

    def test_free_middle_keeps_cursor(self):
        pad = Scratchpad(1024)
        pad.alloc_array("a", 8, np.float32)
        pad.alloc_array("b", 8, np.float32)
        pad.free_allocation("a")
        assert pad.used == 64  # bump allocator: middle hole not reclaimed

    def test_free_missing(self):
        pad = Scratchpad(1024)
        with pytest.raises(KeyError):
            pad.free_allocation("ghost")

    def test_free_aliased_region_keeps_bytes(self):
        pad = Scratchpad(1024)
        pad.alloc_array("a", 8, np.float32)
        pad.alias("b", "a")
        pad.free_allocation("a")
        assert pad.used == 32  # alias still lives there


class TestIntrospection:
    def test_names_in_order(self):
        pad = Scratchpad(1024)
        pad.alloc_array("x", 2)
        pad.alloc_array("y", 2)
        assert pad.names() == ["x", "y"]

    def test_get_returns_allocation(self):
        pad = Scratchpad(1024)
        pad.alloc_array("x", 2, np.float32)
        alloc = pad.get("x")
        assert alloc.nbytes == 8
        assert alloc.end == alloc.offset + 8

    def test_distinct_allocations_never_overlap(self):
        pad = Scratchpad(4096)
        for i in range(10):
            pad.alloc_array(f"buf{i}", 16, np.float32)
        assert pad.overlap_pairs() == []

    def test_array_accessor(self):
        pad = Scratchpad(1024)
        arr = pad.alloc_array("x", 4)
        assert pad.array("x") is arr


class TestSizedBeforeAllocated:
    def test_a_request_beyond_the_pe_never_reaches_the_host_allocator(self):
        # 37.3 GiB of float32: sized from shape x itemsize, refused as PE
        # overflow — not NumPy's host MemoryError
        pad = Scratchpad()
        with pytest.raises(PEMemoryError) as err:
            pad.alloc_array("x", 10**10)
        assert str(err.value) == (
            "PE memory overflow allocating 'x': need 40000000000 B, "
            "have 49152 B of 49152 B"
        )
        assert pad.names() == [] and pad.used == 0 and pad.high_water == 0

    def test_nbytes_of_every_shape_form(self):
        pad = Scratchpad(1024)
        pad.alloc_array("a", np.int64(3), np.float64)
        pad.alloc_array("b", (2, 3), np.float32)
        pad.alloc_array("c", [4], np.uint8)
        pad.alloc_array("d", (), np.float32)
        assert [pad.get(n).nbytes for n in "abcd"] == [24, 24, 4, 4]
        assert all(pad.get(n).nbytes == pad.array(n).nbytes for n in "abcd")


class TestSharedPlan:
    """One probe's plan adopted by many scratchpads over one block."""

    def _probe(self) -> Scratchpad:
        probe = Scratchpad(1024, reserved=64)
        probe.alloc_array("train", (2, 4), np.float32)
        probe.alloc_array("col", 4, np.float64)
        probe.alias("window", "train")
        probe.alloc_array("tmp", 100, np.uint8)
        probe.free_allocation("tmp")
        return probe

    def _adopted(self, n: int = 3):
        plan = self._probe().plan()
        block = plan.block(n)
        pads = [Scratchpad(1024, reserved=64) for _ in range(n)]
        for pad, row in zip(pads, block):
            pad.adopt(plan, row)
        return plan, block, pads

    def test_plan_is_the_probes_table(self):
        probe = self._probe()
        plan = probe.plan()
        assert (plan.capacity, plan.reserved) == (1024, 64)
        assert (plan.used, plan.high_water) == (probe.used, probe.high_water)
        assert plan.high_water == 64 + 32 + 32 + 100
        assert [r[:3] for r in plan.records] == [
            ("train", 64, 32), ("col", 96, 32), ("window", 64, 32)
        ]
        assert plan.row_bytes == 176 and plan.row_bytes % 16 == 0
        block = plan.block(5)
        assert block.shape == (5, 176) and block.flags.c_contiguous
        assert not block.any()

    def test_counters_are_the_probes_before_any_record_exists(self):
        plan, _block, pads = self._adopted()
        for pad in pads:
            assert pad._allocations is None  # nothing built yet
            assert pad.used == plan.used and pad.high_water == plan.high_water
            assert pad.free == 1024 - plan.used
            assert pad._allocations is None

    def test_records_materialize_on_demand_as_views_of_the_row(self):
        probe = self._probe()
        _plan, block, pads = self._adopted()
        pad = pads[1]
        assert pad.names() == probe.names() == ["train", "col", "window"]
        for name in pad.names():
            got, want = pad.get(name), probe.get(name)
            assert (got.name, got.offset, got.nbytes, got.end) == (
                want.name, want.offset, want.nbytes, want.end
            )
            assert got.array.shape == want.array.shape
            assert got.array.dtype == want.array.dtype
            assert np.shares_memory(got.array, block[1])
            assert not np.shares_memory(got.array, block[0])
        assert pad.array("window") is pad.array("train")  # an alias, as on the probe
        assert pad.overlap_pairs() == probe.overlap_pairs() == [("train", "window")]
        assert pad.array("train").flags.c_contiguous
        assert np.shares_memory(pad.array("train").reshape(-1), block[1])

    def test_unknown_name_reads_as_on_a_private_scratchpad(self):
        _plan, _block, pads = self._adopted()
        with pytest.raises(KeyError) as err:
            pads[0].get("ghost")
        assert err.value.args == ("allocation 'ghost' not found",)
        with pytest.raises(KeyError, match="allocation 'ghost' not found"):
            pads[0].free_allocation("ghost")
        with pytest.raises(ValueError, match="allocation 'col' already exists"):
            pads[0].alloc_array("col", 2)

    def test_columns_are_the_same_storage_pe_by_pe(self):
        plan, block, pads = self._adopted()
        columns = plan.columns(block)
        assert list(columns) == ["train", "col", "window"]
        assert columns["train"].shape == (3, 2, 4)
        assert columns["col"].dtype == np.float64
        columns["col"][:] = np.arange(3)[:, None]
        columns["train"][2] = 7
        for i, pad in enumerate(pads):
            assert pad.array("col").tolist() == [float(i)] * 4
        assert pads[2].array("window").tolist() == [[7.0] * 4] * 2
        assert not pads[0].array("train").any()

    def test_a_private_change_is_copy_on_write(self):
        plan, _block, pads = self._adopted()
        extra = pads[0].alloc_array("extra", 4, np.float32)
        assert pads[0].get("extra").offset == plan.used
        assert pads[0].used == plan.used + 16
        assert pads[0].high_water == plan.high_water  # still under the freed tmp
        extra[:] = 1
        pads[0].alias("again", "col")
        pads[0].free_allocation("train")
        assert pads[0].names() == ["col", "window", "extra", "again"]
        # the class-mates and the shared plan saw none of it
        assert pads[1].names() == ["train", "col", "window"]
        assert pads[1].used == plan.used
        assert [r[0] for r in plan.records] == ["train", "col", "window"]
        assert pads[0].plan().records != plan.records
        assert pads[1].plan() == plan

    def test_only_an_unused_scratchpad_of_the_same_size_adopts(self):
        plan = self._probe().plan()
        used = Scratchpad(1024, reserved=64)
        used.alloc_array("a", 1)
        with pytest.raises(ValueError, match="only an unused scratchpad"):
            used.adopt(plan, plan.block(1)[0])
        with pytest.raises(ValueError, match="plan was made for 1024 B"):
            Scratchpad(2048, reserved=64).adopt(plan, plan.block(1)[0])
