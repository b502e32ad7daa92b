"""Unit tests for FaultPlan: validation, JSON round-trip, seeding."""

import pytest

from repro.faults import (
    DeadPE,
    FaultPlan,
    FaultPlanError,
    LinkFault,
    RankFailure,
    RouterStall,
)
from repro.wse.geometry import OFFSET, Port


class TestValidation:
    def test_unknown_link_mode_rejected(self):
        with pytest.raises(FaultPlanError, match="mode"):
            LinkFault(0, 0, Port.EAST, mode="melt")

    def test_probability_bounds(self):
        with pytest.raises(FaultPlanError, match="probability"):
            LinkFault(0, 0, Port.EAST, probability=0.0)
        with pytest.raises(FaultPlanError, match="probability"):
            LinkFault(0, 0, Port.EAST, probability=1.5)

    def test_delay_needs_cycles(self):
        with pytest.raises(FaultPlanError, match="delay_cycles"):
            LinkFault(0, 0, Port.EAST, mode="delay")
        LinkFault(0, 0, Port.EAST, mode="delay", delay_cycles=10.0)

    def test_delay_rejects_nan_cycles(self):
        """``nan <= 0`` is False: the bound is written ``not x > 0``, as
        RouterStall's is, so a NaN delay cannot reach the event queue."""
        with pytest.raises(
            FaultPlanError, match=r"^delay link faults need delay_cycles > 0$"
        ):
            LinkFault(0, 0, Port.EAST, mode="delay", delay_cycles=float("nan"))

    def test_link_port_must_be_cardinal(self):
        with pytest.raises(FaultPlanError, match="cardinal"):
            LinkFault(0, 0, Port.RAMP)

    def test_router_stall_needs_positive_cycles(self):
        with pytest.raises(FaultPlanError, match="stall_cycles"):
            RouterStall(0, 0, stall_cycles=0.0)

    def test_rank_failure_bounds(self):
        with pytest.raises(FaultPlanError, match="rank"):
            RankFailure(rank=-1)
        with pytest.raises(FaultPlanError, match="attempts"):
            RankFailure(rank=0, attempts=0)


class TestRoundTrip:
    def make_plan(self):
        return FaultPlan(
            seed=13,
            dead_pes=(DeadPE(1, 2),),
            link_faults=(
                LinkFault(0, 1, Port.NORTH, mode="drop"),
                LinkFault(2, 2, Port.WEST, mode="corrupt", probability=0.5),
                LinkFault(1, 1, Port.EAST, mode="delay", delay_cycles=25.0),
            ),
            router_stalls=(RouterStall(3, 0, stall_cycles=1e6),),
            rank_failures=(RankFailure(rank=2, exchange=1, attempts=2),),
        )

    def test_to_from_dict_round_trips(self):
        plan = self.make_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_describe_covers_every_fault(self):
        plan = self.make_plan()
        lines = plan.describe()
        assert len(lines) == 6
        assert any("dead PE" in line for line in lines)
        assert any("corrupt" in line for line in lines)
        assert any("stalled router" in line for line in lines)
        assert any("rank 2" in line for line in lines)

    def test_only_fabric_and_only_ranks_partition(self):
        plan = self.make_plan()
        assert plan.only_fabric().rank_failures == ()
        assert plan.only_fabric().fabric_faults == 5
        assert plan.only_ranks().fabric_faults == 0
        assert plan.only_ranks().rank_failures == plan.rank_failures

    def test_empty_flag(self):
        assert FaultPlan().empty
        assert not self.make_plan().empty


class TestSeeded:
    def test_same_seed_same_plan(self):
        kwargs = dict(fabric_shape=(4, 4), ranks=4)
        assert FaultPlan.seeded(7, **kwargs) == FaultPlan.seeded(7, **kwargs)

    def test_counts_honoured(self):
        plan = FaultPlan.seeded(
            5, fabric_shape=(5, 4), ranks=6,
            dead_pes=2, lossy_links=3, rank_failures=2, router_stalls=1,
        )
        assert len(plan.dead_pes) == 2
        assert len(plan.link_faults) == 3
        assert len(plan.router_stalls) == 1
        assert len(plan.rank_failures) == 2

    def test_links_stay_on_fabric_and_clear_of_dead_pes(self):
        for seed in range(20):
            plan = FaultPlan.seeded(seed, fabric_shape=(4, 3), lossy_links=2)
            dead = {d.coord for d in plan.dead_pes}
            for lf in plan.link_faults:
                dx, dy = OFFSET[lf.port]
                other = (lf.x + dx, lf.y + dy)
                assert 0 <= other[0] < 4 and 0 <= other[1] < 3
                assert lf.coord not in dead and other not in dead

    def test_no_rank_failures_without_ranks(self):
        assert FaultPlan.seeded(1, fabric_shape=(4, 4)).rank_failures == ()

    def test_tiny_fabric_rejected(self):
        with pytest.raises(FaultPlanError, match="2x1"):
            FaultPlan.seeded(0, fabric_shape=(1, 1))
