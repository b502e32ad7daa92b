#!/usr/bin/env python
"""Weak-scaling study: reproduce the shape of paper Table 2.

Sweeps the X-Y plane at constant Nz exactly as the paper does, printing
(a) the calibrated model's projection of every published row, and
(b) a functional sweep of the lockstep dataflow simulator, whose modelled
per-PE cycles demonstrate the flat weak-scaling directly: the per-cell
work is independent of how many PEs participate.

Run:  python examples/weak_scaling_study.py
"""

import time

import numpy as np

from repro.core import FluidProperties, Transmissibility, random_pressure
from repro.core.constants import PAPER_WEAK_SCALING_MESHES
from repro.ir import derive_ir, lower_to_lockstep
from repro.perf import PAPER_TABLE2_CS2_SECONDS, PAPER_TABLE2_A100_SECONDS, weak_scaling_row
from repro.workloads import make_geomodel


def projected_table() -> None:
    print("— model projection of paper Table 2 "
          "(1000 applications, Nz = 246) —")
    print(f"{'mesh':>14} {'cells':>12} {'Gcell/s':>9} "
          f"{'CS-2 [s]':>9} {'paper':>7} {'A100 [s]':>9} {'paper':>8} {'speedup':>8}")
    for mesh in PAPER_WEAK_SCALING_MESHES:
        row = weak_scaling_row(*mesh)
        print(f"{row.nx:>4}x{row.ny:<4}x{row.nz:<3} {row.total_cells:>12,} "
              f"{row.throughput_gcells:>9.1f} {row.cs2_seconds:>9.4f} "
              f"{PAPER_TABLE2_CS2_SECONDS[mesh]:>7.4f} "
              f"{row.a100_seconds:>9.3f} "
              f"{PAPER_TABLE2_A100_SECONDS[mesh]:>8.4f} {row.speedup:>7.1f}x")
    print("shape check: CS-2 column flat, A100 column linear in cells,\n"
          "speedup grows from ~11x to ~200x as the mesh fills the fabric\n")


def functional_sweep() -> None:
    print("— functional lockstep sweep (per-PE modelled cycles stay flat) —")
    fluid = FluidProperties()
    nz = 12
    print(f"{'mesh':>12} {'cells':>9} {'host [ms]':>10} "
          f"{'model cycles/PE':>16} {'flops/cell':>11}")
    for n in (12, 24, 36, 48, 64):
        mesh = make_geomodel(n, n, nz, kind="uniform")
        trans = Transmissibility(mesh, dtype=np.float32)
        sim = lower_to_lockstep(derive_ir(mesh, dtype=np.float32), mesh, fluid, trans)
        pressure = random_pressure(mesh, seed=0, dtype=np.float32)
        t0 = time.perf_counter()
        sim.run_application(pressure)
        host_ms = (time.perf_counter() - t0) * 1e3
        rep = sim.report()
        cycles_per_pe = rep.compute_cycles / (n * n)
        flops_per_cell = rep.flops / mesh.num_cells
        print(f"{n:>4}x{n:<4}x{nz:<2} {mesh.num_cells:>9,} {host_ms:>10.2f} "
              f"{cycles_per_pe:>16.1f} {flops_per_cell:>11.1f}")
    print("cycles per PE are constant across the sweep — every PE works on\n"
          "its own Z column regardless of fabric size, the mechanism behind\n"
          "the paper's near-perfect weak scaling")


def main() -> None:
    projected_table()
    functional_sweep()


if __name__ == "__main__":
    main()
