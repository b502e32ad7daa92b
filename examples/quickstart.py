#!/usr/bin/env python
"""Quickstart: the TPFA flux kernel on two backends, byte-checked.

Builds a small heterogeneous reservoir mesh, runs one application of the
paper's Algorithm 1 on

1. the reference fold (the face-flux statement over whole arrays),
2. the simulated-GPU RAJA kernel (paper Sec. 6), and
3. the dataflow implementation on the simulated wafer-scale engine
   (paper Sec. 5, full message-level protocol),

and checks that each backend returns the reference fold's bytes in its
own fold order — the validation of paper Sec. 7.1.  The two orders
differ only in the order each cell adds its fluxes (Sec. 5.3).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import (
    FluidProperties,
    Transmissibility,
    compute_flux_residual,
    random_pressure,
)
from repro.dataflow import WseFluxComputation
from repro.gpu import GpuFluxComputation
from repro.ir.schedule import schedule_classes
from repro.workloads import make_geomodel


def main() -> None:
    # a 10 x 8 x 6 mesh with spatially-correlated lognormal permeability
    mesh = make_geomodel(10, 8, 6, kind="lognormal", seed=42)
    fluid = FluidProperties()  # supercritical-CO2-like defaults
    trans = Transmissibility(mesh)
    pressure = random_pressure(mesh, seed=7)

    print(f"mesh: {mesh.shape_xyz[0]}x{mesh.shape_xyz[1]}x{mesh.shape_xyz[2]} "
          f"({mesh.num_cells} cells), "
          f"permeability {mesh.permeability.min():.2e}..{mesh.permeability.max():.2e} m^2")

    # 1. reference (ground truth) in the phased and the event order
    reference = compute_flux_residual(mesh, fluid, pressure, trans)
    event_order = schedule_classes(mesh.nx, mesh.ny)
    event_reference = compute_flux_residual(mesh, fluid, pressure, trans, order=event_order)
    print(f"reference residual:  |r|_max = {np.abs(reference).max():.6e}, "
          f"sum(r) = {reference.sum():.3e}  (global mass balance)")

    # 2. simulated GPU (RAJA-style tiled kernel)
    gpu = GpuFluxComputation(mesh, fluid, trans, variant="raja", dtype=np.float64)
    gpu_result = gpu.run([pressure])
    same_gpu = gpu_result.residual.tobytes() == reference.tobytes()
    print(f"GPU/RAJA kernel:     bytes equal the phased fold: {same_gpu} "
          f"({gpu_result.tiles_executed} threadblocks, "
          f"occupancy {gpu_result.occupancy.achieved_occupancy:.1%})")

    # 3. dataflow on the simulated WSE (cardinal switch + diagonal 2-hop)
    wse = WseFluxComputation(mesh, fluid, trans, dtype=np.float64)
    wse_result = wse.run_single(pressure)
    same_wse = wse_result.residual.tobytes() == event_reference.tobytes()
    print(f"Dataflow/WSE kernel: bytes equal the event fold: {same_wse} "
          f"({wse_result.stats.messages_delivered} messages, "
          f"max {wse_result.stats.max_hops_seen} hops, "
          f"{wse_result.flops} FLOPs)")

    ops = {k: v for k, v in sorted(wse_result.instruction_counts.items())
           if not k.startswith("AUX") and k != "FMOV_LOCAL"}
    print(f"WSE instruction mix: {ops}")

    assert same_gpu and same_wse
    print("all implementations agree — reproduction of paper Sec. 7.1 validation")


if __name__ == "__main__":
    main()
