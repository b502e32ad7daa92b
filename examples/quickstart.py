#!/usr/bin/env python
"""Quickstart: the TPFA flux kernel three ways, cross-validated.

Builds a small heterogeneous reservoir mesh, runs one application of the
paper's Algorithm 1 on

1. the vectorized NumPy reference,
2. the simulated-GPU RAJA kernel (paper Sec. 6), and
3. the dataflow implementation on the simulated wafer-scale engine
   (paper Sec. 5, full message-level protocol),

and checks that all three agree — the validation of paper Sec. 7.1.

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

    # 1. reference (ground truth)
    reference = compute_flux_residual(mesh, fluid, pressure, trans)
    print(f"reference residual:  |r|_max = {np.abs(reference).max():.6e}, "
          f"sum(r) = {reference.sum():.3e}  (global mass balance)")

    # 2. simulated GPU (RAJA-style tiled kernel)
    gpu = GpuFluxComputation(mesh, fluid, trans, variant="raja", dtype=np.float64)
    gpu_result = gpu.run([pressure])
    err_gpu = np.abs(gpu_result.residual - reference).max() / np.abs(reference).max()
    print(f"GPU/RAJA kernel:     rel. error vs reference = {err_gpu:.2e} "
          f"({gpu_result.tiles_executed} threadblocks, "
          f"occupancy {gpu_result.occupancy.achieved_occupancy:.1%})")

    # 3. dataflow on the simulated WSE (cardinal switch + diagonal 2-hop)
    wse = WseFluxComputation(mesh, fluid, trans, dtype=np.float64)
    wse_result = wse.run_single(pressure)
    err_wse = np.abs(wse_result.residual - reference).max() / np.abs(reference).max()
    print(f"Dataflow/WSE kernel: rel. error vs reference = {err_wse:.2e} "
          f"({wse_result.stats.messages_delivered} messages, "
          f"max {wse_result.stats.max_hops_seen} hops, "
          f"{wse_result.flops} FLOPs)")

    ops = {k: v for k, v in sorted(wse_result.instruction_counts.items())
           if not k.startswith("AUX") and k != "FMOV_LOCAL"}
    print(f"WSE instruction mix: {ops}")

    assert err_gpu < 1e-12 and err_wse < 1e-12
    print("all implementations agree — reproduction of paper Sec. 7.1 validation")


if __name__ == "__main__":
    main()
