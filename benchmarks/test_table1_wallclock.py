"""Table 1 — wall-clock comparison of the three implementations.

Paper: 1000 applications of Algorithm 1 on a 750 x 994 x 246 mesh.

    Arch/lang      Avg. [s]   S.D.
    Dataflow/CSL   0.0823     0.0000014
    GPU/RAJA       16.8378    0.0194403
    GPU/CUDA       14.6573    0.0111278   (204x speedup CSL vs RAJA)

We regenerate the table from the calibrated analytic models (projected
device seconds for the full mesh) and benchmark the *functional* Python
implementations on a geometrically-similar scaled mesh so the harness
measures real executions of the same kernels.
"""

import numpy as np
import pytest

from repro.core import FluidProperties, PressureSequence, Transmissibility
from repro.core.constants import PAPER_ITERATIONS, PAPER_MESH
from repro.gpu import GpuFluxComputation
from repro.ir import derive_ir, lower_to_lockstep
from repro.perf import (
    A100_CUDA_TIME_MODEL,
    A100_RAJA_TIME_MODEL,
    CS2_TIME_MODEL,
    PAPER_TABLE1,
    speedup,
)
from repro.util.reporting import Table
from repro.workloads import make_geomodel

SCALED = (47, 62, 15)  # paper mesh / 16 per axis
FLUID = FluidProperties()


@pytest.fixture(scope="module")
def workload():
    mesh = make_geomodel(*SCALED, kind="uniform")
    trans = Transmissibility(mesh, dtype=np.float32)
    seq = PressureSequence(mesh, num_applications=1, seed=0, dtype=np.float32)
    return mesh, trans, seq.field(0)


def test_reproduce_table1(report, benchmark):
    """Model-projected Table 1 next to the published numbers."""
    nx, ny, nz = PAPER_MESH
    rows = benchmark(
        lambda: {
            "Dataflow/CSL": CS2_TIME_MODEL.seconds(nx, ny, nz),
            "GPU/RAJA": A100_RAJA_TIME_MODEL.seconds(nx, ny, nz),
            "GPU/CUDA": A100_CUDA_TIME_MODEL.seconds(nx, ny, nz),
        }
    )
    table = Table(
        "Table 1 — time for 1000 applications, 750x994x246 mesh",
        ["Arch/lang", "Model [s]", "Paper avg. [s]", "Model/Paper"],
    )
    for name, model_s in rows.items():
        paper_s = PAPER_TABLE1[name][0]
        table.add_row(
            [name, f"{model_s:.4f}", f"{paper_s:.4f}", f"{model_s / paper_s:.3f}"]
        )
    model_speedup = speedup(rows["GPU/RAJA"], rows["Dataflow/CSL"])
    paper_speedup = speedup(
        PAPER_TABLE1["GPU/RAJA"][0], PAPER_TABLE1["Dataflow/CSL"][0]
    )
    table.add_note(
        f"speedup Dataflow vs GPU/RAJA: model {model_speedup:.1f}x, "
        f"paper {paper_speedup:.1f}x"
    )
    report(table.render())

    assert rows["Dataflow/CSL"] == pytest.approx(0.0823, rel=5e-3)
    assert rows["GPU/CUDA"] < rows["GPU/RAJA"]
    assert 180 < model_speedup < 230  # two orders of magnitude (Abstract)


@pytest.mark.parametrize("variant", ["raja", "cuda"])
def test_gpu_kernel_functional(benchmark, workload, variant):
    """Time one functional application of the simulated GPU kernel."""
    mesh, trans, pressure = workload
    gpu = GpuFluxComputation(mesh, FLUID, trans, variant=variant, dtype=np.float32)
    benchmark(lambda: gpu.run([pressure]))


def test_dataflow_lockstep_functional(benchmark, workload):
    """Time one functional application of the dataflow (lockstep) kernel."""
    mesh, trans, pressure = workload
    sim = lower_to_lockstep(derive_ir(mesh, dtype=np.float32), mesh, FLUID, trans)
    benchmark(lambda: sim.run_application(pressure))
