"""Extension benches: the two Sec.-8 follow-on applications, timed.

* TTI acoustic wave propagation — the reference propagator and the
  fabric propagator per step, plus the per-step traffic of reusing the
  flux kernel's channels;
* the matrix-free Jacobian matvec as a fabric communication round.
"""

import math

import numpy as np
import pytest

from repro.core import CartesianMesh3D, FluidProperties, random_pressure
from repro.dataflow import WseMatrixFreeJacobian
from repro.solver import FlowResidual, MatrixFreeJacobian
from repro.util.reporting import Table
from repro.wave import TTIMedium, WavePropagator, WseWavePropagator, ricker_wavelet


def test_extension_wave_reference_step(benchmark):
    """Reference TTI leapfrog step on a mid-size mesh."""
    mesh = CartesianMesh3D(48, 48, 16, dx=10.0, dy=10.0, dz=10.0)
    medium = TTIMedium(epsilon=0.2, theta=math.pi / 6)
    dt = 0.6 * medium.max_stable_dt(10.0, 10.0, 10.0)
    prop = WavePropagator(mesh, medium, dt, source=(24, 24, 8))
    prop.step(1.0)
    benchmark(prop.step)
    assert np.isfinite(prop.max_amplitude())


def test_extension_wave_fabric_step(report, benchmark):
    """Fabric TTI step: same channels as the flux kernel (Sec. 8)."""
    mesh = CartesianMesh3D(6, 6, 8, dx=10.0, dy=10.0, dz=10.0)
    medium = TTIMedium(epsilon=0.25, theta=math.pi / 4)
    dt = 0.6 * medium.max_stable_dt(10.0, 10.0, 10.0)
    wse = WseWavePropagator(mesh, medium, dt, source=(3, 3, 4))
    ref = WavePropagator(mesh, medium, dt, source=(3, 3, 4))
    wavelet = ricker_wavelet(6, dt, peak_frequency=40.0)
    for a in wavelet:
        wse.step(float(a))
        ref.step(float(a))
    # the table reads the wavelet's steps: how often the timer calls
    # ``wse.step`` depends on its mode, and the table is committed
    steps = wse.step_count
    u_w, u_r = wse.wavefield(), ref.u_curr
    scale = np.abs(u_r).max()
    err = np.abs(u_w - u_r).max() / scale
    benchmark(wse.step)

    table = Table(
        "Extension — Sec. 8 wave equation on the fabric",
        ["Quantity", "Value"],
    )
    table.add_row(["medium", f"eps={medium.epsilon}, tilt={math.degrees(medium.theta):.0f} deg"])
    table.add_row(["u_xy coefficient (diagonal term)", f"{medium.wxy:.3f}"])
    table.add_row(["steps executed on the fabric", steps])
    table.add_row(["max rel. deviation vs reference", f"{err:.2e}"])
    table.add_row(["channels reused from the flux kernel", 8])
    report(table.render())
    assert err < 1e-12


def test_extension_matfree_matvec(report, benchmark):
    """One J@v as a fabric communication round, vs the host operator."""
    mesh = CartesianMesh3D(6, 5, 6)
    fluid = FluidProperties()
    res = FlowResidual(mesh, fluid, dt=3600.0)
    p = random_pressure(mesh, seed=1, amplitude=2e5)
    host = MatrixFreeJacobian(res, p)
    wse = WseMatrixFreeJacobian(res, p)
    v = np.ones(wse.n)
    benchmark(lambda: wse.matvec(v))

    mv_h, mv_w = host.matvec(v), wse.matvec(v)
    err = np.abs(mv_w - mv_h).max() / np.abs(mv_h).max()
    cycles = wse.total_device_cycles / wse.matvec_count
    table = Table(
        "Extension — matrix-free J@v on the fabric (Sec. 8)",
        ["Quantity", "Value"],
    )
    table.add_row(["unknowns", wse.n])
    table.add_row(["rel. deviation vs host operator", f"{err:.2e}"])
    table.add_row(["model cycles per matvec", f"{cycles:.0f}"])
    table.add_row(["exchange rounds per matvec", 1])
    report(table.render())
    assert err < 1e-11  # accumulation-order roundoff only
