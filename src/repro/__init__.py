"""repro — reproduction of "Massively Distributed Finite-Volume Flux
Computation" (SC 2023).

The package implements the paper's TPFA finite-volume flux kernel as six
backends (:mod:`repro.backends`) around one face-flux statement and
checks each byte for byte against one reference fold:

* :mod:`repro.core` — the reference fold, the statement over whole-array
  views in either of the two fold orders (ground truth);
* :mod:`repro.gpu` — the RAJA and CUDA reference kernels as a cost
  model on a simulated A100-class device (launches, transfers,
  occupancy) around the core slab sweep;
* :mod:`repro.dataflow` — the paper's contribution: a cell-based mapping
  onto a simulated wafer-scale engine (:mod:`repro.wse`) with the two-step
  cardinal router-switch protocol and the two-hop diagonal exchange.

:mod:`repro.perf` provides the analytic timing/roofline/energy models that
regenerate the paper's tables and figures, and :mod:`repro.solver` extends
the kernel into a matrix-free implicit single-phase flow simulator
(paper Sec. 8).
"""

from repro._version import __version__
from repro.core import (
    CartesianMesh3D,
    Connection,
    FluidProperties,
    PressureSequence,
    Transmissibility,
    compute_flux_residual,
)

__all__ = [
    "__version__",
    "CartesianMesh3D",
    "Connection",
    "FluidProperties",
    "PressureSequence",
    "Transmissibility",
    "compute_flux_residual",
]
