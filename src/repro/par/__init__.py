"""`repro.par` — a real multiprocess SPMD runtime for the cluster backend.

The simulated communicator of :mod:`repro.cluster` runs every rank's
loop serially in one process, so its weak-scaling numbers
are *modelled*.  This package supplies the missing execution substrate:
ranks of a :class:`~repro.cluster.decomposition.BlockDecomposition` are
sharded across ``multiprocessing`` workers that exchange halos through
one anonymous shared memory file (Linux ``memfd_create``, its
descriptor passed over the worker pipes) with per-link sequence
numbers, following the same deadlock-free all-send-then-all-receive
phase schedule — so compute/wait/exchange splits and parallel
efficiency are *measured* wall-clock quantities.

Pieces:

* :mod:`repro.par.layout` — the deterministic shared-memory map: one
  global pressure/residual field pair plus one fixed slot (8-byte
  sequence header + payload) per directed halo link;
* :mod:`repro.par.shm` — :class:`SharedArena`, the owning/attaching
  wrapper around that memory file's mapping with numpy views;
* :mod:`repro.par.comm` — :class:`ProcComm`, the
  :class:`~repro.cluster.comm.HaloComm` implementation over arena
  slots (spin-with-yield receives, per-rank :class:`RankStats`,
  :class:`~repro.faults.injector.FaultInjector` hooks);
* :mod:`repro.par.worker` — the SPMD worker process body;
* :mod:`repro.par.runtime` — :class:`ProcPool`: spawn, command pipes,
  crash detection (:class:`~repro.faults.errors.WorkerCrashError`),
  respawn;
* :mod:`repro.par.flux` — :class:`ParClusterFluxComputation`, the
  drop-in multiprocess twin of
  :class:`~repro.cluster.flux.ClusterFluxComputation` (bit-identical
  residuals, measured per-rank spans merged in the parent);
* :mod:`repro.par.scale` — the ``repro par-scale`` weak-scaling
  harness: measured efficiency curves next to the modelled
  :class:`~repro.cluster.perf.ClusterPerfModel` predictions.  Its
  exports resolve on first access: a par run does not load the harness.

See DESIGN.md §12.
"""

from repro.par.comm import ProcComm
from repro.par.flux import ParClusterFluxComputation, ParClusterRunResult
from repro.par.layout import HaloLayout, LinkSlot
from repro.par.runtime import ProcPool
from repro.par.shm import SharedArena
from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(), {"scale": ("ScalePoint", "render_scaling", "weak_scaling")}
)

__all__ = [
    "HaloLayout",
    "LinkSlot",
    "SharedArena",
    "ProcComm",
    "ProcPool",
    "ParClusterFluxComputation",
    "ParClusterRunResult",
    "ScalePoint",
    "weak_scaling",
    "render_scaling",
]
