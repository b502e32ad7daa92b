"""Distributed-memory (MPI-style) baseline: block decomposition + halos.

The traditional-architecture contrast of paper Sec. 4 — the top-level
data distribution "that would be usually implemented with MPI" — built
as a simulated rank grid with explicit tagged messaging, an 8-neighbour
halo exchange per application, and an alpha-beta cost model.
"""

from repro.cluster.comm import CartGrid, HaloComm, RankStats, RetryPolicy, SimComm
from repro.cluster.decomposition import Block, BlockDecomposition
from repro.cluster.flux import (
    ClusterFluxComputation,
    ClusterRunResult,
    HaloLink,
    halo_links,
)
from repro.util.lazy import lazy_exports

# the alpha-beta model serves the scaling studies, not a flux run
__getattr__, __dir__ = lazy_exports(globals(), {"perf": ("ClusterPerfModel",)})

__all__ = [
    "HaloComm",
    "SimComm",
    "RankStats",
    "RetryPolicy",
    "CartGrid",
    "Block",
    "BlockDecomposition",
    "ClusterFluxComputation",
    "ClusterRunResult",
    "ClusterPerfModel",
    "HaloLink",
    "halo_links",
]
