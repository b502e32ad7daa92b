"""Cross-backend conformance: record once, prove equivalence everywhere.

The repo's superpower is bit-identity across the executions of the
same algorithm listed in :data:`repro.backends.BACKENDS`.  This package turns that into a
product feature: :func:`record_run` captures any run as a portable
:class:`~repro.obs.replay.ReplayArtifact`, :func:`replay` re-executes
the artifact on any backend and reports the first divergence under a
standardized :class:`~repro.conform.tolerance.ToleranceClass`, and the
golden registry (``tests/conform/golden/``) pins recorded truth into CI
so every optimization proves equivalence against recordings instead of
ad-hoc pairwise tests.  Exposed as ``repro conform``.
"""

from repro.backends import BACKENDS
from repro.conform.runner import (
    ConformResult,
    Divergence,
    load_registry,
    named_tolerance,
    record_run,
    replay,
    run_golden,
)
from repro.conform.tolerance import (
    BIT_EXACT,
    ULP_BOUNDED,
    ToleranceClass,
    default_tolerance,
    ulp_distance,
)

__all__ = [
    "BACKENDS",
    "ConformResult",
    "Divergence",
    "load_registry",
    "named_tolerance",
    "record_run",
    "replay",
    "run_golden",
    "BIT_EXACT",
    "ULP_BOUNDED",
    "ToleranceClass",
    "default_tolerance",
    "ulp_distance",
]
