"""The backend table: the one place that says which flux backends exist.

Six executions of Algorithm 1 share one driver protocol —
``run(pressures) -> result`` with ``result.residual`` (the last
application's field) and ``result.as_metrics()``, a ``record=`` hook fed
one ``(pressure, residual)`` pair per application, and :func:`release`
— and differ only in what a :class:`Backend` entry declares: the fold
class its residual sums in, the half of a
:class:`~repro.faults.plan.FaultPlan` it can inject, whether it is
rank-decomposed / multi-process, which configuration keys it takes and
how it is built.  Conformance, supervision, tracing, the resilience
ladder and the CLI all read :data:`BACKENDS`; adding a backend is one
entry here (DESIGN.md Sec. 17).

Importing this module imports no driver: every builder imports its own
on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable

__all__ = ["Backend", "BACKENDS", "get_backend", "release"]


def _injector(plan):
    if plan is None:
        return None
    from repro.faults.injector import FaultInjector

    return FaultInjector(plan)


# Builders get ``dtype``, ``record``, the narrowed ``plan`` and the
# entry's own ``config`` keys, nothing else.
def _lowered(name, mesh, fluid, *, dtype, plan, **kwargs):
    """``derive_ir -> lower_to_<name>``: the driver's ``ir.content_hash``
    is the run's program fingerprint."""
    import repro.ir as ir

    if plan is not None:
        kwargs["faults"] = _injector(plan)
    lower = getattr(ir, f"lower_to_{name}")
    # a remap (event only) shapes the IR's route tables and the fabric alike
    program = ir.derive_ir(mesh, dtype=dtype, remap=kwargs.get("remap"))
    return lower(program, mesh, fluid, **kwargs)


def _gpu(mesh, fluid, *, plan, **kwargs):
    from repro.gpu.reference import GpuFluxComputation

    return GpuFluxComputation(mesh, fluid, **kwargs)


def _cluster(mesh, fluid, *, plan, px=2, py=2, **kwargs):
    from repro.cluster.flux import ClusterFluxComputation

    return ClusterFluxComputation(
        mesh, fluid, px=px, py=py, faults=_injector(plan), **kwargs
    )


def _par(mesh, fluid, *, px=2, py=2, **kwargs):
    from repro.par.flux import ParClusterFluxComputation

    return ParClusterFluxComputation(mesh, fluid, px=px, py=py, **kwargs)


def _event_metrics(driver, result) -> dict:
    from repro.obs.metrics import runtime_stats_metrics

    sources = {
        "runtime_stats": partial(runtime_stats_metrics, result.stats),
        "run_result": result.as_metrics,
    }
    if driver.trace_sink is not None:
        sources["trace"] = driver.trace_sink.as_dict
    return sources


def _par_metrics(driver, result) -> dict:
    from repro.obs.metrics import MetricsRegistry

    rank_stats = driver.rank_stats()  # read now: collectors run after release
    return {
        "par": result.as_metrics,
        # the per-rank worker counters, folded into one summary row
        "par_ranks_merged": lambda: MetricsRegistry().merge(*rank_stats),
    }


@dataclass(frozen=True)
class Backend:
    """One row of the table.

    ``fold_class``: backends in the same class sum each cell's face
    contributions in the same order and must agree bitwise; across
    classes they agree to rounding (:mod:`repro.conform.tolerance`).
    ``injects`` names the half of a fault plan the backend can act on
    (``"fabric"``, ``"ranks"`` or None); the rest of a plan is dropped,
    so a recording of a recovered run replays anywhere.  ``config``
    names the keys of the flat configuration bag the backend takes.
    """

    name: str
    fold_class: str
    injects: str | None
    _build: Callable
    config: tuple[str, ...] = ()
    rank_decomposed: bool = False
    multi_process: bool = False
    _metrics: Callable | None = None

    def build(self, mesh, fluid, *, dtype, record=None, plan=None, **config):
        """A ready driver.  ``config`` is one flat bag shared by every
        caller (``px``, ``py``, ``workers``, ``variant``,
        ``watchdog_cycles``, ``remap``, ``lease_seconds``,
        ``failure_mode``, ``respawn``, ``trace``, ``trace_capacity``); the
        entry picks its own keys and leaves unset ones to the driver's
        defaults."""
        if plan is not None:
            narrow = {"fabric": plan.only_fabric, "ranks": plan.only_ranks}
            plan = narrow[self.injects]() if self.injects else None
            if plan is not None and plan.empty:
                plan = None
        return self._build(
            mesh, fluid, dtype=dtype, record=record, plan=plan,
            **{k: config[k] for k in self.config if k in config},
        )

    def metrics(self, driver, result) -> dict:
        """``{source name: collector}`` of one finished run, ready for
        :meth:`repro.obs.metrics.MetricsRegistry.register`."""
        if self._metrics is not None:
            return self._metrics(driver, result)
        return {self.name: result.as_metrics}


# event/lockstep are distinct fold classes in general (fabric arrival
# order vs phased order) but coincide on the forced-order fabric shapes
# — the golden registry encodes that per artifact via
# tolerance_overrides.  fused replays the IR's per-PE arrival schedule,
# so it shares the event class; cluster/par fold in host order over
# disjoint owned regions.
BACKENDS = MappingProxyType({
    b.name: b
    for b in (
        Backend(
            "event", "event", "fabric", partial(_lowered, "event"),
            config=("watchdog_cycles", "remap", "trace", "trace_capacity"),
            _metrics=_event_metrics,
        ),
        Backend("fused", "event", None, partial(_lowered, "fused")),
        Backend("lockstep", "lockstep", None, partial(_lowered, "lockstep")),
        Backend("gpu", "gpu", None, _gpu, config=("variant",)),
        Backend(
            "cluster", "host", "ranks", _cluster, config=("px", "py"),
            rank_decomposed=True,
        ),
        Backend(
            "par", "host", "ranks", _par,
            config=("px", "py", "workers", "respawn", "lease_seconds",
                    "failure_mode"),
            rank_decomposed=True, multi_process=True, _metrics=_par_metrics,
        ),
    )
})


def get_backend(name: str) -> Backend:
    """The entry called *name*; ``ValueError`` naming the known ones."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {', '.join(BACKENDS)}"
        ) from None


def release(driver) -> None:
    """Free what *driver* holds beyond its arrays (par: the worker pool
    and the shared-memory segment); a no-op for the in-process drivers."""
    close = getattr(driver, "close", None)
    if close is not None:
        close()
