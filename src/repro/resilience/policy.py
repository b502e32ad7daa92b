"""`ResiliencePolicy` — the declarative knob set for self-healing runs.

A policy is a frozen, JSON-round-trippable dataclass (the same shape
discipline as :class:`~repro.faults.plan.FaultPlan`): it declares *how*
a supervised run recovers — retry budget with jittered exponential
backoff, checkpoint cadence, and the ordered backend-degradation
ladder — without saying anything about the workload itself.  The
:class:`~repro.resilience.supervisor.RunSupervisor` executes it.

All randomness (the backoff jitter) flows through a caller-owned
``random.Random`` seeded from :attr:`ResiliencePolicy.seed`, so two
supervised runs of the same workload under the same policy make
identical recovery decisions — the property the chaos drills and the
bit-identity tests lean on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.backends import get_backend

__all__ = ["ResiliencePolicy", "DEFAULT_LADDER"]

#: Default degradation order: when a backend exhausts its retry budget
#: the supervisor falls to the *next* entry (``par`` degrades to the
#: serial ``cluster`` backend, ``gpu`` to ``lockstep``, ...).  Backends
#: not in the ladder (or last in it) have nowhere to fall — exhausting
#: their budget is a give-up.
DEFAULT_LADDER = ("par", "cluster", "gpu", "lockstep")


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything a supervisor needs to decide retry/restore/degrade.

    Attributes
    ----------
    max_restarts:
        Checkpoint-restarts allowed per backend before the supervisor
        falls down the degradation ladder (or gives up).
    backoff_base / backoff_multiplier / backoff_cap:
        Exponential backoff before restart ``k`` waits
        ``min(cap, base * multiplier**k)`` seconds (pre-jitter).
    backoff_jitter:
        Jitter fraction in ``[0, 1]``: the actual wait is uniform in
        ``[delay * (1 - jitter), delay]`` (decorrelates retry storms;
        drawn from the policy-seeded RNG, hence reproducible).
    seed:
        Seed for the supervisor's recovery RNG (backoff jitter).
    checkpoint_every:
        Checkpoint after every N committed applications.
    keep_checkpoints:
        Rolling window of the :class:`~repro.solver.checkpoint.CheckpointStore`.
    ladder:
        Ordered degradation chain; see :data:`DEFAULT_LADDER`.
    lease_seconds:
        Heartbeat lease for `repro.par` workers (None disables the
        hung-worker detector; crashes are still caught by exitcode).
    verify_replay:
        After every restore, re-run the checkpointed step and require
        it bit-identical to the checkpoint before resuming.
    verify_degraded:
        After a ladder fallback, re-run the last committed step on the
        new backend and require it within the cross-backend fold-class
        tolerance (:func:`repro.conform.default_tolerance`) of the
        original backend's result.
    """

    max_restarts: int = 3
    backoff_base: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.5
    backoff_cap: float = 0.25
    seed: int = 0
    checkpoint_every: int = 1
    keep_checkpoints: int = 2
    ladder: tuple[str, ...] = field(default=DEFAULT_LADDER)
    lease_seconds: float | None = None
    verify_replay: bool = True
    verify_degraded: bool = True

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be >= 1")
        if self.lease_seconds is not None and self.lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive (or None)")
        object.__setattr__(self, "ladder", tuple(self.ladder))
        seen = set()
        for name in self.ladder:
            get_backend(name)  # a misspelt rung fails here, not mid-degrade
            if name in seen:
                raise ValueError(f"ladder repeats backend {name!r}")
            seen.add(name)

    # ------------------------------------------------------------------ #
    def backoff_delay(self, attempt: int, rng) -> float:
        """Jittered backoff (seconds) before restart number *attempt*.

        ``rng`` is the supervisor's seeded ``random.Random``; the draw
        is consumed even at zero jitter so decision sequences stay
        aligned across policy variants.
        """
        try:
            delay = self.backoff_base * self.backoff_multiplier**attempt
        except OverflowError:  # pragma: no cover - absurd attempt counts
            delay = float("inf")
        delay = min(self.backoff_cap, delay)
        return delay * (1.0 - self.backoff_jitter * rng.random())

    def next_backend(self, current: str) -> str | None:
        """The backend *current* degrades to, or None (nowhere to fall)."""
        if current in self.ladder:
            i = self.ladder.index(current)
            if i + 1 < len(self.ladder):
                return self.ladder[i + 1]
        return None

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "max_restarts": self.max_restarts,
            "backoff_base": self.backoff_base,
            "backoff_multiplier": self.backoff_multiplier,
            "backoff_jitter": self.backoff_jitter,
            "backoff_cap": self.backoff_cap,
            "seed": self.seed,
            "checkpoint_every": self.checkpoint_every,
            "keep_checkpoints": self.keep_checkpoints,
            "ladder": list(self.ladder),
            "lease_seconds": self.lease_seconds,
            "verify_replay": self.verify_replay,
            "verify_degraded": self.verify_degraded,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ResiliencePolicy":
        known = {
            "max_restarts", "backoff_base", "backoff_multiplier",
            "backoff_jitter", "backoff_cap", "seed", "checkpoint_every",
            "keep_checkpoints", "ladder", "lease_seconds",
            "verify_replay", "verify_degraded",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown policy key(s): {sorted(unknown)}"
            )
        kwargs = dict(doc)
        if "ladder" in kwargs:
            kwargs["ladder"] = tuple(kwargs["ladder"])
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "ResiliencePolicy":
        """Read a policy from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def describe(self) -> str:
        lease = (
            f", lease {self.lease_seconds:g}s"
            if self.lease_seconds is not None else ""
        )
        return (
            f"restarts<={self.max_restarts} "
            f"(backoff {self.backoff_base:g}s x{self.backoff_multiplier:g} "
            f"cap {self.backoff_cap:g}s jitter {self.backoff_jitter:g}), "
            f"checkpoint every {self.checkpoint_every} "
            f"(keep {self.keep_checkpoints}), "
            f"ladder {' -> '.join(self.ladder)}{lease}"
        )
