"""Messages on the fabric: data wavelet trains and control wavelets.

On the real hardware every link moves 32-bit packets ("wavelets") tagged
with a color (Sec. 4).  The simulator transports whole trains of wavelets
as one :class:`Message` carrying a NumPy payload; cost accounting still
happens at wavelet (32-bit word) granularity via :attr:`Message.num_words`.

Control wavelets (``KIND_CONTROL``) carry router commands instead of data:
they advance the switch position of every router they traverse, which is
how the *Sending*/*Receiving* roles alternate in the cardinal exchange
(paper Fig. 6b).

Messages are the unit of work of the event simulator: one is created per
injection and (on true multicast fan-out) per fork, and every link hop
reads :attr:`num_words`.  The class is therefore ``__slots__``-based,
``num_words`` is computed once at construction, ``meta`` is allocated
lazily, and :meth:`fork` copies validated state without re-validating.
:func:`check_payload` is the validation; ``EventRuntime.send`` builds a
message from a payload that passed it (or that its sender fixed at
build) the way :meth:`fork` does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Message", "KIND_DATA", "KIND_CONTROL", "WORD_BYTES", "check_payload"]

#: Bytes per fabric word: links transfer data in 32-bit packets (Sec. 4).
WORD_BYTES = 4

#: Payload-carrying wavelet train.
KIND_DATA = "data"

#: Router command wavelet (advances switch positions along its path).
KIND_CONTROL = "control"


def check_payload(payload, kind: str):
    """The payload a message of *kind* carries, validated: a 1-D ndarray
    for a data train (a scalar becomes one element), ``None`` for a
    control wavelet.  ``ValueError`` on anything else."""
    if kind == KIND_DATA:
        if type(payload) is not np.ndarray:
            if payload is None:
                raise ValueError("data message requires a payload")
            payload = np.asarray(payload)
        if payload.ndim != 1:
            if payload.ndim == 0:
                return payload.reshape(1)
            raise ValueError("payload must be one-dimensional")
        return payload
    if kind == KIND_CONTROL:
        if payload is not None:
            raise ValueError("control message must not carry a payload")
        return None
    raise ValueError(f"unknown message kind {kind!r}")


class Message:
    """A train of same-color wavelets travelling together.

    Attributes
    ----------
    color:
        Routing color (tag) of every wavelet in the train.
    payload:
        1D array of data words; ``None`` for control wavelets.
    kind:
        ``KIND_DATA`` or ``KIND_CONTROL``.
    source:
        Fabric coordinate of the injecting PE (for tracing/validation).
    hops:
        Number of router-to-router links traversed so far (filled in by
        the runtime; used to assert the two-hop diagonal property).
    born:
        Simulation time at which the message entered the fabric (filled
        in by the runtime on injection); delivery time minus ``born`` is
        the end-to-end latency aggregated by the trace sink.
    num_words:
        Number of 32-bit wavelets in the train, fixed at construction.
        Data payloads count one word per element when 32-bit, two when
        64-bit (the simulator allows float64 payloads for validation
        runs; the paper's implementation is single precision).  Control
        wavelets occupy a single word.
    """

    __slots__ = (
        "color", "payload", "kind", "source", "hops", "born", "num_words", "_meta"
    )

    def __init__(
        self,
        color: int,
        payload: np.ndarray | None = None,
        kind: str = KIND_DATA,
        source: tuple[int, int] | None = None,
        hops: int = 0,
        meta: dict | None = None,
    ) -> None:
        payload = check_payload(payload, kind)
        if payload is None:
            self.num_words = 1
        else:
            self.num_words = payload.size * (payload.itemsize // WORD_BYTES or 1)
        self.color = color
        self.payload = payload
        self.kind = kind
        self.source = source
        self.hops = hops
        self.born = 0.0
        self._meta = dict(meta) if meta else None

    @property
    def meta(self) -> dict:
        """Free-form per-message annotations (allocated on first use)."""
        m = self._meta
        if m is None:
            m = self._meta = {}
        return m

    @property
    def num_bytes(self) -> int:
        """Fabric traffic in bytes."""
        return self.num_words * WORD_BYTES

    def fork(self) -> "Message":
        """Copy for multicast fan-out; payload is shared (read-only by
        convention: receivers copy into local buffers with FMOV).

        The original message has already been validated, so the copy is
        built directly without re-running payload validation.
        """
        clone = Message.__new__(Message)
        clone.color = self.color
        clone.payload = self.payload
        clone.kind = self.kind
        clone.source = self.source
        clone.hops = self.hops
        clone.born = self.born
        clone.num_words = self.num_words
        meta = self._meta
        clone._meta = dict(meta) if meta else None
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(color={self.color}, kind={self.kind!r}, "
            f"num_words={self.num_words}, source={self.source}, "
            f"hops={self.hops})"
        )
