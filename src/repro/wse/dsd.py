"""Data Structure Descriptors: vectorized PE instructions with accounting.

On the WSE, "special registers holding Data Structure Descriptors (DSD)
act as vectors, on which a given instruction can operate" (Sec. 5.3.3).
The per-PE flux kernel of the dataflow implementation is written entirely
in terms of the operations below, so the instruction mix, memory traffic,
and fabric traffic of paper Table 4 are *measured from execution* rather
than asserted.

Per-instruction memory traffic follows Table 4 exactly:

=====  =====  ======================  ==============
op     FLOPs  memory traffic          fabric traffic
=====  =====  ======================  ==============
FMUL   1      2 loads, 1 store        --
FSUB   1      2 loads, 1 store        --
FNEG   1      1 load, 1 store         --
FADD   1      2 loads, 1 store        --
FMA    2      3 loads, 1 store        --
FMOV   0      1 store                 1 load
=====  =====  ======================  ==============

Every operation processes ``n`` elements (the DSD length) and counts ``n``
instruction-elements; the throughput is constant regardless of length
("no matter how long the input and output arrays are, the throughput of
the instruction will be constant since there is no cache", Sec. 5.3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DsdEngine", "OpTraffic", "OP_TRAFFIC", "OP_FLOPS", "WORD_BYTES"]

WORD_BYTES = 4


@dataclass(frozen=True)
class OpTraffic:
    """Per-element loads/stores of one instruction (Table 4 row)."""

    loads: int
    stores: int
    fabric_loads: int = 0


#: Memory/fabric traffic per instruction element (paper Table 4).
OP_TRAFFIC: dict[str, OpTraffic] = {
    "FMUL": OpTraffic(loads=2, stores=1),
    "FSUB": OpTraffic(loads=2, stores=1),
    "FNEG": OpTraffic(loads=1, stores=1),
    "FADD": OpTraffic(loads=2, stores=1),
    "FMA": OpTraffic(loads=3, stores=1),
    "FMOV": OpTraffic(loads=0, stores=1, fabric_loads=1),
}

#: FLOPs per instruction element (FMA counts two, Sec. 7.3).
OP_FLOPS: dict[str, int] = {
    "FMUL": 1,
    "FSUB": 1,
    "FNEG": 1,
    "FADD": 1,
    "FMA": 2,
    "FMOV": 0,
}

#: Flattened (loads, stores, fabric_loads, flops) per op — one dict hit
#: per tally instead of a dataclass-attribute chain (the tally runs once
#: per DSD instruction, deep inside the event simulator's hot path).
_TALLY_TABLE: dict[str, tuple[int, int, int, int]] = {
    op: (t.loads, t.stores, t.fabric_loads, OP_FLOPS[op])
    for op, t in OP_TRAFFIC.items()
}


@dataclass(slots=True)
class DsdEngine:
    """Executes vector instructions on PE-local arrays and tallies costs.

    Attributes
    ----------
    vectorized:
        When True the SIMD datapath is used (the paper's Sec. 5.3.3
        optimization); cycle cost per element drops accordingly.  The
        numerical results are identical — only timing changes.
    cycles_per_element_vector / cycles_per_element_scalar:
        Datapath throughput used for cycle accounting.  Defaults: one
        element per cycle vectorized (DSD-driven SIMD), four cycles per
        element in scalar mode (explicit load/compute/store loop).
    """

    vectorized: bool = True
    cycles_per_element_vector: float = 1.0
    cycles_per_element_scalar: float = 4.0
    counts: dict[str, int] = field(default_factory=dict)
    #: True once account_flux_column has created its five count keys —
    #: later calls use plain ``+=`` updates.
    _flux_seeded: bool = field(default=False, repr=False, compare=False)
    loads: int = 0
    stores: int = 0
    fabric_loads: int = 0
    flops: int = 0
    cycles: float = 0.0

    # ------------------------------------------------------------------ #
    def _tally(self, op: str, n: int) -> None:
        loads, stores, fabric_loads, flops = _TALLY_TABLE[op]
        counts = self.counts
        counts[op] = counts.get(op, 0) + n
        self.loads += loads * n
        self.stores += stores * n
        self.fabric_loads += fabric_loads * n
        self.flops += flops * n
        per_elem = (
            self.cycles_per_element_vector
            if self.vectorized
            else self.cycles_per_element_scalar
        )
        self.cycles += per_elem * n

    def account_flux_column(self, n: int) -> None:
        """Aggregate accounting of one flux-kernel column of length *n*.

        Books exactly what the kernel's instruction sequence (4 FSUB,
        6 FMUL, 1 FADD, 1 FMA, 1 FNEG, 1 predicated SELECT per element;
        see :mod:`repro.dataflow.flux_pe`) would book through fourteen
        individual calls, in one update: 14 FLOPs, 26 loads, 13 stores
        and 14 datapath cycles per element, with the counts dict touched
        once per opcode.  Counter values are identical to the unrolled
        form; only the Python-call overhead is removed.
        """
        counts = self.counts
        if self._flux_seeded:
            counts["FSUB"] += 4 * n
            counts["FMUL"] += 6 * n
            counts["FADD"] += n
            counts["FMA"] += n
            counts["FNEG"] += n
        else:
            # first call: create the keys in the same order the unrolled
            # instruction sequence would (reports preserve dict order)
            counts["FSUB"] = counts.get("FSUB", 0) + 4 * n
            counts["FMUL"] = counts.get("FMUL", 0) + 6 * n
            counts["FADD"] = counts.get("FADD", 0) + n
            counts["FMA"] = counts.get("FMA", 0) + n
            counts["FNEG"] = counts.get("FNEG", 0) + n
            self._flux_seeded = True
        self.loads += 26 * n
        self.stores += 13 * n
        self.flops += 14 * n
        per_elem = (
            self.cycles_per_element_vector
            if self.vectorized
            else self.cycles_per_element_scalar
        )
        self.cycles += 14 * per_elem * n

    def account_fabric_moves(self, n: int) -> None:
        """Book what ``fmovs(dst, src, from_fabric=True)`` books for an
        *n*-element destination, without moving anything."""
        self._tally("FMOV", n)

    @staticmethod
    def _check_dst(dst: np.ndarray) -> int:
        if not isinstance(dst, np.ndarray):
            raise TypeError("DSD destination must be an ndarray")
        return dst.size

    # ------------------------------------------------------------------ #
    # Instruction set (names follow the WSE ISA used in Table 4)
    # ------------------------------------------------------------------ #
    def fmuls(self, dst: np.ndarray, a, b) -> np.ndarray:
        """dst = a * b (elementwise)."""
        n = self._check_dst(dst)
        np.multiply(a, b, out=dst)
        self._tally("FMUL", n)
        return dst

    def fsubs(self, dst: np.ndarray, a, b) -> np.ndarray:
        """dst = a - b (elementwise)."""
        n = self._check_dst(dst)
        np.subtract(a, b, out=dst)
        self._tally("FSUB", n)
        return dst

    def fadds(self, dst: np.ndarray, a, b) -> np.ndarray:
        """dst = a + b (elementwise)."""
        n = self._check_dst(dst)
        np.add(a, b, out=dst)
        self._tally("FADD", n)
        return dst

    def fnegs(self, dst: np.ndarray, a) -> np.ndarray:
        """dst = -a (elementwise)."""
        n = self._check_dst(dst)
        np.negative(a, out=dst)
        self._tally("FNEG", n)
        return dst

    def fmacs(self, dst: np.ndarray, a, b, c) -> np.ndarray:
        """dst = a * b + c (fused multiply-add, 2 FLOPs per element)."""
        n = self._check_dst(dst)
        np.multiply(a, b, out=dst)
        dst += c
        self._tally("FMA", n)
        return dst

    def fmovs(self, dst: np.ndarray, src, *, from_fabric: bool = False) -> np.ndarray:
        """dst = src (move; with ``from_fabric`` the source is a wavelet queue).

        Receiving neighbour data into local buffers is an FMOV per word
        with one fabric load and one store — the 16 FMOV row of Table 4.
        """
        n = self._check_dst(dst)
        np.copyto(dst, src)
        if from_fabric:
            # inlined _tally("FMOV", n): 0 loads, 1 store, 1 fabric load,
            # 0 FLOPs — this runs once per received halo train
            counts = self.counts
            counts["FMOV"] = counts.get("FMOV", 0) + n
            self.stores += n
            self.fabric_loads += n
            self.cycles += (
                self.cycles_per_element_vector
                if self.vectorized
                else self.cycles_per_element_scalar
            ) * n
        else:
            # local register/memory move: store-only, no fabric traffic
            traffic = OpTraffic(loads=1, stores=1)
            self.counts["FMOV_LOCAL"] = self.counts.get("FMOV_LOCAL", 0) + n
            self.loads += traffic.loads * n
            self.stores += traffic.stores * n
            per_elem = (
                self.cycles_per_element_vector
                if self.vectorized
                else self.cycles_per_element_scalar
            )
            self.cycles += per_elem * n
        return dst

    def select(self, dst: np.ndarray, mask: np.ndarray, a, b) -> np.ndarray:
        """dst = a where mask else b (predicated move, no FLOPs).

        Implements the upwind selection of Eq. 4.  On the hardware this is
        the filter/predication capability of DSD-driven instructions; it
        contributes cycles but no floating-point operations and no entry
        in Table 4's FLOP rows.
        """
        n = self._check_dst(dst)
        np.copyto(dst, np.where(mask, a, b))
        per_elem = (
            self.cycles_per_element_vector
            if self.vectorized
            else self.cycles_per_element_scalar
        )
        self.cycles += per_elem * n
        return dst

    def aux(self, name: str, n: int, *, cycles_per_element: float | None = None) -> None:
        """Account an auxiliary operation outside the Table-4 instruction set.

        Used for per-iteration work the paper's per-flux accounting
        excludes (e.g. the density exponential of Eq. 5, evaluated once
        per cell per application).  Adds cycles and a named count but no
        FLOPs/loads/stores, keeping the Table 4 reproduction clean.
        """
        key = f"AUX_{name}"
        self.counts[key] = self.counts.get(key, 0) + n
        per_elem = (
            cycles_per_element
            if cycles_per_element is not None
            else (
                self.cycles_per_element_vector
                if self.vectorized
                else self.cycles_per_element_scalar
            )
        )
        self.cycles += per_elem * n

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Copy of all counters (for delta measurements)."""
        return {
            "counts": dict(self.counts),
            "loads": self.loads,
            "stores": self.stores,
            "fabric_loads": self.fabric_loads,
            "flops": self.flops,
            "cycles": self.cycles,
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.counts.clear()
        self._flux_seeded = False
        self.loads = self.stores = self.fabric_loads = self.flops = 0
        self.cycles = 0.0

    @property
    def memory_bytes(self) -> int:
        """Local memory traffic in bytes (loads + stores, 32-bit words)."""
        return (self.loads + self.stores) * WORD_BYTES

    @property
    def fabric_bytes(self) -> int:
        """Fabric traffic in bytes (fabric loads, 32-bit words)."""
        return self.fabric_loads * WORD_BYTES
