"""Resource verification: PE memory budgets, aliasing, DSD bounds.

"Reducing the memory consumption on each PE is crucial to fit the
largest possible problem" (Sec. 5.3.1) — and the hand-crafted buffer
reuse that achieves it is exactly the kind of optimization a static
checker should police.  Three analyses:

* :func:`check_memory` — audit every PE's scratchpad against the WSE-2
  model budget (48 KB, :data:`repro.wse.memory.WSE2_PE_MEMORY_BYTES`).
  A fabric built with an inflated capacity (tests, what-if studies)
  still gets flagged when its layouts would not fit real hardware.
  Overlapping allocations that are not exact aliases — partial overlap
  corrupts neighbours silently — are errors; deliberate full aliases
  (the Sec.-5.3.1 reuse) are reported once at INFO.
* :func:`check_column_plan` — ahead-of-build capacity planning: does a
  Z-column of ``nz`` cells fit a PE under the chosen layout?  Inverts
  :func:`repro.dataflow.halos.layout_words_per_cell` and names the
  largest admissible ``nz`` when it does not.
* :func:`check_dsd_bounds` — DSD descriptor sanity for a flux program:
  send trains and receive windows must agree on ``2 * nz`` words, or
  the FMOV drain writes past the descriptor's extent.
"""

from __future__ import annotations

from repro.check.findings import Finding, Severity
from repro.wse.fabric import Fabric
from repro.wse.memory import WSE2_PE_MEMORY_BYTES

__all__ = ["check_memory", "check_column_plan", "check_dsd_bounds"]


def check_memory(
    fabric: Fabric, *, budget: int = WSE2_PE_MEMORY_BYTES
) -> list[Finding]:
    """Audit every PE scratchpad against the hardware model *budget*."""
    findings: list[Finding] = []
    over: list[tuple[tuple[int, int], int]] = []
    worst: tuple[int, tuple[int, int]] | None = None
    partial: list[tuple[tuple[int, int], str, str]] = []
    aliases = 0
    alias_sample: tuple[int, int] | None = None
    for pe in fabric.pes():
        used = pe.memory.used
        if used > budget:
            over.append((pe.coord, used))
            if worst is None or used > worst[0]:
                worst = (used, pe.coord)
        for a_name, b_name in pe.memory.overlap_pairs():
            a, b = pe.memory.get(a_name), pe.memory.get(b_name)
            if a.offset == b.offset and a.nbytes == b.nbytes:
                aliases += 1
                if alias_sample is None:
                    alias_sample = pe.coord
            else:
                partial.append((pe.coord, a_name, b_name))

    if over:
        used, coord = worst
        findings.append(
            Finding(
                code="mem-overflow",
                severity=Severity.ERROR,
                message=(
                    f"PE scratchpad exceeds the {budget} B hardware model: "
                    f"{used} B used ({used - budget} B over)"
                ),
                coord=coord,
                detail=(
                    f"{len(over)} PE(s) over budget; worst is PE {coord} "
                    f"at {used} B"
                ),
            )
        )
    for coord, a_name, b_name in partial:
        findings.append(
            Finding(
                code="alias-overlap",
                severity=Severity.ERROR,
                message=(
                    f"allocations {a_name!r} and {b_name!r} overlap "
                    "partially: writes to one silently corrupt the other"
                ),
                coord=coord,
                detail="partial overlap is never a deliberate alias",
            )
        )
    if aliases:
        findings.append(
            Finding(
                code="alias-overlap",
                severity=Severity.INFO,
                message=(
                    f"{aliases} deliberate buffer alias(es) in use "
                    "(Sec.-5.3.1 reuse)"
                ),
                coord=alias_sample,
            )
        )
    return findings


def check_column_plan(
    nz: int,
    *,
    capacity_bytes: int = WSE2_PE_MEMORY_BYTES,
    reserved_bytes: int = 2048,
    word_bytes: int = 4,
    reuse_buffers: bool = True,
) -> list[Finding]:
    """Would a Z-column of *nz* cells fit one PE under this layout?"""
    from repro.dataflow.halos import layout_words_per_cell, max_nz_for_memory

    words = layout_words_per_cell(reuse_buffers=reuse_buffers)
    need = nz * words * word_bytes + reserved_bytes
    if need <= capacity_bytes:
        return []
    max_nz = max_nz_for_memory(
        capacity_bytes,
        reserved_bytes=reserved_bytes,
        word_bytes=word_bytes,
        reuse_buffers=reuse_buffers,
    )
    return [
        Finding(
            code="mem-plan",
            severity=Severity.ERROR,
            message=(
                f"Z-column of {nz} cells needs {need} B per PE but the "
                f"model provides {capacity_bytes} B"
            ),
            detail=(
                f"{words} words/cell with reuse_buffers={reuse_buffers}; "
                f"largest admissible nz is {max_nz}"
            ),
        )
    ]


def check_dsd_bounds(
    extents: dict[tuple[int, int], tuple[int, int, dict]]
) -> list[Finding]:
    """Send trains and receive windows must agree on ``2 * nz`` words.

    *extents* maps a PE coordinate to its descriptor extents ``(nz,
    send words, {connection: receive words})``.  Every exchanged
    ``(p, rho)`` train is ``2 * nz`` words; a window of any other size
    means the receiving FMOV either truncates the train or writes past
    the descriptor's extent.
    """
    findings: list[Finding] = []
    for coord in sorted(extents):
        nz, send, recv = extents[coord]
        want = 2 * nz
        if send != want:
            findings.append(
                Finding(
                    code="dsd-bounds",
                    severity=Severity.ERROR,
                    message=(
                        f"send train is {send} words, descriptor "
                        f"expects {want}"
                    ),
                    coord=coord,
                )
            )
        for conn, words in sorted(recv.items(), key=lambda kv: kv[0].name):
            if words != want:
                findings.append(
                    Finding(
                        code="dsd-bounds",
                        severity=Severity.ERROR,
                        message=(
                            f"receive window for {conn.name} is "
                            f"{words} words, descriptor expects {want}"
                        ),
                        coord=coord,
                        detail="arriving trains would overrun the window",
                    )
                )
    return findings
