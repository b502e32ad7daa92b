"""Pseudo-CSL listing of the configured flux program.

The paper implements its kernel in the Cerebras Software Language (CSL);
our simulator configures the same objects programmatically.  This module
renders a configured :class:`~repro.dataflow.program.FluxProgram` back
into a human-readable CSL-flavoured listing — color declarations, router
configurations by PE role, the per-PE memory map, and the task bodies
with the exact DSD instruction sequence — so the simulated program can
be reviewed the way the real one would be.

The listing is documentation, not compilable CSL; its value is that it
is generated *from the live configuration*, so it cannot drift from what
the simulator executes (tests assert the structural facts against the
program object).
"""

from __future__ import annotations

from repro.dataflow.cardinal import CARDINAL_CHANNELS
from repro.dataflow.diagonal import DIAGONAL_CHANNELS, static_position
from repro.dataflow.program import FluxProgram
from repro.wse.geometry import Port

__all__ = ["generate_listing"]

_FLUX_SEQUENCE = """\
  // one face direction over the Z column (14 FLOPs per cell, Table 4)
  @fsubs(dp, p_L, p_K);            // 1  dPhi pressure part
  @fsubs(gz, z_L, z_K);            // 2  elevation difference
  @fmuls(gz, gz, g);               // 3  g * dz (in-place reuse)
  @fmuls(a,  rho_K, gz);           // 4
  @fmuls(b,  rho_L, gz);           // 5
  @fadds(a,  a, b);                // 6  rho_K*g*dz + rho_L*g*dz
  @fmacs(b,  a, half, dp);         // 7  dPhi = 0.5*s + dp  (FMA)
  @fsubs(a,  zero, b);             // 8  upwind compare (-dPhi)
  @select(dp, a < 0, rho_K, rho_L);//    Eq. 4 predicated pick
  @fmuls(dp, dp, inv_mu);          // 9  lambda_upw
  @fmuls(dp, dp, trans);           // 10 Upsilon * lambda
  @fmuls(dp, dp, b);               // 11 F = ... * dPhi
  @fnegs(a,  dp);                  // 12
  @fsubs(r,  r, a);                // 13-14 residual += F"""


def _port_name(port: Port) -> str:
    return port.name


def _routes_line(position) -> str:
    parts = []
    for in_port, outs in position.items():
        outs_s = ", ".join(_port_name(o) for o in outs)
        parts.append(f"{_port_name(in_port)} -> {{{outs_s}}}")
    return "; ".join(parts) if parts else "(drop)"


def generate_listing(program: FluxProgram) -> str:
    """Render *program* as a pseudo-CSL listing."""
    mesh = program.mesh
    lines: list[str] = []
    w = lines.append

    w("// ===================================================================")
    w("// FV flux computation on the WSE fabric - generated program listing")
    import numpy as np

    w(f"// mesh {mesh.nx} x {mesh.ny} x {mesh.nz}; fabric "
      f"{program.fabric.width} x {program.fabric.height} PEs; "
      f"dtype {np.dtype(program.dtype).name}")
    w(f"// options: reuse_buffers={program.reuse_buffers} "
      f"vectorized={program.vectorized} "
      f"compute_fluxes={program.compute_fluxes} "
      f"overlap_compute={program.overlap_compute}")
    w("// ===================================================================")
    w("")

    # ---- colors ------------------------------------------------------
    w("// ---- routable colors (Sec. 5.2) ----")
    for name in program.colors.names():
        cid = program.colors.lookup(name)
        w(f"const {name}: color = @get_color({cid});")
    w("")

    # ---- router configuration by PE role -----------------------------
    w("// ---- router configuration ----")
    for channel in CARDINAL_CHANNELS:
        color = program.colors.lookup(channel.name)
        w(f"// {channel.name}: two switch positions "
          f"(Fig. 6a), control wavelets alternate them")
        samples = {
            "seed edge": None,
            "even distance": None,
            "odd distance": None,
        }
        for cfg in program.fabric.color_configs(color):
            if cfg is None:  # a bypassed column
                continue
            if cfg.positions[0] == cfg.positions[1]:
                key = "seed edge"
            elif cfg.initial == 0:
                key = "even distance"
            else:
                key = "odd distance"
            if samples[key] is None:
                samples[key] = cfg
        for role, cfg in samples.items():
            if cfg is None:
                continue
            w(f"//   {role:<13} pos0: {_routes_line(cfg.positions[0])}  |  "
              f"pos1: {_routes_line(cfg.positions[1])}")
    for channel in DIAGONAL_CHANNELS:
        pos = static_position(channel)
        w(f"// {channel.name}: static two-hop route (Fig. 5): "
          f"{_routes_line(pos)}")
    w("")

    # ---- memory map ---------------------------------------------------
    w("// ---- PE memory map (48 KB scratchpad, Sec. 5.1 / 5.3.1) ----")
    pe0 = program.fabric.pe(0, 0)
    for name in pe0.memory.names():
        alloc = pe0.memory.get(name)
        w(f"var {name:<22} : [{alloc.nbytes:>6} B]  @ offset {alloc.offset}")
    w(f"// high water: {pe0.memory.high_water} of {pe0.memory.capacity} B")
    w("")

    # ---- tasks --------------------------------------------------------
    w("// ---- tasks (activated by wavelet arrival, Sec. 5.2) ----")
    for channel in CARDINAL_CHANNELS:
        w(f"task recv_{channel.name}() {{  // data from the "
          f"{channel.delivers.name} neighbour")
        w("  @fmovs(recv, fabric_queue);   // 2 words/cell (Table 4 FMOV)")
        if program.compute_fluxes:
            w(f"  flux_face(trans_{channel.delivers.name});"
              + ("" if program.overlap_compute else "  // deferred variant"))
        w("}")
        w(f"task ctrl_{channel.name}() {{ if (!sent) send_column(); }}")
    for channel in DIAGONAL_CHANNELS:
        w(f"task recv_{channel.name}() {{  // two-hop data from the "
          f"{channel.delivers.name} neighbour")
        w("  @fmovs(recv, fabric_queue);")
        if program.compute_fluxes:
            w(f"  flux_face(trans_{channel.delivers.name});")
        w("}")
    w("")
    w("fn flux_face(trans: dsd) {")
    w(_FLUX_SEQUENCE)
    w("}")
    return "\n".join(lines)
