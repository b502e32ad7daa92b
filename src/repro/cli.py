"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's headline artifacts without writing
code:

* ``tables``  — reproduce Tables 1-4, Fig. 8, and the energy comparison;
* ``validate`` — compare the backends' residual bytes with the reference
  fold in each one's fold order, on a chosen mesh;
* ``scaling`` — the Table 2 weak-scaling projection;
* ``listing`` — the pseudo-CSL program listing for a mesh;
* ``inject``  — a quick implicit CO2-injection run;
* ``trace``   — run any backend under observability and emit an
  aggregated traffic report plus a Perfetto-loadable trace
  (DESIGN.md Sec. 9);
* ``chaos``   — run the backends under a deterministic fault plan and
  report which faults were detected and recovered (DESIGN.md Sec. 10);
* ``par-scale`` — weak-scaling sweep of the real multiprocess SPMD
  runtime: measured efficiency next to the modelled prediction, every
  point verified bit-identical against the serial cluster backend
  (DESIGN.md Sec. 12);
* ``check``   — statically verify a compiled fabric program without
  executing it: deadlock cycles, color conflicts, dead routes, stale
  switch schedules, memory budgets, plus the determinism lint
  (DESIGN.md Sec. 11).  Exits nonzero on any ERROR finding.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.backends import BACKENDS, release

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Massively Distributed Finite-Volume Flux "
            "Computation' (SC 2023)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="reproduce the paper's tables and figures")

    p_val = sub.add_parser(
        "validate", help="check the backends byte for byte against the reference fold"
    )
    p_val.add_argument("--nx", type=int, default=6)
    p_val.add_argument("--ny", type=int, default=5)
    p_val.add_argument("--nz", type=int, default=4)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument(
        "--geomodel",
        default="lognormal",
        choices=["uniform", "layered", "lognormal", "channelized"],
    )

    p_scale = sub.add_parser("scaling", help="Table 2 weak-scaling projection")
    p_scale.add_argument(
        "--applications", type=int, default=1000, help="applications of Algorithm 1"
    )

    p_list = sub.add_parser("listing", help="pseudo-CSL program listing")
    p_list.add_argument("--nx", type=int, default=4)
    p_list.add_argument("--ny", type=int, default=4)
    p_list.add_argument("--nz", type=int, default=8)

    p_inj = sub.add_parser("inject", help="implicit CO2-injection run")
    p_inj.add_argument("--steps", type=int, default=5)
    p_inj.add_argument("--dt", type=float, default=86400.0, help="step size [s]")
    p_inj.add_argument("--rate", type=float, default=0.5, help="kg/s")

    p_tr = sub.add_parser(
        "trace",
        help="run under observability; emit traffic report + Perfetto trace",
    )
    p_tr.add_argument("--nx", type=int, default=6)
    p_tr.add_argument("--ny", type=int, default=5)
    p_tr.add_argument("--nz", type=int, default=4)
    p_tr.add_argument(
        "--applications", type=int, default=2, help="applications of Algorithm 1"
    )
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument(
        "--geomodel",
        default="uniform",
        choices=["uniform", "layered", "lognormal", "channelized"],
    )
    p_tr.add_argument(
        "--backend",
        default="event",
        choices=list(BACKENDS),
        help="which implementation to run (fabric heatmaps need 'event'; "
        "'par' merges every worker's spans into one timeline)",
    )
    p_tr.add_argument(
        "--variant", default="raja", choices=["raja", "cuda"],
        help="kernel style for the gpu backend",
    )
    p_tr.add_argument("--px", type=int, default=2, help="cluster ranks along X")
    p_tr.add_argument("--py", type=int, default=2, help="cluster ranks along Y")
    p_tr.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the par backend (default: one per rank)",
    )
    p_tr.add_argument(
        "--capacity", type=int, default=1024,
        help="delivery ring-buffer capacity (aggregates are unaffected)",
    )
    p_tr.add_argument(
        "--out", default=None, metavar="DIR",
        help="write trace.json (Perfetto) and report.json (aggregates) here",
    )
    p_tr.add_argument(
        "--profile", action="store_true",
        help="cProfile the run and print the hottest functions",
    )
    p_tr.add_argument(
        "--profile-baseline", default=None, metavar="FILE",
        help="diff the profile against a profile.json from a previous --out",
    )

    p_ch = sub.add_parser(
        "chaos",
        help="inject a seeded fault plan; report detected/recovered faults",
    )
    p_ch.add_argument("--nx", type=int, default=4)
    p_ch.add_argument("--ny", type=int, default=4)
    p_ch.add_argument("--nz", type=int, default=3)
    p_ch.add_argument(
        "--seed", type=int, default=7,
        help="fault-plan seed (same seed => same plan and outcomes)",
    )
    p_ch.add_argument("--px", type=int, default=2, help="cluster ranks along X")
    p_ch.add_argument("--py", type=int, default=2, help="cluster ranks along Y")
    p_ch.add_argument(
        "--watchdog", type=float, default=20_000.0, metavar="CYCLES",
        help="progress-watchdog threshold in device cycles",
    )
    p_ch.add_argument(
        "--steps", type=int, default=4,
        help="implicit solver steps for the checkpoint/restart drill",
    )
    p_ch.add_argument(
        "--plan", default=None, metavar="FILE",
        help="load a FaultPlan JSON instead of the seeded plan",
    )
    p_ch.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the chaos report (plan + outcomes) as JSON",
    )
    p_ch.add_argument(
        "--postmortem", default="chaos-postmortem", metavar="DIR",
        help="directory for the replay artifact recorded when a "
        "scenario fails (the bundle path is printed in the failure "
        "line); pass 'none' to disable",
    )
    p_ch.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list every chaos scenario with a one-line description "
        "and exit",
    )
    p_ch.add_argument(
        "--only", default=None, metavar="NAME[,NAME...]",
        help="run only the named scenario(s); unknown names are a "
        "usage error naming the valid set (see --list)",
    )

    p_sv = sub.add_parser(
        "supervise",
        help="run flux applications under the self-healing resilience "
        "supervisor (checkpoint restarts + backend degradation)",
    )
    p_sv.add_argument(
        "--backend", default="event",
        choices=list(BACKENDS),
        help="starting backend (may degrade down the policy ladder)",
    )
    p_sv.add_argument("--nx", type=int, default=4)
    p_sv.add_argument("--ny", type=int, default=4)
    p_sv.add_argument("--nz", type=int, default=3)
    p_sv.add_argument(
        "--applications", type=int, default=3,
        help="flux applications to drive to committed residuals",
    )
    p_sv.add_argument("--px", type=int, default=2, help="cluster ranks along X")
    p_sv.add_argument("--py", type=int, default=2, help="cluster ranks along Y")
    p_sv.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the par backend (default: one per rank)",
    )
    p_sv.add_argument(
        "--seed", type=int, default=0, help="pressure-field seed",
    )
    p_sv.add_argument(
        "--policy", default=None, metavar="FILE",
        help="ResiliencePolicy JSON (default: built-in policy)",
    )
    p_sv.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="mirror checkpoints to disk (restores then survive "
        "checkpoint corruption by falling back to an intact file)",
    )
    p_sv.add_argument(
        "--inject", action="store_true",
        help="inject a seeded demo fault into the first attempt "
        "(router stall for fabric backends, rank failure for "
        "cluster/par) so the recovery path is exercised",
    )
    p_sv.add_argument(
        "--plan", default=None, metavar="FILE",
        help="FaultPlan JSON injected into the first attempt "
        "(transient-fault model; restarts run clean)",
    )
    p_sv.add_argument(
        "--postmortem", default="supervisor-postmortem", metavar="DIR",
        help="directory for the give-up post-mortem bundle and "
        "decision timeline; pass 'none' to disable",
    )
    p_sv.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the supervised-run record (backend chain, "
        "restarts, timeline, per-step digests) as JSON",
    )

    p_ps = sub.add_parser(
        "par-scale",
        help="measured scaling of the multiprocess SPMD runtime",
    )
    p_ps.add_argument(
        "--grids", default="1x1,2x1,2x2", metavar="SPEC",
        help="comma-separated rank grids, e.g. '1x1,2x2,3x2'",
    )
    p_ps.add_argument(
        "--base-nx", type=int, default=16, help="owned cells per rank along X"
    )
    p_ps.add_argument(
        "--base-ny", type=int, default=16, help="owned cells per rank along Y"
    )
    p_ps.add_argument("--nz", type=int, default=4)
    p_ps.add_argument(
        "--applications", type=int, default=2,
        help="timed applications of Algorithm 1 per grid point",
    )
    p_ps.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes per point (default: one per rank).  "
        "Counts above the host's usable CPUs are a usage error (exit 2)",
    )
    p_ps.add_argument("--seed", type=int, default=0)
    p_ps.add_argument(
        "--no-verify", action="store_true",
        help="skip the bit-identity check against the serial backend",
    )
    p_ps.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the scaling points as JSON",
    )

    p_chk = sub.add_parser(
        "check",
        help="statically verify a fabric program (no execution)",
    )
    p_chk.add_argument("--nx", type=int, default=6)
    p_chk.add_argument("--ny", type=int, default=5)
    p_chk.add_argument("--nz", type=int, default=4)
    p_chk.add_argument(
        "--examples", action="store_true",
        help="verify every registered example program instead of one mesh",
    )
    p_chk.add_argument(
        "--program", default=None, metavar="FILE",
        help="verify a serialized fabric-program IR (JSON written by "
        "--emit-ir or FabricProgramIR.to_json) instead of building one; "
        "an unreadable or invalid file is a usage error (exit 2)",
    )
    p_chk.add_argument(
        "--emit-ir", default=None, metavar="FILE",
        help="also serialize the verified program's IR to FILE "
        "(byte-stable JSON with an embedded content hash)",
    )
    p_chk.add_argument(
        "--lint", action="append", default=None, metavar="PATH",
        help="also run the determinism lint over PATH (repeatable)",
    )
    p_chk.add_argument(
        "--lint-only", action="store_true",
        help="run only the determinism lint (requires --lint)",
    )
    p_chk.add_argument(
        "--race", action="store_true",
        help="run the concurrency verifier instead: bounded model check "
        "of the shared-memory halo protocol, concurrency lint over "
        "src/repro, and a live happens-before probe",
    )
    p_chk.add_argument(
        "--race-drill", action="store_true",
        help="run the seeded-mutation drill: every protocol mutation "
        "must be flagged as exactly one ERROR with a replayable witness",
    )
    p_chk.add_argument(
        "--only", default=None, metavar="ANALYZER[,ANALYZER...]",
        help="run only the named analyzers (see repro.check.ANALYZERS; "
        "unknown names exit 2 listing the valid set)",
    )
    p_chk.add_argument(
        "--skip", default=None, metavar="ANALYZER[,ANALYZER...]",
        help="run everything selected except the named analyzers",
    )
    p_chk.add_argument(
        "--json", default=None, metavar="FILE",
        help="write machine-readable findings as JSON",
    )

    p_cf = sub.add_parser(
        "conform",
        help="record a replay artifact, or replay one on any backend and "
        "diff against the recording (DESIGN.md Sec. 13)",
    )
    p_cf.add_argument(
        "artifact", nargs="?", default=None,
        help="replay artifact (.rpz) to re-execute; omit with --record "
        "or --golden",
    )
    p_cf.add_argument(
        "--backend", default=None,
        choices=list(BACKENDS),
        help="backend to record on / replay with",
    )
    p_cf.add_argument(
        "--record", action="store_true",
        help="record a fresh artifact on --backend instead of replaying",
    )
    p_cf.add_argument(
        "--out", default=None, metavar="FILE",
        help="with --record: where to write the artifact "
        "(default <backend>.rpz)",
    )
    p_cf.add_argument(
        "--golden", action="store_true",
        help="replay the whole golden registry (tests/conform/golden)",
    )
    p_cf.add_argument(
        "--golden-dir", default=None, metavar="DIR",
        help="override the golden registry directory",
    )
    p_cf.add_argument(
        "--backends", default=None, metavar="B[,B...]",
        help="with --golden: restrict replays to these backends",
    )
    p_cf.add_argument(
        "--tolerance", default=None, choices=["bit-exact", "ulp-bounded"],
        help="override the backend pair's default tolerance class",
    )
    p_cf.add_argument(
        "--report", default=None, metavar="DIR",
        help="write machine-readable divergence reports here",
    )
    p_cf.add_argument("--nx", type=int, default=4)
    p_cf.add_argument("--ny", type=int, default=4)
    p_cf.add_argument("--nz", type=int, default=3)
    p_cf.add_argument(
        "--geomodel", default="lognormal",
        choices=["uniform", "layered", "lognormal", "channelized"],
    )
    p_cf.add_argument("--seed", type=int, default=0)
    p_cf.add_argument(
        "--applications", type=int, default=2,
        help="applications of Algorithm 1 to record",
    )
    p_cf.add_argument("--px", type=int, default=2, help="rank grid along X")
    p_cf.add_argument("--py", type=int, default=2, help="rank grid along Y")
    p_cf.add_argument(
        "--workers", type=int, default=None,
        help="par worker processes (default: one per rank)",
    )
    p_cf.add_argument(
        "--variant", default="raja", choices=["raja", "cuda"],
        help="kernel style when recording on the gpu backend",
    )
    p_cf.add_argument(
        "--snapshot-every", type=int, default=1, metavar="K",
        help="keep a full residual snapshot every K steps (1 = all)",
    )
    p_cf.add_argument(
        "--faulted", action="store_true",
        help="with --record: inject the seeded transient rank-failure "
        "plan (recovery must reproduce the fault-free bits)",
    )
    return parser


# --------------------------------------------------------------------- #
def _check_rank_grid(px: int, py: int, nx: int, ny: int) -> str | None:
    """The BlockDecomposition oversubscription guard, surfaced before
    any backend is built: an error message, or None when the grid fits."""
    if px > nx:
        return (
            f"error: --px {px} ranks along X exceed mesh Nx={nx} "
            "(every rank needs at least one owned cell column)"
        )
    if py > ny:
        return (
            f"error: --py {py} ranks along Y exceed mesh Ny={ny} "
            "(every rank needs at least one owned cell row)"
        )
    return None


def _load(path: str, load, what: str, *errors):
    """``load(path)``; None after printing ``error: <path>: <reason>``
    when the file cannot be read, or ``load`` rejects it with one of
    *errors* as not a *what* (the caller exits 2)."""
    try:
        return load(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except errors as exc:
        reason = f"not a {what} ({type(exc).__name__}: {exc})"
    print(f"error: {path}: {reason}", file=sys.stderr)
    return None


def _load_plan(path: str):
    """The :class:`~repro.faults.plan.FaultPlan` in the JSON file *path*,
    or None (see :func:`_load`)."""
    import json
    from pathlib import Path

    from repro.faults import FaultPlan

    def load(path):
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise TypeError("expected a JSON object")
        return FaultPlan.from_dict(data)

    return _load(path, load, "fault plan", ValueError, KeyError, TypeError)


def _cmd_tables(out) -> int:
    from repro.core.constants import PAPER_MESH, PAPER_WEAK_SCALING_MESHES
    from repro.dataflow import interior_cell_table
    from repro.perf import (
        A100_CUDA_TIME_MODEL,
        A100_RAJA_TIME_MODEL,
        CS2_TIME_MODEL,
        PAPER_TABLE1,
        a100_kernel_point,
        a100_roofline,
        compare_energy,
        cs2_kernel_points,
        cs2_roofline,
        weak_scaling_row,
    )
    from repro.util.reporting import Table

    nx, ny, nz = PAPER_MESH
    t1 = Table("Table 1 - 1000 applications, 750x994x246", ["Arch", "Model [s]", "Paper [s]"])
    for name, model in (
        ("Dataflow/CSL", CS2_TIME_MODEL.seconds(nx, ny, nz)),
        ("GPU/RAJA", A100_RAJA_TIME_MODEL.seconds(nx, ny, nz)),
        ("GPU/CUDA", A100_CUDA_TIME_MODEL.seconds(nx, ny, nz)),
    ):
        t1.add_row([name, f"{model:.4f}", f"{PAPER_TABLE1[name][0]:.4f}"])
    print(t1.render(), file=out)

    t2 = Table("Table 2 - weak scaling", ["Mesh", "Gcell/s", "CS-2 [s]", "A100 [s]"])
    for mesh in PAPER_WEAK_SCALING_MESHES:
        row = weak_scaling_row(*mesh)
        t2.add_row(
            [
                f"{row.nx}x{row.ny}x{row.nz}",
                f"{row.throughput_gcells:.1f}",
                f"{row.cs2_seconds:.4f}",
                f"{row.a100_seconds:.3f}",
            ]
        )
    print("", file=out)
    print(t2.render(), file=out)

    split = CS2_TIME_MODEL.time_split(nx, ny, nz)
    t3 = Table("Table 3 - CS-2 time split", ["Component", "[s]", "[%]"])
    for name, (secs, pct) in split.items():
        t3.add_row([name, f"{secs:.4f}", f"{pct:.2f}"])
    print("", file=out)
    print(t3.render(), file=out)

    table4 = interior_cell_table()
    t4 = Table("Table 4 - per-cell instructions (measured)", ["Op", "Count", "Mem", "Fabric"])
    for row in table4.rows:
        t4.add_row(
            [row.op, row.count, row.mem_traffic_label, row.fabric_loads or "-"]
        )
    t4.add_note(
        f"{table4.flops_per_cell} FLOPs/cell, AI mem "
        f"{table4.arithmetic_intensity_memory:.4f}, AI fabric "
        f"{table4.arithmetic_intensity_fabric:.4f}"
    )
    print("", file=out)
    print(t4.render(), file=out)

    rl = cs2_roofline(table4)
    mem_pt, fab_pt = cs2_kernel_points(table4)
    arl = a100_roofline()
    apt = a100_kernel_point()
    print("", file=out)
    print(
        f"Fig. 8: CS-2 kernel {mem_pt.achieved_flops / 1e12:.2f} TFLOPS "
        f"(memory bandwidth-bound, fabric compute-bound); "
        f"A100 kernel {apt.achieved_flops / 1e9:.0f} GFLOPS at "
        f"{arl.efficiency(apt):.0%} of attainable (memory-bound)",
        file=out,
    )
    cmp = compare_energy()
    print(
        f"Energy: {cmp.cs2_gflops_per_watt:.2f} GFLOP/W on CS-2; "
        f"{cmp.energy_efficiency_ratio:.2f}x energy advantage per job",
        file=out,
    )
    return 0


def _cmd_validate(args, out) -> int:
    from repro.core import (
        FluidProperties,
        compute_flux_residual,
        random_pressure,
    )
    from repro.ir.schedule import schedule_classes
    from repro.workloads import make_geomodel

    mesh = make_geomodel(args.nx, args.ny, args.nz, kind=args.geomodel, seed=args.seed)
    fluid = FluidProperties()
    p = random_pressure(mesh, seed=args.seed)
    orders = {"phased": None, "event": schedule_classes(args.nx, args.ny)}
    folds = {cls: compute_flux_residual(mesh, fluid, p, order=o) for cls, o in orders.items()}
    scale = float(np.abs(folds["phased"]).max())
    print(
        f"mesh {args.nx}x{args.ny}x{args.nz} ({args.geomodel}, seed {args.seed}); "
        f"|r|_max = {scale:.6e}",
        file=out,
    )
    ok = True
    for label, name, config in (
        ("gpu/raja", "gpu", {"variant": "raja"}),
        ("gpu/cuda", "gpu", {"variant": "cuda"}),
        ("wse/event", "event", {}),
        ("wse/lockstep", "lockstep", {}),
    ):
        cls = BACKENDS[name].fold_class
        res = BACKENDS[name].build(mesh, fluid, dtype=np.float64, **config).run([p]).residual
        same = res.tobytes() == folds[cls].tobytes()
        ok = ok and same
        print(f"  {label:<13} {cls} fold: {'bytes equal' if same else 'BYTES DIFFER'}", file=out)
    print("VALIDATION PASSED" if ok else "VALIDATION FAILED", file=out)
    return 0 if ok else 1


def _cmd_scaling(args, out) -> int:
    from repro.core.constants import PAPER_WEAK_SCALING_MESHES
    from repro.perf import weak_scaling_row
    from repro.util.reporting import Table

    t = Table(
        f"Weak scaling, {args.applications} applications",
        ["Mesh", "Cells", "Gcell/s", "CS-2 [s]", "A100 [s]", "Speedup"],
    )
    for mesh in PAPER_WEAK_SCALING_MESHES:
        row = weak_scaling_row(*mesh, applications=args.applications)
        t.add_row(
            [
                f"{row.nx}x{row.ny}x{row.nz}",
                f"{row.total_cells:,}",
                f"{row.throughput_gcells:.1f}",
                f"{row.cs2_seconds:.4f}",
                f"{row.a100_seconds:.3f}",
                f"{row.speedup:.1f}x",
            ]
        )
    print(t.render(), file=out)
    return 0


def _cmd_listing(args, out) -> int:
    from repro.core import CartesianMesh3D, FluidProperties
    from repro.dataflow import generate_listing
    from repro.dataflow.program import FluxProgram

    program = FluxProgram(
        CartesianMesh3D(args.nx, args.ny, args.nz), FluidProperties()
    )
    print(generate_listing(program), file=out)
    return 0


def _cmd_inject(args, out) -> int:
    from repro.solver import SinglePhaseFlowSimulator
    from repro.workloads import InjectionScenario

    scenario = InjectionScenario(rate=args.rate)
    mesh = scenario.build_mesh()
    sim = SinglePhaseFlowSimulator(
        mesh,
        scenario.fluid,
        wells=scenario.wells(),
        initial_pressure=scenario.initial_pressure(mesh),
    )
    m0 = sim.mass_in_place()
    injected = 0.0
    for _ in range(args.steps):
        report = sim.step(args.dt, rtol=1e-8)
        injected += sim.injected_rate * report.dt
        print(
            f"t={report.time / 86400:6.2f} d  p_avg={report.average_pressure / 1e6:8.4f} MPa  "
            f"newton={report.newton.iterations}",
            file=out,
        )
    err = abs((sim.mass_in_place() - m0) - injected) / max(injected, 1e-30)
    print(f"mass balance error: {err:.2e}", file=out)
    return 0 if err < 1e-5 else 1


def _cmd_trace(args, out) -> int:
    from pathlib import Path

    from repro.core import FluidProperties, random_pressure
    from repro.obs import (
        MetricsRegistry,
        SpanRecorder,
        chrome_trace_document,
        consistency,
        diff_rows,
        load_rows,
        profile_call,
        profile_rows,
        render_report,
        render_rows,
        render_span_table,
        report_document,
        save_rows,
        set_recorder,
    )
    from repro.workloads import make_geomodel

    if BACKENDS[args.backend].rank_decomposed:
        problem = _check_rank_grid(args.px, args.py, args.nx, args.ny)
        if problem is not None:
            print(problem, file=sys.stderr)
            return 2
    baseline = None
    if args.profile_baseline:
        # read before the traced run, so a bad path costs no run
        baseline = _load(args.profile_baseline, load_rows, "profile", ValueError)
        if baseline is None:
            return 2
    mesh = make_geomodel(args.nx, args.ny, args.nz, kind=args.geomodel, seed=args.seed)
    fluid = FluidProperties()
    pressures = [
        random_pressure(mesh, seed=args.seed + i) for i in range(args.applications)
    ]
    entry = BACKENDS[args.backend]
    registry = MetricsRegistry()

    def run():
        # par's worker-side spans come back over the reply pipes and are
        # ingested into the installed recorder with each worker's OS pid,
        # so the Perfetto document shows one process row per worker
        drv = entry.build(
            mesh, fluid,
            # native precisions: fp32 device models, fp64 host ranks
            dtype=np.float64 if entry.rank_decomposed else np.float32,
            variant=args.variant,
            px=args.px, py=args.py, workers=args.workers,
            trace=True, trace_capacity=args.capacity,
        )
        try:
            result = drv.run(pressures)
            for source, collector in entry.metrics(drv, result).items():
                registry.register(source, collector)
            return drv, result
        finally:
            release(drv)

    recorder = SpanRecorder()
    previous = set_recorder(recorder)
    prof = None
    try:
        if args.profile:
            (drv, result), prof = profile_call(run)
        else:
            drv, result = run()
    finally:
        set_recorder(previous)
    # only the event fabric has a delivery trace to render
    sink = getattr(drv, "trace_sink", None)
    stats = color_names = None
    if sink is not None:
        stats, color_names = result.stats, drv.ir.colors

    # calibrated analytic expectation alongside the measured counters
    if args.backend == "gpu":
        from repro.perf import A100_CUDA_TIME_MODEL, A100_RAJA_TIME_MODEL

        model = (
            A100_CUDA_TIME_MODEL if args.variant == "cuda" else A100_RAJA_TIME_MODEL
        )
    else:
        from repro.perf import CS2_TIME_MODEL as model
    registry.register(
        "time_model",
        lambda: model.as_metrics(args.nx, args.ny, args.nz, len(pressures)),
    )
    metrics = registry.collect()
    span_summary = recorder.summary()

    print(
        f"backend {args.backend}: mesh {args.nx}x{args.ny}x{args.nz} "
        f"({args.geomodel}), {len(pressures)} applications",
        file=out,
    )
    if sink is not None:
        print(
            render_report(
                sink,
                stats=stats,
                fabric_shape=(args.nx, args.ny),
                color_names=color_names,
                span_summary=span_summary,
            ),
            file=out,
        )
    else:
        print(render_span_table(span_summary), file=out)
        print(f"metric sources: {', '.join(registry.sources)}", file=out)
        merged = metrics.get("par_ranks_merged")
        if merged is not None:
            par_metrics = metrics["par"]
            print(
                f"par: {par_metrics.get('distinct_pids', 0)} distinct "
                f"worker pid(s), "
                f"{merged.get('messages_sent', 0)} halo messages "
                f"({merged.get('bytes_sent', 0)} bytes) merged from "
                f"{par_metrics.get('ranks', 0)} rank(s)",
                file=out,
            )

    rows = None
    if prof is not None:
        rows = profile_rows(prof)
        print("", file=out)
        print("hottest functions (cumulative seconds):", file=out)
        print(render_rows(rows), file=out)
        if baseline is not None:
            delta = diff_rows(baseline, rows)
            print("", file=out)
            print(f"profile delta vs {args.profile_baseline}:", file=out)
            print(render_rows(delta), file=out)

    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        from repro.util.jsonio import write_stable_json

        trace_path = outdir / "trace.json"
        doc = chrome_trace_document(recorder, sink, color_names=color_names)
        write_stable_json(trace_path, doc, indent=None)
        report = (
            report_document(
                sink,
                stats=stats,
                fabric_shape=(args.nx, args.ny),
                color_names=color_names,
                span_summary=span_summary,
                extra={"metrics": metrics},
            )
            if sink is not None
            else {"spans": span_summary, "metrics": metrics}
        )
        write_stable_json(outdir / "report.json", report)
        if rows is not None:
            save_rows(rows, outdir / "profile.json")
        print("", file=out)
        print(
            f"wrote {trace_path} (open in https://ui.perfetto.dev) and "
            f"{outdir / 'report.json'}",
            file=out,
        )

    if sink is not None:
        check = consistency(sink, stats)
        return 0 if check["messages_match"] and check["word_hops_match"] else 1
    return 0


def _cmd_chaos(args, out) -> int:
    from pathlib import Path

    from repro.faults import run_chaos
    from repro.faults.chaos import SCENARIOS

    if args.list_scenarios:
        width = max(len(name) for name in SCENARIOS)
        for name in sorted(SCENARIOS):
            print(f"{name:<{width}}  {SCENARIOS[name]}", file=out)
        return 0
    only = None
    if args.only:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = sorted(set(only) - set(SCENARIOS))
        if unknown:
            print(
                "error: unknown chaos scenario(s) "
                + ", ".join(repr(u) for u in unknown)
                + "; valid: " + ", ".join(sorted(SCENARIOS)),
                file=sys.stderr,
            )
            return 2

    problem = _check_rank_grid(args.px, args.py, args.nx, args.ny)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    plan = None
    if args.plan:
        plan = _load_plan(args.plan)
        if plan is None:
            return 2
        if plan.empty:
            # an empty plan would "pass" without exercising anything —
            # reject it loudly instead of reporting a hollow green run
            print(
                f"error: fault plan {args.plan} injects no faults "
                "(empty plan); drop --plan to use the seeded plan",
                file=sys.stderr,
            )
            return 2
    report = run_chaos(
        plan,
        nx=args.nx,
        ny=args.ny,
        nz=args.nz,
        seed=args.seed,
        px=args.px,
        py=args.py,
        watchdog_cycles=args.watchdog,
        steps=args.steps,
        only=only,
        postmortem_dir=(
            None if args.postmortem == "none" else args.postmortem
        ),
    )
    print(report.render(), file=out)
    if args.out:
        from repro.util.jsonio import write_stable_json

        path = write_stable_json(Path(args.out), report.as_dict())
        print(f"wrote {path}", file=out)
    return 0 if report.ok else 1


def _cmd_supervise(args, out) -> int:
    from pathlib import Path

    import numpy as np

    from repro.core import (
        CartesianMesh3D,
        FluidProperties,
        random_pressure,
    )
    from repro.faults import FaultPlan
    from repro.resilience import (
        ResiliencePolicy,
        RunSupervisor,
        SupervisorGiveUp,
    )

    if BACKENDS[args.backend].rank_decomposed:
        problem = _check_rank_grid(args.px, args.py, args.nx, args.ny)
        if problem is not None:
            print(problem, file=sys.stderr)
            return 2
    if args.applications < 1:
        print("error: --applications must be >= 1", file=sys.stderr)
        return 2
    try:
        policy = (
            ResiliencePolicy.load(args.policy) if args.policy
            else ResiliencePolicy()
        )
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad --policy file: {exc}", file=sys.stderr)
        return 2
    plan = None
    watchdog = None
    if args.plan:
        plan = _load_plan(args.plan)
        if plan is None:
            return 2
    elif args.inject:
        if BACKENDS[args.backend].injects == "ranks":
            plan = FaultPlan.seeded(
                args.seed, fabric_shape=(args.nx, args.ny),
                ranks=args.px * args.py,
                dead_pes=0, lossy_links=0, router_stalls=0,
            )
        else:
            plan = FaultPlan.seeded(
                args.seed, fabric_shape=(args.nx, args.ny),
                dead_pes=0, lossy_links=0, rank_failures=0,
                router_stalls=1,
            )
            watchdog = 20_000.0

    mesh = CartesianMesh3D(args.nx, args.ny, args.nz)
    supervisor = RunSupervisor(
        mesh, FluidProperties(),
        policy=policy,
        backend=args.backend,
        px=args.px, py=args.py, workers=args.workers,
        plan=plan,
        watchdog_cycles=watchdog,
        checkpoint_dir=args.checkpoint_dir,
        postmortem_dir=(
            None if args.postmortem == "none" else args.postmortem
        ),
    )
    pressures = [
        random_pressure(mesh, seed=args.seed + i)
        for i in range(args.applications)
    ]
    print(
        f"supervising {args.applications} application(s) on "
        f"{args.backend} [{policy.describe()}]",
        file=out,
    )
    try:
        result = supervisor.run(pressures)
    except SupervisorGiveUp as exc:
        print(f"SUPERVISION FAILED: {exc}", file=sys.stderr)
        if exc.postmortem_bundle:
            print(
                f"post-mortem bundle: {exc.postmortem_bundle}",
                file=sys.stderr,
            )
        if exc.postmortem_timeline:
            print(
                f"decision timeline: {exc.postmortem_timeline}",
                file=sys.stderr,
            )
        return 1
    for event in result.timeline:
        kind = event["event"]
        if kind == "failure":
            print(
                f"  ! {event['error']} on {event['backend']} at "
                f"application {event['step']} (attempt {event['attempt']})",
                file=out,
            )
        elif kind == "restore":
            print(
                f"  < restored to application {event['to_step']} "
                f"from {event['source']}",
                file=out,
            )
        elif kind == "degrade":
            print(
                f"  v degraded {event['from']} -> {event['to']}",
                file=out,
            )
        elif kind == "replay_verify":
            print(
                f"  = replay-verified application {event['step']} "
                f"({event['rule']}): {'ok' if event['ok'] else 'MISMATCH'}",
                file=out,
            )
    residual_norm = float(np.abs(result.residual).max())
    print(
        f"SUPERVISION {'RECOVERED' if result.restarts or result.degraded else 'CLEAN'}: "
        f"{result.applications} application(s) committed on chain "
        f"{' -> '.join(result.backend_chain)} "
        f"({result.restarts} restart(s), {result.restores} restore(s), "
        f"{result.checkpoints_written} checkpoint(s)); "
        f"max|residual| {residual_norm:.6e}",
        file=out,
    )
    if args.out:
        from repro.util.jsonio import write_stable_json

        path = write_stable_json(Path(args.out), result.as_dict())
        print(f"wrote {path}", file=out)
    return 0


def _cmd_par_scale(args, out) -> int:
    from pathlib import Path

    from repro.par.runtime import available_cpus
    from repro.par.scale import parse_grids, render_scaling, weak_scaling

    verify = not args.no_verify
    if args.workers is not None:
        cpus = available_cpus()
        if args.workers < 1:
            print("error: --workers must be >= 1", file=sys.stderr)
            return 2
        if args.workers > cpus:
            print(
                f"error: --workers {args.workers} exceeds the "
                f"{cpus} CPU(s) this process may run on; an "
                f"oversubscribed run measures scheduler contention, "
                f"not scaling",
                file=sys.stderr,
            )
            return 2
    try:
        grids = parse_grids(args.grids)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    points = weak_scaling(
        grids,
        base_nx=args.base_nx,
        base_ny=args.base_ny,
        nz=args.nz,
        applications=args.applications,
        workers=args.workers,
        seed=args.seed,
        verify=verify,
    )
    print(
        f"weak scaling, {args.base_nx}x{args.base_ny}x{args.nz} owned "
        f"cells per rank, {args.applications} applications per point "
        f"(+1 warm-up){'' if verify else ', verification OFF'}",
        file=out,
    )
    print(render_scaling(points), file=out)
    if args.out:
        from repro.util.jsonio import write_stable_json

        path = write_stable_json(
            Path(args.out), [pt.as_dict() for pt in points]
        )
        print(f"wrote {path}", file=out)
    if verify and not all(pt.bit_identical for pt in points):
        bad = [f"{pt.px}x{pt.py}" for pt in points if not pt.bit_identical]
        print(
            f"error: residual mismatch vs serial cluster backend at "
            f"grid(s) {', '.join(bad)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_check(args, out) -> int:
    import time
    from pathlib import Path

    from repro.check import (
        ANALYZERS,
        FABRIC_ANALYZERS,
        PROGRAM_ANALYZERS,
        CheckReport,
        Severity,
        check_examples,
        check_ir,
        check_program,
        lint_paths,
    )
    from repro.check.race import drill_findings, run_race_checks

    if args.lint_only and not args.lint:
        print("error: --lint-only requires at least one --lint PATH", file=sys.stderr)
        return 2

    serialized_ir = None
    if args.program is not None:
        from repro.ir import FabricProgramIR

        try:
            serialized_ir = FabricProgramIR.from_json(args.program)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    def _parse_analyzers(raw: str | None, flag: str) -> set | None:
        if raw is None:
            return None
        names = {name.strip() for name in raw.split(",") if name.strip()}
        unknown = sorted(names - set(ANALYZERS))
        if unknown:
            print(
                f"error: unknown analyzer(s) for {flag} "
                + ", ".join(repr(u) for u in unknown)
                + "; valid: " + ", ".join(ANALYZERS),
                file=sys.stderr,
            )
            return set()  # sentinel: caller exits 2
        return names

    only = _parse_analyzers(args.only, "--only")
    if only == set():
        return 2
    skip = _parse_analyzers(args.skip, "--skip")
    if skip == set() and args.skip is not None:
        return 2

    # what would run without --only: the program/fabric analyzers (or
    # the race verifiers under --race, the drill under --race-drill),
    # plus the determinism lint when --lint paths are given
    race_names = {"race-model", "race-lint", "race-hb"}
    if args.race_drill:
        selected = {"race-drill"} | (race_names if args.race else set())
    elif args.race:
        selected = set(race_names)
    elif args.lint_only:
        selected = {"lint"}
    else:
        selected = set(FABRIC_ANALYZERS) | set(PROGRAM_ANALYZERS)
        if args.lint:
            selected.add("lint")
    if only is not None:
        selected = only
    if skip:
        selected -= skip

    t0 = time.perf_counter()
    reports: list[CheckReport] = []
    program_part = selected & (set(FABRIC_ANALYZERS) | set(PROGRAM_ANALYZERS))
    if program_part:
        part = None if program_part == set(FABRIC_ANALYZERS) | set(
            PROGRAM_ANALYZERS
        ) else program_part
        if serialized_ir is not None:
            reports.append(
                check_ir(
                    serialized_ir,
                    subject=f"ir {args.program}",
                    only=part,
                )
            )
        elif args.examples:
            reports.extend(check_examples(only=part).values())
        else:
            from repro.core import CartesianMesh3D, FluidProperties
            from repro.dataflow.program import FluxProgram

            program = FluxProgram(
                CartesianMesh3D(args.nx, args.ny, args.nz), FluidProperties()
            )
            reports.append(
                check_program(
                    program,
                    subject=f"program {args.nx}x{args.ny}x{args.nz}",
                    only=part,
                )
            )
            if args.emit_ir:
                from repro.ir import build_ir

                build_ir(program).to_json(args.emit_ir)
                print(f"wrote {args.emit_ir}", file=out)
    if "lint" in selected:
        for path in args.lint or ("src/repro",):
            lint = CheckReport(subject=f"determinism lint {path}")
            lint.extend(lint_paths(path))
            reports.append(lint)
    race_selected = selected & race_names
    if race_selected:
        lint_root = (args.lint or ("src/repro",))[0]
        reports.extend(
            run_race_checks(
                lint_root,
                model="race-model" in race_selected,
                lint="race-lint" in race_selected,
                hb="race-hb" in race_selected,
            )
        )
    if "race-drill" in selected:
        reports.append(drill_findings())
    elapsed = time.perf_counter() - t0

    for report in reports:
        print(report.render(), file=out)
    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.by_severity(Severity.WARNING)) for r in reports)
    verdict = "CHECK PASSED" if errors == 0 else "CHECK FAILED"
    print(
        f"{verdict}: {len(reports)} subject(s), {errors} error(s), "
        f"{warnings} warning(s) in {elapsed:.2f}s",
        file=out,
    )

    if args.json:
        from repro.util.jsonio import write_stable_json

        doc = {
            "ok": errors == 0,
            # rounded so semantically identical runs produce stable text
            # and only real finding changes show up in artifact diffs
            "elapsed_seconds": round(elapsed, 3),
            "subjects": [r.as_dict() for r in reports],
        }
        path = write_stable_json(Path(args.json), doc)
        print(f"wrote {path}", file=out)
    return 0 if errors == 0 else 1


def _cmd_conform(args, out) -> int:
    from pathlib import Path

    from repro.conform import (
        named_tolerance,
        record_run,
        replay,
        run_golden,
    )
    from repro.obs.replay import ReplayArtifact
    from repro.util.jsonio import write_stable_json

    def write_reports(results) -> None:
        if not args.report:
            return
        path = write_stable_json(
            Path(args.report) / "conform.json",
            {
                "ok": all(r.ok for r in results),
                "results": [r.as_dict() for r in results],
            },
        )
        print(f"wrote {path}", file=out)

    # ---- golden registry mode ---------------------------------------- #
    if args.golden:
        from repro.par.runtime import available_cpus

        backends = args.backends.split(",") if args.backends else None
        unknown = sorted(set(backends or ()) - set(BACKENDS))
        if unknown:
            print(
                "error: unknown backend(s) for --backends "
                + ", ".join(repr(u) for u in unknown)
                + "; known: " + ", ".join(BACKENDS),
                file=sys.stderr,
            )
            return 2
        # par replays spawn a worker pool per artifact — only worth it
        # when the host actually has a second CPU (the result would
        # still be bit-identical on one, per the equivalence tests)
        skip_par = available_cpus() < 2 and not any(
            BACKENDS[b].multi_process for b in backends or ()
        )
        results = run_golden(
            Path(args.golden_dir) if args.golden_dir else None,
            backends=backends,
            skip_par=skip_par,
        )
        if not results:
            print("error: no golden replays selected", file=sys.stderr)
            return 2
        for res in results:
            print(res.render(), file=out)
        failed = [r for r in results if not r.ok]
        if skip_par:
            print(
                f"(par replays skipped: {available_cpus()} usable CPU)",
                file=out,
            )
        print(
            f"conform: {len(results) - len(failed)}/{len(results)} golden "
            f"replay(s) passed",
            file=out,
        )
        write_reports(results)
        return 0 if not failed else 1

    # ---- record mode -------------------------------------------------- #
    if args.record:
        if not args.backend:
            print("error: --record requires --backend", file=sys.stderr)
            return 2
        if BACKENDS[args.backend].rank_decomposed:
            problem = _check_rank_grid(args.px, args.py, args.nx, args.ny)
            if problem is not None:
                print(problem, file=sys.stderr)
                return 2
        plan = None
        if args.faulted:
            from repro.faults import FaultPlan

            plan = FaultPlan.seeded(
                args.seed, fabric_shape=(args.nx, args.ny),
                ranks=args.px * args.py,
            ).only_ranks()
        artifact = record_run(
            args.backend,
            nx=args.nx, ny=args.ny, nz=args.nz,
            geomodel=args.geomodel, seed=args.seed,
            applications=args.applications,
            px=args.px, py=args.py, workers=args.workers,
            variant=args.variant, plan=plan,
            snapshot_every=args.snapshot_every,
        )
        path = artifact.save(args.out or f"{args.backend}.rpz")
        print(f"recorded {artifact.describe()}", file=out)
        print(f"wrote {path}", file=out)
        return 0

    # ---- replay mode --------------------------------------------------- #
    if not args.artifact:
        print(
            "error: give an artifact to replay, or --record / --golden",
            file=sys.stderr,
        )
        return 2
    if not args.backend:
        print("error: replay requires --backend", file=sys.stderr)
        return 2
    import zipfile

    artifact = _load(
        args.artifact, ReplayArtifact.load, "replay artifact",
        zipfile.BadZipFile, KeyError, ValueError,
    )
    if artifact is None:
        return 2
    try:
        result = replay(
            artifact,
            args.backend,
            tolerance=(
                named_tolerance(args.tolerance) if args.tolerance else None
            ),
            artifact_name=Path(args.artifact).name,
        )
    except ValueError as exc:
        print(f"error: {args.artifact}: {exc}", file=sys.stderr)
        return 2
    print(result.render(), file=out)
    write_reports([result])
    return 0 if result.ok else 1


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "tables":
        return _cmd_tables(out)
    if args.command == "validate":
        return _cmd_validate(args, out)
    if args.command == "scaling":
        return _cmd_scaling(args, out)
    if args.command == "listing":
        return _cmd_listing(args, out)
    if args.command == "inject":
        return _cmd_inject(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "chaos":
        return _cmd_chaos(args, out)
    if args.command == "supervise":
        return _cmd_supervise(args, out)
    if args.command == "par-scale":
        return _cmd_par_scale(args, out)
    if args.command == "check":
        return _cmd_check(args, out)
    if args.command == "conform":
        return _cmd_conform(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
