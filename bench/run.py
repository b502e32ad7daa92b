#!/usr/bin/env python3
"""The repo's performance ledger: one command, seven workloads.

    python3 bench/run.py                       # every workload, end-to-end metrics
    python3 bench/run.py --workload W --seed 7 # one workload
    python3 bench/run.py --traced --out F.json # plus the traced pass: per-layer metrics
    python3 bench/run.py --compare A.json B.json

The harness contract (``--workload W --seed N --seconds S --trace 0|1``)
is the same command: the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: warm phase + extra cold children share this many seconds by default
#: (BENCHMARK.json's run_seconds)
DEFAULT_SECONDS = 15.0
QUICK_SECONDS = 0.6
#: a child that has not finished by then is killed and counts as failed
CHILD_TIMEOUT_S = 90.0
MIN_CHILDREN = 3
CLI_HELP_SAMPLES = 3

#: Share of a cold start, and of set-up alone, that slows down with the
#: interpreter (yardstick.py); imports, file reads and exec are the rest.
#: Calibrated on 80 cold starts of cold_fused_24x24x8 taken while the
#: host was noisy.
COLD_SENSITIVITY = {"first_residual_s": 0.75, "setup_s": 1.0}

#: set-up span name -> per-layer metric (median over the run's children)
SPAN_METRICS = {
    "import.numpy": "import.numpy_s",
    "import.repro": "import.repro_s",
    "workloads.geomodel": "workloads.geomodel_s",
    "core.trans": "core.trans_s",
    "ir.builder.derive": "ir.builder.derive_s",
    "ir.schedule.probe": "ir.schedule.probe_s",
    "ir.lower.fused": "ir.lower.fused_s",
    "ir.lower.event": "ir.lower.event_s",
    "ir.lower.lockstep": "ir.lower.lockstep_s",
    "par.pool_spawn": "par.pool_spawn_s",
}


# --------------------------------------------------------------------- #
# children
# --------------------------------------------------------------------- #
def _lines(proc: subprocess.Popen, deadline: float):
    """Yield ``(line, time read)`` from the child's stdout until EOF;
    raise TimeoutError once ``deadline`` (perf_counter) has passed."""
    fd = proc.stdout.fileno()
    buffer = b""
    while True:
        remaining = deadline - perf_counter()
        if remaining <= 0:
            raise TimeoutError
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            raise TimeoutError
        chunk = os.read(fd, 1 << 16)
        now = perf_counter()
        if not chunk:
            return
        buffer += chunk
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            yield line, now


def spawn_child(spec: dict, timeout_s: float = CHILD_TIMEOUT_S) -> dict:
    """Run one fresh interpreter through child.py.

    Returns ``{"ok", "error", "t_spawn", "t_first", "t_end", "result"}``;
    never raises for a child that crashes, hangs or prints garbage —
    those are failed operations, not benchmark errors.
    """
    out = {"ok": False, "error": None, "t_first": None, "result": None}
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    out["t_spawn"] = t_spawn = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    deadline = t_spawn + timeout_s
    try:
        for line, t_line in _lines(proc, deadline):
            message = json.loads(line)
            if message.get("event") == "first":
                out["t_first"] = t_line
            elif message.get("event") == "done":
                out["result"] = message
        code = proc.wait(timeout=max(0.1, deadline - perf_counter()))
        if code != 0:
            out["error"] = f"exit code {code}"
        elif out["t_first"] is None or out["result"] is None:
            out["error"] = "no result"
        else:
            out["ok"] = True
    except (TimeoutError, subprocess.TimeoutExpired):
        out["error"] = f"timeout after {timeout_s:g} s"
    except ValueError as exc:  # not JSON
        out["error"] = f"unreadable output: {exc}"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    out["t_end"] = perf_counter()
    return out


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def summary(values: list[float], unit: str, value: float | None = None) -> dict:
    """A metric as ``--out`` files hold it: the value (the median of
    ``values`` unless given), their quartiles and their count."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values) if value is None else value,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile that still has
    ten samples beyond it; the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


# --------------------------------------------------------------------- #
# one run of one workload
# --------------------------------------------------------------------- #
def run_workload(w, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Cold children and the first child's warm phase; returns the run
    record (metrics, counts, samples)."""
    import spans as spans_mod
    from yardstick import Bracket

    OUT_DIR.mkdir(exist_ok=True)
    t_begin = perf_counter()
    bracket = Bracket(reps=2)
    children = []
    min_children = 1 if quick else MIN_CHILDREN
    while True:
        first_child = not children
        spec = {
            "workload": w.name,
            "seed": seed,
            # the first child stays on for the warm phase
            "warm_seconds": seconds * (1.0 - w.cold_frac) if first_child else 0.0,
            "trace": trace,
            "quick": quick,
            "out_dir": str(OUT_DIR),
        }
        # the parent sleeps in select() while a child runs: the host's
        # two CPUs share a core, so concurrent work would slow the child
        before = bracket.fresh()
        child = spawn_child(spec)
        if child["ok"]:
            child["yards"] = (before, child["result"]["yard_after_s"])
        children.append(child)
        if first_child and not child["ok"]:
            break  # nothing to measure against; reported as a failed run
        if len(children) >= min_children and perf_counter() - t_begin >= seconds:
            break
    cli_help = _cli_help(bracket, 1 if quick else CLI_HELP_SAMPLES) if trace else []
    run = assemble(w, children, trace, cli_help, bracket.yard_ms())
    run.update(
        workload=w.name, seed=seed, seconds=seconds, trace=int(trace), quick=quick,
        wall_s=perf_counter() - t_begin,
    )
    if trace:
        recorder = spans_mod.Recorder(run=w.name)
        root = recorder.add("bench.run", t_begin, perf_counter())
        for i, child in enumerate(children):
            span = recorder.add(
                "bench.child", child["t_spawn"], child["t_end"],
                parent=root["id"], run=f"child{i}",
            )
            if child["ok"]:
                spans_mod.graft(
                    recorder.spans, child["result"].get("spans", []),
                    span["id"], f"child{i}",
                )
        spans_mod.dump(
            OUT_DIR / f"{w.name}.trace.json", recorder.spans,
            workload=w.name, seed=seed, clock="perf_counter seconds (CLOCK_MONOTONIC)",
        )
    return run


def _cli_help(bracket, samples: int) -> list[float]:
    """Normalised seconds of a fresh ``python -m repro --help``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def call():
        subprocess.run(
            [sys.executable, "-m", "repro", "--help"], env=env, check=True,
            stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
        )

    sensitivity = COLD_SENSITIVITY["first_residual_s"]
    return [bracket.measure(call, sensitivity)[2] for _ in range(samples)]


def assemble(w, children: list[dict], trace: bool, cli_help=(), yard_py_ms=0.0) -> dict:
    """Turn child reports into counts and metrics.

    Operations: every child is one; every warm batch is one; the oracle
    check, the pinned statistics, the required bit identity and the
    /dev/shm check are one each.
    """
    import spans as spans_mod
    from metrics import PER_LAYER, UNITS
    from yardstick import low_quartile, normalise

    reasons = []
    attempted = len(children)
    good = [c for c in children if c["ok"]]
    for c in children:
        if not c["ok"]:
            reasons.append(f"child: {c['error']}")
    run = {"children": len(children), "reasons": reasons}
    first = children[0]
    if not first["ok"]:
        run.update(correct=False, attempted=attempted, failed=len(reasons), metrics={})
        return run

    ref = first["result"]
    for c in good[1:]:
        r = c["result"]
        if r["first_sha"] != ref["first_sha"] or r["input_digest"] != ref["input_digest"]:
            reasons.append("child: residual differs from the first child's")
    warm, checks = ref["warm"], ref["checks"]
    attempted += len(warm["raw_s"])
    reasons += ["batch: residual differs from the first batch's"] * warm["sha_mismatches"]
    attempted += 1
    if not checks["max_rel_err"] <= checks["tolerance"]:
        reasons.append(
            f"oracle: max_rel_err {checks['max_rel_err']:.3e} > {checks['tolerance']:g}"
        )
    if "pinned_bad" in checks:
        attempted += 1
        if checks["pinned_bad"]:
            reasons.append("pinned: " + ", ".join(checks["pinned_bad"]) + " changed")
    for name, same in checks.get("conform", {}).items():
        attempted += 1
        if not same:
            reasons.append(f"{name}: residual bytes differ")
    if w.backend == "par":
        attempted += 1
        left = sorted({s for c in good for s in c["result"].get("shm_left", [])})
        if left:
            reasons.append(f"/dev/shm: segments left behind: {left}")
    failed = len(reasons)

    def clock(c, a, b):
        return c["result"]["clocks"][b] - c["result"]["clocks"][a]

    raw_first = [c["t_first"] - c["t_spawn"] for c in good]
    raw_setup = [clock(c, "imports_done", "ready") for c in good]

    def norm(values, sensitivity):
        return [normalise(v, *c["yards"], sensitivity) for v, c in zip(values, good)]

    scale = w.cells * w.batch / 1e6
    # the spans of a traced run's odd batches are not part of the rate
    plain = [n for n, t in zip(warm["norm_s"], warm["traced"]) if not t]
    end_to_end = {
        "first_residual_s": summary(
            norm(raw_first, COLD_SENSITIVITY["first_residual_s"]), "s"
        ),
        "setup_s": summary(norm(raw_setup, COLD_SENSITIVITY["setup_s"]), "s"),
        "mcells_per_s": summary(
            [scale / s for s in plain], UNITS["mcells_per_s"],
            value=scale / low_quartile(plain),
        ),
        "peak_rss_mb": summary([warm["peak_rss_mb"]], "MiB"),
    }
    run.update(
        correct=failed == 0, attempted=attempted, failed=failed,
        samples={"children": len(good), "batches": len(warm["raw_s"])},
        input_digest=ref["input_digest"], first_sha=ref["first_sha"],
        max_rel_err=checks["max_rel_err"],
    )
    if not trace:
        run["metrics"] = end_to_end
        return run

    layer = {name: 0.0 for name, _unit, _better in PER_LAYER}
    layer.update(ref["layer"])
    by_name = [spans_mod.self_time_by_name(c["result"]["spans"]) for c in good]
    for span_name, metric in SPAN_METRICS.items():
        if span_name not in by_name[0]:
            continue
        part_of = "first_residual_s" if span_name.startswith("import.") else "setup_s"
        layer[metric] = statistics.median(
            norm([selfs[span_name][0] for selfs in by_name], COLD_SENSITIVITY[part_of])
        )
    pct, tail_s = tail(warm["norm_s"])
    layer.update(
        {
            "max_rel_err": checks["max_rel_err"],
            "failed_frac": failed / attempted,
            "import.modules": ref["modules"],
            "cli.help_s": statistics.median(cli_help) if cli_help else 0.0,
            "bench.yard_py_ms": yard_py_ms,
            "bench.samples": len(warm["norm_s"]),
            "bench.cold_children": len(good),
            "bench.batch_ms_p50": 1e3 * statistics.median(warm["norm_s"]),
            "bench.batch_ms_tail": 1e3 * tail_s,
            "bench.tail_pct": pct,
            "bench.raw_first_residual_s": statistics.median(raw_first),
            "bench.raw_setup_s": statistics.median(raw_setup),
            "bench.raw_mcells_per_s": scale / low_quartile(warm["raw_s"]),
        }
    )
    layer.update({k: v for k, v in checks.get("conform", {}).items()})
    run["metrics"] = {
        name: {"value": float(layer[name]), "unit": unit}
        for name, unit, _better in PER_LAYER
    }
    run["end_to_end_of_traced_run"] = end_to_end
    return run


# --------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------- #
def environment(seed: int) -> dict:
    import platform
    from importlib import metadata

    from yardstick import YARD_REF_S

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = read(
            index / "size"
        )

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "commit": commit,
        "nproc": nproc,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        "yard_ref_s": YARD_REF_S,
    }


def print_run(run: dict) -> None:
    kind = "per-layer (traced)" if run["trace"] else "end-to-end"
    label = " [quick]" if run["quick"] else ""
    print(
        f"== {run['workload']}  seed {run['seed']}  {kind}{label}  "
        f"{run['attempted']} ops, {run['failed']} failed, {run['wall_s']:.1f} s wall"
    )
    for reason in run["reasons"]:
        print(f"   FAILED {reason}")
    for name, m in run["metrics"].items():
        spread = ""
        if m.get("n", 1) > 1:
            spread = f"   [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}]"
        print(f"   {name:<36} {m['value']:>14.6g} {m['unit']}{spread}")
    if not run["trace"] and run["metrics"]:
        print(f"   {'max_rel_err':<36} {run['max_rel_err']:>14.6g} ratio")
        print(f"   {'failed_frac':<36} {run['failed'] / run['attempted']:>14.6g} ratio")


def result_line(runs: list[dict]) -> str:
    """The harness contract's last line.  One run: its metrics as
    ``{name: {value, unit}}``; several: the same per ``workload/trace``."""

    def metrics(run):
        return {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in run["metrics"].items()
        }

    if len(runs) == 1:
        body = metrics(runs[0])
    else:
        body = {f"{r['workload']}/trace{r['trace']}": metrics(r) for r in runs}
    return json.dumps(
        {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": body,
        }
    )


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all seven)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time per run (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass only (per-layer metrics)")
    parser.add_argument("--traced", action="store_true",
                        help="both passes: end-to-end, then traced")
    parser.add_argument("--quick", action="store_true",
                        help="tiny durations, one child; output is labelled quick")
    parser.add_argument("--out", type=Path, help="write the full record as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), type=Path)
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # the build: byte-compile once so that no child pays for it
    compileall.compile_dir(str(SRC / "repro"), quiet=2, workers=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=2, maxlevels=0)

    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    passes = (False, True) if args.traced else (bool(args.trace),)
    runs = []
    for name in args.workload or list(WORKLOADS):
        for trace in passes:
            run = run_workload(WORKLOADS[name], args.seed, seconds, trace, args.quick)
            print_run(run)
            runs.append(run)
    if args.out:
        document = {"quick": args.quick, "env": environment(args.seed), "runs": runs}
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    if not all(run["metrics"] for run in runs):
        return 1  # a first child died: there is nothing to report
    print(result_line(runs))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
