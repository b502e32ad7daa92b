"""One fresh interpreter: import -> inputs -> set-up -> first batch.

Started by run.py as ``python3 bench/child.py '<json spec>'``.  A fresh
process is how set-up is measured cold without touching the repo's
private caches.  Prints two JSON lines on stdout: ``{"event": "first",
...}`` the moment the first batch's residual is held (the parent stops
its first-residual clock on it), and ``{"event": "done", ...}`` with
this process's own clocks, checks and — for the warm child — the timed
batches.

Spec keys: workload, seed, warm_seconds (0: cold start only), trace,
quick, out_dir.
"""

import gc
import importlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS  # imports nothing heavy

#: span names of the first and the warm batches, by backend
_BATCH_SPAN = {
    "fused": "ir.fused.batch",
    "lockstep": "dataflow.lockstep.batch",
    "event": "wse.batch",
    "cluster": "cluster.batch",
    "par": "par.batch",
}


def _emit(event: str, **payload) -> None:
    sys.stdout.write(json.dumps({"event": event, **payload}) + "\n")
    sys.stdout.flush()


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _rss_mb(pids) -> float:
    """Peak resident set of this process plus that of each worker."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def main(spec: dict) -> None:
    w = WORKLOADS[spec["workload"]]
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    shm_before = _shm_segments()

    clocks = {"imports_begin": perf_counter()}
    import numpy  # noqa: F401

    clocks["numpy"] = perf_counter()
    for module in w.imports:
        importlib.import_module(module)
    clocks["repro"] = perf_counter()
    modules = len(sys.modules)

    import backends
    import spans as spans_mod

    rec = spans_mod.Recorder() if spec["trace"] else spans_mod.NullRecorder()
    if rec.enabled:
        rec.add("import.numpy", clocks["imports_begin"], clocks["numpy"])
        rec.add("import.repro", clocks["numpy"], clocks["repro"])
    clocks["imports_done"] = perf_counter()

    inputs = backends.make_inputs(w, spec["seed"], rec)
    drv = backends.setup(w, inputs, rec)
    try:
        clocks["ready"] = perf_counter()
        with rec.span(_BATCH_SPAN[w.backend]):
            first = drv.batch().copy()
        clocks["first"] = perf_counter()
        first_sha = backends.sha256(first)
        _emit("first", sha=first_sha)

        from yardstick import yard_py

        yard_py()  # a process's first call runs a few percent slow
        result = {
            # the yardstick sample after this cold start (the parent
            # took the one before); taken here because the parent must
            # not compute while a child is being timed
            "yard_after_s": min(yard_py(), yard_py()),
            "clocks": clocks,
            "modules": modules,
            "first_sha": first_sha,
            "input_digest": backends.input_digest(inputs),
        }
        if spec["warm_seconds"] > 0:
            result.update(_warm_child(w, spec, inputs, drv, first, rec))
    finally:
        drv.close()
    if w.backend == "par":
        result["shm_left"] = sorted(_shm_segments() - shm_before)
    if rec.enabled:
        result["spans"] = rec.spans
    _emit("done", **result)


def _warm_child(w, spec, inputs, drv, first, rec) -> dict:
    """Warm phase, then the checks, then (traced) the layer contrasts."""
    import backends
    from yardstick import Bracket, low_quartile, yard_np_ms

    first_sha = backends.sha256(first)
    batch_span = _BATCH_SPAN[w.backend]
    for _ in range(2):  # untimed: allocator and caches settle
        drv.batch()
    yard_np_before = yard_np_ms()
    bracket = Bracket()
    raw, norm, traced = [], [], []
    sha_mismatches = 0
    gc.disable()
    try:
        t_end = perf_counter() + spec["warm_seconds"]
        index = 0
        while perf_counter() < t_end or len(raw) < 3:
            gc.collect()
            # a traced run wraps every second batch in a span; the
            # others give the untraced rate the overhead is taken against
            with_span = rec.enabled and index % 2 == 1
            if with_span:
                def timed():
                    with rec.span(batch_span, run=f"batch{index}"):
                        return drv.batch()
            else:
                timed = drv.batch
            residual, raw_s, norm_s = bracket.measure(timed, w.sensitivity)
            raw.append(raw_s)
            norm.append(norm_s)
            traced.append(with_span)
            if backends.sha256(residual) != first_sha:
                sha_mismatches += 1
            index += 1
    finally:
        gc.enable()

    pids = ()
    if w.backend == "par":
        pids = sorted({row["pid"] for row in drv.last.per_rank})
    out = {
        "warm": {
            "raw_s": raw,
            "norm_s": norm,
            "traced": traced,
            "sha_mismatches": sha_mismatches,
            "yard_py_ms": bracket.yard_ms(),
            "yard_np_ms": 0.5 * (yard_np_before + yard_np_ms()),
            "peak_rss_mb": _rss_mb(pids),
        }
    }

    # checks come after the RSS reading: the float64 oracle and the
    # twin drivers are the benchmark's memory, not the backend's
    checks = {
        "max_rel_err": backends.max_rel_err(inputs, first),
        "tolerance": backends.tolerance(w.dtype),
    }
    if w.pinned:
        stats = backends.event_stats(drv.last)
        checks["pinned_bad"] = backends.pinned_mismatches(stats, w.pinned)
    identity = backends.conform(w, inputs, drv, first)
    if identity is not None:
        checks["conform"] = {identity[0]: identity[1]}
    out["checks"] = checks

    if rec.enabled:
        import layers

        timer = layers.Timer(spec["quick"])
        with rec.span("bench.contrasts"):
            layer = layers.contrasts(
                w, inputs, drv, first, timer, Path(spec["out_dir"])
            )
            layer.update(layers.reference(w, inputs, timer))
        spanned = [n for n, t in zip(norm, traced) if t]
        plain = [n for n, t in zip(norm, traced) if not t]
        if spanned and plain:
            layer["bench.trace_overhead_frac"] = (
                low_quartile(spanned) / low_quartile(plain) - 1.0
            )
            for name, value in layers.from_batches(
                w, low_quartile(spanned), drv
            ).items():
                layer.setdefault(name, value)
        layer["bench.yard_np_ms"] = out["warm"]["yard_np_ms"]
        out["layer"] = {k: float(v) for k, v in layer.items()}
    return out


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
