"""End to end: a --quick pass drives all seven workloads; the harness
contract's last line; refusal outside a checkout of the program."""

import json
import shutil
import subprocess
import sys
import time

from conftest import BENCH_DIR, ROOT

import metrics
from workloads import WORKLOADS


def _run(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_quick_pass_drives_all_seven_workloads(tmp_path):
    out = tmp_path / "quick.json"
    t0 = time.perf_counter()
    done = _run("--quick", "--seed", "11", "--out", str(out))
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0, elapsed
    document = json.loads(out.read_text())
    assert document["quick"] is True and "[quick]" in done.stdout
    assert [r["workload"] for r in document["runs"]] == list(WORKLOADS)
    for record in document["runs"]:
        assert record["correct"] and record["failed"] == 0, record["reasons"]
        assert sorted(record["metrics"]) == sorted(m[0] for m in metrics.END_TO_END)
        assert all(m["value"] > 0 for m in record["metrics"].values())
    env = document["env"]
    for key in ("commit", "nproc", "cpu_model", "caches", "python", "numpy", "scipy",
                "seed", "yard_ref_s"):
        assert key in env
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0

    refused = _run("--compare", str(out), str(out))
    assert refused.returncode == 2 and "quick" in refused.stderr


def test_contract_line_of_a_traced_run_and_its_span_file():
    name = "event_plain_24x24x8"
    done = _run("--workload", name, "--seed", "3", "--seconds", "0.5",
                "--trace", "1", "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last["metrics"]) == sorted(m[0] for m in metrics.PER_LAYER)
    for name_, m in last["metrics"].items():
        assert sorted(m) == ["unit", "value"] and m["unit"] == metrics.UNITS[name_]
    for pinned, value in WORKLOADS[name].pinned.items():
        assert last["metrics"][pinned]["value"] == value
    trace = json.loads((BENCH_DIR / "out" / f"{name}.trace.json").read_text())
    names = {s["name"] for s in trace["spans"]}
    assert {"bench.run", "bench.child", "import.repro", "ir.builder.derive",
            "ir.lower.event", "wse.batch"} <= names
    assert all(s["end"] >= s["start"] for s in trace["spans"])


def test_refuses_where_there_is_no_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "cold_fused_24x24x8", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout
