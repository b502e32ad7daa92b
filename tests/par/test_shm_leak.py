"""Shared-memory segment lifecycle under abnormal shutdown.

The arena must never outlive its computation: a parent that dies
without calling ``close()`` — a raised exception, a plain ``sys.exit``,
or an outright SIGKILL — must not strand a segment in ``/dev/shm``.
Graceful paths are covered by the owner's ``weakref.finalize`` (runs on
GC and at interpreter exit); the SIGKILL path falls to multiprocessing's
resource tracker, which survives the parent and unlinks what it
registered.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import FluidProperties, PressureSequence
from repro.par import ParClusterFluxComputation
from repro.workloads import make_geomodel

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

_CHILD_PROLOGUE = """
import sys, time
from repro.core import FluidProperties, PressureSequence
from repro.par import ParClusterFluxComputation
from repro.workloads import make_geomodel

mesh = make_geomodel(8, 8, 2, kind="lognormal", seed=1)
fluid = FluidProperties()
par = ParClusterFluxComputation(mesh, fluid, px=2, py=1, workers=2)
seq = PressureSequence(mesh, num_applications=1, seed=1)
par.run([seq.field(0)])
print(par._arena.name, flush=True)
"""


def _spawn_child(epilogue: str) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD_PROLOGUE + epilogue],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    name = proc.stdout.readline().decode().strip()
    assert name, "child failed before printing its arena name"
    return proc, name


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


def _wait_unlinked(name: str, *, attempts: int = 300) -> bool:
    for _ in range(attempts):
        if not _segment_exists(name):
            return True
        time.sleep(0.05)
    return False


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX /dev/shm"
)
class TestAbnormalShutdown:
    def test_sigkilled_run_leaves_no_segment(self):
        """SIGKILL the parent mid-run: no finalizer can run, so the
        resource tracker must reap the segment once the orphaned
        workers notice the dead pipe and exit."""
        proc, name = _spawn_child("time.sleep(60)\n")
        assert _segment_exists(name)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        assert _wait_unlinked(name), (
            f"segment {name} survived a SIGKILLed run"
        )

    def test_exit_without_close_leaves_no_segment(self):
        """A parent that simply exits (no close(), no context manager)
        unlinks through the owner's atexit-registered finalizer."""
        proc, name = _spawn_child("sys.exit(0)\n")
        assert proc.wait(timeout=30) == 0
        assert _wait_unlinked(name, attempts=100), (
            f"segment {name} survived a clean exit without close()"
        )


class TestMidSpawnException:
    def test_pool_construction_failure_unlinks_arena(self, monkeypatch):
        """An exception while the pool spawns (before any worker is
        usable) must release the just-created segment immediately."""
        import repro.par.flux as flux_mod

        captured = {}

        class BoomPool:
            def __init__(self, specs, **kwargs):
                captured["name"] = specs[0].arena_name
                raise RuntimeError("injected spawn failure")

        monkeypatch.setattr(flux_mod, "ProcPool", BoomPool)
        mesh = make_geomodel(8, 8, 2, kind="lognormal", seed=1)
        par = ParClusterFluxComputation(
            mesh, FluidProperties(), px=2, py=1, workers=2
        )
        seq = PressureSequence(mesh, num_applications=1, seed=1)
        with pytest.raises(RuntimeError, match="injected spawn failure"):
            par.run([seq.field(0)])
        assert captured["name"]
        assert not _segment_exists(captured["name"])
        assert par._arena is None  # a retry would build a fresh arena
