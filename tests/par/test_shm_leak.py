"""Shared arena lifecycle under abnormal shutdown.

The arena is an anonymous memory file: nothing is named in
``/dev/shm``, and the kernel frees the memory when the last process
holding it (the parent's descriptor and mapping, each worker's mapping)
is gone.  So the arena cannot outlive its computation as long as the
workers cannot outlive their parent: a parent that exits without
``close()`` or is SIGKILLed must leave no process holding the file, and
a par run must need no resource tracker to get there.
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

_CHILD_RUN = """
import os, sys, time
from repro.core import FluidProperties, PressureSequence
from repro.par import ParClusterFluxComputation
from repro.workloads import make_geomodel

mesh = make_geomodel(8, 8, 2, kind="lognormal", seed=1)
fluid = FluidProperties()
par = ParClusterFluxComputation(mesh, fluid, px=2, py=1, workers=2)
seq = PressureSequence(mesh, num_applications=1, seed=1)
par.run([seq.field(0)])
"""

_CHILD_PROLOGUE = _CHILD_RUN + (
    "print(os.fstat(par._arena.fd).st_ino, *par._pool.pids(), flush=True)\n"
)

#: prints how many of the interpreter's child processes are new
#: interpreters (a forked worker shares its parent's command line, the
#: resource tracker runs its own), how many children it has, and
#: whether /dev/shm lists what it listed before the run
_TRACKER_PROBE = """
def cmdline(pid):
    with open(f"/proc/{pid}/cmdline", "rb") as fh:
        return fh.read()

def children():
    for pid in filter(str.isdigit, os.listdir("/proc")):
        with open(f"/proc/{pid}/stat") as fh:
            ppid = fh.read().rsplit(")", 1)[1].split()[1]
        if ppid == str(os.getpid()):
            yield cmdline(pid)

par.close()
found = list(children())
print(sum(c != cmdline("self") for c in found), len(found),
      sorted(os.listdir("/dev/shm")) == before)
"""


def _spawn_child(epilogue: str) -> tuple[subprocess.Popen, int, list[int]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD_PROLOGUE + epilogue],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    line = proc.stdout.readline().decode().split()
    assert line, "child failed before printing its arena"
    inode, *workers = map(int, line)
    return proc, inode, workers


def _released(holders, inode: int, *, attempts: int = 300) -> bool:
    for _ in range(attempts):
        if not holders(inode):
            return True
        time.sleep(0.05)
    return False


def _alive(pid: int) -> bool:
    """Running, not merely an unreaped zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestAbnormalShutdown:
    def test_sigkilled_run_leaves_no_segment(self, arena_holders):
        """SIGKILL the parent mid-run: nothing of it can clean up, so the
        orphaned workers must notice and exit, and with them the last
        holders of the memory file."""
        proc, inode, workers = _spawn_child("time.sleep(60)\n")
        assert len(workers) == 2
        assert {pid for pid, _ in arena_holders(inode)} >= {proc.pid, *workers}
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()
        assert _released(arena_holders, inode), (
            f"arena still held after a SIGKILLed run: {arena_holders(inode)}"
        )
        assert not any(_alive(pid) for pid in workers)

    def test_exit_without_close_leaves_no_segment(self, arena_holders):
        """A parent that simply exits (no close(), no context manager)
        leaves no process holding the arena."""
        proc, inode, workers = _spawn_child("sys.exit(0)\n")
        assert proc.wait(timeout=30) == 0
        proc.stdout.close()
        assert _released(arena_holders, inode, attempts=100), (
            f"arena still held after an exit without close(): "
            f"{arena_holders(inode)}"
        )
        assert not any(_alive(pid) for pid in workers)


class TestNoResourceTracker:
    def test_par_run_starts_no_tracker_and_names_nothing(
        self, fresh_interpreter
    ):
        """A par run in a fresh interpreter starts no resource tracker
        (its own interpreter, on par's cold path) and leaves the
        ``/dev/shm`` listing as it found it."""
        out = fresh_interpreter(
            "import os\nbefore = sorted(os.listdir('/dev/shm'))\n"
            + _CHILD_RUN + _TRACKER_PROBE
        )
        interpreters, children, unchanged = out.split()
        assert children != "0"  # the warm workers are there to be seen
        assert interpreters == "0"
        assert unchanged == "True"


class TestMidSpawnException:
    def test_pool_construction_failure_closes_arena(
        self, monkeypatch, arena_holders
    ):
        """An exception while the pool spawns (before any worker is
        usable) must release the just-created arena immediately."""
        import repro.par.flux as flux_mod

        captured = {}

        class BoomPool:
            def __init__(self, specs, *, arena, **kwargs):
                # the pool opens the arena once its workers are leased
                captured["inode"] = os.fstat(arena()).st_ino
                raise RuntimeError("injected spawn failure")

        monkeypatch.setattr(flux_mod, "ProcPool", BoomPool)
        mesh = make_geomodel(8, 8, 2, kind="lognormal", seed=1)
        par = ParClusterFluxComputation(
            mesh, FluidProperties(), px=2, py=1, workers=2
        )
        seq = PressureSequence(mesh, num_applications=1, seed=1)
        with pytest.raises(RuntimeError, match="injected spawn failure"):
            par.run([seq.field(0)])
        assert captured["inode"]
        assert arena_holders(captured["inode"]) == []
        assert par._arena is None  # a retry would build a fresh arena
