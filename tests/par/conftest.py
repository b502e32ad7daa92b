"""Fixtures for the par arena's lifecycle tests."""

import os

import pytest

from repro.par.shm import MEMFD_NAME


def _holders(inode: int) -> list[tuple[int, int]]:
    """``(pid, fd)`` of every descriptor, in any process this test may
    inspect, that is open on the arena memory file *inode*."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            fds = os.listdir(f"/proc/{pid}/fd")
        except OSError:  # exited, or not ours to read
            continue
        for fd in fds:
            path = f"/proc/{pid}/fd/{fd}"
            try:
                if (os.readlink(path).startswith(f"/memfd:{MEMFD_NAME}")
                        and os.stat(path).st_ino == inode):
                    found.append((int(pid), int(fd)))
            except OSError:
                continue
    return found


@pytest.fixture(scope="session")
def arena_holders():
    """``holders(inode) -> [(pid, fd)]``: who still holds an arena's
    memory file open (the kernel frees it when nobody does).  Take the
    inode with ``os.fstat(arena.fd).st_ino`` while the arena is open."""
    return _holders
