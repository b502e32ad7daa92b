"""Fixtures for the par arena's lifecycle tests."""

import os

import pytest

from repro.par.shm import MEMFD_NAME


def _holders(inode: int) -> list[tuple[int, int | str]]:
    """``(pid, fd)`` of every descriptor, and ``(pid, "maps")`` of every
    mapping, in any process this test may inspect, that is open on the
    arena memory file *inode*."""
    found: list[tuple[int, int | str]] = []
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
        try:
            with open(f"/proc/{pid}/maps") as maps:
                lines = maps.readlines()
        except OSError:
            continue
        for line in lines:
            # address perms offset dev inode [path]
            fields = line.split(maxsplit=5)
            if (len(fields) == 6 and int(fields[4]) == inode
                    and fields[5].startswith(f"/memfd:{MEMFD_NAME}")):
                found.append((int(pid), "maps"))
                break
    return found


@pytest.fixture(scope="session")
def arena_holders():
    """``holders(inode) -> [(pid, fd or "maps")]``: who still holds an
    arena's memory file open or mapped (the kernel frees it when nobody
    does).  Take the inode with ``os.fstat(arena.fd).st_ino`` while the
    arena is open."""
    return _holders
