"""Shared fixtures: small meshes, fluids, and seeded workloads."""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    Transmissibility,
    random_pressure,
)


@pytest.fixture(scope="session")
def fresh_interpreter():
    """``run(code) -> stdout`` in a new interpreter that sees only this
    tree's ``src``: for assertions about what importing or running
    something loads, which the test process's own imports would mask."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")

    def run(code: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        )
        return done.stdout.strip()

    return run


@pytest.fixture(scope="session")
def edit_route():
    """``edit(ir, color, coord, change) -> ir``: a copy of *ir* in which
    the router at *coord* alone runs a new class of *color* — its own
    class's document after ``change(positions)`` — the way a test builds
    a program with one broken router (class-mates share one schedule,
    so a router is never edited in place)."""
    from repro.ir import FabricProgramIR

    def edit(ir, color, coord, change):
        doc = copy.deepcopy(ir.doc)
        table = doc["routes"][str(color)]
        cell = coord[1] * ir.width + coord[0]
        cls = copy.deepcopy(table["classes"][table["assignment"][cell]])
        change(cls["positions"])
        table["assignment"][cell] = len(table["classes"])
        table["classes"].append(cls)
        return FabricProgramIR(doc)

    return edit


@pytest.fixture
def fluid() -> FluidProperties:
    """Default CO2-like fluid."""
    return FluidProperties()


@pytest.fixture
def small_mesh() -> CartesianMesh3D:
    """Homogeneous 6x5x4 mesh — large enough for every stencil case."""
    return CartesianMesh3D(nx=6, ny=5, nz=4)


@pytest.fixture
def hetero_mesh() -> CartesianMesh3D:
    """Heterogeneous 7x6x5 mesh with lognormal permeability."""
    rng = np.random.default_rng(42)
    nx, ny, nz = 7, 6, 5
    kappa = np.exp(rng.normal(size=(nz, ny, nx))) * 1e-13
    phi = 0.1 + 0.2 * rng.random((nz, ny, nx))
    return CartesianMesh3D(
        nx=nx, ny=ny, nz=nz, dx=12.0, dy=8.0, dz=3.0,
        permeability=kappa, porosity=phi,
    )


@pytest.fixture
def small_trans(small_mesh) -> Transmissibility:
    return Transmissibility(small_mesh)


@pytest.fixture
def hetero_trans(hetero_mesh) -> Transmissibility:
    return Transmissibility(hetero_mesh)


@pytest.fixture
def small_pressure(small_mesh) -> np.ndarray:
    return random_pressure(small_mesh, seed=7)


@pytest.fixture
def hetero_pressure(hetero_mesh) -> np.ndarray:
    return random_pressure(hetero_mesh, seed=11)
