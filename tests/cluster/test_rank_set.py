"""Properties of the host rank program over generated rank grids.

``(nx, ny, nz, px, py)`` is drawn with one-wide blocks and ``px == nx``
among the cases.  Three oracles, none of them a second backend: the
serial cluster backend, and lockstep and gpu beside it (one phased fold
class), return the bytes of the reference fold in the phased order; a
closed domain's residual sums to zero within the rounding of its
per-cell folds; and a
:class:`~repro.cluster.flux.RankSet` over a subset of the ranks — what
a par worker builds — holds exactly the all-rank set's strips for those
ranks and computes their bytes.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import BACKENDS, release
from repro.cluster import BlockDecomposition, CartGrid, ClusterFluxComputation, halo_links
from repro.cluster.flux import RankSet
from repro.core import (
    FluidProperties,
    Transmissibility,
    compute_flux_residual,
    face_flux_scalar,
    iter_neighbours,
    random_pressure,
)
from repro.core.constants import GRAVITY
from repro.workloads import make_geomodel

FLUID = FluidProperties()
SEEDS = st.integers(0, 2**16)


@st.composite
def grids(draw):
    """``(nx, ny, nz, px, py)`` with ``px <= nx`` and ``py <= ny``."""
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    nz = draw(st.integers(1, 3))
    return nx, ny, nz, draw(st.integers(1, nx)), draw(st.integers(1, ny))


def problem(grid, seed):
    """A lognormal mesh of the grid's shape and one pressure field."""
    mesh = make_geomodel(*grid[:3], seed=seed)
    return mesh, random_pressure(mesh, seed=seed)


def cluster_residual(mesh, grid, pressure):
    _nx, _ny, _nz, px, py = grid
    return ClusterFluxComputation(mesh, FLUID, px=px, py=py).run([pressure]).residual


@settings(max_examples=15, deadline=None)
@given(grid=grids(), seed=SEEDS)
@example(grid=(6, 4, 2, 6, 2), seed=3)  # px == nx: every block one cell wide
@example(grid=(3, 3, 1, 3, 3), seed=4)  # one cell per rank
def test_cluster_returns_the_oracle_bytes(grid, seed):
    mesh, p = problem(grid, seed)
    residual = cluster_residual(mesh, grid, p)
    expected = compute_flux_residual(mesh, FLUID, p).tobytes()
    assert residual.tobytes() == expected
    for name in ("lockstep", "gpu"):
        driver = BACKENDS[name].build(mesh, FLUID, dtype=p.dtype)
        try:
            assert driver.run([p]).residual.tobytes() == expected, name
        finally:
            release(driver)


def largest_flux(mesh, p) -> float:
    """``max |F_KL|`` over the mesh's faces, one face at a time."""
    trans, rho, z = Transmissibility(mesh), FLUID.density(p), mesh.elevation
    nx, ny, nz = mesh.shape_xyz
    largest = 0.0
    for x, y, c in np.ndindex(nx, ny, nz):
        ups = trans.for_cell(x, y, c)
        for conn, (xx, yy, zz) in iter_neighbours(x, y, c, mesh.shape_xyz):
            k, l = (c, y, x), (zz, yy, xx)
            flux = face_flux_scalar(
                p[k], p[l], z[k], z[l], rho[k], rho[l], ups[conn], GRAVITY,
                FLUID.viscosity,
            )
            largest = max(largest, abs(flux))
    return largest


@settings(max_examples=15, deadline=None)
@given(grid=grids(), seed=SEEDS)
@example(grid=(6, 4, 2, 6, 2), seed=3)
def test_closed_domain_residual_sums_to_zero(grid, seed):
    """``F_LK == -F_KL`` bit for bit, so the exact fluxes cancel.  What
    is left is each cell's fold of at most ten of them, off by at most
    ``gamma_9 ~ 4.5 eps`` times the magnitudes it adds; every face's
    magnitude is added twice, so the cells sum to within
    ``9 eps * faces * max|F|`` of zero (``10 eps`` also covers the
    rounding of the bound and of ``fsum``)."""
    mesh, p = problem(grid, seed)
    residual = cluster_residual(mesh, grid, p)
    faces = Transmissibility(mesh).total_faces()
    bound = 10 * np.finfo(residual.dtype).eps * faces * largest_flux(mesh, p)
    assert abs(math.fsum(residual.ravel())) <= bound


@settings(max_examples=15, deadline=None)
@given(
    grid=grids(), seed=SEEDS,
    picks=st.lists(st.integers(0, 48), min_size=1, max_size=6),
)
@example(grid=(6, 4, 2, 6, 2), seed=3, picks=[1, 7])
def test_a_rank_subset_holds_the_all_rank_strips(grid, seed, picks):
    """A par worker's rank set: the all-rank set's strips restricted to
    its ranks, in the same order; fed the other ranks' strips, it
    computes the same bytes."""
    mesh, p = problem(grid, seed)
    _nx, _ny, _nz, px, py = grid
    decomp = BlockDecomposition(mesh, px, py)
    links = halo_links(decomp, CartGrid(px, py))
    ranks = sorted({pick % decomp.size for pick in picks})
    whole = RankSet(decomp, range(decomp.size), FLUID, np.float64, links)
    part = RankSet(decomp, ranks, FLUID, np.float64, links)
    assert list(part.outgoing) == [k for k in whole.outgoing if k[0] in ranks]
    assert list(part.incoming) == [k for k in whole.incoming if k[0] in ranks]

    whole.scatter(p)
    part.scatter(p)
    for key, strip in part.outgoing.items():
        assert strip.tobytes() == whole.outgoing[key].tobytes()
    for rank_set in (whole, part):  # the transport, by hand
        for (dest, source, tag), halo in rank_set.incoming.items():
            halo[...] = whole.outgoing[source, dest, tag]
    expected, got = np.zeros(mesh.shape_zyx), np.zeros(mesh.shape_zyx)
    whole.compute(expected)
    part.compute(got)
    for block in part.blocks:
        owned = np.s_[:, block.y0 : block.y1, block.x0 : block.x1]
        assert got[owned].tobytes() == expected[owned].tobytes()
