"""Property-based tests of the dataflow protocol (hypothesis).

Random fabric shapes and seeds: the full message-level protocol must
always deliver exactly once, take at most two hops, and reproduce the
reference residual.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CartesianMesh3D,
    FluidProperties,
    Transmissibility,
    compute_flux_residual,
)
from repro.dataflow import WseFluxComputation
from repro.ir.schedule import schedule_classes

FLUID = FluidProperties()


@settings(max_examples=12, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=5),
    ny=st.integers(min_value=1, max_value=5),
    nz=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_protocol_correct_on_any_fabric(nx, ny, nz, seed):
    rng = np.random.default_rng(seed)
    kappa = np.exp(rng.normal(size=(nz, ny, nx))) * 1e-13
    mesh = CartesianMesh3D(nx, ny, nz, permeability=kappa)
    trans = Transmissibility(mesh)
    p = 1e7 + 1e6 * rng.standard_normal(mesh.shape_zyx)
    wse = WseFluxComputation(mesh, FLUID, trans, dtype=np.float64)
    result = wse.run_single(p)

    # exactly-once delivery is asserted inside run(); re-check counts
    exchange = wse.program.exchange
    assert len(exchange.received) == nx * ny
    assert exchange.received == exchange.expected

    # never more than two hops on any message (Sec. 5.2.2)
    assert result.stats.max_hops_seen <= 2

    ref = compute_flux_residual(mesh, FLUID, p, trans, order=schedule_classes(nx, ny))
    assert result.residual.tobytes() == ref.tobytes()


@settings(max_examples=8, deadline=None)
@given(
    nx=st.integers(min_value=2, max_value=4),
    ny=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_router_routes_self_restore(nx, ny, seed):
    """After a full application every router routes exactly as initially.

    Interior routers flip twice per cardinal color (own command + the
    upstream neighbour's); seed-edge routers flip once, but their two
    positions are identical by construction — so the *routing semantics*
    always self-restore, which is what lets the next application reuse
    the configuration (Fig. 6b's alternation is self-resetting).
    """
    from repro.wse.geometry import Port

    mesh = CartesianMesh3D(nx, ny, 2)
    wse = WseFluxComputation(mesh, FLUID, dtype=np.float32)
    program = wse.program

    def routing_table():
        return {
            (coord, color, port): program.fabric.router(*coord).routes(color, port)
            for coord in [(x, y) for x in range(nx) for y in range(ny)]
            for color in range(8)
            for port in Port
        }

    initial = routing_table()
    rng = np.random.default_rng(seed)
    p = 1e7 + 1e5 * rng.standard_normal(mesh.shape_zyx)
    wse.run_single(np.ascontiguousarray(p))
    assert routing_table() == initial


@settings(max_examples=10, deadline=None)
@given(
    w=st.integers(min_value=2, max_value=6),
    h=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_spanning_tree_broadcast_exactly_once(w, h, seed):
    """Any spanning-tree routing delivers a root broadcast exactly once.

    Exercises the runtime's multicast generality beyond the flux
    kernel's fixed patterns: build a random spanning tree of the fabric
    graph, route one color along it (parent -> children + RAMP), inject
    at the root, and verify single delivery everywhere."""
    import networkx as nx

    from repro.wse.fabric import Fabric
    from repro.wse.geometry import Port
    from repro.wse.runtime import EventRuntime

    fabric = Fabric(w, h)
    graph = nx.grid_2d_graph(w, h)
    rng = np.random.default_rng(seed)
    for u, v in graph.edges:
        graph.edges[u, v]["weight"] = rng.random()
    tree = nx.minimum_spanning_tree(graph)
    root = (0, 0)
    parent = {root: None}
    for u, v in nx.bfs_edges(tree, root):
        parent[v] = u

    def port_between(a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        return {(1, 0): Port.EAST, (-1, 0): Port.WEST, (0, 1): Port.SOUTH, (0, -1): Port.NORTH}[(dx, dy)]

    def positions_for(coord):
        children = [c for c, p in parent.items() if p == coord]
        outs = tuple(port_between(coord, c) for c in children)
        if coord == root:
            return [{Port.RAMP: outs}]
        # the parent's train arrives on the port facing the parent;
        # deliver locally and forward to the children
        in_port = port_between(coord, parent[coord])
        return [{in_port: (Port.RAMP,) + outs}]

    fabric.configure_color(0, positions_for)
    received: dict[tuple, int] = {}
    fabric.bind_all(
        0, lambda rt, pe, msg: received.__setitem__(pe.coord, received.get(pe.coord, 0) + 1)
    )
    rt = EventRuntime(fabric)
    rt.inject(root, 0, np.arange(4, dtype=np.float32))
    rt.run()
    # root injected, everyone else received exactly once
    expected = {(x, y) for x in range(w) for y in range(h)} - {root}
    assert set(received) == expected
    assert all(count == 1 for count in received.values())


@settings(max_examples=10, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=4),
    ny=st.integers(min_value=1, max_value=4),
)
def test_fabric_traffic_formula(nx, ny):
    """Data word-hops follow the closed-form pair counts exactly."""
    nz = 2
    mesh = CartesianMesh3D(nx, ny, nz)
    wse = WseFluxComputation(mesh, FLUID, dtype=np.float32)
    result = wse.run_single(mesh.full(1.3e7))
    words = 2 * nz
    card_pairs = (nx - 1) * ny * 2 + nx * (ny - 1) * 2
    diag_second_hops = (max(nx - 1, 0)) * (max(ny - 1, 0)) * 4
    diag_first_hops = ((nx - 1) * ny + nx * (ny - 1)) * 2
    data_hops = words * (card_pairs + diag_first_hops + diag_second_hops)
    # each control wavelet advances its origin router once (no hop) and,
    # when the link exists, the destination router once (one 1-word hop)
    ctrl_hops = result.stats.control_advances - 4 * nx * ny
    assert result.fabric_word_hops == data_hops + ctrl_hops
