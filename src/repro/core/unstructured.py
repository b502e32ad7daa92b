"""TPFA flux computation on arbitrary (unstructured) cell topologies.

"Algorithm 1 can be applied to unstructured meshes but will require a
more sophisticated communication pattern to do so" (paper Sec. 3), and
supporting "arbitrary mesh topologies and mapping them efficiently onto
a dataflow architecture" is the paper's first stated item of future work
(Sec. 9).  This module supplies the mesh-side of that future work:

* :class:`UnstructuredMesh` — cells with volumes/centroids and an
  explicit connection list ``(cell_a, cell_b, transmissibility)``;
* :func:`unstructured_flux_residual` — Algorithm 1 vectorized over the
  connection list with gather/scatter (``np.add.at``);
* constructors from a Cartesian mesh (used to validate against the
  structured reference fold to rounding), from a networkx
  graph, and from a random Delaunay triangulation.

The fabric-mapping side lives in :mod:`repro.dataflow.unstructured_map`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.kernels import FluxScratch, face_flux
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import interior_slices
from repro.core.transmissibility import CANONICAL_CONNECTIONS, Transmissibility
from repro.util.arrays import as_float_array

__all__ = [
    "UnstructuredMesh",
    "unstructured_flux_residual",
    "from_cartesian",
    "from_graph",
    "delaunay_mesh_2d",
]


@dataclass
class UnstructuredMesh:
    """A cell cloud with an explicit TPFA connection list.

    Attributes
    ----------
    volumes:
        Cell volumes [m^3], shape (n,).
    centroids:
        Cell centres [m], shape (n, 3); the z component feeds gravity.
    cell_a, cell_b:
        Connection endpoints (each connection stored once), shape (m,).
    trans:
        ``Upsilon`` per connection, shape (m,).
    """

    volumes: np.ndarray
    centroids: np.ndarray
    cell_a: np.ndarray
    cell_b: np.ndarray
    trans: np.ndarray

    def __post_init__(self) -> None:
        self.volumes = as_float_array(self.volumes, name="volumes")
        self.centroids = as_float_array(self.centroids, name="centroids")
        self.cell_a = np.ascontiguousarray(self.cell_a, dtype=np.int64)
        self.cell_b = np.ascontiguousarray(self.cell_b, dtype=np.int64)
        self.trans = as_float_array(self.trans, name="trans")
        n = self.num_cells
        if self.centroids.shape != (n, 3):
            raise ValueError(f"centroids: expected ({n}, 3), got {self.centroids.shape}")
        m = self.cell_a.shape[0]
        if self.cell_b.shape[0] != m or self.trans.shape[0] != m:
            raise ValueError("cell_a, cell_b and trans must have equal length")
        if m:
            if self.cell_a.min() < 0 or self.cell_b.min() < 0:
                raise ValueError("negative cell index in connections")
            if max(self.cell_a.max(), self.cell_b.max()) >= n:
                raise ValueError("connection references a cell beyond num_cells")
            if np.any(self.cell_a == self.cell_b):
                raise ValueError("self-connection (cell_a == cell_b)")
            if np.any(self.trans < 0):
                raise ValueError("negative transmissibility")

    @property
    def num_cells(self) -> int:
        """Number of cells."""
        return self.volumes.shape[0]

    @property
    def num_connections(self) -> int:
        """Number of (undirected) flux connections."""
        return self.cell_a.shape[0]

    @property
    def elevation(self) -> np.ndarray:
        """Cell-centre z coordinates (gravity axis)."""
        return self.centroids[:, 2]

    def degree(self) -> np.ndarray:
        """Connections incident to each cell (the neighbour count an
        eventual dataflow mapping must route for)."""
        deg = np.zeros(self.num_cells, dtype=np.int64)
        np.add.at(deg, self.cell_a, 1)
        np.add.at(deg, self.cell_b, 1)
        return deg

    def validate_vector(self, arr: np.ndarray, *, name: str = "field") -> np.ndarray:
        """Check a per-cell vector's shape."""
        arr = np.asarray(arr)
        if arr.shape != (self.num_cells,):
            raise ValueError(
                f"{name}: expected shape ({self.num_cells},), got {arr.shape}"
            )
        return arr


def unstructured_flux_residual(
    mesh: UnstructuredMesh,
    fluid: FluidProperties,
    pressure: np.ndarray,
    *,
    gravity: float = constants.GRAVITY,
) -> np.ndarray:
    """Algorithm 1 over a connection list (face-based assembly).

    Each connection is evaluated once with the face-flux statement
    (Eqs. 3-4) and scattered antisymmetrically to its two cells; on a
    connection list built from a Cartesian mesh this agrees with the
    structured reference fold to rounding (the scatter sums in the
    connection list's order, not a fold order).
    """
    pressure = mesh.validate_vector(np.asarray(pressure, dtype=np.float64), name="pressure")
    rho = fluid.density(pressure)
    lam = fluid.mobility(rho)
    z = mesh.elevation
    a, b = mesh.cell_a, mesh.cell_b
    s = FluxScratch.empty(a.shape, np.float64)
    face_flux(
        s, pressure[a], pressure[b], z[a], z[b], rho[a], rho[b], lam[a], lam[b],
        mesh.trans, s.dp, gravity,
    )
    residual = np.zeros(mesh.num_cells)
    np.add.at(residual, a, s.dp)
    np.subtract.at(residual, b, s.dp)
    return residual


# --------------------------------------------------------------------- #
# Constructors
# --------------------------------------------------------------------- #
def from_cartesian(
    mesh: CartesianMesh3D, trans: Transmissibility | None = None
) -> UnstructuredMesh:
    """Flatten a Cartesian mesh + TPFA build into a connection list.

    Cell ordering matches ``field.ravel()`` of the (nz, ny, nx) storage,
    so structured and unstructured residuals are directly comparable.
    """
    if trans is None:
        trans = Transmissibility(mesh)
    elif trans.mesh is not mesh:
        raise ValueError("trans was built for a different mesh")
    n = mesh.num_cells
    idx = np.arange(n).reshape(mesh.shape_zyx)
    cell_a, cell_b, values = [], [], []
    for conn in CANONICAL_CONNECTIONS:
        local, neigh = interior_slices(mesh.shape_zyx, conn)
        cell_a.append(idx[local].ravel())
        cell_b.append(idx[neigh].ravel())
        values.append(np.asarray(trans.face_array(conn), dtype=np.float64).ravel())
    centroids = np.empty((n, 3))
    ox, oy, _ = mesh.origin
    zs, ys, xs = np.meshgrid(
        np.asarray(mesh.elevation[:, 0, 0]),
        oy + (np.arange(mesh.ny) + 0.5) * mesh.dy,
        ox + (np.arange(mesh.nx) + 0.5) * mesh.dx,
        indexing="ij",
    )
    centroids[:, 0] = xs.ravel()
    centroids[:, 1] = ys.ravel()
    centroids[:, 2] = zs.ravel()
    return UnstructuredMesh(
        volumes=np.broadcast_to(mesh.cell_volumes, mesh.shape_zyx).ravel().copy(),
        centroids=centroids,
        cell_a=np.concatenate(cell_a),
        cell_b=np.concatenate(cell_b),
        trans=np.concatenate(values),
    )


def from_graph(graph, *, default_volume: float = 1.0) -> UnstructuredMesh:
    """Build a mesh from a networkx graph.

    Nodes need ``pos`` (3-tuple) and optionally ``volume``; edges need
    ``trans``.  Node order follows ``sorted(graph.nodes)`` and the
    returned mesh indexes cells in that order.
    """
    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    volumes = np.empty(n)
    centroids = np.empty((n, 3))
    for node in nodes:
        data = graph.nodes[node]
        if "pos" not in data:
            raise ValueError(f"node {node!r} missing 'pos' attribute")
        pos = np.asarray(data["pos"], dtype=np.float64)
        if pos.shape != (3,):
            raise ValueError(f"node {node!r}: pos must be a 3-vector")
        centroids[index[node]] = pos
        volumes[index[node]] = float(data.get("volume", default_volume))
    cell_a, cell_b, values = [], [], []
    for u, v, data in graph.edges(data=True):
        if "trans" not in data:
            raise ValueError(f"edge ({u!r}, {v!r}) missing 'trans' attribute")
        cell_a.append(index[u])
        cell_b.append(index[v])
        values.append(float(data["trans"]))
    return UnstructuredMesh(
        volumes=volumes,
        centroids=centroids,
        cell_a=np.asarray(cell_a, dtype=np.int64),
        cell_b=np.asarray(cell_b, dtype=np.int64),
        trans=np.asarray(values, dtype=np.float64),
    )


def delaunay_mesh_2d(
    num_points: int,
    *,
    seed: int = 0,
    extent: float = 1000.0,
    thickness: float = 10.0,
    permeability: float = constants.DEFAULT_PERMEABILITY,
) -> UnstructuredMesh:
    """A random 2D Delaunay cell cloud with TPFA edge transmissibilities.

    Points are cells; Delaunay edges are connections.  The half-
    transmissibility uses the perpendicular-bisector length as the face
    area proxy: ``Upsilon = kappa * thickness * L_face / d`` with
    ``L_face ~ d / sqrt(3)`` (equilateral estimate), giving a symmetric
    positive operator with realistic distance weighting.
    """
    from scipy.spatial import Delaunay

    if num_points < 3:
        raise ValueError("need at least 3 points for a triangulation")
    rng = np.random.default_rng(seed)
    pts = rng.random((num_points, 2)) * extent
    tri = Delaunay(pts)
    edges = set()
    for simplex in tri.simplices:
        for i in range(3):
            a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
            edges.add((min(a, b), max(a, b)))
    cell_a = np.array([e[0] for e in sorted(edges)], dtype=np.int64)
    cell_b = np.array([e[1] for e in sorted(edges)], dtype=np.int64)
    d = np.linalg.norm(pts[cell_a] - pts[cell_b], axis=1)
    face_len = d / np.sqrt(3.0)
    trans = permeability * thickness * face_len / d
    centroids = np.zeros((num_points, 3))
    centroids[:, :2] = pts
    area_per_cell = extent * extent / num_points
    return UnstructuredMesh(
        volumes=np.full(num_points, area_per_cell * thickness),
        centroids=centroids,
        cell_a=cell_a,
        cell_b=cell_b,
        trans=trans,
    )
