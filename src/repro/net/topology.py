"""Node positions and acoustic geometry of a network.

:class:`AcousticNetTopology` is the shared map every other net component
consults: routing asks for neighbours and distances, the link models ask
for per-pair distance, and the simulator asks for propagation delays
(distance over the canonical :data:`~repro.channel.physics.SOUND_SPEED_M_S`).
Nodes stay where they are placed; the geometry changes only when a node
joins, or leaves and rejoins under fault injection.

Positions are kept twice, behind one interned name<->index table: in a
persistent ``(N, 3)`` float64 array for the vectorized neighbour-table
builds, and as a list of ``(x, y, depth)`` tuples of Python floats for the
per-hop queries (:meth:`~AcousticNetTopology.distance_m`,
:meth:`~AcousticNetTopology.distances_to`,
:meth:`~AcousticNetTopology.depths_of`).  Those run on about seven
neighbours per call, where numpy's per-call overhead dominates, so they
compute in plain Python.  Neighbour lookup runs through a spatial-hash
grid (cell size = ``comm_range_m``, so a 3x3 cell neighbourhood covers
the range ball) and every node's active neighbour set is cached as a
:class:`NeighborTable` of aligned distance/delay arrays.  A membership
change bumps a version counter -- cached tables invalidate lazily, O(1),
instead of a dict-wide clear -- and moves one node in or out of its grid
bucket, so a 1000-node deployment never pays O(N^2).  Every distance, in
either form, is computed with the same operation order as the original
per-node loops, so results are bit-identical to the scalar path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.channel.physics import SOUND_SPEED_M_S
from repro.environments.sites import LAKE, Site
from repro.utils.rng import ensure_rng
from repro.utils.validation import require_positive

#: Initial node-array capacity; grows by doubling.
_INITIAL_CAPACITY = 8


@dataclass(frozen=True)
class NodePosition:
    """A node's location: horizontal coordinates plus depth (all metres)."""

    x_m: float
    y_m: float
    depth_m: float = 1.0


class NeighborTable:
    """The cached active neighbour set of one node.

    All fields are aligned: slot ``i`` describes the ``i``-th in-range
    neighbour, sorted nearest first (ties broken by name, matching the
    original per-node sorted scan).  ``indices`` are the neighbours'
    position indices as plain ints, what the per-hop geometry queries
    take.  ``distances_m``/``delays_s`` are read-only float64 views the
    simulator and routing consume without re-deriving geometry per
    packet; ``delays_list`` is the same delay column as plain floats so
    the event scheduler never sees numpy scalars.
    """

    __slots__ = ("names", "indices", "distances_m", "delays_s", "delays_list", "slot")

    def __init__(
        self,
        names: tuple[str, ...],
        indices: list[int],
        distances_m: np.ndarray,
        delays_s: np.ndarray,
    ) -> None:
        self.names = names
        self.indices = indices
        self.distances_m = distances_m
        self.delays_s = delays_s
        self.delays_list = delays_s.tolist()
        self.slot = {name: position for position, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)


class AcousticNetTopology:
    """Positions and acoustic geometry of an N-node deployment.

    Parameters
    ----------
    site:
        Evaluation site; its water depth bounds node depths.
    comm_range_m:
        Maximum distance at which two nodes are considered neighbours.
        Defaults to the site's usable range.
    """

    def __init__(
        self,
        site: Site = LAKE,
        comm_range_m: float | None = None,
    ) -> None:
        self.site = site
        range_m = site.max_range_m if comm_range_m is None else float(comm_range_m)
        require_positive(range_m, "comm_range_m")
        self.comm_range_m = range_m
        self._count = 0
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._xyz = np.empty((_INITIAL_CAPACITY, 3), dtype=float)
        #: The same positions as ``(x, y, depth)`` tuples of Python
        #: floats, one per node in index order (positions never move).
        self._points: list[tuple[float, float, float]] = []
        #: Liveness mask: inactive nodes keep their slot but vanish from
        #: the spatial grid and every neighbour table until
        #: :meth:`reactivate`.
        self._active = np.ones(_INITIAL_CAPACITY, dtype=bool)
        self._names_tuple: tuple[str, ...] | None = ()
        #: Name array for vectorized tie-breaking; rebuilt lazily.
        self._name_keys: np.ndarray | None = None
        #: Spatial hash: (cell_x, cell_y) -> list of node indices.  Built
        #: lazily on first neighbour query.
        self._buckets: dict[tuple[int, int], list[int]] | None = None
        self._cells: np.ndarray | None = None
        #: Geometry version; bumped on any membership change.  Cached
        #: neighbour tables carry the version they were built at, so
        #: invalidation is an O(1) counter bump, not a dict clear.
        self._version = 0
        self._tables: dict[str, tuple[int, NeighborTable]] = {}

    # ------------------------------------------------------------------ nodes
    def add_node(
        self,
        name: str,
        x_m: float,
        y_m: float,
        depth_m: float = 1.0,
    ) -> None:
        """Place a node (its depth clamped inside the water column)."""
        if name in self._index:
            raise ValueError(f"node {name!r} already exists")
        index = self._count
        if index == self._xyz.shape[0]:
            self._xyz = np.concatenate([self._xyz, np.empty_like(self._xyz)])
            self._active = np.concatenate([self._active, np.ones_like(self._active)])
            if self._cells is not None:
                self._cells = np.concatenate([self._cells, np.empty_like(self._cells)])
        point = (float(x_m), float(y_m), self._clamp_depth(depth_m))
        self._xyz[index] = point
        self._points.append(point)
        self._active[index] = True
        self._names.append(name)
        self._index[name] = index
        self._count = index + 1
        self._names_tuple = None
        self._name_keys = None
        if self._buckets is not None:
            cell = self._cell_of(index)
            self._cells[index] = cell
            self._buckets.setdefault(cell, []).append(index)
        self._version += 1

    def deactivate(self, name: str) -> None:
        """Take a node out of the network without forgetting its slot.

        The node disappears from the spatial grid, every neighbour table
        and routing view until :meth:`reactivate`.  Idempotent.
        """
        index = self.index_of(name)
        if not self._active[index]:
            return
        self._active[index] = False
        if self._buckets is not None:
            cell = (int(self._cells[index, 0]), int(self._cells[index, 1]))
            bucket = self._buckets.get(cell)
            if bucket is not None and index in bucket:
                bucket.remove(index)
                if not bucket:
                    del self._buckets[cell]
        self._version += 1

    def reactivate(self, name: str) -> None:
        """Return a deactivated node to the network at its position."""
        index = self.index_of(name)
        if self._active[index]:
            return
        self._active[index] = True
        if self._buckets is not None:
            cell = self._cell_of(index)
            self._cells[index] = cell
            self._buckets.setdefault(cell, []).append(index)
        self._version += 1

    def is_active(self, name: str) -> bool:
        """Whether ``name`` is a live member of the network."""
        return bool(self._active[self.index_of(name)])

    @property
    def names(self) -> tuple[str, ...]:
        """Node names in insertion order."""
        if self._names_tuple is None:
            self._names_tuple = tuple(self._names)
        return self._names_tuple

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._count

    @property
    def version(self) -> int:
        """Geometry version; changes whenever the active membership changes.

        Consumers (neighbour tables, routing memos) cache derived state
        against this counter instead of subscribing to invalidation.
        """
        return self._version

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Array index of ``name`` in the position array."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def position(self, name: str) -> NodePosition:
        """Current position of ``name``."""
        return NodePosition(*self._points[self.index_of(name)])

    # --------------------------------------------------------------- geometry
    def distance_m(self, a: str, b: str) -> float:
        """3-D distance between two nodes."""
        ax, ay, az = self._points[self.index_of(a)]
        bx, by, bz = self._points[self.index_of(b)]
        return math.sqrt((ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)

    def neighbors(self, name: str) -> tuple[str, ...]:
        """Names of all nodes within range of ``name``, nearest first."""
        return self.neighbor_table(name).names

    def neighbor_table(self, name: str) -> NeighborTable:
        """Cached :class:`NeighborTable` of ``name`` (nearest first)."""
        cached = self._tables.get(name)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        table = self._build_table(self.index_of(name))
        self._tables[name] = (self._version, table)
        return table

    def distances_to(self, indices: list[int], target: str) -> list[float]:
        """Distances from the nodes at ``indices`` to ``target``.

        Same operation order as the neighbour-table builds (``dx * dx``,
        summed x + y + z), so each entry is bit-identical to the table's
        distance for the same pair.
        """
        points = self._points
        tx, ty, tz = points[self.index_of(target)]
        distances = []
        for index in indices:
            x, y, z = points[index]
            dx = x - tx
            dy = y - ty
            dz = z - tz
            distances.append(math.sqrt(dx * dx + dy * dy + dz * dz))
        return distances

    def depths_of(self, indices: list[int]) -> list[float]:
        """Depths (m) of the nodes at ``indices``."""
        points = self._points
        return [points[index][2] for index in indices]

    # ----------------------------------------------------------- spatial hash
    def _cell_of(self, index: int) -> tuple[int, int]:
        row = self._xyz[index]
        cell = self.comm_range_m
        return (int(row[0] // cell), int(row[1] // cell))

    def _ensure_grid(self) -> None:
        if self._buckets is not None:
            return
        count = self._count
        cells = np.floor_divide(
            self._xyz[: max(count, 1), :2], self.comm_range_m
        ).astype(np.int64)
        capacity = self._xyz.shape[0]
        self._cells = np.empty((capacity, 2), dtype=np.int64)
        self._cells[:count] = cells[:count]
        buckets: dict[tuple[int, int], list[int]] = {}
        for index in range(count):
            if not self._active[index]:
                continue
            buckets.setdefault(
                (int(cells[index, 0]), int(cells[index, 1])), []
            ).append(index)
        self._buckets = buckets

    def _build_table(self, index: int) -> NeighborTable:
        self._ensure_grid()
        if self._name_keys is None:
            self._name_keys = np.array(self._names)
        cx, cy = self._cells[index]
        buckets = self._buckets
        candidates: list[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = buckets.get((cx + dx, cy + dy))
                if bucket:
                    candidates.extend(bucket)
        cand = np.array(candidates, dtype=np.intp)
        xyz = self._xyz
        x0, y0, z0 = xyz[index]
        ddx = xyz[cand, 0] - x0
        ddy = xyz[cand, 1] - y0
        ddz = xyz[cand, 2] - z0
        distances = np.sqrt(ddx * ddx + ddy * ddy + ddz * ddz)
        mask = (distances <= self.comm_range_m) & (cand != index)
        cand = cand[mask]
        distances = distances[mask]
        # Nearest first, ties by name -- the exact order of the original
        # per-node ``sorted((distance, other) ...)`` generator.
        order = np.lexsort((self._name_keys[cand], distances))
        indices = cand[order].tolist()
        distances = distances[order]
        names = tuple(self._names[position] for position in indices)
        return NeighborTable(names, indices, distances, distances / SOUND_SPEED_M_S)

    def _clamp_depth(self, depth_m: float) -> float:
        return float(np.clip(depth_m, 0.2, self.site.water_depth_m - 0.2))

    # --------------------------------------------------------------- builders
    @classmethod
    def random_deployment(
        cls,
        num_nodes: int,
        area_m: tuple[float, float],
        site: Site = LAKE,
        comm_range_m: float | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> "AcousticNetTopology":
        """Uniform random deployment ``n0 .. n{N-1}`` over ``area_m`` =
        (width, height), at depths uniform in 0.5-2 m."""
        if num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        width, height = (float(v) for v in area_m)
        require_positive(width, "area width")
        require_positive(height, "area height")
        rng = ensure_rng(seed)
        topology = cls(site=site, comm_range_m=comm_range_m)
        for index in range(num_nodes):
            topology.add_node(
                f"n{index}",
                float(rng.uniform(0.0, width)),
                float(rng.uniform(0.0, height)),
                float(rng.uniform(0.5, 2.0)),
            )
        return topology
