"""Regular deployments for net tests: chains and lattices of ``n{i}``."""

from __future__ import annotations

from repro.environments.sites import LAKE
from repro.net.topology import AcousticNetTopology


def line_topology(num_nodes, spacing_m, site=LAKE, comm_range_m=None):
    """Evenly spaced chain ``n0 .. n{N-1}`` along the x axis, 1 m deep."""
    topology = AcousticNetTopology(site=site, comm_range_m=comm_range_m)
    for index in range(num_nodes):
        topology.add_node(f"n{index}", index * spacing_m, 0.0)
    return topology


def grid_topology(rows, cols, spacing_m, site=LAKE, comm_range_m=None):
    """``rows x cols`` lattice, 1 m deep; node ``n{i}`` in row-major order."""
    topology = AcousticNetTopology(site=site, comm_range_m=comm_range_m)
    for row in range(rows):
        for col in range(cols):
            topology.add_node(f"n{row * cols + col}", col * spacing_m, row * spacing_m)
    return topology
