"""Scalar reference for greedy geographic forwarding."""

from __future__ import annotations


def greedy_next_hops_reference(mode, node, destination, topology) -> tuple[str, ...]:
    """Greedy hop choice from per-neighbour scalar calls, without a memo.

    ``mode`` is a :class:`~repro.net.routing.GreedyForwarding` mode:
    ``"distance"`` or ``"depth"``.
    """
    neighbors = topology.neighbors(node)
    if not neighbors:
        return ()
    if destination in neighbors:
        return (destination,)
    if mode == "distance":
        if destination not in topology or not topology.is_active(destination):
            return ()
        own = topology.distance_m(node, destination)
        best = min(neighbors, key=lambda n: topology.distance_m(n, destination))
        if topology.distance_m(best, destination) < own:
            return (best,)
        return ()
    own_depth = topology.position(node).depth_m
    best = min(neighbors, key=lambda n: topology.position(n).depth_m)
    if topology.position(best).depth_m < own_depth:
        return (best,)
    return ()
