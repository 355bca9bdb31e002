"""Instance re-packing helpers shared by the churn-capable engines.

Link-failure and mobility churn both rebuild a ``LinkReversalInstance``
mid-scenario while carrying the current edge orientations over; the legacy
and kernel engines agree on this re-packing byte for byte, so the logic
lives here once.
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

from repro.core.graph import DirectedEdge, LinkReversalInstance

Node = Hashable


def surviving_instance_from_edges(
    instance: LinkReversalInstance,
    directed_edges: Sequence[DirectedEdge],
    dropped_link: Tuple[Node, Node],
) -> LinkReversalInstance:
    """The instance left after removing one undirected link, keeping orientations."""
    dropped = frozenset(dropped_link)
    surviving = tuple(
        (tail, head)
        for tail, head in directed_edges
        if frozenset((tail, head)) != dropped
    )
    return LinkReversalInstance(instance.nodes, instance.destination, surviving)


def carried_over_instance(
    fresh: LinkReversalInstance, directed_edges: Sequence[DirectedEdge]
) -> Tuple[LinkReversalInstance, bool]:
    """Re-pack a churned instance, carrying surviving edge orientations over.

    Surviving links keep their current direction; new links take ``fresh``'s
    (distance-towards-destination) direction.  When the carried orientation
    would contain a cycle the fresh instance is used instead; the second
    return value flags that reorientation.
    """
    surviving = {
        frozenset(edge): edge
        for edge in directed_edges
        if frozenset(edge) in fresh.undirected_edges
    }
    edges = tuple(
        surviving.get(frozenset(edge), edge) for edge in fresh.initial_edges
    )
    candidate = LinkReversalInstance(fresh.nodes, fresh.destination, edges)
    if candidate.is_initially_acyclic():
        return candidate, False
    return fresh, True
