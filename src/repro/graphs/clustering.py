"""Dependency-graph clustering for dynamic call graphs (paper §7, §9).

A service's call graph can vary with request content.  Erms' shipped
behaviour merges all observed variants into one *complete* graph and
scales for it — over-provisioning when most requests touch only a small
subset (§7).  The paper names the remedy as future work: *cluster graphs
into multiple classes and scale resources in each class instead of a
complete graph* (§9).  This module implements that extension:

* :func:`graph_similarity` — Jaccard similarity over node and edge sets;
* :func:`cluster_graphs` — greedy agglomerative clustering by similarity
  threshold, each class keeping its merged representative graph;
* :class:`GraphClass` — a class of variants: merged graph, members, and
  the observed frequency used to split the service workload per class.

Scaling per class then proceeds by treating each class as a sub-service
with its share of the workload; containers per microservice are the sum
over classes (each class's requests are disjoint traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from repro.graphs.dependency import CallNode, DependencyGraph


def _node_set(graph: DependencyGraph) -> Set[str]:
    return set(graph.microservices())


def _edge_set(graph: DependencyGraph) -> Set[Tuple[str, str]]:
    plan = graph.plan()
    names, index, parents = plan.names, plan.index, plan.parents
    return {
        (names[index[parents[site]]], names[index[site]])
        for site in range(1, len(index))
    }


def _copy_tree(graph: DependencyGraph) -> CallNode:
    """A call tree equal to ``graph``'s that shares no node with it."""
    plan = graph.plan()
    copies: List = [None] * len(plan.nodes)  # per site; callees come first
    for site in range(len(copies) - 1, -1, -1):
        node = plan.nodes[site]
        copies[site] = CallNode(
            node.microservice,
            [[copies[child] for child in stage] for stage in plan.stages[site]],
            node.calls_per_request,
        )
    return copies[0]


def graph_similarity(first: DependencyGraph, second: DependencyGraph) -> float:
    """Jaccard similarity over nodes and edges, averaged.

    1.0 for structurally identical microservice sets/call edges, 0.0 for
    disjoint graphs.  Cheap (linear in graph size) — this runs over every
    trace variant of every service.
    """
    nodes1, nodes2 = _node_set(first), _node_set(second)
    node_union = nodes1 | nodes2
    node_score = len(nodes1 & nodes2) / len(node_union) if node_union else 1.0

    edges1, edges2 = _edge_set(first), _edge_set(second)
    edge_union = edges1 | edges2
    edge_score = len(edges1 & edges2) / len(edge_union) if edge_union else 1.0
    return (node_score + edge_score) / 2.0


def merge_variants(
    service: str, variants: Sequence[DependencyGraph]
) -> DependencyGraph:
    """Union several variants into one complete graph (paper §7).

    Children are matched by microservice name within corresponding stages
    (the Tracing Coordinator's merge rule); the result over-approximates
    every variant.
    """
    if not variants:
        raise ValueError("need at least one variant")
    from repro.tracing.coordinator import _merge_call_trees

    merged = _copy_tree(variants[0])
    for variant in variants[1:]:
        _merge_call_trees(merged, _copy_tree(variant))
    return DependencyGraph(service=service, root=merged)


@dataclass
class GraphClass:
    """One cluster of graph variants."""

    representative: DependencyGraph
    members: List[int] = field(default_factory=list)  # variant indices
    weight: float = 0.0  # fraction of requests taking this class

    def size(self) -> int:
        return len(self.members)


def cluster_graphs(
    variants: Sequence[DependencyGraph],
    frequencies: Sequence[float] = None,
    similarity_threshold: float = 0.6,
) -> List[GraphClass]:
    """Greedy agglomerative clustering of graph variants.

    Each variant joins the first existing class whose representative is at
    least ``similarity_threshold`` similar, and the representative is
    re-merged to cover it; otherwise it founds a new class.  Variants are
    processed in descending frequency so the biggest classes form around
    the most common shapes.

    Args:
        variants: Observed graph variants of one service.
        frequencies: Relative frequency per variant (uniform by default).
        similarity_threshold: Joining threshold in [0, 1]; 0 reproduces
            the complete-graph behaviour (one class), 1 keeps every
            distinct variant separate.

    Returns:
        Classes with weights normalized to sum to 1.
    """
    if not variants:
        raise ValueError("need at least one variant")
    if not 0.0 <= similarity_threshold <= 1.0:
        raise ValueError(
            f"similarity_threshold must be in [0, 1], got {similarity_threshold}"
        )
    if frequencies is None:
        frequencies = [1.0] * len(variants)
    if len(frequencies) != len(variants):
        raise ValueError("frequencies must match variants")
    if any(f < 0 for f in frequencies):
        raise ValueError("frequencies must be non-negative")
    total = sum(frequencies) or 1.0

    order = sorted(
        range(len(variants)), key=lambda i: frequencies[i], reverse=True
    )
    classes: List[GraphClass] = []
    for index in order:
        variant = variants[index]
        best_class, best_score = None, similarity_threshold
        for cls in classes:
            score = graph_similarity(cls.representative, variant)
            if score >= best_score:
                best_class, best_score = cls, score
        if best_class is None:
            classes.append(
                GraphClass(
                    representative=merge_variants(variant.service, [variant]),
                    members=[index],
                    weight=frequencies[index] / total,
                )
            )
        else:
            best_class.members.append(index)
            best_class.weight += frequencies[index] / total
            best_class.representative = merge_variants(
                variant.service, [best_class.representative, variant]
            )
    return classes


def class_workloads(
    classes: Sequence[GraphClass], service_workload: float
) -> List[float]:
    """Split a service's request rate across its graph classes."""
    if service_workload < 0:
        raise ValueError("service_workload must be non-negative")
    return [cls.weight * service_workload for cls in classes]
