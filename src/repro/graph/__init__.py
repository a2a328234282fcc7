"""Graph substrate: DFS arc classification and node classes (Section 2
of the paper)."""

from .dfs import Arc, ArcClassification, adjacency_successors, classify_arcs
from .properties import (
    MULTIPLE,
    RECURRING,
    SINGLE,
    elementary_cycles,
    is_acyclic,
    is_tree,
    node_classes,
)

__all__ = [
    "Arc",
    "ArcClassification",
    "MULTIPLE",
    "RECURRING",
    "SINGLE",
    "adjacency_successors",
    "classify_arcs",
    "elementary_cycles",
    "is_acyclic",
    "is_tree",
    "node_classes",
]
