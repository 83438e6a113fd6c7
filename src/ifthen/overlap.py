"""Overlap analysis against an external concept knowledge base.

Dimensions are grouped into six families, each mapped to a fixed set of
external relation names. Matching is exact string equality after a
documented, swappable normalization; no fuzzy matching.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import IO

from ifthen.atlas_io import data_lines, line_message, tab_fields
from ifthen.graph import AtlasGraph, person_variable_of
from ifthen.taxonomy import Dimension


class OverlapError(ValueError):
    pass


@dataclass(frozen=True)
class ExternalEdge:
    """A ``start --relation--> end`` edge of the external graph."""

    relation: str
    start: str
    end: str

    def __post_init__(self) -> None:
        if not (self.relation and self.start and self.end):
            raise OverlapError("edge fields must be non-empty")


class DimensionGroup(str, Enum):
    Wants = "Wants"
    Effects = "Effects"
    Needs = "Needs"
    Intents = "Intents"
    Reactions = "Reactions"
    Attributes = "Attributes"


# The fixed group -> (dimensions, external relations) table.
_GROUP_TABLE: dict[DimensionGroup, tuple[frozenset[Dimension], frozenset[str]]] = {
    DimensionGroup.Wants: (
        frozenset({Dimension.xWant, Dimension.oWant}),
        frozenset({"MotivatedByGoal", "HasSubevent", "HasFirstSubevent", "CausesDesire"}),
    ),
    DimensionGroup.Effects: (
        frozenset({Dimension.xEffect, Dimension.oEffect}),
        frozenset({"Causes", "HasSubevent", "HasFirstSubevent", "HasLastSubevent"}),
    ),
    DimensionGroup.Needs: (
        frozenset({Dimension.xNeed}),
        frozenset({"MotivatedByGoal", "Entails", "HasPrerequisite"}),
    ),
    DimensionGroup.Intents: (
        frozenset({Dimension.xIntent}),
        frozenset({"MotivatedByGoal", "CausesDesire", "HasSubevent", "HasFirstSubevent"}),
    ),
    DimensionGroup.Reactions: (
        frozenset({Dimension.xReact, Dimension.oReact}),
        frozenset({"Causes", "HasLastSubevent", "HasSubevent"}),
    ),
    DimensionGroup.Attributes: (
        frozenset({Dimension.xAttr}),
        frozenset({"HasProperty"}),
    ),
}


def normalize_concept(text: str) -> str:
    """Default concept normalization for matching.

    Drops person-variable tokens, lowercases, collapses whitespace, and
    strips a leading "to " or "the ".
    """
    tokens = [t for t in text.split() if person_variable_of(t) is None]
    out = " ".join(" ".join(tokens).lower().split())
    for prefix in ("to ", "the "):
        if out.startswith(prefix):
            out = out[len(prefix):]
            break
    return out


def load_edge_file(stream: IO[str]) -> set[ExternalEdge]:
    """TSV ``relation<TAB>start<TAB>end``; concepts are normalized on load."""
    edges = set()
    for line_no, text in data_lines(stream):
        try:
            relation, start, end = tab_fields(text, 3)
            edges.add(ExternalEdge(relation, normalize_concept(start), normalize_concept(end)))
        except ValueError as exc:
            raise OverlapError(line_message(line_no, exc)) from None
    return edges


def triple_overlap(atlas: AtlasGraph, edges: set[ExternalEdge]) -> dict[DimensionGroup, float]:
    """Percentage of each group's triples present as external edges.

    A triple overlaps when some edge whose relation belongs to the group
    links the normalized event to the normalized target. Groups without
    triples report 0%.
    """
    by_relation: dict[str, set[tuple[str, str]]] = {}
    for edge in edges:
        by_relation.setdefault(edge.relation, set()).add((edge.start, edge.end))

    concept = functools.cache(normalize_concept)
    # Each dimension is in exactly one group, so each edge is visited once.
    pairs: dict[Dimension, list[tuple[str, str]]] = {}
    for e in atlas.edges:
        if not e.target.is_empty:
            pairs.setdefault(e.dimension, []).append(
                (concept(e.event.text), concept(e.target.text)))

    result: dict[DimensionGroup, float] = {}
    for group, (dims, relations) in _GROUP_TABLE.items():
        linked = set().union(*(by_relation.get(rel, ()) for rel in relations))
        group_pairs = [p for dim in dims for p in pairs.get(dim, ())]
        matched = sum(1 for p in group_pairs if p in linked)
        result[group] = 100.0 * matched / len(group_pairs) if group_pairs else 0.0
    return result


def event_coverage(atlas: AtlasGraph, edges: set[ExternalEdge]) -> float:
    """Percentage of base events whose normalized text is an external concept."""
    if not atlas.events:
        return 0.0
    concepts = {e.start for e in edges} | {e.end for e in edges}
    found = sum(1 for ev in atlas.events if normalize_concept(ev.text) in concepts)
    return 100.0 * found / len(atlas.events)
