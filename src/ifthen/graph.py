"""Knowledge-graph data model: event phrases, triples, graph build and queries.

A graph is a deduplicated set of ``<event, dimension, inference>`` edges.
Node identity is exact string equality on whitespace-normalized,
lowercased text (no stemming); this is deliberately the most conservative
reading of "distinct" and is centralized in :func:`normalize_node_text`
so it can be swapped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from statistics import fmean
from sys import intern

import numpy as np

from ifthen.taxonomy import ContentType, Dimension, Subject, classify_dimension

log = logging.getLogger(__name__)

PERSON_VARIABLES = ("PersonX", "PersonY", "PersonZ")
BLANK_TOKEN = "___"
EMPTY_SENTINEL = "none"


def normalize_node_text(text: str) -> str:
    """Canonical node identity: lowercased, whitespace-collapsed."""
    return " ".join(text.lower().split())


def person_variable_of(token: str) -> str | None:
    """The person variable a token mentions, honoring possessives ("PersonX's")."""
    if not token.startswith("Person"):
        return None
    for var in PERSON_VARIABLES:
        if token == var or token.startswith(var + "'"):
            return var
    return None


class Split(str, Enum):
    Train = "train"
    Dev = "dev"
    Test = "test"


@dataclass(frozen=True, slots=True)
class EventPhrase:
    """A normalized base-event verb phrase.

    ``person_slots`` lists the person variables mentioned, in canonical
    PersonX/PersonY/PersonZ order; ``blank_count`` counts ``___`` tokens.
    """

    text: str
    person_slots: tuple[str, ...]
    blank_count: int

    @classmethod
    def from_text(cls, text: str) -> "EventPhrase":
        tokens = text.split()
        if not tokens:
            raise ValueError("event text must be non-empty")
        mentioned = {person_variable_of(tok) for tok in tokens}
        slots = tuple(var for var in PERSON_VARIABLES if var in mentioned)
        if slots and "PersonX" not in slots:
            raise ValueError(
                f"event mentions {slots} without PersonX: {text!r}"
            )
        return cls(text=" ".join(tokens), person_slots=slots,
                   blank_count=tokens.count(BLANK_TOKEN))

    @property
    def tokens(self) -> list[str]:
        return self.text.split()


@dataclass(frozen=True, slots=True)
class InferenceTarget:
    """An annotated inference; ``none`` is the empty-annotation sentinel."""

    text: str
    is_empty: bool

    @classmethod
    def from_text(cls, text: str) -> "InferenceTarget":
        text = " ".join(text.split())
        if text == EMPTY_SENTINEL:
            return cls(text=EMPTY_SENTINEL, is_empty=True)
        if not text:
            raise ValueError("inference text must be non-empty or the 'none' sentinel")
        return cls(text=text, is_empty=False)

    @property
    def tokens(self) -> list[str]:
        return self.text.split()


@dataclass(frozen=True, slots=True)
class Triple:
    """One worker's ``<event, dimension, inference>`` annotation."""

    event: EventPhrase
    dimension: Dimension
    target: InferenceTarget
    worker_id: str
    split: Split


@dataclass(frozen=True, slots=True)
class Edge:
    """A deduplicated triple with all contributing workers as provenance."""

    event: EventPhrase
    dimension: Dimension
    target: InferenceTarget
    worker_ids: tuple[str, ...]
    split: Split


@dataclass(frozen=True)
class EventIndex:
    """One dimension's events with a non-empty target, tokenized for retrieval.

    ``events`` are normalized texts in lexicographic order; row ``i`` of
    ``token_ids`` holds the positions in ``tokens`` (the distinct tokens)
    of event ``i``'s tokens, right-padded with ``len(tokens)``.
    ``targets[i]`` holds event ``i``'s non-empty targets as normalized
    token tuples, in raw-text order; ``build`` takes ``(event, targets)``
    pairs in event text order.
    """

    events: tuple[str, ...]
    tokens: tuple[str, ...]
    token_ids: np.ndarray
    targets: tuple[tuple[tuple[str, ...], ...], ...]

    @classmethod
    def build(cls, items: list[tuple[str, tuple[tuple[str, ...], ...]]]) -> "EventIndex":
        events, targets = zip(*items)
        positions: dict[str, int] = {}
        rows = [[positions.setdefault(t, len(positions)) for t in ev.split()]
                for ev in events]
        token_ids = np.full((len(rows), max(map(len, rows))), len(positions), dtype=np.intp)
        for i, row in enumerate(rows):
            token_ids[i, : len(row)] = row
        token_ids.flags.writeable = False
        return cls(events=events, tokens=tuple(positions), token_ids=token_ids, targets=targets)


@dataclass(frozen=True)
class AtlasGraph:
    """Immutable deduplicated graph; all queries are read-only.

    ``edges`` iterate lexicographically by (event text, dimension name,
    target text); ``adjacency`` keys are (normalized event text, dimension).
    """

    events: tuple[EventPhrase, ...]
    edges: tuple[Edge, ...]
    adjacency: dict[tuple[str, Dimension], tuple[Edge, ...]]
    nodes: frozenset[str]
    diagnostics: tuple[str, ...] = field(default=())

    @cached_property
    def event_index(self) -> dict[Dimension, EventIndex]:
        """Per-dimension retrieval index, built on first use.

        Dimensions with no non-empty target are absent; equal targets share
        one tuple of interned tokens. Cached, as the graph is immutable.
        """
        tokens_of = cache(lambda text: tuple(map(intern, text.split())))
        items: dict[Dimension, list] = {}
        for (ev, dim), edges in self.adjacency.items():
            texts = sorted(e.target.text for e in edges if not e.target.is_empty)
            if texts:
                items.setdefault(dim, []).append(
                    (ev, tuple(tokens_of(normalize_node_text(t)) for t in texts)))
        return {dim: EventIndex.build(sorted(evs)) for dim, evs in items.items()}


@dataclass(frozen=True)
class StatsReport:
    triples_total: int
    triples_by_content_type: dict[ContentType, int]
    nodes_total: int
    nodes_by_content_type: dict[ContentType, int]
    avg_words_per_node: dict[ContentType, float]
    base_event_count: int
    base_event_avg_words: float
    nodes_appearing_multiple: int


def build_graph(triples: list[Triple]) -> AtlasGraph:
    """Deduplicate triples and build the adjacency structure.

    Duplicates (same event text, dimension, target text after node
    normalization) are collapsed, keeping every worker id as provenance;
    duplicates assigned to different splits raise ``ValueError``, since
    keeping either split would leak the triple across the split boundary.
    Targets for theme dimensions on events without an explicit PersonY are
    legal (implied participants) and only produce a diagnostic; one
    warning per call gives their count and the first of them.
    Each distinct text is normalized once per call.
    """
    # Each dimension's name, and whether it describes the event's theme.
    dim_table = {d: (d.value, classify_dimension(d).subject is Subject.Theme) for d in Dimension}
    norm = cache(normalize_node_text)
    # The first triple of each key; later worker ids only for repeated keys.
    merged: dict[tuple[str, str, str], Triple] = {}
    more_workers: dict[tuple[str, str, str], list[str]] = {}
    diagnostics: list[str] = []
    for t in triples:
        dim, theme = dim_table[t.dimension]
        key = (norm(t.event.text), dim, norm(t.target.text))
        first = merged.get(key)
        if first is None:
            if theme and "PersonY" not in t.event.person_slots:
                diagnostics.append(
                    f"{dim} annotation on event without explicit "
                    f"PersonY (implied participant): {t.event.text!r}"
                )
            merged[key] = t
        elif first.split is not t.split:
            raise ValueError(
                f"conflicting splits for duplicate triple {key}: "
                f"{first.split.value} and {t.split.value}"
            )
        else:
            more_workers.setdefault(key, []).append(t.worker_id)
    if diagnostics:
        log.warning("%d implied-participant diagnostics; first: %s",
                    len(diagnostics), diagnostics[0])

    # Keys sort by event first, so events_by_norm fills in text order.
    edges: list[Edge] = []
    events_by_norm: dict[str, EventPhrase] = {}
    adjacency: dict[tuple[str, Dimension], list[Edge]] = {}
    nodes: set[str] = set()
    for key in sorted(merged):
        ev, _, tgt = key
        t = merged[key]
        more = more_workers.get(key)
        workers = (t.worker_id,) if more is None else tuple(sorted({t.worker_id, *more}))
        edge = Edge(t.event, t.dimension, t.target, workers, t.split)
        edges.append(edge)
        events_by_norm.setdefault(ev, t.event)
        adjacency.setdefault((ev, t.dimension), []).append(edge)
        nodes.add(ev)
        if not t.target.is_empty:
            nodes.add(tgt)

    return AtlasGraph(
        events=tuple(events_by_norm.values()),
        edges=tuple(edges),
        adjacency={k: tuple(v) for k, v in adjacency.items()},
        nodes=frozenset(nodes),
        diagnostics=tuple(diagnostics),
    )


def query_inferences(
    graph: AtlasGraph,
    event_text: str,
    dim: Dimension,
    include_empty: bool = False,
) -> list[InferenceTarget]:
    """Targets annotated for (event, dimension), in deterministic order.

    Unknown events or dimensions yield an empty list. Empty-annotation
    sentinels are withheld unless ``include_empty`` is set.
    """
    edges = graph.adjacency.get((normalize_node_text(event_text), Dimension(dim)), ())
    return [
        e.target for e in edges if include_empty or not e.target.is_empty
    ]


def graph_stats(graph: AtlasGraph) -> StatsReport:
    """Exact counts over the deduplicated graph.

    Target nodes are attributed to the content type of the dimension they
    appear under; empty annotations are excluded from node counts. Event
    nodes are the adjacency keys; each distinct target text is normalized
    once per call.
    """
    content_types = {d: classify_dimension(d).content_type for d in Dimension}
    triples_by_ct = {ct: 0 for ct in ContentType}
    nodes_by_ct: dict[ContentType, set[str]] = {ct: set() for ct in ContentType}
    appearances: dict[str, int] = {}
    norm = cache(normalize_node_text)
    for (ev_norm, dim), edges in graph.adjacency.items():
        ct = content_types[dim]
        triples_by_ct[ct] += len(edges)
        appearances[ev_norm] = appearances.get(ev_norm, 0) + len(edges)
        for edge in edges:
            if edge.target.is_empty:
                continue
            tgt_norm = norm(edge.target.text)
            nodes_by_ct[ct].add(tgt_norm)
            appearances[tgt_norm] = appearances.get(tgt_norm, 0) + 1

    base_events = {ev_norm for ev_norm, _ in graph.adjacency}
    avg_words = {
        ct: (fmean(len(n.split()) for n in nodes) if nodes else 0.0)
        for ct, nodes in nodes_by_ct.items()
    }
    return StatsReport(
        triples_total=len(graph.edges),
        triples_by_content_type=triples_by_ct,
        nodes_total=len(graph.nodes),
        nodes_by_content_type={ct: len(nodes) for ct, nodes in nodes_by_ct.items()},
        avg_words_per_node=avg_words,
        base_event_count=len(base_events),
        base_event_avg_words=(
            fmean(len(e.split()) for e in base_events) if base_events else 0.0
        ),
        nodes_appearing_multiple=sum(1 for c in appearances.values() if c > 1),
    )
