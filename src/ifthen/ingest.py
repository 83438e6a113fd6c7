"""Raw-text normalization and split assignment.

Covers the pipeline from raw event strings to normalized
:class:`~ifthen.graph.EventPhrase` objects: person-variable substitution,
blanking of infrequent arguments, and the grouped train/dev/test split
that keeps events sharing their first two content words in the same set.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from types import MappingProxyType
from typing import IO

from ifthen.graph import (
    BLANK_TOKEN,
    PERSON_VARIABLES,
    EventPhrase,
    Split,
    person_variable_of,
)


class IngestError(ValueError):
    pass


class FrequencySource(str, Enum):
    Stories = "stories"
    Blogs = "blogs"
    Ngrams = "ngrams"


# Per-source defaults: minimum co-occurrence counts for stories and blogs,
# and a rank cutoff for the n-gram corpus.
DEFAULT_MIN_COUNT = {FrequencySource.Stories: 5, FrequencySource.Blogs: 100}
NGRAMS_TOP_RANK = 10_000


@dataclass(frozen=True)
class FrequencyTable:
    """(verb, argument-string) co-occurrence counts from one corpus.

    Construction derives, once, what blanking reads: per verb, an
    ``{argument tokens: count}`` index and its span lengths, longest
    first; and the default threshold. ``counts`` is therefore stored as a
    read-only view of a private copy, so it cannot drift from them.
    Argument strings that split to the same tokens keep their smallest
    count; ones with no tokens are left out.
    """

    counts: Mapping[tuple[str, str], int]
    source: FrequencySource
    _spans: dict[str, tuple[dict[tuple[str, ...], int], tuple[int, ...]]] = field(
        init=False, repr=False, compare=False)
    _default_threshold: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts = MappingProxyType(dict(self.counts))
        by_verb: dict[str, dict[tuple[str, ...], int]] = {}
        for (verb, args), count in counts.items():
            if count < 1:
                raise IngestError(f"count for {(verb, args)} must be >= 1, got {count}")
            span = tuple(args.split())
            if span:
                spans = by_verb.setdefault(verb, {})
                spans[span] = min(count, spans.get(span, count))
        index = {
            verb: (spans, tuple(sorted({len(s) for s in spans}, reverse=True)))
            for verb, spans in by_verb.items()
        }
        if self.source is FrequencySource.Ngrams:
            ranked = sorted(counts.values(), reverse=True)
            threshold = ranked[NGRAMS_TOP_RANK - 1] if len(ranked) > NGRAMS_TOP_RANK else 1
        else:
            threshold = DEFAULT_MIN_COUNT[self.source]
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_spans", index)
        object.__setattr__(self, "_default_threshold", threshold)

    def default_threshold(self) -> int:
        """Per-source cutoff below which arguments are blanked: a minimum
        count for stories and blogs; for n-grams, the count at rank
        ``NGRAMS_TOP_RANK`` (1 for a table no longer than that)."""
        return self._default_threshold


@dataclass(frozen=True)
class SplitAssignment:
    assignment: dict[str, Split]
    ratios: tuple[float, float, float]
    seed: int


def load_stopwords(stream: IO[str]) -> set[str]:
    return {line.strip() for line in stream if line.strip()}


def default_stopwords() -> set[str]:
    """The shipped ~40-word list of articles, prepositions and auxiliaries."""
    text = resources.files("ifthen.data").joinpath("stopwords.txt").read_text("utf-8")
    return {line.strip() for line in text.splitlines() if line.strip()}


def load_name_lexicon(stream: IO[str]) -> set[str]:
    return {line.strip().lower() for line in stream if line.strip()}


def load_frequency_table(stream: IO[str]) -> FrequencyTable:
    """TSV ``verb<TAB>args<TAB>count<TAB>source``; all rows share one source."""
    counts: dict[tuple[str, str], int] = {}
    source: FrequencySource | None = None
    for line_no, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise IngestError(f"line {line_no}: expected 4 columns, got {len(cols)}")
        verb, args, count, src = cols
        try:
            counts[(verb, args)] = counts.get((verb, args), 0) + int(count)
        except ValueError:
            raise IngestError(f"line {line_no}: bad count {count!r}") from None
        row_source = FrequencySource(src)
        if source is None:
            source = row_source
        elif source is not row_source:
            raise IngestError(f"line {line_no}: mixed sources {source} and {row_source}")
    if source is None:
        raise IngestError("empty frequency table")
    return FrequencyTable(counts=counts, source=source)


def _split_possessive(token: str) -> tuple[str, str]:
    for suffix in ("'s", "s'"):
        if token.lower().endswith(suffix) and len(token) > len(suffix):
            return token[: -len(suffix)], token[-len(suffix):]
    return token, ""


def normalize_event(raw: str, name_lexicon: set[str]) -> EventPhrase:
    """Replace personal names with PersonX/Y/Z in first-mention order.

    ``name_lexicon`` holds lowercased names, as :func:`load_name_lexicon`
    returns them; a token matches when its lowercased form, less any
    possessive suffix, is in it. Repeated mentions of the same name map to
    the same variable; pre-existing person variables are left untouched
    and reserve their slot. More than three distinct names is an error.
    """
    if not raw.strip():
        raise IngestError("raw event must be non-empty")
    tokens = raw.split()

    used = {
        var for tok in tokens if (var := person_variable_of(tok)) is not None
    }
    free = [v for v in PERSON_VARIABLES if v not in used]
    mapping: dict[str, str] = {}
    out: list[str] = []
    for tok in tokens:
        if person_variable_of(tok) is not None:
            out.append(tok)
            continue
        base, suffix = _split_possessive(tok)
        key = base.lower()
        if key in name_lexicon:
            if key not in mapping:
                if not free:
                    raise IngestError(
                        f"more than {len(PERSON_VARIABLES)} distinct person "
                        f"references in {raw!r}"
                    )
                mapping[key] = free.pop(0)
            out.append(mapping[key] + suffix)
        else:
            out.append(tok)
    return EventPhrase.from_text(" ".join(out))


def blank_infrequent_args(
    event: EventPhrase, freq: FrequencyTable, threshold: int | None = None
) -> EventPhrase:
    """Replace infrequent argument spans with a single ``___`` placeholder.

    The verb predicate is the first non-person-variable token (events are
    verb phrases by construction) and is never blanked. An argument span
    is blanked when it occurs verbatim after the verb and its (verb, span)
    count falls below the threshold; spans absent from the table are kept.
    At each position the longest rare span wins, found by one lookup per
    span length in the table's per-verb index, so a call costs time in
    the event's length, not the table's.
    Idempotent: placeholders never match an argument string.
    """
    if threshold is None:
        threshold = freq.default_threshold()
    if threshold < 1:
        raise IngestError(f"threshold must be >= 1, got {threshold}")
    tokens = event.tokens
    verb = next(
        (t for t in tokens if person_variable_of(t) is None and t != BLANK_TOKEN),
        None,
    )
    if verb is None:
        raise IngestError(f"no identifiable verb token in {event.text!r}")

    spans, lengths = freq._spans.get(verb, ({}, ()))
    i = tokens.index(verb) + 1
    out = tokens[:i]
    while i < len(tokens):
        for n in lengths:
            if i + n <= len(tokens) and spans.get(tuple(tokens[i : i + n]), threshold) < threshold:
                out.append(BLANK_TOKEN)
                i += n
                break
        else:
            out.append(tokens[i])
            i += 1
    return EventPhrase.from_text(" ".join(out))


def content_key(event: EventPhrase, stopwords: set[str]) -> tuple[str, str]:
    """First two content tokens, lowercased; padded with "" when scarce.

    Person variables, blank placeholders and stopwords are not content.
    """
    content = []
    for tok in event.tokens:
        if person_variable_of(tok) is not None or tok == BLANK_TOKEN:
            continue
        low = tok.lower()
        if low in stopwords:
            continue
        content.append(low)
        if len(content) == 2:
            break
    while len(content) < 2:
        content.append("")
    return (content[0], content[1])


def check_ratios(ratios: tuple[float, ...]) -> None:
    """Raise :class:`IngestError` unless ``ratios`` are three non-negative
    train/dev/test shares that sum to 1."""
    if len(ratios) != 3 or not all(r >= 0 for r in ratios):
        raise IngestError(f"ratios must be three non-negative numbers, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise IngestError(f"ratios must sum to 1, got {ratios}")


def split_events(
    events: list[EventPhrase],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
    stopwords: set[str] | None = None,
) -> SplitAssignment:
    """Assign whole content-key groups to train/dev/test.

    Groups are shuffled by seed, then taken largest first; each group goes
    to the split with the largest remaining deficit against its event-count
    target (ties favor train, then dev). Events sharing a content key can
    therefore never land in different splits.
    """
    check_ratios(ratios)
    if stopwords is None:
        stopwords = default_stopwords()

    groups: dict[tuple[str, str], list[EventPhrase]] = {}
    for ev in events:
        groups.setdefault(content_key(ev, stopwords), []).append(ev)
    positive = sum(1 for r in ratios if r > 0)
    if len(groups) < positive:
        raise IngestError(
            f"{len(groups)} content-key groups cannot fill {positive} non-empty splits"
        )

    keys = sorted(groups)
    random.Random(seed).shuffle(keys)
    keys.sort(key=lambda k: -len(groups[k]))  # stable: keeps shuffle order for ties

    order = (Split.Train, Split.Dev, Split.Test)
    total = len(events)
    targets = {s: r * total for s, r in zip(order, ratios)}
    filled = {s: 0 for s in order}
    assignment: dict[str, Split] = {}
    for key in keys:
        best = max(order, key=lambda s: targets[s] - filled[s])
        filled[best] += len(groups[key])
        for ev in groups[key]:
            assignment[ev.text] = best
    return SplitAssignment(assignment=assignment, ratios=ratios, seed=seed)
