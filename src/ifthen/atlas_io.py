"""Reading and writing the canonical triple file formats.

Two equivalent encodings: a five-column UTF-8 TSV
(``event<TAB>dimension<TAB>target<TAB>split<TAB>worker_id``) and a
JSON-lines file with the same five keys. ``#``-prefixed lines are
comments; ``none`` is the empty-annotation sentinel. Writers emit
canonical order (event text, dimension name, target text, worker id)
so write-then-parse is byte-identical on well-formed input.
:func:`atomic_write` is how the package writes its output files.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import IO, Iterable

from ifthen.graph import EventPhrase, InferenceTarget, Split, Triple
from ifthen.taxonomy import Dimension

TSV_COLUMNS = ("event", "dimension", "target", "split", "worker_id")


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Open a sibling temporary file that replaces ``path`` once complete.

    A failure before the end leaves any previous file at ``path`` intact
    and removes the temporary file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class AtlasFormatError(ValueError):
    """Malformed triple file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_DIMENSIONS = {d.value: d for d in Dimension}
_SPLITS = {s.value: s for s in Split}


def _triple_from_fields(
    line_no: int,
    fields: list[str],
    events: dict[str, EventPhrase],
    targets: dict[str, InferenceTarget],
) -> Triple:
    """One triple from ``fields`` in ``TSV_COLUMNS`` order.

    ``events`` and ``targets`` hold the phrases already built by this
    parse, keyed by raw text; a new text's phrase is added once it has
    been built without error.
    """
    event_text, dim_name, target_text, split_label, worker_id = fields
    dimension = _DIMENSIONS.get(dim_name)
    if dimension is None:
        raise AtlasFormatError(line_no, f"unknown dimension name {dim_name!r}")
    split = _SPLITS.get(split_label)
    if split is None:
        raise AtlasFormatError(line_no, f"unknown split label {split_label!r}")
    event = events.get(event_text)
    target = targets.get(target_text)
    if event is None or target is None:
        try:
            if event is None:
                event = events[event_text] = EventPhrase.from_text(event_text)
            if target is None:
                target = targets[target_text] = InferenceTarget.from_text(target_text)
        except ValueError as exc:
            raise AtlasFormatError(line_no, str(exc)) from None
    return Triple(
        event=event,
        dimension=dimension,
        target=target,
        worker_id=worker_id,
        split=split,
    )


def parse_atlas_tsv(stream: IO[str]) -> list[Triple]:
    """Triples in file order; triples with equal event (or target) text
    share one phrase object."""
    triples = []
    events: dict[str, EventPhrase] = {}
    targets: dict[str, InferenceTarget] = {}
    for line_no, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != len(TSV_COLUMNS):
            raise AtlasFormatError(
                line_no, f"expected {len(TSV_COLUMNS)} columns, got {len(cols)}"
            )
        triples.append(_triple_from_fields(line_no, cols, events, targets))
    return triples


def parse_atlas_jsonl(stream: IO[str]) -> list[Triple]:
    """Like :func:`parse_atlas_tsv`, for JSON lines."""
    triples = []
    events: dict[str, EventPhrase] = {}
    targets: dict[str, InferenceTarget] = {}
    for line_no, line in enumerate(stream, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AtlasFormatError(line_no, f"invalid JSON: {exc}") from None
        missing = [k for k in TSV_COLUMNS if k not in record]
        if missing:
            raise AtlasFormatError(line_no, f"missing keys {missing}")
        extra = [k for k in record if k not in TSV_COLUMNS]
        if extra:
            raise AtlasFormatError(line_no, f"unknown keys {extra}")
        triples.append(_triple_from_fields(
            line_no, [str(record[k]) for k in TSV_COLUMNS], events, targets))
    return triples


def _canonical(triples: Iterable[Triple]) -> list[Triple]:
    return sorted(
        triples,
        key=lambda t: (t.event.text, t.dimension.value, t.target.text, t.worker_id),
    )


def write_atlas_tsv(triples: Iterable[Triple], stream: IO[str]) -> None:
    for t in _canonical(triples):
        stream.write(
            "\t".join(
                (t.event.text, t.dimension.value, t.target.text, t.split.value, t.worker_id)
            )
            + "\n"
        )


def write_atlas_jsonl(triples: Iterable[Triple], stream: IO[str]) -> None:
    for t in _canonical(triples):
        stream.write(
            json.dumps(
                {
                    "event": t.event.text,
                    "dimension": t.dimension.value,
                    "target": t.target.text,
                    "split": t.split.value,
                    "worker_id": t.worker_id,
                },
                ensure_ascii=False,
                sort_keys=True,
            )
            + "\n"
        )


def parse_atlas_file(path: str) -> list[Triple]:
    """Parse a triple file, dispatching on extension (.jsonl vs TSV)."""
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".jsonl"):
            return parse_atlas_jsonl(fh)
        return parse_atlas_tsv(fh)
