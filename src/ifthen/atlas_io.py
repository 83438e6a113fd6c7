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


def _triple_from_fields(line_no: int, fields: dict[str, str]) -> Triple:
    try:
        dimension = Dimension(fields["dimension"])
    except ValueError:
        raise AtlasFormatError(
            line_no, f"unknown dimension name {fields['dimension']!r}"
        ) from None
    try:
        split = Split(fields["split"])
    except ValueError:
        raise AtlasFormatError(
            line_no, f"unknown split label {fields['split']!r}"
        ) from None
    try:
        event = EventPhrase.from_text(fields["event"])
        target = InferenceTarget.from_text(fields["target"])
    except ValueError as exc:
        raise AtlasFormatError(line_no, str(exc)) from None
    return Triple(
        event=event,
        dimension=dimension,
        target=target,
        worker_id=fields["worker_id"],
        split=split,
    )


def parse_atlas_tsv(stream: IO[str]) -> list[Triple]:
    triples = []
    for line_no, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != len(TSV_COLUMNS):
            raise AtlasFormatError(
                line_no, f"expected {len(TSV_COLUMNS)} columns, got {len(cols)}"
            )
        triples.append(_triple_from_fields(line_no, dict(zip(TSV_COLUMNS, cols))))
    return triples


def parse_atlas_jsonl(stream: IO[str]) -> list[Triple]:
    triples = []
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
        triples.append(
            _triple_from_fields(line_no, {k: str(record[k]) for k in TSV_COLUMNS})
        )
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
