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
import functools
import json
import os
from typing import IO, Callable, Iterable

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


def _parse(stream: IO[str], fields_of: Callable[[int, str], list[str]]) -> list[Triple]:
    """Triples in file order; ``fields_of(line_no, line)`` gives each
    non-blank, non-comment line's fields in ``TSV_COLUMNS`` order.

    Triples with equal event (or target) text share one phrase object,
    built once per parse.
    """
    event_of = functools.cache(EventPhrase.from_text)
    target_of = functools.cache(InferenceTarget.from_text)
    triples = []
    for line_no, line in enumerate(stream, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        event_text, dim_name, target_text, split_label, worker_id = fields_of(line_no, line)
        dimension = _DIMENSIONS.get(dim_name)
        if dimension is None:
            raise AtlasFormatError(line_no, f"unknown dimension name {dim_name!r}")
        split = _SPLITS.get(split_label)
        if split is None:
            raise AtlasFormatError(line_no, f"unknown split label {split_label!r}")
        try:
            event, target = event_of(event_text), target_of(target_text)
        except ValueError as exc:
            raise AtlasFormatError(line_no, str(exc)) from None
        triples.append(Triple(event, dimension, target, worker_id, split))
    return triples


def _tsv_fields(line_no: int, line: str) -> list[str]:
    cols = line.rstrip("\n").split("\t")
    if len(cols) != len(TSV_COLUMNS):
        raise AtlasFormatError(
            line_no, f"expected {len(TSV_COLUMNS)} columns, got {len(cols)}"
        )
    return cols


def _jsonl_fields(line_no: int, line: str) -> list[str]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise AtlasFormatError(line_no, f"invalid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise AtlasFormatError(line_no, f"expected a JSON object, got {json.dumps(record)}")
    missing = [k for k in TSV_COLUMNS if k not in record]
    if missing:
        raise AtlasFormatError(line_no, f"missing keys {missing}")
    extra = [k for k in record if k not in TSV_COLUMNS]
    if extra:
        raise AtlasFormatError(line_no, f"unknown keys {extra}")
    for k in TSV_COLUMNS:
        if not isinstance(record[k], str):
            raise AtlasFormatError(
                line_no, f"expected a string for {k!r}, got {json.dumps(record[k])}")
    return [record[k] for k in TSV_COLUMNS]


def parse_atlas_tsv(stream: IO[str]) -> list[Triple]:
    """Triples in file order; triples with equal event (or target) text
    share one phrase object."""
    return _parse(stream, _tsv_fields)


def parse_atlas_jsonl(stream: IO[str]) -> list[Triple]:
    """Like :func:`parse_atlas_tsv`, for JSON lines whose five fields are
    all strings."""
    return _parse(stream, _jsonl_fields)


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
