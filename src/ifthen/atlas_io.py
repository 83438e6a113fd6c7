"""Reading and writing the canonical triple file formats.

Two equivalent encodings: a five-column UTF-8 TSV
(``event<TAB>dimension<TAB>target<TAB>split<TAB>worker_id``) and a
JSON-lines file with the same five keys. ``none`` is the
empty-annotation sentinel. Writers emit canonical order (event text,
dimension name, target text, worker id) so write-then-parse is
byte-identical on well-formed input.

Every line file the package reads goes through :func:`data_lines` and
:func:`line_message`, every tab-separated one through :func:`tab_fields`
and :func:`tab_line`, and every JSON-lines one through :func:`json_value`,
:func:`json_fields` and :func:`json_line`. :func:`atomic_write` is how the
package writes its output files.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
from typing import IO, Iterable, Iterator

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


def data_lines(stream: Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line_no, text)`` for each line that is neither blank (empty or
    whitespace only) nor a ``#`` comment, numbered from 1 over all lines,
    with its newline removed."""
    for line_no, line in enumerate(stream, start=1):
        text = line.rstrip("\n")
        if text and not text.isspace() and text[0] != "#":
            yield line_no, text


def line_message(line_no: int, error: ValueError | str) -> str:
    """How a reader names the line an error was found on."""
    return f"line {line_no}: {error}"


def tab_fields(text: str, count: int) -> list[str]:
    """The tab-separated fields of a data line; raises ``ValueError``
    unless there are ``count`` of them."""
    fields = text.split("\t")
    if len(fields) != count:
        raise ValueError(f"expected {count} column{'s' if count > 1 else ''}, got {len(fields)}")
    return fields


def tab_line(kind: str, fields: tuple[str, ...]) -> str:
    """The line, newline included, that reads back as ``fields``. Raises
    ``ValueError``, naming the ``kind`` of record and its fields, when a
    field holds a tab, CR or LF, or the line would start with ``#``."""
    line = "\t".join(fields)
    if (line.startswith("#") or line.count("\t") != len(fields) - 1
            or "\n" in line or "\r" in line):
        raise ValueError(f"{kind} {fields} has no TSV line: a field holds a tab or "
                         f"line break, or the line would start with '#'")
    return line + "\n"


def _finite_float(text: str) -> float:
    # An overflowing literal such as -1e999 parses to an infinity.
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_reject_constant)
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False)
_KINDS = {str: "a string", int: "an integer", float: "a float", list: "a list"}


def json_value(text: str, finite: bool = True):
    """The JSON value of a data line or file, under RFC 8259: ``NaN``,
    ``Infinity`` and a literal that overflows a float raise ``ValueError``
    (or, if not ``finite``, read as floats), as does too deep nesting."""
    try:
        return _DECODER.decode(text) if finite else json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None


def json_fields(value, kinds: dict[str, type]) -> list:
    """The values of a JSON object that has exactly the keys of ``kinds``,
    in its order. Raises ``ValueError``, naming the key, on a value not of
    its kind: a bool is never a number, and an int is a float unless it is
    too large for one."""
    if type(value) is not dict:
        raise ValueError(f"expected a JSON object, got {json.dumps(value)}")
    if value.keys() != kinds.keys():
        missing = [k for k in kinds if k not in value]
        raise ValueError(f"missing keys {missing}" if missing
                         else f"unknown keys {[k for k in value if k not in kinds]}")
    fields = []
    for key, kind in kinds.items():
        field = value[key]
        if kind is float and type(field) is int:
            with contextlib.suppress(OverflowError):
                field = float(field)
        if type(field) is not kind:
            raise ValueError(f"expected {_KINDS[kind]} for {key!r}, got {json.dumps(field)}")
        fields.append(field)
    return fields


def json_line(record: dict) -> str:
    """``record`` as one JSON line, newline included, with sorted keys and
    unescaped non-ASCII text. Raises ``ValueError`` on a non-finite number,
    which JSON cannot hold."""
    return _ENCODER.encode(record) + "\n"


class AtlasFormatError(ValueError):
    """Malformed triple file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(line_message(line_no, message))
        self.line_no = line_no


_DIMENSIONS = {d.value: d for d in Dimension}
_SPLITS = {s.value: s for s in Split}
# Enum.value runs Python code on each read; the writers read names from here.
_NAMES = {member: name for name, member in (*_DIMENSIONS.items(), *_SPLITS.items())}


def _parse(stream: IO[str], jsonl: bool) -> list[Triple]:
    """Triples in file order, from TSV or JSON lines.

    Triples with equal event (or target) text share one phrase object,
    built once per parse.
    """
    event_of = functools.cache(EventPhrase.from_text)
    target_of = functools.cache(InferenceTarget.from_text)
    dimension_of, split_of = _DIMENSIONS.get, _SPLITS.get
    columns, kinds = len(TSV_COLUMNS), dict.fromkeys(TSV_COLUMNS, str)
    triples = []
    for line_no, text in data_lines(stream):
        try:
            event_text, dim_name, target_text, split_label, worker_id = (
                json_fields(json_value(text), kinds) if jsonl else tab_fields(text, columns))
            dimension = dimension_of(dim_name)
            if dimension is None:
                raise ValueError(f"unknown dimension name {dim_name!r}")
            split = split_of(split_label)
            if split is None:
                raise ValueError(f"unknown split label {split_label!r}")
            event, target = event_of(event_text), target_of(target_text)
        except ValueError as exc:
            raise AtlasFormatError(line_no, str(exc)) from None
        triples.append(Triple(event, dimension, target, worker_id, split))
    return triples


def parse_atlas_tsv(stream: IO[str]) -> list[Triple]:
    """Triples in file order; triples with equal event (or target) text
    share one phrase object."""
    return _parse(stream, jsonl=False)


def parse_atlas_jsonl(stream: IO[str]) -> list[Triple]:
    """Like :func:`parse_atlas_tsv`, for JSON lines whose five fields are
    all strings."""
    return _parse(stream, jsonl=True)


def _canonical(triples: Iterable[Triple]) -> list[Triple]:
    return sorted(
        triples,
        key=lambda t: (t.event.text, _NAMES[t.dimension], t.target.text, t.worker_id),
    )


def write_atlas_tsv(triples: Iterable[Triple], stream: IO[str]) -> None:
    """Raises ``ValueError``, naming the triple, on one that would not read
    back as written (see :func:`tab_line`)."""
    for t in _canonical(triples):
        stream.write(tab_line("triple", (t.event.text, _NAMES[t.dimension], t.target.text,
                                         _NAMES[t.split], t.worker_id)))


def write_atlas_jsonl(triples: Iterable[Triple], stream: IO[str]) -> None:
    for t in _canonical(triples):
        stream.write(json_line({"event": t.event.text, "dimension": _NAMES[t.dimension],
                                "target": t.target.text, "split": _NAMES[t.split],
                                "worker_id": t.worker_id}))


def parse_atlas_file(path: str) -> list[Triple]:
    """Parse a triple file, dispatching on extension (.jsonl vs TSV)."""
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".jsonl"):
            return parse_atlas_jsonl(fh)
        return parse_atlas_tsv(fh)


def write_atlas_file(triples: Iterable[Triple], path: str) -> None:
    """Write a triple file through :func:`atomic_write`, in the format
    :func:`parse_atlas_file` reads from that path."""
    with atomic_write(path) as fh:
        if path.endswith(".jsonl"):
            write_atlas_jsonl(triples, fh)
        else:
            write_atlas_tsv(triples, fh)
