import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_triple
from oracles import event_phrase_reference

from ifthen.atlas_io import (
    AtlasFormatError,
    atomic_write,
    parse_atlas_jsonl,
    parse_atlas_tsv,
    write_atlas_jsonl,
    write_atlas_tsv,
)
from ifthen.graph import InferenceTarget, Split, Triple, build_graph
from ifthen.taxonomy import Dimension


@pytest.fixture
def fixture_triples():
    triples = []
    for i in range(10):
        triples.append(make_triple(f"PersonX does thing {i}", "xWant", f"outcome {i}", worker="w1"))
        triples.append(make_triple(f"PersonX does thing {i}", "xReact", "happy", worker="w2"))
    return triples


def test_tsv_round_trip_byte_identical(fixture_triples):
    buf1 = io.StringIO()
    write_atlas_tsv(fixture_triples, buf1)
    parsed = parse_atlas_tsv(io.StringIO(buf1.getvalue()))
    buf2 = io.StringIO()
    write_atlas_tsv(parsed, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_jsonl_round_trip_byte_identical(fixture_triples):
    buf1 = io.StringIO()
    write_atlas_jsonl(fixture_triples, buf1)
    parsed = parse_atlas_jsonl(io.StringIO(buf1.getvalue()))
    buf2 = io.StringIO()
    write_atlas_jsonl(parsed, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_tsv_and_jsonl_agree(fixture_triples):
    tsv = io.StringIO()
    jsonl = io.StringIO()
    write_atlas_tsv(fixture_triples, tsv)
    write_atlas_jsonl(fixture_triples, jsonl)
    assert parse_atlas_tsv(io.StringIO(tsv.getvalue())) == parse_atlas_jsonl(
        io.StringIO(jsonl.getvalue())
    )


@pytest.mark.parametrize("event, worker", [
    ("#metoo PersonX posts", "w1"),
    ("PersonX posts", "w\t1"),
    ("PersonX posts", "w\r1"),
    ("PersonX posts", "w\n1"),
], ids=["comment-line", "tab", "cr", "lf"])
def test_tsv_writer_refuses_a_line_that_reads_back_differently(event, worker):
    triples = [make_triple("PersonX naps", "xReact", "calm"),
               make_triple(event, "xWant", "to share", worker=worker)]
    with pytest.raises(ValueError) as refused:
        write_atlas_tsv(triples, io.StringIO())
    assert str(refused.value).startswith(f"triple {(event, 'xWant', 'to share', 'train', worker)}")
    jsonl = io.StringIO()
    write_atlas_jsonl(triples, jsonl)
    assert set(parse_atlas_jsonl(io.StringIO(jsonl.getvalue()))) == set(triples)


def test_graph_round_trip_identity(fixture_triples):
    graph = build_graph(fixture_triples)
    buf = io.StringIO()
    write_atlas_tsv(graph.to_triples(), buf)
    rebuilt = build_graph(parse_atlas_tsv(io.StringIO(buf.getvalue())))
    assert rebuilt.edges == graph.edges


def test_comments_and_blank_lines_skipped():
    text = (
        "# header comment\n"
        "\n"
        "PersonX naps\txReact\tcalm\ttrain\tw1\n"
        "# trailing comment\n"
    )
    triples = parse_atlas_tsv(io.StringIO(text))
    assert len(triples) == 1
    assert triples[0].event.text == "PersonX naps"


def test_unknown_dimension_names_line():
    text = "PersonX naps\txFoo\tcalm\ttrain\tw1\n"
    with pytest.raises(AtlasFormatError, match="line 1") as exc:
        parse_atlas_tsv(io.StringIO(text))
    assert "xFoo" in str(exc.value)


def test_unknown_split_names_line():
    text = "ok line\txReact\tcalm\ttrain\tw1\nPersonX naps\txReact\tcalm\tvalidation\tw1\n"
    with pytest.raises(AtlasFormatError, match="line 2"):
        parse_atlas_tsv(io.StringIO(text))


def test_wrong_column_count_names_line():
    with pytest.raises(AtlasFormatError, match="line 1.*columns"):
        parse_atlas_tsv(io.StringIO("only\tthree\tcolumns\n"))


def test_jsonl_unknown_key_rejected():
    line = (
        '{"event": "PersonX naps", "dimension": "xReact", "target": "calm",'
        ' "split": "train", "worker_id": "w1", "extra": 1}\n'
    )
    with pytest.raises(AtlasFormatError, match="unknown keys"):
        parse_atlas_jsonl(io.StringIO(line))


_VALID_JSON = ('{"dimension": "xReact", "event": "PersonX naps", "split": "train", '
               '"target": "calm", "worker_id": "w1"}')


@pytest.mark.parametrize("line, message", [
    ("5", "expected a JSON object, got 5"),
    ("null", "expected a JSON object, got null"),
    ("[1]", "expected a JSON object, got [1]"),
    ('"event"', 'expected a JSON object, got "event"'),
    (_VALID_JSON.replace('"PersonX naps"', "null"), "expected a string for 'event', got null"),
    (_VALID_JSON.replace('"w1"', "7"), "expected a string for 'worker_id', got 7"),
    (_VALID_JSON.replace('"calm"', '["calm"]'), "expected a string for 'target', got [\"calm\"]"),
], ids=["number", "null", "list", "string", "null-field", "number-field", "list-field"])
def test_jsonl_line_must_be_an_object_of_strings(line, message):
    with pytest.raises(AtlasFormatError) as exc:
        parse_atlas_jsonl(io.StringIO(f"{_VALID_JSON}\n{line}\n"))
    assert str(exc.value) == f"line 2: {message}"


def test_atomic_write_replaces_only_when_complete(tmp_path):
    path = tmp_path / "report.json"
    with atomic_write(str(path)) as fh:
        fh.write("first\n")
    assert path.read_text() == "first\n"
    with pytest.raises(OSError, match="disk full"):
        with atomic_write(str(path)) as fh:
            fh.write("half of the sec")
            raise OSError("disk full")
    assert path.read_text() == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def _lines(rows, fmt):
    if fmt == "tsv":
        return "".join("\t".join(row) + "\n" for row in rows)
    keys = ("event", "dimension", "target", "split", "worker_id")
    return "".join(json.dumps(dict(zip(keys, row))) + "\n" for row in rows)


def _parse(rows, fmt):
    parse = parse_atlas_tsv if fmt == "tsv" else parse_atlas_jsonl
    return parse(io.StringIO(_lines(rows, fmt)))


def _reference_parse(rows):
    """One triple per line, built from scratch, with the parser's messages."""
    triples = []
    for line_no, (event, dim, target, split, worker) in enumerate(rows, start=1):
        if dim not in {d.value for d in Dimension}:
            raise AtlasFormatError(line_no, f"unknown dimension name {dim!r}")
        if split not in {s.value for s in Split}:
            raise AtlasFormatError(line_no, f"unknown split label {split!r}")
        try:
            triples.append(Triple(event_phrase_reference(event), Dimension(dim),
                                  InferenceTarget.from_text(target), worker, Split(split)))
        except ValueError as exc:
            raise AtlasFormatError(line_no, str(exc)) from None
    return triples


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AtlasFormatError as exc:
        return exc.line_no, str(exc)


_EVENTS = ["PersonX runs", "PersonX  runs", "PersonX's dog runs", "PersonX meets PersonY'",
           "PersonX meets PersonY's cat", "PersonX calls Personal ___", "PersonW runs",
           "PersonX hugs PersonZ", "PersonY runs", "PersonY's dog barks", " ", ""]
_TARGETS = ["none", " none ", "to rest", "to  rest", "PersonX's nap", "___", " "]


class TestParseMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        pool=st.lists(
            st.tuples(st.sampled_from(_EVENTS), st.sampled_from(["xWant", "oReact", "xFoo"]),
                      st.sampled_from(_TARGETS), st.sampled_from(["train", "test", "val"]),
                      st.sampled_from(["w1", "w2"])),
            min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), max_size=20),
        fmt=st.sampled_from(["tsv", "jsonl"]),
    )
    def test_equals_per_line_construction(self, pool, picks, fmt):
        # Lines repeat rows of a small pool, so texts recur across lines.
        rows = [pool[i % len(pool)] for i in picks]
        got = _outcome(_parse, rows, fmt)
        assert got == _outcome(_reference_parse, rows)
        if isinstance(got, list):
            shared = {}
            for row, triple in zip(rows, got):
                assert shared.setdefault(("event", row[0]), triple.event) is triple.event
                assert shared.setdefault(("target", row[2]), triple.target) is triple.target


_VALID = ("PersonX naps", "xReact", "calm", "train", "w1")


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
@pytest.mark.parametrize("bad, message", [
    ({1: "xFoo"}, "unknown dimension name 'xFoo'"),
    ({3: "validation"}, "unknown split label 'validation'"),
    ({0: "PersonY naps"}, "event mentions ('PersonY',) without PersonX: 'PersonY naps'"),
    ({0: "PersonY's cat naps"},
     "event mentions ('PersonY',) without PersonX: \"PersonY's cat naps\""),
    ({0: "  "}, "event text must be non-empty"),
    ({2: " "}, "inference text must be non-empty or the 'none' sentinel"),
], ids=["dimension", "split", "person-y", "person-y-possessive", "event", "target"])
def test_error_after_repeated_valid_lines_names_its_line(fmt, bad, message):
    bad_row = tuple(bad.get(i, field) for i, field in enumerate(_VALID))
    with pytest.raises(AtlasFormatError) as exc:
        _parse([_VALID, _VALID, _VALID, bad_row, _VALID], fmt)
    assert exc.value.line_no == 4
    assert str(exc.value) == f"line 4: {message}"
