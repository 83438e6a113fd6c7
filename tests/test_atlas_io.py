import io

import pytest

from conftest import make_triple

from ifthen.atlas_io import (
    AtlasFormatError,
    atomic_write,
    parse_atlas_jsonl,
    parse_atlas_tsv,
    write_atlas_jsonl,
    write_atlas_tsv,
)
from ifthen.graph import build_graph


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
