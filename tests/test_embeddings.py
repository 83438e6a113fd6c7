import io

import numpy as np
import pytest

from ifthen.seq2seq.embeddings import EmbeddingFormatError, load_embedding_file


def test_loads_vectors_skipping_comments_and_blank_lines():
    vectors = load_embedding_file(io.StringIO("# header\n\nwalks\t1 0.5\nruns\t-2 3e-1\n"))
    assert list(vectors) == ["walks", "runs"]
    assert np.array_equal(vectors["runs"], [-2.0, 0.3])


@pytest.mark.parametrize("text,message", [
    ("walks 1 2\n", "line 1: expected 2 columns, got 1"),
    ("walks\t1 two\n", "line 1: non-numeric value"),
    ("walks\t1 2\nruns\t1 2 3\n", "line 2: dimension 3 != 2"),
    ("walks\t\n", "line 1: no values"),
    ("walks\t1 2\nruns\t  \n", "line 2: no values"),
])
def test_malformed_line_named(text, message):
    with pytest.raises(EmbeddingFormatError, match=message):
        load_embedding_file(io.StringIO(text))


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_non_finite_value_rejected(value):
    with pytest.raises(EmbeddingFormatError, match="line 2: non-finite value"):
        load_embedding_file(io.StringIO(f"walks\t1 2\nruns\t0.5 {value}\n"))
