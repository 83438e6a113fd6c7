"""Static embedding files: ``token<TAB>f1 f2 ... fd`` with d >= 1, UTF-8."""

from __future__ import annotations

from typing import IO

import numpy as np

from ifthen.atlas_io import data_lines, line_message, tab_fields


class EmbeddingFormatError(ValueError):
    pass


def load_embedding_file(stream: IO[str]) -> dict[str, np.ndarray]:
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for line_no, text in data_lines(stream):
        try:
            token, values = tab_fields(text, 2)
            try:
                vec = np.array([float(v) for v in values.split()], dtype=float)
            except ValueError:
                raise ValueError("non-numeric value") from None
            if not vec.size:
                raise ValueError("no values")
            if not np.isfinite(vec).all():
                raise ValueError("non-finite value")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ValueError(f"dimension {vec.size} != {dim}")
        except ValueError as exc:
            raise EmbeddingFormatError(line_message(line_no, exc)) from None
        vectors[token] = vec
    return vectors
