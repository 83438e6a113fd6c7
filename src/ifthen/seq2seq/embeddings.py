"""Static embedding files: ``token<TAB>f1 f2 ... fd`` with d >= 1, UTF-8."""

from __future__ import annotations

from typing import IO

import numpy as np


class EmbeddingFormatError(ValueError):
    pass


def load_embedding_file(stream: IO[str]) -> dict[str, np.ndarray]:
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for line_no, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise EmbeddingFormatError(f"line {line_no}: expected token<TAB>floats")
        token, values = parts
        try:
            vec = np.array([float(v) for v in values.split()], dtype=float)
        except ValueError:
            raise EmbeddingFormatError(f"line {line_no}: non-numeric value") from None
        if not vec.size:
            raise EmbeddingFormatError(f"line {line_no}: no values")
        if not np.isfinite(vec).all():
            raise EmbeddingFormatError(f"line {line_no}: non-finite value")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise EmbeddingFormatError(
                f"line {line_no}: dimension {vec.size} != {dim}"
            )
        vectors[token] = vec
    return vectors

