"""Deterministic, bit-exact checkpoint serialization.

Layout: one JSON header line (format version, config, vocabulary, tensor
manifest with shapes, all keys sorted) followed by the raw little-endian
float64 bytes of every tensor, concatenated in the canonical flattening
order. Format 2 stores each recurrent cell as its stacked ``W``, ``U`` and
``b`` tensors (z, r, n row blocks); a file in any other format is
refused. Writing the same model twice yields byte-identical files. A
write goes to a sibling temporary file that replaces the target only
once complete, so a failed write leaves any previous checkpoint intact.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from ifthen.atlas_io import atomic_write, json_value
from ifthen.seq2seq.config import ModelConfig
from ifthen.seq2seq.model import ModelParams, _param_shapes
from ifthen.seq2seq.vocab import VocabularyMap

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def save_checkpoint(params: ModelParams, path: str) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "config": params.config.to_dict(),
        "vocab": list(params.vocab.tokens),
        "tensors": [
            {"name": name, "shape": list(params.arrays[name].shape)}
            for name in params.param_order
        ],
    }
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for name in params.param_order:
            arr = np.ascontiguousarray(params.arrays[name], dtype="<f8")
            fh.write(arr.tobytes())


def _read_header(fh) -> tuple[ModelConfig, VocabularyMap, list[str], dict[str, tuple]]:
    """Config, vocabulary and tensor manifest, checked against the config."""
    try:
        header = json_value(fh.readline().decode("utf-8"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise CheckpointError(f"bad checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError("bad checkpoint header: not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {header.get('format_version')}"
        )
    try:
        config = ModelConfig.from_dict(header["config"])
        vocab = VocabularyMap.from_tokens(header["vocab"])
        names = [spec["name"] for spec in header["tensors"]]
        shapes = {spec["name"]: tuple(spec["shape"]) for spec in header["tensors"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed checkpoint header: {type(exc).__name__}: {exc}"
        ) from None
    expected = _param_shapes(config, len(vocab))
    if names != list(expected):
        raise CheckpointError("tensor manifest does not match the canonical order")
    if shapes != expected:
        raise CheckpointError("tensor shapes do not match the config and vocabulary")
    return config, vocab, names, shapes


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        config, vocab, names, shapes = _read_header(fh)
        # Checked before any tensor is read, so a header that promises
        # more data than the file holds allocates nothing.
        expected = 8 * sum(math.prod(shapes[name]) for name in names)
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held != expected:
            raise CheckpointError(
                f"the header's tensors take {expected} bytes, but {held} follow it")
        arrays = {
            name: np.frombuffer(fh.read(8 * math.prod(shapes[name])), dtype="<f8")
            .reshape(shapes[name]).copy()
            for name in names
        }
    return ModelParams(config=config, vocab=vocab, arrays=arrays, param_order=names)
