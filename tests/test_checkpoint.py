import json
import sys

import numpy as np
import pytest

from conftest import toy_params

from ifthen.seq2seq import (
    ModelConfig,
    ModelVariant,
    VocabularyMap,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from ifthen.seq2seq.vocab import RESERVED_TOKENS
from ifthen.seq2seq.checkpoint import CheckpointError


@pytest.mark.parametrize(
    "variant",
    [
        ModelVariant.Single9,
        ModelVariant.EventInvolEvent,
        ModelVariant.EventPersonXY,
        ModelVariant.EventPrePost,
    ],
)
def test_round_trip_bit_exact(variant, tmp_path):
    params = toy_params(variant, seed=21)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.config == params.config
    assert loaded.vocab == params.vocab
    assert loaded.param_order == params.param_order
    for name in params.param_order:
        np.testing.assert_array_equal(loaded.arrays[name], params.arrays[name])


# Settings at the edges of what a config may hold, and tokens that JSON
# must escape; every header that save_checkpoint writes must load.
EDGE_SETTINGS = {
    "defaults": {},
    "extremes": {"learning_rate": sys.float_info.max, "clip_norm": 5e-324,
                 "early_stop_loss": -sys.float_info.max, "seed": 2**64, "epochs": 10**18,
                 "max_decode_len": 1, "batch_size": 1, "min_count": 1},
    "zeros": {"learning_rate": 0.0, "clip_norm": 0.0, "early_stop_loss": 0.0, "seed": 0},
}


@pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("settings", EDGE_SETTINGS.values(), ids=EDGE_SETTINGS.keys())
def test_every_header_save_writes_loads(variant, settings, tmp_path):
    tokens = ["caf\u00e9", '"quoted"', "back\\slash", "tab\tnewline\n", "\u2028", "\ud800"]
    config = ModelConfig(variant=variant, embed_dim=4, enc_hidden=4, dec_hidden=4, **settings)
    params = init_params(config, VocabularyMap.from_tokens(list(RESERVED_TOKENS) + tokens))
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.config == params.config
    assert loaded.vocab == params.vocab


@pytest.mark.parametrize("header", [b"[" * 200_000, b'{"format_version": Infinity}'],
                         ids=["nested-too-deeply", "infinity"])
def test_unreadable_header_rejected(header, tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(header + b"\n")
    with pytest.raises(CheckpointError, match="^bad checkpoint header: "):
        load_checkpoint(str(path))


def test_save_twice_identical_bytes(tmp_path):
    params = toy_params(seed=22)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, str(a))
    save_checkpoint(params, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_rewrite_after_load_identical_bytes(tmp_path):
    params = toy_params(ModelVariant.EventPrePost, seed=23)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, str(a))
    save_checkpoint(load_checkpoint(str(a)), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_truncated_file_rejected(tmp_path):
    params = toy_params(seed=24)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_trailing_bytes_rejected(tmp_path):
    params = toy_params(seed=25)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, str(path))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_garbage_header_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"not json\n\x00\x01")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def rewrite_header(path, mutate):
    line, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    mutate(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + rest)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda h: h.pop("config"),
        lambda h: h.pop("vocab"),
        lambda h: h.pop("tensors"),
        lambda h: h["tensors"][0].pop("name"),
        lambda h: h["tensors"][3].pop("shape"),
        lambda h: h["tensors"][3].update(shape=[2, 2]),
        lambda h: h["config"].update(epochs="2"),
        lambda h: h["config"].update(learning_rate=None),
        lambda h: h["config"].update(variant="no-such-variant"),
        lambda h: h["config"].update(variant="nearest-neighbor"),
        lambda h: h.update(vocab="not a token list"),
        lambda h: h.update(format_version=1),
    ],
    ids=["no-config", "no-vocab", "no-tensors", "no-name", "no-shape", "wrong-shape",
         "str-epochs", "null-rate", "bad-variant", "removed-variant", "bad-vocab",
         "format-1"],
)
def test_malformed_header_rejected(mutate, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_params(seed=26), str(path))
    rewrite_header(path, mutate)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_non_object_header_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"[1, 2]\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(toy_params(seed=27), str(path))
    before = path.read_bytes()
    real = np.ascontiguousarray
    calls = []

    def fail_mid_write(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", fail_mid_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(toy_params(seed=28), str(path))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
