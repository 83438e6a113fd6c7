import importlib

import numpy as np
import pytest

from ifthen.graph import EventPhrase, InferenceTarget, Split, Triple, build_graph
from ifthen.seq2seq import ModelConfig, ModelVariant, init_params
from ifthen.seq2seq.vocab import RESERVED_TOKENS, VocabularyMap
from ifthen.taxonomy import Dimension


def make_triple(event, dim, target, worker="w1", split=Split.Train):
    return Triple(
        event=EventPhrase.from_text(event),
        dimension=Dimension(dim),
        target=InferenceTarget.from_text(target),
        worker_id=worker,
        split=Split(split),
    )


@pytest.fixture
def table1_triples():
    """Hand-built fixture mirroring well-known annotation rows."""
    rows = [
        ("PersonX pays PersonY a compliment", "xIntent", "PersonX wanted to be nice"),
        ("PersonX pays PersonY a compliment", "xReact", "PersonX will feel good"),
        ("PersonX pays PersonY a compliment", "oReact", "PersonY will feel flattered"),
        ("PersonX pays PersonY a compliment", "xWant", "PersonX will want to chat with PersonY"),
        ("PersonX pays PersonY a compliment", "oEffect", "PersonY will smile"),
        ("PersonX pays PersonY a compliment", "oWant", "PersonY will compliment PersonX back"),
        ("PersonX pays PersonY a compliment", "xAttr", "PersonX is flattering"),
        ("PersonX makes PersonY's coffee", "xIntent", "PersonX wanted to be helpful"),
        ("PersonX makes PersonY's coffee", "xNeed", "PersonX needs to put the coffee in the filter"),
        ("PersonX makes PersonY's coffee", "xEffect", "PersonX gets thanked"),
        ("PersonX calls the police", "xIntent", "PersonX wants to report a crime"),
        ("PersonX calls the police", "oReact", "none"),
    ]
    return [make_triple(e, d, t) for e, d, t in rows]


@pytest.fixture
def table1_graph(table1_triples):
    return build_graph(table1_triples)


def toy_vocab(size=30):
    extra = [f"w{i}" for i in range(size - len(RESERVED_TOKENS))]
    return VocabularyMap.from_tokens(list(RESERVED_TOKENS) + extra)


def toy_params(variant=ModelVariant.Single9, vocab_size=30, hidden=16, seed=0, **kw):
    config = ModelConfig(
        variant=variant,
        embed_dim=hidden,
        enc_hidden=hidden,
        dec_hidden=hidden,
        seed=seed,
        **kw,
    )
    return init_params(config, toy_vocab(vocab_size))


def random_instance(params, rng=None, event_len=4, target_len=3, dim=None):
    from ifthen.seq2seq.model import TrainingInstance

    rng = rng or np.random.default_rng(0)
    dims = params.decoder_dims
    if dim is None:
        dim = dims[int(rng.integers(len(dims)))]
    v = len(params.vocab)
    return TrainingInstance(
        event_ids=tuple(int(x) for x in rng.integers(8, v, size=event_len)),
        dimension=dim,
        target_ids=tuple(int(x) for x in rng.integers(8, v, size=target_len)),
    )


def poison_gradients(monkeypatch):
    """Make every batch's gradient NaN while its loss stays finite."""
    train_module = importlib.import_module("ifthen.seq2seq.train")
    real = train_module.batch_loss_and_grads

    def poisoned(params, batch, grads):
        losses = real(params, batch, grads)
        grads["embedding"][0, 0] = np.nan
        return losses

    monkeypatch.setattr(train_module, "batch_loss_and_grads", poisoned)
