"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The full-corpus check at the end only activates when the
``IFTHEN_FULL_ATLAS`` environment variable points at a released triple
file; otherwise it is skipped.
"""

import math
import os
import random
import time

import numpy as np
import pytest

from conftest import make_triple, toy_params

from oracles import (
    beam_search_reference,
    bleu2_oracle,
    enumerate_sequences,
    overlap_oracle,
    stats_oracle,
)

from test_generation import model_step_logprobs

from ifthen.evaluation import avg_topk_bleu, bleu2, is_instance_evaluable
from ifthen.generation import beam_search
from ifthen.graph import AtlasGraph, EventPhrase, InferenceTarget, build_graph, graph_stats
from ifthen.ingest import content_key, default_stopwords, split_events
from ifthen.overlap import (
    _GROUP_TABLE,
    DimensionGroup,
    ExternalEdge,
    normalize_concept,
    triple_overlap,
)
from ifthen.seq2seq import (
    ModelConfig,
    ModelVariant,
    batch_loss_and_grads,
    gradient_check,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sequence_loss,
    train,
)
from ifthen.seq2seq.model import TrainingInstance
from ifthen.seq2seq.vocab import build_vocab
from ifthen.taxonomy import (
    CausalCategory,
    Dimension,
    Subject,
    Volition,
    classify_dimension,
)

from ifthen import atlas_io

ALL_VARIANTS = (
    ModelVariant.Single9,
    ModelVariant.EventInvolEvent,
    ModelVariant.EventPersonXY,
    ModelVariant.EventPrePost,
)


def ok(message):
    print(f"PASS: {message}")


def test_taxonomy_counts():
    start = time.monotonic()
    coords = [classify_dimension(d) for d in Dimension]
    assert len(coords) == 9
    volition = [c.volition for c in coords]
    subject = [c.subject for c in coords]
    causal = [c.causal_category for c in coords]
    assert volition.count(Volition.Voluntary) == 4
    assert volition.count(Volition.Involuntary) == 5
    assert subject.count(Subject.Agent) == 6
    assert subject.count(Subject.Theme) == 3
    assert causal.count(CausalCategory.Cause) == 2
    assert causal.count(CausalCategory.Effect) == 6
    assert causal.count(CausalCategory.Stative) == 1
    assert time.monotonic() - start < 1.0
    ok("taxonomy counts 4/5 volition, 6/3 subject, 2/6/1 causal")


def test_split_bucketing():
    start = time.monotonic()
    rng = random.Random(0)
    events = []
    for i in range(1200):
        key = rng.randrange(300)
        events.append(
            EventPhrase.from_text(f"PersonX verb{key} noun{key} extra{i}")
        )
    stopwords = default_stopwords()
    assignment = split_events(events, (0.8, 0.1, 0.1), seed=7, stopwords=stopwords)

    groups = {}
    for ev in events:
        groups.setdefault(content_key(ev, stopwords), []).append(ev.text)
    for members in groups.values():
        splits = {assignment.assignment[m] for m in members}
        assert len(splits) == 1, f"group split across {splits}"

    counts = {}
    for s in assignment.assignment.values():
        counts[s.value] = counts.get(s.value, 0) + 1
    largest_group = max(len(m) for m in groups.values())
    total = len(events)
    for split_name, ratio in (("train", 0.8), ("dev", 0.1), ("test", 0.1)):
        assert abs(counts.get(split_name, 0) - ratio * total) <= largest_group
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(f"split bucketing: 1200 events, groups intact, sizes ~80/10/10 ({elapsed:.1f}s)")


def test_gradient_check_all_variants():
    start = time.monotonic()
    worst = 0.0
    for variant in ALL_VARIANTS:
        params = toy_params(variant, vocab_size=30, hidden=16, seed=1)
        rng = np.random.default_rng(2)
        dim = params.decoder_dims[int(rng.integers(len(params.decoder_dims)))]
        instance = TrainingInstance(
            event_ids=tuple(int(v) for v in rng.integers(8, 30, size=4)),
            dimension=dim,
            target_ids=tuple(int(v) for v in rng.integers(8, 30, size=3)),
        )
        err = gradient_check(params, instance, num_samples=200, seed=3)
        assert err < 1e-3, f"{variant.value}: {err:.3e}"
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok(f"gradient check: 4 variants, worst relative error {worst:.2e} ({elapsed:.1f}s)")


def test_uniform_loss_analytic():
    params = toy_params(seed=2)
    for dim in params.decoder_dims:
        params.arrays[f"decoder/{dim.value}/W_o"][:] = 0.0
        params.arrays[f"decoder/{dim.value}/b_o"][:] = 0.0
    inst = TrainingInstance((8, 9, 10), params.decoder_dims[0], (11, 12, 13))
    loss = sequence_loss(params, inst)
    assert abs(loss - math.log(len(params.vocab))) < 1e-12
    ok(f"uniform-loss analytic check: loss = ln|V| = {loss:.6f} to 1e-12")


def overfit_fixture():
    """50 events x 9 dimensions with memorizable targets.

    Targets for one dimension share a four-token prefix, so near-miss
    beams that only vary the last token still score well on BLEU.
    """
    triples = []
    for i in range(50):
        event = f"PersonX v{i % 10} n{i // 10}"
        for d, dim in enumerate(Dimension):
            target = f"p{d} q{d} r{d} s{d} t{i % 7}"
            triples.append(make_triple(event, dim.value, target, worker=f"w{i}"))
    return triples


def test_overfit_oracle():
    start = time.monotonic()
    triples = overfit_fixture()
    config = ModelConfig(
        variant=ModelVariant.EventInvolEvent,
        embed_dim=32,
        enc_hidden=32,
        dec_hidden=32,
        learning_rate=5e-3,
        batch_size=32,
        epochs=500,
        seed=0,
        max_decode_len=6,
        early_stop_loss=0.1,
    )
    vocab = build_vocab(triples, config.min_count)
    params = init_params(config, vocab)
    instances = [
        TrainingInstance(
            tuple(vocab.encode(t.event.tokens)),
            t.dimension,
            tuple(vocab.encode(t.target.text.split())),
        )
        for t in triples
    ]
    params, trace = train(params, instances)
    assert trace[-1] < 0.1, f"final loss {trace[-1]:.4f} after {len(trace)} epochs"

    gold = build_graph(triples)
    gens = [
        beam_search(params, t.event.text, t.dimension, beam_width=10)
        for t in triples
    ]
    report = avg_topk_bleu(gens, gold, k=10)
    overall = sum(report.bleu_by_dimension.values()) / len(report.bleu_by_dimension)
    assert overall >= 70.0, f"avg top-10 BLEU {overall:.1f}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    ok(
        f"overfit oracle: loss {trace[-1]:.3f} in {len(trace)} epochs, "
        f"avg top-10 BLEU {overall:.1f} ({elapsed:.0f}s)"
    )


def test_sharing_topology():
    for variant, n_enc, n_dec in (
        (ModelVariant.EventInvolEvent, 2, 9),
        (ModelVariant.EventPersonXY, 2, 9),
        (ModelVariant.EventPrePost, 2, 8),
    ):
        params = toy_params(variant)
        assert len(set(params.grouping.values())) == n_enc
        assert len(params.decoder_dims) == n_dec
    assert Dimension.xAttr not in toy_params(ModelVariant.EventPrePost).decoder_dims

    params = toy_params(ModelVariant.EventInvolEvent, seed=4)
    frozen = {
        n: a.copy()
        for n, a in params.arrays.items()
        if "involuntary" in n
    }
    grads = params.zero_grads()
    batch = [TrainingInstance((8, 9), Dimension.xWant, (10, 11))]
    batch_loss_and_grads(params, batch, grads)
    for name in frozen:
        assert np.all(grads[name] == 0.0), name
        np.testing.assert_array_equal(params.arrays[name], frozen[name])
    ok("sharing topology: 2/9, 2/9, 2/8 (xAttr absent); single-dim batch is local")


def test_beam_correctness():
    start = time.monotonic()
    # Vocabulary logically restricted to 5 emittable tokens by pinning the
    # output layer: everything outside the window gets -1e9 logits.
    params = toy_params(vocab_size=13, hidden=8, seed=9, max_decode_len=3)
    dim = params.decoder_dims[0]
    window = list(range(8, 13))
    mask = np.full(len(params.vocab), -1e9)
    mask[window] = 0.0
    mask[params.vocab.eos_id] = 0.0
    params.arrays[f"decoder/{dim.value}/b_o"] += mask

    step = model_step_logprobs(params, dim, [8, 9])
    oracle = enumerate_sequences(step, params.vocab.eos_id, max_len=3)
    width = len(oracle)
    result = beam_search(params, ["w0", "w1"], dim, beam_width=width, max_len=3)
    best = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
    for (o_ids, o_score), (tokens, score) in zip(best, result.entries):
        assert tuple(params.vocab.tokens[i] for i in o_ids) == tokens
        assert abs(o_score - score) < 1e-9

    single = beam_search(params, ["w0", "w1"], dim, beam_width=1, max_len=3)
    vocab = params.vocab
    (ids, score), = beam_search_reference(lambda consumed: step(consumed[1:]), vocab.bos_id,
                                          vocab.eos_id, vocab.unk_id, 1, 3, False)
    (tokens, single_score), = single.entries
    assert tokens == tuple(vocab.decode(list(ids))) and abs(single_score - score) < 1e-9
    assert time.monotonic() - start < 1.0
    ok(f"beam search: exhaustive width ({width}) equals brute force; width 1 = reference")


def test_bleu_oracle():
    rng = random.Random(0)
    alphabet = "a b c d e f".split()
    for _ in range(200):
        cand = [rng.choice(alphabet) for _ in range(rng.randint(0, 7))]
        refs = [
            [rng.choice(alphabet) for _ in range(rng.randint(1, 7))]
            for _ in range(rng.randint(1, 4))
        ]
        assert abs(bleu2(cand, refs) - bleu2_oracle(cand, refs)) < 1e-9
    assert abs(bleu2(["a", "b"], [["a", "b", "c", "d"]]) - math.exp(-1)) < 1e-4
    targets = [InferenceTarget.from_text(t) for t in ("none", "t1", "t2")]
    assert not is_instance_evaluable(targets)
    ok("BLEU: 200 oracle cases to 1e-9, exp(-1) closed form, 1/3-empty boundary")


def test_stats_and_overlap_oracles():
    rng = random.Random(1)
    verbs = [f"verb{i}" for i in range(40)]
    objs = [f"obj{i}" for i in range(60)]
    triples = []
    for i in range(5000):
        dim = rng.choice(list(Dimension))
        event = f"PersonX {rng.choice(verbs)} {rng.choice(objs)}"
        target = "none" if rng.random() < 0.05 else f"{rng.choice(objs)} {rng.choice(objs)}"
        triples.append(make_triple(event, dim.value, target, worker=f"w{i % 17}"))
    graph = build_graph(triples)

    report = graph_stats(graph)
    expected = stats_oracle(triples)
    assert report.triples_total == expected["triples_total"]
    assert report.nodes_total == expected["nodes_total"]
    assert report.base_event_count == expected["base_event_count"]
    for ct, n in expected["triples_by_content_type"].items():
        assert report.triples_by_content_type[ct] == n
    for ct, n in expected["nodes_by_content_type"].items():
        assert report.nodes_by_content_type[ct] == n

    relations = sorted({r for _, rels in _GROUP_TABLE.values() for r in rels})
    edges = {
        ExternalEdge(rng.choice(relations),
                     normalize_concept(f"{rng.choice(verbs)} {rng.choice(objs)}"),
                     normalize_concept(f"{rng.choice(objs)} {rng.choice(objs)}"))
        for _ in range(2000)
    }
    result = triple_overlap(graph, edges)
    for group, (dims, rels) in _GROUP_TABLE.items():
        assert abs(result[group] - overlap_oracle(graph, edges, normalize_concept, dims, rels)) < 1e-9
    ok("stats and overlap equal naive-scan oracles on 5000-triple fixture")


def test_round_trips(tmp_path):
    triples = overfit_fixture()[:90]
    tsv, jsonl = tmp_path / "a.tsv", tmp_path / "a.jsonl"
    with open(tsv, "w") as fh:
        atlas_io.write_atlas_tsv(triples, fh)
    parsed = atlas_io.parse_atlas_file(str(tsv))
    with open(jsonl, "w") as fh:
        atlas_io.write_atlas_jsonl(parsed, fh)
    reparsed = atlas_io.parse_atlas_file(str(jsonl))
    tsv2 = tmp_path / "b.tsv"
    with open(tsv2, "w") as fh:
        atlas_io.write_atlas_tsv(reparsed, fh)
    assert tsv.read_bytes() == tsv2.read_bytes()
    assert build_graph(reparsed) == build_graph(triples)

    def run_once(path):
        config = ModelConfig(
            variant=ModelVariant.EventPersonXY,
            embed_dim=12, enc_hidden=12, dec_hidden=12,
            epochs=2, batch_size=16, seed=5,
        )
        vocab = build_vocab(triples, 1)
        params = init_params(config, vocab)
        instances = [
            TrainingInstance(
                tuple(vocab.encode(t.event.tokens)), t.dimension,
                tuple(vocab.encode(t.target.text.split())),
            )
            for t in triples
        ]
        params, _ = train(params, instances)
        save_checkpoint(params, str(path))

    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    run_once(a)
    run_once(b)
    assert a.read_bytes() == b.read_bytes()
    loaded = load_checkpoint(str(a))
    c = tmp_path / "c.ckpt"
    save_checkpoint(loaded, str(c))
    assert a.read_bytes() == c.read_bytes()
    ok("round trips: TSV/JSONL/graph identity; checkpoints and seeded runs bit-exact")


FULL_ATLAS = os.environ.get("IFTHEN_FULL_ATLAS")


@pytest.mark.skipif(
    not FULL_ATLAS, reason="IFTHEN_FULL_ATLAS not set; full-corpus check inactive"
)
def test_full_atlas_counts():
    triples = atlas_io.parse_atlas_file(FULL_ATLAS)
    report = graph_stats(build_graph(triples))
    assert report.triples_total == 877_108
    assert report.base_event_count == 24_313
    assert report.nodes_total == 309_515
    ok(
        "full corpus: 877108 triples, 24313 base events, 309515 nodes; "
        f"avg words per node {report.avg_words_per_node} (reported only)"
    )
