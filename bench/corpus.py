"""Seeded synthetic if-then atlas, shaped like the paper's corpus.

Everything here is a pure function of the seed: the same seed gives
byte-identical files. Tokens are pseudo-words built from syllables, so
no corpus or word list has to be downloaded. Frequencies are Zipfian:
verbs, argument words and target words are each drawn with probability
proportional to ``1 / rank``.

Run ``python3 bench/corpus.py --workload train --seed 1 --out DIR`` to
write the inputs of one workload into ``DIR``; ``bench/run.py`` does
this in a child process before it measures anything.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

DIMS = ("xIntent", "xNeed", "xAttr", "xEffect", "xReact", "xWant",
        "oEffect", "oReact", "oWant")
# Dimensions whose answers are verb phrases ("to ...") versus single
# descriptive words; the rest are short free phrases.
TO_DIMS = frozenset({"xIntent", "xNeed", "xWant", "oWant"})
WORD_DIMS = frozenset({"xAttr", "xReact", "oReact"})
ARTICLES = ("a", "the", "to", "with", "at")  # all in the package stopword list
RELATIONS = ("MotivatedByGoal", "HasSubevent", "Causes", "CausesDesire",
             "HasPrerequisite", "HasProperty", "HasLastSubevent", "Entails")

# Corpus shape. ``train``/``generate`` use the desk-scale atlas; ``atlas``
# uses a raw file with names for ingest and a separate atlas for the
# graph paths.
SHAPE = {
    "events": 2000,          # distinct base events of the desk atlas
    "workers": 2,            # annotations per (event, dimension)
    "verbs": 320,
    "arg_words": 1100,
    "target_words": 1900,
    "names": 3000,
    "none_share": 0.08,      # share of annotations that are the empty sentinel
    "persony_share": 0.40,   # events that mention PersonY
    "blank_share": 0.12,     # events that already carry a ``___``
    "raw_events": 400,       # raw ingest events, with names, per atlas run
    "raw_chunk_events": 4,   # events per ingest call
    "freq_rows": 4000,       # rows of the (verb, argument) frequency table
    "graph_events": 350,     # events of the atlas read by stats/split/overlap
    "ext_edges": 12000,      # rows of the external edge file
}

_CONS = "bdfgklmnprstvz"
_VOWS = "aeiou"


def _zipf_weights(n: int) -> list[float]:
    return [1.0 / (r + 1) for r in range(n)]


class Lexicon:
    """Disjoint pools of pseudo-words: verbs, argument words, targets, names."""

    def __init__(self, rng: random.Random):
        syll = [c + v for c in _CONS for v in _VOWS]
        need = SHAPE["verbs"] + SHAPE["arg_words"] + SHAPE["target_words"] + SHAPE["names"]
        words: list[str] = []
        seen = set(ARTICLES) | {"none", "personx", "persony", "personz"}
        while len(words) < need:
            w = "".join(rng.choice(syll) for _ in range(rng.choice((2, 2, 3))))
            if rng.random() < 0.3:
                w += rng.choice("nrsl")
            if w not in seen:
                seen.add(w)
                words.append(w)
        a = SHAPE["verbs"]
        b = a + SHAPE["arg_words"]
        c = b + SHAPE["target_words"]
        self.verbs = [w + "s" for w in words[:a]]
        self.args = words[a:b]
        self.targets = words[b:c]
        self.names = [w.capitalize() for w in words[c:]]
        self.verb_w = _zipf_weights(len(self.verbs))
        self.arg_w = _zipf_weights(len(self.args))
        self.target_w = _zipf_weights(len(self.targets))


def _pick(rng: random.Random, pool: list[str], weights: list[float], k: int = 1) -> list[str]:
    return rng.choices(pool, weights=weights, k=k)


def make_events(rng: random.Random, lex: Lexicon, count: int) -> list[tuple[str, ...]]:
    """Distinct base events as token tuples: PersonX, verb, [PersonY], args."""
    events: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    while len(events) < count:
        toks = ["PersonX", _pick(rng, lex.verbs, lex.verb_w)[0]]
        if rng.random() < SHAPE["persony_share"]:
            toks.append(rng.choice(("PersonY", "PersonY", "PersonY's")))
        if rng.random() < 0.5:
            toks.append(rng.choice(ARTICLES))
        toks += _pick(rng, lex.args, lex.arg_w, rng.choice((1, 1, 2, 2, 3)))
        if rng.random() < SHAPE["blank_share"]:
            toks.insert(len(toks) - 1, "___")
        ev = tuple(toks)
        if ev not in seen:
            seen.add(ev)
            events.append(ev)
    return events


def make_target(rng: random.Random, lex: Lexicon, dim: str) -> str:
    if rng.random() < SHAPE["none_share"]:
        return "none"
    # Each dimension prefers its own slice of the target pool.
    offset = DIMS.index(dim) * 37
    pool = lex.targets[offset:] + lex.targets[:offset]
    if dim in WORD_DIMS:
        return _pick(rng, pool, lex.target_w)[0]
    words = _pick(rng, pool, lex.target_w, rng.choice((1, 2, 2, 3, 3, 4)))
    if dim in TO_DIMS:
        words = ["to"] + words
    elif dim.startswith("o") and rng.random() < 0.3:
        words = ["PersonY"] + words
    return " ".join(words)


def content_group(event: tuple[str, ...]) -> tuple[str, str]:
    """First two content words, the way the grouped split keys events."""
    content = [t for t in event if not t.startswith("Person") and t != "___"
               and t not in ARTICLES]
    return (content + ["", ""])[0], (content + ["", ""])[1]


def assign_splits(rng: random.Random, events) -> dict[tuple[str, ...], str]:
    """80/10/10 by content group, so no group spans two splits."""
    groups = sorted({content_group(ev) for ev in events})
    label = {}
    for g in groups:
        r = rng.random()
        label[g] = "train" if r < 0.8 else ("dev" if r < 0.9 else "test")
    return {ev: label[content_group(ev)] for ev in events}


def make_triples(rng, lex, events, splits) -> list[tuple[str, str, str, str, str]]:
    """(event, dim, target, split, worker) rows, several workers per pair."""
    rows = []
    for ev in events:
        text = " ".join(ev)
        for dim in DIMS:
            for w in range(SHAPE["workers"]):
                worker = f"w{rng.randrange(60):02d}_{w}"
                rows.append((text, dim, make_target(rng, lex, dim), splits[ev], worker))
    return rows


def tsv_lines(rows) -> str:
    return "".join("\t".join(r) + "\n" for r in rows)


def corpus_stats(rows) -> dict:
    """Shape of a triple list, recorded next to the workload's numbers."""
    distinct = {(" ".join(e.lower().split()), d, " ".join(t.lower().split()))
                for e, d, t, _, _ in rows}
    events = {e for e, _, _, _, _ in rows}
    targets = [t for _, _, t, _, _ in rows if t != "none"]
    o_edges = [e for e, d, _ in distinct if d.startswith("o")]
    return {
        "triples": len(rows),
        "distinct_triples": len(distinct),
        "events": len(events),
        "mean_event_len": round(sum(len(e.split()) for e in events) / len(events), 3),
        "mean_target_len": round(sum(len(t.split()) for t in targets) / len(targets), 3),
        "none_share": round(1 - len(targets) / len(rows), 4),
        "o_edges_without_persony_share": round(
            sum(1 for e in o_edges if "persony" not in e) / max(len(o_edges), 1), 4),
    }


def desk_atlas(seed: int):
    """The desk-scale atlas shared by the ``train`` and ``generate`` workloads."""
    rng = random.Random(f"ifthen-bench-atlas-{seed}")
    lex = Lexicon(rng)
    events = make_events(rng, lex, SHAPE["events"])
    return make_triples(rng, lex, events, assign_splits(rng, events))


def write_desk_inputs(seed: int, out: str, with_model_inputs: bool) -> dict:
    rows = desk_atlas(seed)
    with open(os.path.join(out, "atlas.tsv"), "w", encoding="utf-8") as fh:
        fh.write(tsv_lines(rows))
    info = {"corpus": corpus_stats(rows)}
    if with_model_inputs:
        info.update(_write_model_inputs(seed, out, rows))
    return info


def _write_model_inputs(seed: int, out: str, rows) -> dict:
    """Untrained checkpoint with frequency-shaped output biases, and embeddings."""
    import numpy as np

    from ifthen.graph import EventPhrase, InferenceTarget, Split, Triple
    from ifthen.seq2seq import ModelConfig, ModelVariant, build_vocab, init_params
    from ifthen.seq2seq import save_checkpoint
    from ifthen.taxonomy import Dimension

    train = [Triple(EventPhrase.from_text(e), Dimension(d), InferenceTarget.from_text(t),
                    w, Split(s)) for e, d, t, s, w in rows if s == "train"]
    vocab = build_vocab(train)
    config = ModelConfig(variant=ModelVariant.EventInvolEvent, seed=seed,
                         max_decode_len=10)
    params = init_params(config, vocab)
    counts = np.full(len(vocab), 0.5)
    for t in train:
        if not t.target.is_empty:
            for tok in vocab.encode(t.target.tokens):
                counts[tok] += 1.0
            counts[vocab.eos_id] += 1.0
    for special in (vocab.pad_id, vocab.bos_id, vocab.unk_id):
        counts[special] = 1e-6
    bias = np.log(counts / counts.sum())
    for dim in params.decoder_dims:
        params.arrays[f"decoder/{dim.value}/b_o"][:] = bias
    save_checkpoint(params, os.path.join(out, "model.ckpt"))

    rs = np.random.default_rng(seed)
    with open(os.path.join(out, "vectors.tsv"), "w", encoding="utf-8") as fh:
        for tok in sorted(vocab.tokens):
            vec = rs.standard_normal(32)
            fh.write(tok.lower() + "\t" + " ".join(f"{v:.6f}" for v in vec) + "\n")
    return {"vocab_size": len(vocab)}


def write_atlas_inputs(seed: int, out: str) -> dict:
    """Inputs of the ``atlas`` workload.

    * ``raw_NNN.tsv``: triples whose events name people instead of using
      person variables, split into fixed-size chunks, one per ingest call;
    * ``names.txt``: the name lexicon; ``freq.tsv``: a Zipfian
      (verb, argument) table whose tail falls under the blanking cutoff;
    * ``graph_atlas.tsv`` and ``edges.tsv``: the atlas read by
      ``stats``/``split``/``overlap`` and an external edge file that
      shares part of its concepts.
    """
    rng = random.Random(f"ifthen-bench-ingest-{seed}")
    lex = Lexicon(rng)
    names = list(lex.names)
    with open(os.path.join(out, "names.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(n + "\n" for n in names))

    raw_events = make_events(rng, lex, SHAPE["raw_events"])
    splits = assign_splits(rng, raw_events)
    name_w = _zipf_weights(len(names))
    raw_triples = 0
    chunk = SHAPE["raw_chunk_events"]
    n_chunks = 0
    for start in range(0, len(raw_events), chunk):
        rows = []
        for ev in raw_events[start:start + chunk]:
            x, y = _pick(rng, names, name_w, 2)
            while y == x:
                y = _pick(rng, names, name_w)[0]
            raw = " ".join(x if t == "PersonX" else y if t == "PersonY"
                           else y + "'s" if t == "PersonY's" else t for t in ev)
            for dim in DIMS:
                for w in range(SHAPE["workers"]):
                    rows.append((raw, dim, make_target(rng, lex, dim), splits[ev],
                                 f"w{rng.randrange(60):02d}_{w}"))
        raw_triples += len(rows)
        with open(os.path.join(out, f"raw_{n_chunks:03d}.tsv"), "w", encoding="utf-8") as fh:
            fh.write(tsv_lines(rows))
        n_chunks += 1

    # Frequency table: every verb with its Zipfian arguments; counts follow
    # a Zipf law too, so a long tail sits below the stories cutoff of 5.
    freq_rows = []
    seen = set()
    while len(freq_rows) < SHAPE["freq_rows"]:
        verb = _pick(rng, lex.verbs, lex.verb_w)[0]
        span = " ".join(_pick(rng, lex.args, lex.arg_w, rng.choice((1, 1, 2))))
        if (verb, span) in seen:
            continue
        seen.add((verb, span))
        count = int(rng.paretovariate(1.0))
        freq_rows.append((verb, span, str(count), "stories"))
    with open(os.path.join(out, "freq.tsv"), "w", encoding="utf-8") as fh:
        fh.write(tsv_lines(freq_rows))

    graph_events = make_events(rng, lex, SHAPE["graph_events"])
    graph_rows = make_triples(rng, lex, graph_events, assign_splits(rng, graph_events))
    with open(os.path.join(out, "graph_atlas.tsv"), "w", encoding="utf-8") as fh:
        fh.write(tsv_lines(graph_rows))

    # External edges: one in twenty reuses an atlas (event, target) pair under a
    # related relation, the rest are random concept pairs.
    def concept(text: str) -> str:
        toks = [t for t in text.split() if not t.startswith("Person")]
        return " ".join(toks)

    edges = set()
    while len(edges) < SHAPE["ext_edges"]:
        if rng.random() < 0.05:
            e, _, t, _, _ = rng.choice(graph_rows)
            if t == "none":
                continue
            edges.add((rng.choice(RELATIONS), concept(e), concept(t) or t))
        else:
            a = " ".join(_pick(rng, lex.args, lex.arg_w, 2))
            b = " ".join(_pick(rng, lex.targets, lex.target_w, rng.choice((1, 2))))
            edges.add((rng.choice(RELATIONS), a, b))
    with open(os.path.join(out, "edges.tsv"), "w", encoding="utf-8") as fh:
        fh.write(tsv_lines(sorted(edges)))

    return {
        "corpus": corpus_stats(graph_rows),
        "raw_chunks": n_chunks,
        "raw_triples": raw_triples,
        "names": len(names),
        "freq_rows": len(freq_rows),
        "ext_edges": len(edges),
    }


def write_inputs(workload: str, seed: int, out: str) -> dict:
    os.makedirs(out, exist_ok=True)
    if workload == "atlas":
        info = write_atlas_inputs(seed, out)
    else:
        info = write_desk_inputs(seed, out, with_model_inputs=(workload == "generate"))
    info["seed"] = seed
    with open(os.path.join(out, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "generate", "atlas"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    sys.exit(main())
