"""Ranked inference generation: beam search and the retrieval baseline.

Beam scores are raw (length-unnormalized) sums of token log-probabilities;
hypotheses retire on ``<eos>`` or at the length cap, each sequence is
listed once, and ties break lexicographically on token ids so results are
fully deterministic.

Each length step advances every alive hypothesis with one batched
``decode_step`` over a ``(B, H)`` state matrix and scores all ``B x V``
candidates as one array. Every ``<eos>`` candidate enters the pool of
finished hypotheses; of the rest, a partition finds the ``beam_width``-th
best score and only the candidates scoring at least that are sorted by
(-score, token ids), so the selection is exact, ties included.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from ifthen.graph import AtlasGraph, EventIndex, normalize_node_text, query_inferences
from ifthen.seq2seq.model import ModelParams, decode_step, initial_decoder_state
from ifthen.taxonomy import Dimension


@dataclass(frozen=True)
class GenerationList:
    """Ranked candidate inferences for one (event, dimension)."""

    event: str
    dimension: Dimension
    beam_width: int
    entries: tuple[tuple[tuple[str, ...], float], ...]

    def __post_init__(self) -> None:
        scores = [s for _, s in self.entries]
        if scores != sorted(scores, reverse=True):
            raise ValueError("entries must be sorted by score descending")
        if len(self.entries) > self.beam_width:
            raise ValueError("more entries than beam_width")
        texts = [t for t, _ in self.entries]
        if len(set(texts)) != len(texts):
            raise ValueError("duplicate sequences in generation list")

    @property
    def texts(self) -> list[str]:
        return [" ".join(tokens) for tokens, _ in self.entries]


def beam_search(
    params: ModelParams,
    event: str | list[str],
    dimension: Dimension,
    beam_width: int = 10,
    max_len: int | None = None,
    suppress_unk: bool = False,
) -> GenerationList:
    """Top ``beam_width`` decoded sequences by total log-probability.

    With ``suppress_unk`` the ``<unk>`` token is never emitted and the
    remaining probability mass is renormalized.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    dimension = Dimension(dimension)
    if max_len is None:
        max_len = params.config.max_decode_len
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    tokens = event.split() if isinstance(event, str) else list(event)
    event_ids = params.vocab.encode(tokens)
    eos = params.vocab.eos_id
    unk = params.vocab.unk_id

    # Alive hypotheses: their emitted ids, and row by row their scores,
    # decoder states and last consumed ids.
    alive: list[tuple[int, ...]] = [()]
    scores = np.zeros(1)
    states = initial_decoder_state(params, dimension, event_ids)[None]
    last = np.array([params.vocab.bos_id])
    pool: dict[tuple[int, ...], float] = {}

    for _ in range(max_len):
        probs, states = decode_step(params, dimension, states, last)
        cand = np.log(np.maximum(probs, 1e-300))
        if suppress_unk:
            cand -= np.log(np.maximum(1.0 - probs[:, unk], 1e-300))[:, None]
            cand[:, unk] = -math.inf
        cand += scores[:, None]
        # Alive hypotheses are distinct and one step longer than any
        # already in the pool, so no key repeats.
        pool.update(zip(alive, cand[:, eos].tolist()))
        if len(pool) > beam_width:
            # Completed scores are final, so only the best width can matter.
            pool = dict(
                sorted(pool.items(), key=lambda kv: (-kv[1], kv[0]))[:beam_width]
            )
        cand[:, eos] = -math.inf
        flat = cand.ravel()
        k = min(beam_width, int(np.count_nonzero(flat > -math.inf)))
        if k == 0:
            break
        # Sort exactly only the candidates scoring at least the k-th best.
        kth = np.partition(flat, flat.size - k)[flat.size - k]
        rows, toks = np.divmod(np.flatnonzero(flat >= kth), cand.shape[1])
        best = sorted(zip(rows.tolist(), toks.tolist()),
                      key=lambda c: (-cand[c], alive[c[0]], c[1]))[:k]
        rows, toks = map(list, zip(*best))
        alive = [alive[r] + (t,) for r, t in best]
        scores, states, last = cand[rows, toks], states[rows], np.array(toks)
    else:  # hypotheses still alive at the length cap
        pool.update(zip(alive, scores.tolist()))

    ranked = sorted(pool.items(), key=lambda kv: (-kv[1], kv[0]))[:beam_width]
    entries = tuple(
        (tuple(params.vocab.decode(list(ids))), score) for ids, score in ranked
    )
    return GenerationList(
        event=" ".join(tokens), dimension=dimension, beam_width=beam_width, entries=entries
    )


def greedy_decode(
    params: ModelParams,
    event: str | list[str],
    dimension: Dimension,
    max_len: int | None = None,
) -> tuple[tuple[str, ...], float]:
    """Argmax decoding; equals beam search at width 1."""
    result = beam_search(params, event, dimension, beam_width=1, max_len=max_len)
    return result.entries[0]


def nearest_neighbor_predict(
    train_graph: AtlasGraph,
    embeddings: dict[str, np.ndarray],
    event: str,
    dimension: Dimension,
    k: int = 10,
) -> GenerationList:
    """Retrieval baseline: targets of training events nearest in embedding space.

    Events are compared by cosine similarity of mean token embeddings;
    ties and an unrepresentable query (no known tokens) fall back to
    lexicographic event order.

    The graph's cached :attr:`AtlasGraph.event_index` supplies the events
    and their token ids; ``embeddings`` is read afresh on every call, so
    it may change between calls.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dimension = Dimension(dimension)
    index = train_graph.event_index.get(dimension)
    if index is None:
        return GenerationList(
            event=event, dimension=dimension, beam_width=k, entries=()
        )

    known = [embeddings[t] for t in normalize_node_text(event).split() if t in embeddings]
    if known:
        sims = _cosine_to_events(index, embeddings, np.mean(known, axis=0))
        # Events are in text order, so a stable sort breaks ties by text.
        order = np.argsort(-sims, kind="stable").tolist()
        scores = sims.tolist()
    else:
        # Unrepresentable query: lexicographic order with a neutral score.
        order = range(len(index.events))
        scores = [0.0] * len(index.events)

    entries: list[tuple[tuple[str, ...], float]] = []
    seen: set[tuple[str, ...]] = set()
    for i in order:
        ev = index.events[i]
        for target in sorted(
            query_inferences(train_graph, ev, dimension), key=lambda t: t.text
        ):
            tokens = tuple(normalize_node_text(target.text).split())
            if tokens in seen:
                continue
            seen.add(tokens)
            entries.append((tokens, scores[i]))
            if len(entries) == k:
                return GenerationList(
                    event=event, dimension=dimension, beam_width=k, entries=tuple(entries)
                )
    return GenerationList(
        event=event, dimension=dimension, beam_width=k, entries=tuple(entries)
    )


def _cosine_to_events(
    index: EventIndex, embeddings: dict[str, np.ndarray], query: np.ndarray
) -> np.ndarray:
    """Cosine of ``query`` with every indexed event's mean token embedding.

    An event with no known tokens, or a zero vector on either side, scores
    ``-inf``. Each score rounds as a per-event ``np.mean`` and ``np.dot``
    would, row by row, so events with equal mean vectors get equal scores,
    and events whose scores differ only by rounding keep their order.
    """
    zero = np.zeros(query.size)
    # Unknown tokens and the padding (the last row) add zero and count 0.
    table = np.array([embeddings.get(t, zero) for t in index.tokens] + [zero])
    known = np.array([t in embeddings for t in index.tokens] + [False])
    ids = index.token_ids
    # Summed column by column, so each event's known tokens add up in text
    # order, as np.mean adds them, wherever its unknown ones sit.
    means = table[ids[:, 0]]
    for col in range(1, ids.shape[1]):
        means += table[ids[:, col]]
    means /= np.maximum(known[ids].sum(axis=1), 1)[:, None]
    # np.vecdot takes one BLAS dot per row, like np.dot and np.linalg.norm.
    denom = np.sqrt(query @ query) * np.sqrt(np.vecdot(means, means))
    sims = np.full(len(index.events), -math.inf)
    np.divide(np.vecdot(means, query), denom, out=sims, where=denom > 0)
    return sims


def write_generations(generations: Iterable[GenerationList], stream: IO[str]) -> None:
    """JSON-lines dump: one record per (event, dimension)."""
    for gen in generations:
        stream.write(
            json.dumps(
                {
                    "event": gen.event,
                    "dimension": gen.dimension.value,
                    "beam_width": gen.beam_width,
                    "entries": [
                        {"text": " ".join(tokens), "score": score}
                        for tokens, score in gen.entries
                    ],
                },
                ensure_ascii=False,
                sort_keys=True,
            )
            + "\n"
        )


def read_generations(stream: IO[str]) -> list[GenerationList]:
    out = []
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            out.append(
                GenerationList(
                    event=record["event"],
                    dimension=Dimension(record["dimension"]),
                    beam_width=record["beam_width"],
                    entries=tuple(
                        (tuple(e["text"].split()), float(e["score"]))
                        for e in record["entries"]
                    ),
                )
            )
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ValueError(f"generation dump line {line_no}: {exc}") from None
    return out
