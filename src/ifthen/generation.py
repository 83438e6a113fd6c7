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

Once the pool holds ``beam_width`` finished hypotheses, a step decodes
only the alive rows scoring at least the pool's worst, and the search
stops when none is left. The prune is exact: a step adds
``log(max(p, 1e-300))`` with ``p = e / s`` from the softmax, where ``s``
is a sum of non-negative terms that include ``e``, so every increment is
at most 0 in floating point and nothing grown from a dropped row can enter
the pool's top ``beam_width`` or displace a kept candidate. Ties with the
pool's worst are kept, because ties break on token ids. Fewer rows can
round the output product differently (BLAS picks kernels by row count),
so scores may differ from the unpruned search's in their last bits. Under
``suppress_unk`` the renormalized increment ``log(p) - log(1 - p_unk)``
can be positive, so that search is not pruned and runs to the cap.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from ifthen.graph import AtlasGraph, EventIndex, normalize_node_text
from ifthen.seq2seq.model import ModelParams, decode_step, initial_decoder_state
from ifthen.taxonomy import Dimension


@dataclass(frozen=True, slots=True)
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

    Without ``suppress_unk``, once ``beam_width`` hypotheses have finished,
    only the alive rows scoring at least the worst of them are decoded, and
    the search ends when none is left; increments are never positive, so
    the result equals the unpruned search run to the cap.
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
        # Scores never rise (see the module docstring), so a row below the
        # full pool's worst cannot reach the result.
        if not suppress_unk and len(pool) == beam_width:
            keep = np.flatnonzero(scores >= min(pool.values()))
            if keep.size == 0:
                break
            alive = [alive[i] for i in keep.tolist()]
            scores, states, last = scores[keep], states[keep], last[keep]
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


def nearest_neighbor_predict(
    train_graph: AtlasGraph,
    embeddings: dict[str, np.ndarray],
    event: str,
    dimension: Dimension,
    k: int = 10,
) -> GenerationList:
    """Retrieval baseline: targets of training events nearest in embedding space.

    Events are compared by cosine similarity of mean token embeddings;
    ties fall back to lexicographic event order. Training events that
    cannot be compared (no known token, or a zero mean vector) are left
    out. An unrepresentable query (no known token, or a zero mean vector)
    lists every event in lexicographic order with score 0.0, so every
    score is finite.

    The graph's cached :attr:`AtlasGraph.event_index` supplies the events,
    their token ids and the target token tuples that the entries share;
    ``embeddings`` is read afresh on every call, so it may change.
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
    query = np.mean(known, axis=0) if known else None
    if query is not None and query @ query > 0:
        sims = _cosine_to_events(index, embeddings, query)
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
        if scores[i] == -math.inf:
            break  # this event and all after it cannot be compared
        for tokens in index.targets[i]:
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
    ``-inf``, below every cosine. Each score rounds as a per-event
    ``np.mean`` and ``np.dot`` would, row by row, so events with equal mean
    vectors get equal scores, and events whose scores differ only by
    rounding keep their order.
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


def write_generations(generations: Iterable[GenerationList], stream: IO[str]) -> int:
    """JSON-lines dump: one record per (event, dimension), written as each
    list arrives; returns the number of lists written.

    Raises ``ValueError`` on a non-finite score, which JSON cannot hold.
    """
    count = 0
    for count, gen in enumerate(generations, start=1):
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
                allow_nan=False,
            )
            + "\n"
        )
    return count


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    # An overflowing literal such as -1e999 parses to an infinity.
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _typed(value, kind: type | tuple[type, ...], name: str):
    # bool is an int subclass, but JSON true/false is no number.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{json.dumps(value)} is not {name}")
    return value


def _score(value) -> float:
    # Floats are finite already (_finite_float); an int literal may overflow.
    try:
        return float(_typed(value, (int, float), "a number"))
    except OverflowError:
        raise ValueError(f"{value} is not a finite number") from None


def read_generations(stream: IO[str]) -> list[GenerationList]:
    """Parse a :func:`write_generations` dump; a malformed line, including
    one holding a non-finite score or a field of the wrong type, raises
    ``ValueError`` naming it.

    Entries with the same text share one token tuple.
    """
    out = []
    tokens_of = functools.cache(lambda text: tuple(text.split()))
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            record = _typed(
                json.loads(line, parse_constant=_reject_constant,
                           parse_float=_finite_float),
                dict, "an object")
            entries = []
            for e in _typed(record["entries"], list, "a list"):
                text = _typed(_typed(e, dict, "an object")["text"], str, "a string")
                entries.append((tokens_of(text), _score(e["score"])))
            out.append(
                GenerationList(
                    event=_typed(record["event"], str, "a string"),
                    dimension=Dimension(record["dimension"]),
                    beam_width=_typed(record["beam_width"], int, "an integer"),
                    entries=tuple(entries),
                )
            )
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ValueError(f"generation dump line {line_no}: {exc}") from None
    return out
