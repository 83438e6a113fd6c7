"""Gated-recurrent encoder-decoder core with hand-derived backpropagation.

Everything runs in double precision on plain numpy arrays. A model is a
flat name->array dict plus a fixed flattening order, which makes shared
encoders literal shared objects, keeps checkpoints bit-exact, and lets
the gradient checker treat parameters as one vector.

Architecture: a shared embedding table feeds bidirectional gated
recurrent encoders (one per encoder group, each direction hidden size
h_enc/2, final states concatenated); an affine bridge per encoder group
initializes the per-dimension unidirectional decoder, whose state is
projected to vocabulary logits through W_o, b_o.

One batched engine runs a whole minibatch: :func:`batch_losses` is its
forward pass and :func:`batch_loss_and_grads` adds the backward pass;
both share one forward step, and every other entry point is a call into
their pieces. Each cell is three tensors, ``W (3H, I)``, ``U (3H, H)``
and ``b (3H,)``, whose row blocks are its z, r and n gates; parameters,
gradients, optimizer state and checkpoints all use this layout. A batch
is grouped by encoder for the encoder pass and by dimension for the
decoder pass, and :class:`_Recurrence` alone sorts, packs and lays out
the rows of every group. The input projection of all timesteps is one
GEMM per group, leaving only ``U h`` in the recurrence, and every weight
gradient is one GEMM over all valid timesteps (the cuDNN RNN recipe of
Appleyard et al. 2016, arXiv:1604.01946, on CPU BLAS).

Independent recurrences share one time loop, as cuDNN batches them:
every decoder of a batch runs in one loop, and so do both directions of
every encoder. Step t concatenates every group's live rows into one
block, so one :func:`gru_step` (and one :func:`gru_step_backward`)
advances all of them, and only the ``U h`` products are taken group by
group. Each of those is a product of exactly the group's live rows, so
every bit equals that of the group run alone; finished rows take no
part, and nothing is padded. :func:`decode_step` is the same step with
one group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ifthen.graph import Triple
from ifthen.seq2seq.config import ModelConfig, encoder_grouping
from ifthen.seq2seq.vocab import VocabularyMap
from ifthen.taxonomy import Dimension


@dataclass(frozen=True, slots=True)
class TrainingInstance:
    """One worker's annotation as an (event ids, dimension, target ids) triple."""

    event_ids: tuple[int, ...]
    dimension: Dimension
    target_ids: tuple[int, ...]


class ModelParams:
    """Parameter container for one model variant.

    ``arrays`` maps structured names (``embedding``, ``encoder/<id>/fwd/W``,
    ``bridge/<id>/W``, ``decoder/<dim>/W_o``, ...) to float64 arrays;
    ``param_order`` is the canonical flattening order used by checkpoints,
    the optimizer, and the gradient checker.
    """

    def __init__(
        self,
        config: ModelConfig,
        vocab: VocabularyMap,
        arrays: dict[str, np.ndarray],
        param_order: list[str],
    ):
        self.config = config
        self.vocab = vocab
        self.grouping = encoder_grouping(config.variant)
        self.arrays = arrays
        self.param_order = param_order
        # initial_decoder_state's last encoding (None before the first) of
        # each encoder that two or more dimensions share; no other is kept.
        eids = list(self.grouping.values())
        self._encodings: dict[str, tuple | None] = {e: None for e in eids if eids.count(e) > 1}

    @property
    def decoder_dims(self) -> list[Dimension]:
        return sorted(self.grouping, key=lambda d: d.value)

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros(arr.shape) for name, arr in self.arrays.items()}

    def tensors_of(self, dimension) -> list[str]:
        """The tensors an instance of ``dimension`` routes through, in
        ``param_order``: the embedding, its encoder's cells and bridge, and
        its own decoder. Every other gradient of such an instance is zero."""
        dimension, eid = _encoder_of(self, dimension)
        owned = (f"encoder/{eid}/", f"bridge/{eid}/", f"decoder/{dimension.value}/")
        return [n for n in self.param_order if n == "embedding" or n.startswith(owned)]


def _param_shapes(config: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape, keyed by name in the canonical flattening order."""
    grouping = encoder_grouping(config.variant)
    shapes: dict[str, tuple[int, ...]] = {"embedding": (vocab_size, config.embed_dim)}

    def add_cell(prefix: str, hidden: int) -> None:
        shapes[f"{prefix}/W"] = (3 * hidden, config.embed_dim)
        shapes[f"{prefix}/U"] = (3 * hidden, hidden)
        shapes[f"{prefix}/b"] = (3 * hidden,)

    for eid in sorted(set(grouping.values())):
        shapes[f"bridge/{eid}/W"] = (config.dec_hidden, config.enc_hidden)
        shapes[f"bridge/{eid}/b"] = (config.dec_hidden,)
        for direction in ("fwd", "bwd"):
            add_cell(f"encoder/{eid}/{direction}", config.enc_hidden // 2)
    for dim in sorted(grouping, key=lambda d: d.value):
        add_cell(f"decoder/{dim.value}", config.dec_hidden)
        shapes[f"decoder/{dim.value}/W_o"] = (vocab_size, config.dec_hidden)
        shapes[f"decoder/{dim.value}/b_o"] = (vocab_size,)
    return shapes


def init_params(
    config: ModelConfig,
    vocab: VocabularyMap,
    pretrained_embeddings: dict[str, np.ndarray] | None = None,
) -> ModelParams:
    """Random initialization, deterministic given ``config.seed``.

    Known tokens may be seeded from a static embedding table; its vectors
    must match ``embed_dim``.
    """
    rng = np.random.default_rng(config.seed)
    shapes = _param_shapes(config, len(vocab))
    arrays = {}
    for name, shape in shapes.items():
        if name in arrays:  # a cell's U, drawn with its W
            continue
        prefix, _, kind = name.rpartition("/")
        if kind in ("b", "b_o"):
            arrays[name] = np.zeros(shape)
        elif kind == "W" and f"{prefix}/U" in shapes:
            # One draw fills a cell's W and U: per gate, in z, r, n order,
            # its W block and then its U block.
            hidden, inputs = shape[0] // 3, shape[1]
            draw = rng.uniform(-0.08, 0.08, size=(3, hidden * (inputs + hidden)))
            arrays[name] = draw[:, : hidden * inputs].reshape(shape)
            arrays[f"{prefix}/U"] = draw[:, hidden * inputs :].reshape(3 * hidden, hidden)
        else:
            scale = 0.1 if name == "embedding" else 0.08
            arrays[name] = rng.uniform(-scale, scale, size=shape)
    if pretrained_embeddings:
        emb = arrays["embedding"]
        for token, vec in pretrained_embeddings.items():
            idx = vocab.token_to_id.get(token)
            if idx is None:
                continue
            vec = np.asarray(vec, dtype=float)
            if vec.shape != (config.embed_dim,):
                raise ValueError(
                    f"embedding for {token!r} has dim {vec.shape}, "
                    f"expected ({config.embed_dim},)"
                )
            emb[idx] = vec
    return ModelParams(config, vocab, arrays, list(shapes))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function, overwriting ``x``."""
    np.negative(x, out=x)
    # exp(-x) overflows to inf for x below about -709; the result, 0, is exact.
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, overwriting ``logits``.

    In place because a decoder group's logits are (tokens, V) and would
    otherwise be copied three times.
    """
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _output(params: ModelParams, prefix: str, states: np.ndarray) -> np.ndarray:
    """A decoder's next-token distribution for each row of ``states``."""
    logits = states @ params.arrays[f"{prefix}/W_o"].T
    logits += params.arrays[f"{prefix}/b_o"]
    return _softmax(logits)


def _blocks(u: np.ndarray, hidden: int) -> tuple[np.ndarray, ...]:
    """A cell's ``U`` as the operands of its recurrent products: ``U_zr^T``
    and ``U_n^T`` for :func:`gru_step`, ``U_n`` and ``U_zr`` for
    :func:`gru_step_backward`."""
    u_zr, u_n = u[: 2 * hidden], u[2 * hidden :]
    return u_zr.T, u_n.T, u_n, u_zr


def _matmul(a: np.ndarray, b, runs) -> np.ndarray:
    """``a @ b[g]`` for the rows ``lo:hi`` of every run ``(g, lo, hi)``.

    Each run is its own 2-D product, so its rows round as the group alone
    would: numpy takes gemv for one row, and a BLAS may pick its kernel by
    the row count (OpenBLAS has a small-matrix kernel), which changes a
    row's last bits.
    """
    if len(runs) == 1:
        return a @ b[runs[0][0]]
    out = np.empty((len(a), b[0].shape[1]))
    for g, lo, hi in runs:
        np.matmul(a[lo:hi], b[g], out=out[lo:hi])
    return out


def gru_step(blocks, gx: np.ndarray, h_prev: np.ndarray, runs):
    """One gated-recurrent step of rows that may belong to different cells.

    Rows ``lo:hi`` of each run ``(g, lo, hi)`` use the cell whose
    :func:`_blocks` are ``blocks[k][g]``; the runs cover every row.
    ``gx`` is the hoisted input projection ``x W^T + b``, stacked z, r, n
    like the cell; only the recurrent ``U h`` products happen here.
    Returns the new state and a backprop cache.
    """
    hidden = h_prev.shape[1]
    zr = _matmul(h_prev, blocks[0], runs)
    zr += gx[:, : 2 * hidden]
    _sigmoid(zr)
    z, r = zr[:, :hidden], zr[:, hidden:]
    n = _matmul(r * h_prev, blocks[1], runs)
    n += gx[:, 2 * hidden :]
    np.tanh(n, out=n)
    h = (1.0 - z) * n + z * h_prev
    return h, (h_prev, z, r, n)


def gru_step_backward(blocks, cache, dh: np.ndarray, runs):
    """Backprop one :func:`gru_step`.

    Returns the gate pre-activation gradients ``(rows, 3H)``, stacked like
    ``gx``, and the gradient reaching ``h_prev``. Weight gradients are
    formed later from the pre-activation gradients of all steps at once.
    """
    h_prev, z, r, n = cache
    hidden = h_prev.shape[1]
    dpre = np.empty((len(dh), 3 * hidden))
    dz = dh * (h_prev - n)
    dn = dh * (1.0 - z)
    dn_pre = dpre[:, 2 * hidden :]
    dn_pre[...] = dn * (1.0 - n * n)
    drh = _matmul(dn_pre, blocks[2], runs)
    dr = drh * h_prev
    dpre[:, :hidden] = dz * z * (1.0 - z)
    dpre[:, hidden : 2 * hidden] = dr * r * (1.0 - r)
    dh_prev = dh * z + drh * r + _matmul(dpre[:, : 2 * hidden], blocks[3], runs)
    return dpre, dh_prev


def _span(rows: np.ndarray):
    """Increasing row numbers, as a slice when they are consecutive, so
    that indexing with them takes a view instead of a copy."""
    if rows[-1] - rows[0] == len(rows) - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


class _Recurrence:
    """Cells run side by side, each over its own group of sequences, in one
    time loop.

    Group g runs the cell ``prefixes[g]`` over the id sequences ``seqs[g]``,
    started from ``h0[g]``, both in input order; all cells share one hidden
    size H. Each group is sorted longest first, so at step t its live
    sequences are a prefix of it. ``states`` holds the initial states, then
    each step's block of rows; a block is laid out group by group, each
    group's live rows in sorted order. So one :func:`gru_step` (and one
    :func:`gru_step_backward` on the way back) advances every group, each
    group's rows are one run of the block, and there is no padding.

    A group's packed rows are its states after each step, time-major. For
    each one, ``seq[g]`` names its sequence (in input order) and
    ``lengths[g]`` holds every sequence's length.
    """

    def __init__(self, params: ModelParams, prefixes, seqs, h0):
        self.prefixes = prefixes
        arrays = params.arrays
        self.w = [arrays[f"{prefix}/W"] for prefix in prefixes]
        hidden = arrays[f"{prefixes[0]}/U"].shape[1]
        self.blocks = list(zip(*(_blocks(arrays[f"{p}/U"], hidden) for p in prefixes)))
        self.lengths = [np.fromiter(map(len, group), np.intp, len(group)) for group in seqs]
        orders = [np.argsort(-n, kind="stable") for n in self.lengths]
        edges = np.cumsum([0, *map(len, seqs)])
        col_lengths = np.concatenate([n[order] for n, order in zip(self.lengths, orders)])
        # Column c is the c-th sorted sequence, group after group. Row 0
        # marks every initial state and row t + 1 each sequence still alive
        # after step t; numbering the marks row by row numbers the states.
        mask = np.arange(-1, col_lengths.max())[:, None] < col_lengths
        place = np.cumsum(mask).reshape(mask.shape) - 1
        counts = np.add.reduceat(mask, edges[:-1], axis=1, dtype=np.intp)
        starts = np.cumsum(counts).reshape(counts.shape) - counts
        # Each step's previous states, step after step, in the order of its rows.
        prev = place[:-1][mask[1:]]
        self.bounds, self.runs, self.prev = [], [], []
        for run_starts, run_rows in zip(starts[1:].tolist(), counts[1:].tolist()):
            lo, hi = run_starts[0], run_starts[-1] + run_rows[-1]
            self.bounds.append((lo, hi))
            self.runs.append([(g, s - lo, s - lo + n)
                              for g, (s, n) in enumerate(zip(run_starts, run_rows)) if n])
            self.prev.append(_span(prev[lo - len(col_lengths) : hi - len(col_lengths)]))
        self.index, self.seq, self.source, self.first, self.last = [], [], [], [], []
        for g, (order, n) in enumerate(zip(orders, self.lengths)):
            start = edges[g]
            steps, pos = np.nonzero(mask[1:, start : start + len(n)])
            col = np.empty_like(order)  # each sequence's column
            col[order] = np.arange(start, start + len(n))
            self.index.append(_span(place[steps + 1, pos + start]))
            self.seq.append(order[pos])
            self.source.append((np.cumsum(n) - n)[self.seq[g]] + steps)
            self.first.append(place[0, col])
            self.last.append(place[n, col])
        self.ids = [self.pack(g, group) for g, group in enumerate(seqs)]
        self.x = [arrays["embedding"][i] for i in self.ids]
        gx = np.empty((self.bounds[-1][1], 3 * hidden))
        for index, x, w, prefix in zip(self.index, self.x, self.w, prefixes):
            gx[index] = x @ w.T + arrays[f"{prefix}/b"]
        self.states = states = np.empty((self.bounds[-1][1], hidden))
        for first, h in zip(self.first, h0):
            states[first] = h
        self.caches = []
        for (lo, hi), runs, rows in zip(self.bounds, self.runs, self.prev):
            h, cache = gru_step(self.blocks, gx[lo:hi], states[rows], runs)
            states[lo:hi] = h
            self.caches.append(cache)

    def pack(self, g: int, seqs) -> np.ndarray:
        """Ids ``seqs``, one sequence as long as each of group g's, in input
        order, laid out like group g's packed rows."""
        ids = itertools.chain.from_iterable(seqs)
        return np.fromiter(ids, dtype=np.intp, count=self.lengths[g].sum())[self.source[g]]

    def packed(self, g: int) -> np.ndarray:
        """Group g's states after each step, packed."""
        return self.states[self.index[g]]

    def final(self, g: int) -> np.ndarray:
        """Each of group g's final states, in input order."""
        return self.states[self.last[g]]

    def backward(self, dstates, grads, dfinal=()) -> list[np.ndarray]:
        """Accumulate the gradients into ``grads``; return each group's
        initial-state gradient, in input order.

        The gradient reaching group g's states from outside the recurrence
        is ``dstates[g]``, packed, and ``dfinal[g]`` at its final states, in
        input order; either list may be empty.
        """
        ds = np.zeros(self.states.shape)
        ds[: self.bounds[0][0]] = -0.0  # x + -0.0 is x, bit for bit
        for index, d in zip(self.index, dstates):
            ds[index] = d
        for last, d in zip(self.last, dfinal):
            ds[last] = d
        hidden = ds.shape[1]
        dpre = np.empty((len(ds), 3 * hidden))
        steps = zip(self.bounds, self.runs, self.prev, self.caches)
        for (lo, hi), runs, rows, cache in reversed(list(steps)):
            dpre[lo:hi], dh_prev = gru_step_backward(self.blocks, cache, ds[lo:hi], runs)
            ds[rows] += dh_prev
        h_prev = np.empty_like(ds)
        rh = np.empty_like(ds)
        for (lo, hi), (hp, _, r, _) in zip(self.bounds, self.caches):
            h_prev[lo:hi] = hp
            np.multiply(r, hp, out=rh[lo:hi])
        zr = 2 * hidden
        for g, prefix in enumerate(self.prefixes):
            index = self.index[g]
            d = dpre[index]
            grads[f"{prefix}/W"] += d.T @ self.x[g]
            g_u = grads[f"{prefix}/U"]
            g_u[:zr] += d[:, :zr].T @ h_prev[index]
            g_u[zr:] += d[:, zr:].T @ rh[index]
            grads[f"{prefix}/b"] += d.sum(axis=0)
            np.add.at(grads["embedding"], self.ids[g], d @ self.w[g])
        return [ds[first] for first in self.first]


class _Encoder:
    """Bidirectional encodings of events grouped by encoder id: both
    directions of every encoder run in one recurrence, and each event's
    concatenated final states ``h`` are bridged to its initial decoder
    state ``s0``, both in input order per encoder."""

    def __init__(self, params: ModelParams, events: dict[str, list]):
        if any(len(e) == 0 for group in events.values() for e in group):
            raise ValueError("cannot encode an empty event sequence")
        prefixes, seqs = [], []
        for eid, group in events.items():
            prefixes += [f"encoder/{eid}/fwd", f"encoder/{eid}/bwd"]
            seqs += [group, [e[::-1] for e in group]]
        half = params.config.enc_hidden // 2
        self.rnn = _Recurrence(params, prefixes, seqs,
                               [np.zeros((len(group), half)) for group in seqs])
        self.w_b = {eid: params.arrays[f"bridge/{eid}/W"] for eid in events}
        self.h, self.s0 = {}, {}
        for k, eid in enumerate(events):
            self.h[eid] = np.concatenate([self.rnn.final(2 * k), self.rnn.final(2 * k + 1)],
                                         axis=1)
            self.s0[eid] = self.h[eid] @ self.w_b[eid].T + params.arrays[f"bridge/{eid}/b"]

    def backward(self, ds0: dict[str, np.ndarray], grads) -> None:
        """Accumulate the gradients reaching each encoder's ``s0`` into ``grads``."""
        dfinal = []
        for eid, h in self.h.items():
            grads[f"bridge/{eid}/W"] += ds0[eid].T @ h
            grads[f"bridge/{eid}/b"] += ds0[eid].sum(axis=0)
            dh = ds0[eid] @ self.w_b[eid]
            half = dh.shape[1] // 2
            dfinal += [dh[:, :half], dh[:, half:]]
        self.rnn.backward((), grads, dfinal)


class _Decoder:
    """Teacher-forced decoding of targets grouped by dimension, from each
    dimension's initial states ``s0`` in input order; every dimension's
    decoder runs in one recurrence."""

    def __init__(self, params: ModelParams, targets: dict[Dimension, list], s0):
        vocab = params.vocab
        self.params = params
        self.rnn = _Recurrence(params, [f"decoder/{d.value}" for d in targets],
                               [[(vocab.bos_id, *t) for t in group] for group in targets.values()],
                               [s0[dim] for dim in targets])
        self.golds = [self.rnn.pack(g, [(*t, vocab.eos_id) for t in group])
                      for g, group in enumerate(targets.values())]

    def output(self, g: int, grads=None, weight: float = 1.0):
        """Group g's instance losses, in input order, and with ``grads`` the
        gradient reaching its states (packed), after accumulating ``weight``
        times the gradient of every instance loss through the output layer."""
        rnn, golds = self.rnn, self.golds[g]
        seq, lengths, prefix = rnn.seq[g], rnn.lengths[g], rnn.prefixes[g]
        states = rnn.packed(g)
        probs = _output(self.params, prefix, states)
        rows = np.arange(len(golds))
        # A gold probability that underflowed to 0 gives an infinite loss,
        # which train() reports as a NumericError.
        with np.errstate(divide="ignore"):
            nll = -np.log(probs[rows, golds])
        # Per instance: mean token cross entropy, summed in time order.
        losses = np.bincount(seq, weights=nll) / lengths
        if grads is None:
            return losses, None
        dlogits = probs
        dlogits[rows, golds] -= 1.0
        dlogits *= (weight / lengths)[seq, None]
        grads[f"{prefix}/W_o"] += dlogits.T @ states
        grads[f"{prefix}/b_o"] += dlogits.sum(axis=0)
        return losses, dlogits @ self.params.arrays[f"{prefix}/W_o"]


def _encoder_of(params: ModelParams, dimension) -> tuple[Dimension, str]:
    dimension = Dimension(dimension)
    if dimension not in params.grouping:
        raise ValueError(
            f"{dimension.value} is not modeled by variant {params.config.variant.value}"
        )
    return dimension, params.grouping[dimension]


def _forward(params: ModelParams, batch: list[TrainingInstance]):
    """The forward pass shared by scoring and training.

    Groups the batch by dimension and by encoder, encodes and bridges every
    event, and runs every decoder. Returns the rows of each dimension and
    of each encoder, the encoder and the decoder.
    """
    by_dim: dict[Dimension, list[int]] = {}
    by_encoder: dict[str, list[int]] = {}
    for k, inst in enumerate(batch):
        dim, eid = _encoder_of(params, inst.dimension)
        by_dim.setdefault(dim, []).append(k)
        by_encoder.setdefault(eid, []).append(k)

    enc = _Encoder(params, {eid: [batch[k].event_ids for k in rows]
                            for eid, rows in by_encoder.items()})
    s0 = np.empty((len(batch), params.config.dec_hidden))
    for eid, rows in by_encoder.items():
        s0[rows] = enc.s0[eid]
    dec = _Decoder(params, {dim: [batch[k].target_ids for k in rows]
                            for dim, rows in by_dim.items()},
                   {dim: s0[rows] for dim, rows in by_dim.items()})
    return by_dim, by_encoder, enc, dec


def batch_losses(params: ModelParams, batch: list[TrainingInstance]) -> np.ndarray:
    """Each instance's mean token cross entropy, in batch order, forward only."""
    by_dim, _, _, dec = _forward(params, batch)
    losses = np.empty(len(batch))
    for g, rows in enumerate(by_dim.values()):
        losses[rows] = dec.output(g)[0]
    return losses


def batch_loss_and_grads(
    params: ModelParams,
    batch: list[TrainingInstance],
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Forward and backward pass of the multitask objective for one batch.

    The objective is the mean over dimensions present in the batch of the
    mean instance loss for that dimension; its gradient is accumulated
    into ``grads``, so a batch containing only one dimension touches only
    that dimension's decoder and its shared encoder. Returns each
    instance's loss in batch order, equal to :func:`batch_losses`.
    """
    by_dim, by_encoder, enc, dec = _forward(params, batch)
    losses = np.empty(len(batch))
    dstates = []
    for g, rows in enumerate(by_dim.values()):
        losses[rows], d = dec.output(g, grads, 1.0 / (len(by_dim) * len(rows)))
        dstates.append(d)
    ds0 = np.empty((len(batch), params.config.dec_hidden))
    for rows, d in zip(by_dim.values(), dec.rnn.backward(dstates, grads)):
        ds0[rows] = d
    enc.backward({eid: ds0[rows] for eid, rows in by_encoder.items()}, grads)
    return losses


def _encoder_reads(params: ModelParams, eid: str, event_ids) -> list[tuple]:
    """Every array that encoding ``event_ids`` with encoder ``eid`` reads,
    as its dtype, shape, strides and raw bytes: both directions' cells,
    the bridge and the event's embedding rows."""
    names = [f"encoder/{eid}/{d}/{k}" for d in ("fwd", "bwd") for k in "WUb"]
    arrays = [params.arrays[n] for n in (*names, f"bridge/{eid}/W", f"bridge/{eid}/b")]
    arrays.append(params.arrays["embedding"][np.asarray(event_ids, dtype=np.intp)])
    return [(a.dtype.str, a.shape, a.strides, a.tobytes()) for a in arrays]


def initial_decoder_state(
    params: ModelParams, dimension: Dimension, event_ids
) -> np.ndarray:
    """Encode the event with the dimension's encoder and bridge to h_dec.

    An encoder shared by two or more dimensions keeps its last encoding on
    ``params``: the event ids, a snapshot of every array it read and the
    state. A call with the same ids whose arrays still hold the same bytes
    returns a copy of that state, bit for bit what encoding again would
    give; so a search over an event's dimensions, one after another,
    encodes it once per shared encoder. Any change to those arrays, in
    place or by replacement, down to a ``0.0``/``-0.0`` flip, encodes
    afresh.
    """
    _, eid = _encoder_of(params, dimension)
    if eid not in params._encodings:
        return _Encoder(params, {eid: [event_ids]}).s0[eid][0]
    key = tuple(event_ids), _encoder_reads(params, eid, event_ids)
    memo = params._encodings[eid]
    if memo is None or memo[0] != key:
        memo = params._encodings[eid] = key, _Encoder(params, {eid: [event_ids]}).s0[eid][0]
    return memo[1].copy()


def decode_step(
    params: ModelParams,
    dimension: Dimension,
    hidden_state: np.ndarray,
    prev_token_id: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the decoder one token; returns (next-token distribution, state).

    Takes one state ``(H,)`` and one previous id, giving ``(V,)`` and
    ``(H,)``, or a batch of states ``(B, H)`` and ``(B,)`` ids, giving
    ``(B, V)`` and ``(B, H)``: row i is that row's own step. The step is
    the training recurrence's :func:`gru_step` and output layer.
    """
    prefix = f"decoder/{Dimension(dimension).value}"
    w, u, b = (params.arrays[f"{prefix}/{kind}"] for kind in "WUb")
    states = np.atleast_2d(hidden_state)
    gx = params.arrays["embedding"][np.atleast_1d(prev_token_id)] @ w.T + b
    blocks = list(zip(_blocks(u, states.shape[1])))
    states, _ = gru_step(blocks, gx, states, [(0, 0, len(states))])
    probs = _output(params, prefix, states)
    if np.ndim(hidden_state) == 1:
        return probs[0], states[0]
    return probs, states


def sequence_loss(params: ModelParams, instance: TrainingInstance) -> float:
    """Teacher-forced cross entropy, averaged over target positions."""
    return float(batch_losses(params, [instance])[0])


def make_training_instances(
    triples: list[Triple], vocab: VocabularyMap
) -> list[TrainingInstance]:
    """One instance per worker annotation; empty targets carry no sequence."""
    return [
        TrainingInstance(tuple(vocab.encode(t.event.tokens)), t.dimension,
                         tuple(vocab.encode(t.target.tokens)))
        for t in triples
        if not t.target.is_empty
    ]
