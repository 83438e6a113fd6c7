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
decoder pass. Each group's sequences are sorted longest first, padded
with ``<pad>`` into a ``(T, B)`` id matrix and masked; the valid
positions are packed time-major, so at step t the live rows are a
prefix of the group. The input projection of all timesteps is one GEMM,
leaving only ``U h`` in the recurrence, and every weight gradient is one
GEMM over all valid timesteps (the cuDNN RNN recipe of Appleyard et al.
2016, arXiv:1604.01946, on CPU BLAS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ifthen.graph import Triple
from ifthen.seq2seq.config import ModelConfig, encoder_grouping
from ifthen.seq2seq.vocab import VocabularyMap
from ifthen.taxonomy import Dimension


@dataclass(frozen=True)
class TrainingInstance:
    """One worker's annotation as an (event ids, dimension, target ids) triple."""

    event_ids: tuple[int, ...]
    dimension: Dimension
    target_ids: tuple[int, ...]


class GRUCell(NamedTuple):
    """A cell's gates stacked in z, r, n order: W (3H, I), U (3H, H), b (3H,)."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray


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

    @property
    def encoder_ids(self) -> list[str]:
        return sorted(set(self.grouping.values()))

    @property
    def decoder_dims(self) -> list[Dimension]:
        return sorted(self.grouping, key=lambda d: d.value)

    def cell(self, prefix: str) -> GRUCell:
        return GRUCell(*(self.arrays[f"{prefix}/{kind}"] for kind in "WUb"))

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

    def cell(prefix: str, hidden: int) -> None:
        shapes[f"{prefix}/W"] = (3 * hidden, config.embed_dim)
        shapes[f"{prefix}/U"] = (3 * hidden, hidden)
        shapes[f"{prefix}/b"] = (3 * hidden,)

    for eid in sorted(set(grouping.values())):
        shapes[f"bridge/{eid}/W"] = (config.dec_hidden, config.enc_hidden)
        shapes[f"bridge/{eid}/b"] = (config.dec_hidden,)
        for direction in ("fwd", "bwd"):
            cell(f"encoder/{eid}/{direction}", config.enc_hidden // 2)
    for dim in sorted(grouping, key=lambda d: d.value):
        cell(f"decoder/{dim.value}", config.dec_hidden)
        shapes[f"decoder/{dim.value}/W_o"] = (vocab_size, config.dec_hidden)
        shapes[f"decoder/{dim.value}/b_o"] = (vocab_size,)
    return shapes


def init_params(
    config: ModelConfig,
    vocab: VocabularyMap,
    seed: int | None = None,
    pretrained_embeddings: dict[str, np.ndarray] | None = None,
) -> ModelParams:
    """Random initialization, deterministic given the seed.

    Known tokens may be seeded from a static embedding table; its vectors
    must match ``embed_dim``.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
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
    # exp(-x) overflows to inf for x below about -709; the result, 0, is exact.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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


def gru_step(cell: GRUCell, gx: np.ndarray, h_prev: np.ndarray):
    """One gated-recurrent step for a batch of rows (or a single vector).

    ``gx`` is the hoisted input projection ``x W^T + b``, stacked z, r, n
    like the cell; only the recurrent ``U h`` products happen here.
    Returns the new state and a backprop cache.
    """
    hidden = h_prev.shape[-1]
    zr = _sigmoid(gx[..., : 2 * hidden] + h_prev @ cell.U[: 2 * hidden].T)
    z, r = zr[..., :hidden], zr[..., hidden:]
    n = np.tanh(gx[..., 2 * hidden :] + (r * h_prev) @ cell.U[2 * hidden :].T)
    h = (1.0 - z) * n + z * h_prev
    return h, (h_prev, z, r, n)


def gru_step_backward(cell: GRUCell, cache, dh: np.ndarray):
    """Backprop one batched step.

    Returns the gate pre-activation gradients ``(rows, 3H)``, stacked like
    ``gx``, and the gradient reaching ``h_prev``. Weight gradients are
    formed later from the pre-activation gradients of all steps at once.
    """
    h_prev, z, r, n = cache
    hidden = h_prev.shape[-1]
    dpre = np.empty((len(dh), 3 * hidden))
    dz = dh * (h_prev - n)
    dn = dh * (1.0 - z)
    dn_pre = dpre[:, 2 * hidden :]
    dn_pre[...] = dn * (1.0 - n * n)
    drh = dn_pre @ cell.U[2 * hidden :]
    dr = drh * h_prev
    dpre[:, :hidden] = dz * z * (1.0 - z)
    dpre[:, hidden : 2 * hidden] = dr * r * (1.0 - r)
    dh_prev = dh * z + drh * r + dpre[:, : 2 * hidden] @ cell.U[: 2 * hidden]
    return dpre, dh_prev


class _Batch:
    """Sequences sorted longest first, padded and masked, packed time-major.

    Step t owns packed rows ``offsets[t]:offsets[t + 1]``, which belong to
    the first ``offsets[t + 1] - offsets[t]`` sorted sequences; ``pos``
    is the sorted sequence of each packed row and ``last`` the packed row
    of each sorted sequence's final position.
    """

    def __init__(self, seqs, pad_id: int):
        lengths = np.array([len(s) for s in seqs])
        self.order = np.argsort(-lengths, kind="stable")
        self.lengths = lengths[self.order]
        self.pad_id = pad_id
        self.mask = np.arange(self.lengths[0])[:, None] < self.lengths
        offsets = np.concatenate(([0], np.cumsum(self.mask.sum(axis=1))))
        self.offsets = offsets.tolist()
        self.pos = np.nonzero(self.mask)[1]
        self.last = offsets[self.lengths - 1] + np.arange(len(seqs))

    def pack(self, seqs) -> np.ndarray:
        padded = np.full(self.mask.shape, self.pad_id, dtype=np.intp)
        for j, i in enumerate(self.order):
            padded[: self.lengths[j], j] = seqs[i]
        return padded[self.mask]

    def unsort(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty_like(rows)
        out[self.order] = rows
        return out


class _Recurrence:
    """One cell run over a packed batch; keeps what its backward pass needs."""

    def __init__(self, params: ModelParams, prefix: str, ids, offsets, h0):
        self.prefix = prefix
        self.cell = params.cell(prefix)
        self.ids = ids
        self.offsets = offsets
        self.x = params.arrays["embedding"][ids]
        gx = self.x @ self.cell.W.T + self.cell.b
        self.states = np.empty((len(ids), h0.shape[1]))
        self.caches = []
        prev = h0
        for lo, hi in zip(offsets, offsets[1:]):
            h, cache = gru_step(self.cell, gx[lo:hi], prev[: hi - lo])
            self.states[lo:hi] = h
            self.caches.append(cache)
            prev = self.states[lo:hi]

    def backward(self, dstates: np.ndarray, grads) -> np.ndarray:
        """Accumulate the gradients into ``grads``; return the initial state's.

        ``dstates`` holds the gradient reaching each state from outside
        the recurrence; it is overwritten.
        """
        offsets = self.offsets
        dpre = np.empty((len(self.ids), self.cell.b.size))
        for t in reversed(range(len(self.caches))):
            lo, hi = offsets[t], offsets[t + 1]
            dpre[lo:hi], dh_prev = gru_step_backward(self.cell, self.caches[t], dstates[lo:hi])
            if t:
                dstates[offsets[t - 1] : offsets[t - 1] + hi - lo] += dh_prev
        h_prev = np.concatenate([c[0] for c in self.caches])
        rh = np.concatenate([c[2] * c[0] for c in self.caches])
        zr = 2 * h_prev.shape[1]
        grads[f"{self.prefix}/W"] += dpre.T @ self.x
        g_u = grads[f"{self.prefix}/U"]
        g_u[:zr] += dpre[:, :zr].T @ h_prev
        g_u[zr:] += dpre[:, zr:].T @ rh
        grads[f"{self.prefix}/b"] += dpre.sum(axis=0)
        np.add.at(grads["embedding"], self.ids, dpre @ self.cell.W)
        return dh_prev


class _Encoder:
    """Bidirectional encoding of a group of events sharing one encoder,
    bridged to each event's initial decoder state ``s0``."""

    def __init__(self, params: ModelParams, encoder_id: str, events):
        if any(len(e) == 0 for e in events):
            raise ValueError("cannot encode an empty event sequence")
        self.batch = b = _Batch(events, params.vocab.pad_id)
        h0 = np.zeros((len(events), params.config.enc_hidden // 2))
        prefix = f"encoder/{encoder_id}"
        self.fwd = _Recurrence(params, f"{prefix}/fwd", b.pack(events), b.offsets, h0)
        self.bwd = _Recurrence(params, f"{prefix}/bwd", b.pack([e[::-1] for e in events]),
                               b.offsets, h0)
        # Final forward and backward states, concatenated, in input order.
        self.h = b.unsort(np.concatenate((self.fwd.states[b.last], self.bwd.states[b.last]),
                                         axis=1))
        self.bridge = f"bridge/{encoder_id}"
        self.w_b = params.arrays[f"{self.bridge}/W"]
        self.s0 = self.h @ self.w_b.T + params.arrays[f"{self.bridge}/b"]

    def backward(self, ds0: np.ndarray, grads) -> None:
        """Accumulate the gradients reaching ``s0``, in input order, into ``grads``."""
        b = self.batch
        grads[f"{self.bridge}/W"] += ds0.T @ self.h
        grads[f"{self.bridge}/b"] += ds0.sum(axis=0)
        dh = (ds0 @ self.w_b)[b.order]
        half = dh.shape[1] // 2
        for rnn, d_final in ((self.fwd, dh[:, :half]), (self.bwd, dh[:, half:])):
            dstates = np.zeros_like(rnn.states)
            dstates[b.last] = d_final
            rnn.backward(dstates, grads)


class _Decoder:
    """Teacher-forced decoding of one dimension's group of targets."""

    def __init__(self, params: ModelParams, dimension: Dimension, targets, s0: np.ndarray):
        bos, eos = params.vocab.bos_id, params.vocab.eos_id
        inputs = [(bos, *t) for t in targets]
        self.batch = b = _Batch(inputs, params.vocab.pad_id)
        self.golds = b.pack([(*t, eos) for t in targets])
        prefix = f"decoder/{dimension.value}"
        self.w_o = params.arrays[f"{prefix}/W_o"]
        self.rnn = _Recurrence(params, prefix, b.pack(inputs), b.offsets, s0[b.order])
        self.probs = _output(params, prefix, self.rnn.states)
        # A gold probability that underflowed to 0 gives an infinite loss,
        # which train() reports as a NumericError.
        with np.errstate(divide="ignore"):
            nll = -np.log(self.probs[np.arange(len(self.golds)), self.golds])
        # Per instance: mean token cross entropy, summed in time order.
        self.losses = b.unsort(np.bincount(b.pos, weights=nll) / b.lengths)

    def backward(self, grads, weight: float) -> np.ndarray:
        """Accumulate ``weight`` times the gradient of every instance loss;
        return the gradient of the initial states, in input order."""
        b, prefix = self.batch, self.rnn.prefix
        dlogits = self.probs
        dlogits[np.arange(len(self.golds)), self.golds] -= 1.0
        dlogits *= (weight / b.lengths)[b.pos, None]
        grads[f"{prefix}/W_o"] += dlogits.T @ self.rnn.states
        grads[f"{prefix}/b_o"] += dlogits.sum(axis=0)
        return b.unsort(self.rnn.backward(dlogits @ self.w_o, grads))


def _encoder_of(params: ModelParams, dimension) -> tuple[Dimension, str]:
    dimension = Dimension(dimension)
    if dimension not in params.grouping:
        raise ValueError(
            f"{dimension.value} is not modeled by variant {params.config.variant.value}"
        )
    return dimension, params.grouping[dimension]


def _encode_batch(params: ModelParams, batch: list[TrainingInstance]):
    """The forward step shared by scoring and training.

    Groups the batch by dimension and by encoder and runs each encoder with
    its bridge. Returns the rows of each dimension, each encoder with its
    rows, and every row's initial decoder state.
    """
    by_dim: dict[Dimension, list[int]] = {}
    by_encoder: dict[str, list[int]] = {}
    for k, inst in enumerate(batch):
        dim, eid = _encoder_of(params, inst.dimension)
        by_dim.setdefault(dim, []).append(k)
        by_encoder.setdefault(eid, []).append(k)

    s0 = np.empty((len(batch), params.config.dec_hidden))
    encoders = {}
    for eid, rows in by_encoder.items():
        enc = _Encoder(params, eid, [batch[k].event_ids for k in rows])
        encoders[eid] = rows, enc
        s0[rows] = enc.s0
    return by_dim, encoders, s0


def batch_losses(params: ModelParams, batch: list[TrainingInstance]) -> np.ndarray:
    """Each instance's mean token cross entropy, in batch order, forward only."""
    by_dim, _, s0 = _encode_batch(params, batch)
    losses = np.empty(len(batch))
    for dim, rows in by_dim.items():
        targets = [batch[k].target_ids for k in rows]
        losses[rows] = _Decoder(params, dim, targets, s0[rows]).losses
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
    by_dim, encoders, s0 = _encode_batch(params, batch)
    losses = np.empty(len(batch))
    ds0 = np.empty_like(s0)
    for dim, rows in by_dim.items():
        dec = _Decoder(params, dim, [batch[k].target_ids for k in rows], s0[rows])
        losses[rows] = dec.losses
        ds0[rows] = dec.backward(grads, 1.0 / (len(by_dim) * len(rows)))

    for rows, enc in encoders.values():
        enc.backward(ds0[rows], grads)
    return losses


def encode(params: ModelParams, encoder_id: str, event_ids) -> np.ndarray:
    """Bidirectional encoding: concatenated final forward/backward states."""
    return _Encoder(params, encoder_id, [event_ids]).h[0]


def initial_decoder_state(
    params: ModelParams, dimension: Dimension, event_ids
) -> np.ndarray:
    """Encode the event with the dimension's encoder and bridge to h_dec."""
    _, eid = _encoder_of(params, dimension)
    return _Encoder(params, eid, [event_ids]).s0[0]


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
    one time step of the training engine's decoder recurrence.
    """
    prefix = f"decoder/{Dimension(dimension).value}"
    ids = np.atleast_1d(prev_token_id)
    rnn = _Recurrence(params, prefix, ids, [0, len(ids)], np.atleast_2d(hidden_state))
    probs = _output(params, prefix, rnn.states)
    if np.ndim(hidden_state) == 1:
        return probs[0], rnn.states[0]
    return probs, rnn.states


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
