"""Multitask training loop: Adam with gradient clipping, deterministic by seed."""

from __future__ import annotations

import logging
import math

import numpy as np

from ifthen.seq2seq.model import ModelParams, TrainingInstance, batch_loss_and_grads
from ifthen.taxonomy import Dimension

log = logging.getLogger(__name__)


class NumericError(RuntimeError):
    """Training hit a non-finite loss or gradient."""


_BLOCK = 16384  # elements per slice of a tensor's update; its scratch stays in cache


class AdamOptimizer:
    """Standard Adam update over the model's named arrays, in place.

    Each tensor is updated in row slices of about ``_BLOCK`` elements, and
    two block-sized scratch buffers serve every slice in turn, so a step
    allocates nothing and its temporaries stay in cache.
    """

    def __init__(self, params: ModelParams, learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros(v.shape) for k, v in params.arrays.items()}
        self.v = {k: np.zeros(v.shape) for k, v in params.arrays.items()}
        self._stepped: set[str] = set()
        widest_row = max(v.size // len(v) for v in params.arrays.values())
        size = max(_BLOCK, widest_row)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        """Update exactly the tensors named in ``grads``.

        A tensor left out keeps its parameters and moments; that equals
        the textbook step only while its moments are zero, so leaving out a
        tensor that an earlier step updated raises :class:`ValueError`.
        """
        missing = self._stepped.difference(grads)
        if missing:
            raise ValueError(f"no gradient for previously updated tensors {sorted(missing)}")
        self._stepped.update(grads)
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, grad in grads.items():
            param = params.arrays[name]
            rows = max(1, _BLOCK * len(param) // param.size)
            for lo in range(0, len(param), rows):
                rs = slice(lo, lo + rows)
                g, m, v = grad[rs], self.m[name][rs], self.v[name][rs]
                s, d = (buf[: g.size].reshape(g.shape) for buf in self._scratch)
                # The textbook operation order, so equal gradients give
                # bit-identical updates:
                # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps).
                np.multiply(g, 1.0 - self.beta1, out=s)
                m *= self.beta1
                m += s
                np.multiply(g, 1.0 - self.beta2, out=s)
                s *= g
                v *= self.beta2
                v += s
                np.divide(m, bc1, out=s)
                s *= self.lr
                np.divide(v, bc2, out=d)
                np.sqrt(d, out=d)
                d += self.eps
                s /= d
                param[rs] -= s


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def train(
    params: ModelParams,
    dataset: list[TrainingInstance],
    config=None,
) -> tuple[ModelParams, list[float]]:
    """Train in place; returns the params and the per-epoch loss trace.

    An epoch's loss is the multitask mean over the whole dataset: the mean
    over dimensions of the mean instance loss, folded from the instance
    losses of every batch, so it does not depend on how the epoch was
    batched. Deterministic given the config seed. Aborts with
    :class:`NumericError` on a non-finite instance loss or gradient norm.
    When ``early_stop_loss`` is set, training stops as soon as an epoch's
    loss falls below it.

    A batch zeroes and clips only the tensors its dimensions reach
    (:meth:`ModelParams.tensors_of`); every other gradient is exactly zero.
    Adam steps every tensor some batch has reached so far: one never
    reached has zero moments, so its textbook update is exactly zero.
    """
    if config is None:
        config = params.config
    if not dataset:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(config.seed)
    optimizer = AdamOptimizer(params, config.learning_rate)
    grads = params.zero_grads()
    reach = {dim: set(params.tensors_of(dim)) for dim in params.decoder_dims}
    touched: dict[str, np.ndarray] = {}
    live: dict[str, np.ndarray] = {}
    trace: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(len(dataset))
        dim_totals: dict[Dimension, tuple[float, int]] = {}
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in perm[start : start + config.batch_size]]
            for g in touched.values():
                g.fill(0.0)
            losses = batch_loss_and_grads(params, batch, grads)
            names = set().union(*(reach[inst.dimension] for inst in batch))
            touched = {n: g for n, g in grads.items() if n in names}
            if not np.isfinite(losses).all():
                raise NumericError(f"non-finite loss at epoch {epoch}, batch start {start}")
            for inst, loss in zip(batch, losses.tolist()):
                total, count = dim_totals.get(inst.dimension, (0.0, 0))
                dim_totals[inst.dimension] = (total + loss, count + 1)
            norm = clip_gradients(touched, config.clip_norm)
            if not math.isfinite(norm):
                raise NumericError(
                    f"non-finite gradient norm {norm} at epoch {epoch}, batch start {start}"
                )
            live.update(touched)
            if config.learning_rate != 0.0:
                optimizer.step(params, live)
        epoch_mean = sum(t / c for t, c in dim_totals.values()) / len(dim_totals)
        trace.append(epoch_mean)
        log.debug("epoch %d: mean loss %.6f", epoch, epoch_mean)
        if config.early_stop_loss is not None and epoch_mean < config.early_stop_loss:
            break
    return params, trace
