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


class AdamOptimizer:
    """Standard Adam update over the model's named arrays, in place.

    Two scratch buffers sized to the largest tensor serve every tensor in
    turn, so a step allocates nothing.
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
        largest = max(v.size for v in params.arrays.values())
        self._scratch = (np.empty(largest), np.empty(largest))

    def step(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name in params.param_order:
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
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
            params.arrays[name] -= s


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
    """
    if config is None:
        config = params.config
    if not dataset:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(config.seed)
    optimizer = AdamOptimizer(params, config.learning_rate)
    grads = params.zero_grads()
    trace: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(len(dataset))
        dim_totals: dict[Dimension, tuple[float, int]] = {}
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in perm[start : start + config.batch_size]]
            for g in grads.values():
                g.fill(0.0)
            losses = batch_loss_and_grads(params, batch, grads)
            if not np.isfinite(losses).all():
                raise NumericError(f"non-finite loss at epoch {epoch}, batch start {start}")
            for inst, loss in zip(batch, losses.tolist()):
                total, count = dim_totals.get(inst.dimension, (0.0, 0))
                dim_totals[inst.dimension] = (total + loss, count + 1)
            norm = clip_gradients(grads, config.clip_norm)
            if not math.isfinite(norm):
                raise NumericError(
                    f"non-finite gradient norm {norm} at epoch {epoch}, batch start {start}"
                )
            if config.learning_rate != 0.0:
                optimizer.step(params, grads)
        epoch_mean = sum(t / c for t, c in dim_totals.values()) / len(dim_totals)
        trace.append(epoch_mean)
        log.debug("epoch %d: mean loss %.6f", epoch, epoch_mean)
        if config.early_stop_loss is not None and epoch_mean < config.early_stop_loss:
            break
    return params, trace
