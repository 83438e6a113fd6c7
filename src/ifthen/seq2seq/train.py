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
_B1, _B2, _EPS = 0.9, 0.999, 1e-8  # Adam's β1, β2 and ε: Kingma & Ba's defaults


class AdamOptimizer:
    """Standard Adam update over the model's named arrays, in place.

    A tensor's moments are made on its first step, so the keys of ``m`` are
    the tensors stepped so far. Each tensor is updated in row slices of
    about ``_BLOCK`` elements through two block-sized scratch buffers, so
    its temporaries stay in cache.
    """

    def __init__(self, params: ModelParams, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        widest_row = max(v.size // len(v) for v in params.arrays.values())
        size = max(_BLOCK, widest_row)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params: ModelParams, grads: dict[str, np.ndarray], names: list[str]) -> None:
        """Update the tensors in ``names`` and every tensor stepped before,
        from their gradients in ``grads``, as the textbook step would: one
        never named has no moments yet, and its update would be exactly zero.
        """
        for name in names:
            if name not in self.m:
                shape = params.arrays[name].shape
                self.m[name], self.v[name] = np.zeros(shape), np.zeros(shape)
        self.t += 1
        bc1 = 1.0 - _B1 ** self.t
        bc2 = 1.0 - _B2 ** self.t
        for name in self.m:
            param, grad = params.arrays[name], grads[name]
            rows = max(1, _BLOCK * len(param) // param.size)
            for lo in range(0, len(param), rows):
                rs = slice(lo, lo + rows)
                g, m, v = grad[rs], self.m[name][rs], self.v[name][rs]
                s, d = (buf[: g.size].reshape(g.shape) for buf in self._scratch)
                # The textbook operation order, so equal gradients give
                # bit-identical updates:
                # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps).
                np.multiply(g, 1.0 - _B1, out=s)
                m *= _B1
                m += s
                np.multiply(g, 1.0 - _B2, out=s)
                s *= g
                v *= _B2
                v += s
                np.divide(m, bc1, out=s)
                s *= self.lr
                np.divide(v, bc2, out=d)
                np.sqrt(d, out=d)
                d += _EPS
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
    reached has no moments yet, and its textbook update would be exactly
    zero.
    """
    if config is None:
        config = params.config
    if not dataset:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(config.seed)
    optimizer = AdamOptimizer(params, config.learning_rate)
    grads = params.zero_grads()
    reach = {dim: set(params.tensors_of(dim)) for dim in params.decoder_dims}
    names: list[str] = []
    trace: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(len(dataset))
        dim_totals: dict[Dimension, tuple[float, int]] = {}
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in perm[start : start + config.batch_size]]
            for name in names:
                grads[name].fill(0.0)
            reached = set().union(*(reach[inst.dimension] for inst in batch))
            names = [n for n in params.param_order if n in reached]
            # Overflow shows as a non-finite loss or norm, raised below.
            with np.errstate(over="ignore", invalid="ignore"):
                losses = batch_loss_and_grads(params, batch, grads)
                norm = clip_gradients({n: grads[n] for n in names}, config.clip_norm)
            if not np.isfinite(losses).all():
                raise NumericError(f"non-finite loss at epoch {epoch}, batch start {start}")
            for inst, loss in zip(batch, losses.tolist()):
                total, count = dim_totals.get(inst.dimension, (0.0, 0))
                dim_totals[inst.dimension] = (total + loss, count + 1)
            if not math.isfinite(norm):
                raise NumericError(
                    f"non-finite gradient norm {norm} at epoch {epoch}, batch start {start}"
                )
            if config.learning_rate != 0.0:
                optimizer.step(params, grads, names)
        epoch_mean = sum(t / c for t, c in dim_totals.values()) / len(dim_totals)
        trace.append(epoch_mean)
        log.debug("epoch %d: mean loss %.6f", epoch, epoch_mean)
        if config.early_stop_loss is not None and epoch_mean < config.early_stop_loss:
            break
    return params, trace
