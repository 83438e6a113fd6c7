"""Central-finite-difference verification of the analytic gradients."""

from __future__ import annotations

import math

import numpy as np

from ifthen.seq2seq.model import ModelParams, TrainingInstance, batch_loss_and_grads, sequence_loss

# The largest max relative error a passing check may report. The default
# check errs by a few 1e-6; a step of 1e-8 or less drowns the difference in
# rounding (3.4e-2 at 1e-8, above 1 at 1e-10).
MAX_RELATIVE_ERROR = 1e-3


def gradient_check(
    params: ModelParams,
    instance: TrainingInstance,
    epsilon: float = 1e-4,
    num_samples: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and numerical gradients.

    Samples at least ``num_samples`` parameter coordinates spread over the
    embedding, the instance's encoder, its decoder cell, and the output
    projection, and compares backprop against central differences of
    :func:`sequence_loss` in double precision. ``epsilon`` must be positive.
    Any non-finite coordinate error makes the result NaN.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    grads = params.zero_grads()
    batch_loss_and_grads(params, [instance], grads)

    # The tensors the instance reaches in four categories: the embedding,
    # the encoder's cells then its bridge, the decoder cell and its output.
    names = params.tensors_of(instance.dimension)
    categories: dict[str, list[str]] = {}
    for name in sorted(names, key=lambda n: n.startswith("bridge/")):
        kind = "output" if name.endswith(("/W_o", "/b_o")) else name.partition("/")[0]
        categories.setdefault("encoder" if kind == "bridge" else kind, []).append(name)

    rng = np.random.default_rng(seed)
    per_category = max(1, num_samples // len(categories))
    max_rel = 0.0
    for names in categories.values():
        sizes = np.array([params.arrays[n].size for n in names])
        for _ in range(per_category):
            pick = rng.integers(0, sizes.sum())
            idx = int(np.searchsorted(np.cumsum(sizes), pick, side="right"))
            name = names[idx]
            offset = int(pick - (np.cumsum(sizes)[idx] - sizes[idx]))
            # Written through ``.flat``: a tensor may be a strided view, of
            # which ``reshape(-1)`` would be a copy the model never reads.
            flat = params.arrays[name].flat
            orig = flat[offset]
            # A step that overflows the loss gives a non-finite error,
            # reported as NaN below, not as a warning.
            with np.errstate(all="ignore"):
                flat[offset] = orig + epsilon
                loss_plus = sequence_loss(params, instance)
                flat[offset] = orig - epsilon
                loss_minus = sequence_loss(params, instance)
            flat[offset] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            analytic = float(grads[name].flat[offset])
            # Floor shields near-zero coordinates, where the central
            # difference is dominated by cancellation noise, without
            # weakening the check for meaningful gradient magnitudes.
            denom = max(abs(numeric), abs(analytic), 1e-6)
            rel = abs(numeric - analytic) / denom
            if not rel < math.inf:  # NaN or inf
                return math.nan
            max_rel = max(max_rel, rel)
    return max_rel
