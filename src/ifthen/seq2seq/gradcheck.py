"""Central-finite-difference verification of the analytic gradients."""

from __future__ import annotations

import numpy as np

from ifthen.seq2seq.model import ModelParams, TrainingInstance, batch_loss_and_grads, sequence_loss


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
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    grads = params.zero_grads()
    batch_loss_and_grads(params, [instance], grads)

    eid = params.grouping[instance.dimension]
    dim = instance.dimension.value
    categories = {
        "embedding": ["embedding"],
        "encoder": [
            name for name in params.param_order if name.startswith(f"encoder/{eid}/")
        ]
        + [f"bridge/{eid}/W", f"bridge/{eid}/b"],
        "decoder": [
            name
            for name in params.param_order
            if name.startswith(f"decoder/{dim}/") and not name.endswith(("W_o", "b_o"))
        ],
        "output": [f"decoder/{dim}/W_o", f"decoder/{dim}/b_o"],
    }

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
            flat = params.arrays[name].reshape(-1)
            orig = flat[offset]
            flat[offset] = orig + epsilon
            loss_plus = sequence_loss(params, instance)
            flat[offset] = orig - epsilon
            loss_minus = sequence_loss(params, instance)
            flat[offset] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            analytic = grads[name].reshape(-1)[offset]
            # Floor shields near-zero coordinates, where the central
            # difference is dominated by cancellation noise, without
            # weakening the check for meaningful gradient magnitudes.
            denom = max(abs(numeric), abs(analytic), 1e-6)
            max_rel = max(max_rel, abs(numeric - analytic) / denom)
    return max_rel
