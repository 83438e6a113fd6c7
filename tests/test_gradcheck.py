import math

import numpy as np
import pytest

from conftest import random_instance, toy_params

from ifthen.seq2seq import ModelVariant, gradient_check
from ifthen.seq2seq.model import TrainingInstance, batch_loss_and_grads, sequence_loss


@pytest.mark.parametrize(
    "variant",
    [
        ModelVariant.Single9,
        ModelVariant.EventInvolEvent,
        ModelVariant.EventPersonXY,
        ModelVariant.EventPrePost,
    ],
)
def test_all_variants_pass(variant):
    params = toy_params(variant, seed=1)
    inst = random_instance(params, np.random.default_rng(3))
    assert gradient_check(params, inst, seed=0) < 1e-3


def test_output_projection_near_exact():
    # On a length-1 target, the cross-entropy is nearly quadratic in the
    # output layer around the operating point, so central differences with
    # a small step agree to near machine precision.
    params = toy_params(seed=2, hidden=8, vocab_size=16)
    inst = TrainingInstance((8, 9), params.decoder_dims[0], (10,))
    grads = params.zero_grads()
    batch_loss_and_grads(params, [inst], grads)

    name = f"decoder/{inst.dimension.value}/b_o"
    rng = np.random.default_rng(0)
    for _ in range(10):
        idx = int(rng.integers(params.arrays[name].size))
        flat = params.arrays[name].reshape(-1)
        orig = flat[idx]
        eps = 1e-5
        flat[idx] = orig + eps
        up = sequence_loss(params, inst)
        flat[idx] = orig - eps
        down = sequence_loss(params, inst)
        flat[idx] = orig
        numeric = (up - down) / (2 * eps)
        analytic = grads[name].reshape(-1)[idx]
        assert abs(numeric - analytic) < 1e-6


@pytest.mark.parametrize("epsilon", [0.0, -1e-4, float("nan")])
def test_non_positive_epsilon_rejected(epsilon):
    params = toy_params(seed=4)
    inst = random_instance(params, np.random.default_rng(5))
    with pytest.raises(ValueError, match="epsilon"):
        gradient_check(params, inst, epsilon=epsilon)


def test_nan_weight_gives_nan():
    params = toy_params(seed=4)
    inst = random_instance(params, np.random.default_rng(5))
    params.arrays["embedding"][inst.event_ids[0], 0] = np.nan
    assert math.isnan(gradient_check(params, inst, num_samples=8))


def test_coarse_epsilon_degrades_accuracy():
    params = toy_params(seed=4)
    inst = random_instance(params, np.random.default_rng(5))
    fine = gradient_check(params, inst, epsilon=1e-4, seed=1)
    coarse = gradient_check(params, inst, epsilon=1e-1, seed=1)
    assert coarse > fine


def test_long_sequence_still_accurate():
    params = toy_params(ModelVariant.EventInvolEvent, seed=6)
    inst = TrainingInstance(tuple(range(8, 20)), params.decoder_dims[1], tuple(range(10, 22)))
    assert gradient_check(params, inst, seed=2) < 1e-3
