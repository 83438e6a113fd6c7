import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poison_gradients, random_instance, toy_params

from oracles import batch_loss_and_grads_reference, train_reference

from ifthen.seq2seq import (
    AdamOptimizer,
    ModelConfig,
    ModelVariant,
    NumericError,
    batch_loss_and_grads,
    batch_losses,
    clip_gradients,
    init_params,
    train,
)
from ifthen.seq2seq.model import ModelParams, TrainingInstance, sequence_loss
from ifthen.seq2seq.vocab import RESERVED_TOKENS, VocabularyMap
from ifthen.taxonomy import Dimension


def multitask_mean(batch, losses):
    """Mean over dimensions of the mean instance loss."""
    by_dim = {}
    for inst, loss in zip(batch, losses):
        by_dim.setdefault(inst.dimension, []).append(loss)
    return sum(sum(v) / len(v) for v in by_dim.values()) / len(by_dim)


def small_config(**kw):
    base = dict(
        variant=ModelVariant.Single9,
        embed_dim=12,
        enc_hidden=12,
        dec_hidden=12,
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestClipGradients:
    def test_large_gradient_scaled_to_norm(self):
        grads = {"a": np.full(4, 10.0)}
        clip_gradients(grads, 5.0)
        assert abs(np.linalg.norm(grads["a"]) - 5.0) < 1e-12

    def test_small_gradient_untouched(self):
        grads = {"a": np.array([0.1, 0.2])}
        before = grads["a"].copy()
        clip_gradients(grads, 5.0)
        np.testing.assert_array_equal(grads["a"], before)


class TestBatchObjective:
    def test_equals_mean_of_dimension_means(self):
        params = toy_params(seed=1)
        rng = np.random.default_rng(0)
        batch = [random_instance(params, rng) for _ in range(7)]
        losses = batch_loss_and_grads(params, batch, params.zero_grads())
        singles = [sequence_loss(params, inst) for inst in batch]
        np.testing.assert_allclose(losses, singles, rtol=0, atol=1e-12)
        assert abs(multitask_mean(batch, losses) - multitask_mean(batch, singles)) < 1e-12

    def test_single_dimension_batch_gradient_locality(self):
        params = toy_params(ModelVariant.EventInvolEvent, seed=2)
        batch = [
            TrainingInstance((8, 9, 10), Dimension.xIntent, (11, 12)),
            TrainingInstance((13, 14), Dimension.xWant, (15,)),
        ]
        grads = params.zero_grads()
        batch_loss_and_grads(params, batch, grads)
        # Both dimensions route through the voluntary encoder; everything
        # owned by the involuntary encoder and the other decoders stays zero.
        for name, g in grads.items():
            if name.startswith("encoder/involuntary/") or name.startswith(
                "bridge/involuntary/"
            ):
                assert np.all(g == 0.0), name
            if name.startswith("decoder/") and not name.startswith(
                ("decoder/xIntent/", "decoder/xWant/")
            ):
                assert np.all(g == 0.0), name
        assert any(
            np.any(g != 0.0)
            for n, g in grads.items()
            if n.startswith("encoder/voluntary/")
        )


ALL_VARIANTS = (
    ModelVariant.Single9,
    ModelVariant.EventInvolEvent,
    ModelVariant.EventPersonXY,
    ModelVariant.EventPrePost,
)


class TestBatchedEngine:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_per_token_reference(self, variant, data):
        # The forward-only losses equal the training engine's bit for bit;
        # their multitask mean and the gradients equal the reference's.
        # Mixed dimensions and lengths; any id, <pad> included, may occur.
        params = toy_params(variant, seed=data.draw(st.integers(0, 1000)))
        ids = st.lists(st.integers(0, len(params.vocab) - 1), min_size=1, max_size=8)
        batch = [
            TrainingInstance(tuple(data.draw(ids)), data.draw(st.sampled_from(params.decoder_dims)),
                             tuple(data.draw(ids)))
            for _ in range(data.draw(st.integers(1, 12)))
        ]
        grads = params.zero_grads()
        losses = batch_loss_and_grads(params, batch, grads)
        np.testing.assert_array_equal(batch_losses(params, batch), losses)
        ref_loss, ref_grads = batch_loss_and_grads_reference(
            params.arrays,
            {d.value: eid for d, eid in params.grouping.items()},
            [(i.event_ids, i.dimension.value, i.target_ids) for i in batch],
            params.vocab.bos_id,
            params.vocab.eos_id,
        )
        assert abs(multitask_mean(batch, losses) - ref_loss) <= 1e-12
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_gradients_stay_in_reached_tensors(self, variant, data):
        # Training skips the tensors outside tensors_of(d) for the batch's
        # dimensions d; that is exact only while their gradients are zero.
        params = toy_params(variant, seed=data.draw(st.integers(0, 1000)))
        dims = data.draw(st.lists(st.sampled_from(params.decoder_dims), min_size=1, max_size=8))
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        batch = [random_instance(params, rng, int(rng.integers(1, 6)), int(rng.integers(0, 4)), d)
                 for d in dims]
        grads = params.zero_grads()
        batch_loss_and_grads(params, batch, grads)
        reached = set().union(*(params.tensors_of(d) for d in dims))
        for name, g in grads.items():
            if name not in reached:
                assert not g.any(), name

    def test_tensors_of_in_param_order(self):
        params = toy_params(ModelVariant.EventInvolEvent)
        names = params.tensors_of(Dimension.xReact)
        assert names == [n for n in params.param_order if n in set(names)]
        assert names[0] == "embedding"
        assert {n.rsplit("/", 1)[0] for n in names[1:]} == {
            "bridge/involuntary", "encoder/involuntary/fwd", "encoder/involuntary/bwd",
            "decoder/xReact"}
        with pytest.raises(ValueError):
            toy_params(ModelVariant.EventPrePost).tensors_of(Dimension.xAttr)


class TestAdam:
    def test_step_equals_textbook_formula(self):
        params = toy_params(seed=5)
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = AdamOptimizer(params, lr)
        expected = {n: a.copy() for n, a in params.arrays.items()}
        m = {n: np.zeros_like(a) for n, a in expected.items()}
        v = {n: np.zeros_like(a) for n, a in expected.items()}
        rng = np.random.default_rng(0)
        for t in range(1, 4):
            grads = {n: rng.normal(size=a.shape) for n, a in expected.items()}
            opt.step(params, grads, list(grads))
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1 - b1) * g
                v[n] = b2 * v[n] + (1 - b2) * g * g
                expected[n] = expected[n] - lr * (m[n] / (1 - b1**t)) / (
                    np.sqrt(v[n] / (1 - b2**t)) + eps)
                np.testing.assert_array_equal(params.arrays[n], expected[n], err_msg=n)

    def test_blocked_step_equals_textbook_formula(self):
        # W_o and the embedding span several update blocks at this size.
        params = toy_params(vocab_size=2100, seed=5)
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = AdamOptimizer(params, lr)
        expected = {n: a.copy() for n, a in params.arrays.items()}
        m = {n: np.zeros_like(a) for n, a in expected.items()}
        v = {n: np.zeros_like(a) for n, a in expected.items()}
        rng = np.random.default_rng(1)
        for t in range(1, 3):
            grads = {n: rng.normal(size=a.shape) for n, a in expected.items()}
            opt.step(params, grads, list(grads))
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1 - b1) * g
                v[n] = b2 * v[n] + (1 - b2) * g * g
                expected[n] = expected[n] - lr * (m[n] / (1 - b1**t)) / (
                    np.sqrt(v[n] / (1 - b2**t)) + eps)
                np.testing.assert_array_equal(params.arrays[n], expected[n], err_msg=n)

    def test_step_keeps_stepping_a_tensor_left_out_of_names(self):
        # The decoder is named once, then left out: later steps still move
        # it, from its zero gradient, exactly as the textbook step does.
        params = toy_params(seed=5)
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = AdamOptimizer(params, lr)
        dec = "decoder/xWant/W_o"
        grads = {n: np.zeros_like(a) for n, a in params.arrays.items()}
        before = {n: a.copy() for n, a in params.arrays.items()}
        rng = np.random.default_rng(2)
        grads["embedding"][:] = rng.normal(size=grads["embedding"].shape)
        opt.step(params, grads, ["embedding"])
        for name, arr in params.arrays.items():
            assert np.array_equal(arr, before[name]) == (name != "embedding"), name
        # Moments exist only for the tensors named so far.
        assert list(opt.m) == list(opt.v) == ["embedding"]
        expected = params.arrays[dec].copy()
        g = rng.normal(size=expected.shape)
        grads[dec][:] = g
        opt.step(params, grads, ["embedding", dec])
        m, v = (1 - b1) * g, (1 - b2) * g * g
        expected = expected - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
        np.testing.assert_array_equal(params.arrays[dec], expected)
        grads[dec].fill(0.0)
        opt.step(params, grads, ["embedding"])
        m, v = b1 * m + (1 - b1) * grads[dec], b2 * v + (1 - b2) * grads[dec] * grads[dec]
        moved = expected - lr * (m / (1 - b1**3)) / (np.sqrt(v / (1 - b2**3)) + eps)
        assert not np.array_equal(moved, expected)
        np.testing.assert_array_equal(params.arrays[dec], moved)
        assert opt.t == 3
        assert list(opt.m) == list(opt.v) == ["embedding", dec]
        for name, arr in params.arrays.items():
            if name not in opt.m:
                np.testing.assert_array_equal(arr, before[name], err_msg=name)


class TestTrain:
    def make_dataset(self, params, n=6):
        rng = np.random.default_rng(42)
        return [random_instance(params, rng) for _ in range(n)]

    def test_overfits_single_instance(self):
        cfg = small_config(epochs=300, learning_rate=5e-3)
        vocab = VocabularyMap.from_tokens(list(RESERVED_TOKENS) + "v0 n0 w w2 w3 w4".split())
        params = init_params(cfg, vocab)
        inst = TrainingInstance(
            tuple(vocab.encode("v0 n0".split())), Dimension.xWant,
            tuple(vocab.encode("w w2 w3".split())),
        )
        _, trace = train(params, [inst])
        assert trace[-1] < 0.05
        assert sequence_loss(params, inst) < 0.05

    def test_zero_learning_rate_constant_trace(self):
        cfg = small_config(epochs=4, learning_rate=0.0, batch_size=3)
        params = toy_params(seed=3, **{})
        params = init_params(cfg, params.vocab)
        dataset = self.make_dataset(params, 10)
        before = {n: a.copy() for n, a in params.arrays.items()}
        _, trace = train(params, dataset)
        assert len(trace) == 4
        assert all(abs(v - trace[0]) < 1e-12 for v in trace)
        for name, arr in params.arrays.items():
            np.testing.assert_array_equal(arr, before[name])

    def test_epoch_loss_independent_of_batching(self):
        # With a frozen model, one-instance batches and one whole-dataset
        # batch must report the same multitask mean for every epoch.
        params = toy_params(ModelVariant.EventInvolEvent, seed=3)
        dataset = self.make_dataset(params, 11)
        assert len({inst.dimension for inst in dataset}) > 1
        traces = []
        for batch_size in (1, len(dataset)):
            cfg = dataclasses.replace(params.config, epochs=3, learning_rate=0.0,
                                      batch_size=batch_size)
            traces.append(train(params, dataset, cfg)[1])
        np.testing.assert_allclose(traces[0], traces[1], rtol=0, atol=1e-12)
        assert abs(traces[1][0] - multitask_mean(dataset, batch_losses(params, dataset))) < 1e-12

    def test_seed_determinism_bit_identical(self):
        cfg = small_config(epochs=3, seed=7, batch_size=4)
        vocab = VocabularyMap.from_tokens(list(RESERVED_TOKENS) + "a b c d e f g h".split())
        results = []
        for _ in range(2):
            params = init_params(cfg, vocab)
            dataset = self.make_dataset(params, 12)
            train(params, dataset)
            results.append({n: a.copy() for n, a in params.arrays.items()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_encoder_locality_after_training(self):
        # Training only voluntary-group dimensions leaves the involuntary
        # encoder bit-identical to its initialization.
        cfg = small_config(variant=ModelVariant.EventInvolEvent, epochs=2)
        vocab = VocabularyMap.from_tokens(list(RESERVED_TOKENS) + "a b c d".split())
        params = init_params(cfg, vocab)
        frozen = {
            n: a.copy()
            for n, a in params.arrays.items()
            if n.startswith(("encoder/involuntary/", "bridge/involuntary/"))
        }
        dataset = [
            TrainingInstance((8, 9), Dimension.xIntent, (10,)),
            TrainingInstance((10, 11), Dimension.oWant, (8, 9)),
        ]
        train(params, dataset)
        for name, arr in frozen.items():
            np.testing.assert_array_equal(params.arrays[name], arr)

    def test_empty_dataset_rejected(self):
        params = toy_params()
        with pytest.raises(ValueError):
            train(params, [])

    def test_early_stop(self):
        cfg = small_config(epochs=500, learning_rate=5e-3, early_stop_loss=0.2)
        vocab = VocabularyMap.from_tokens(list(RESERVED_TOKENS) + "a b c".split())
        params = init_params(cfg, vocab)
        inst = TrainingInstance((8, 9), Dimension.xEffect, (10,))
        _, trace = train(params, [inst])
        assert trace[-1] < 0.2
        assert len(trace) < 500

    def test_nan_aborts(self):
        params = toy_params(seed=0)
        params.arrays["embedding"][:] = np.nan
        inst = TrainingInstance((8,), Dimension.xIntent, (9,))
        cfg = dataclasses.replace(params.config, epochs=1)
        with pytest.raises(NumericError):
            train(params, [inst], cfg)

    def test_nan_gradient_with_finite_loss_aborts(self, monkeypatch):
        poison_gradients(monkeypatch)
        params = toy_params(seed=0)
        inst = TrainingInstance((8,), Dimension.xIntent, (9,))
        cfg = dataclasses.replace(params.config, epochs=1)
        with pytest.raises(NumericError, match="gradient norm"):
            train(params, [inst], cfg)


def _train_outcome(fn, *args):
    try:
        return fn(*args)
    except (NumericError, FloatingPointError) as exc:
        return str(exc)


def assert_trains_like_reference(params, dataset, config):
    """train() and the step-every-tensor loop, each on its own copy, agree
    bit for bit: parameters, loss trace, and where training aborts."""
    ref = ModelParams(config, params.vocab, {n: a.copy() for n, a in params.arrays.items()},
                      list(params.param_order))
    with np.errstate(all="ignore"):
        got = _train_outcome(lambda: train(params, dataset, config)[1])
        want = _train_outcome(train_reference, ref, dataset, config, batch_loss_and_grads)
    assert got == want
    for name in params.param_order:
        np.testing.assert_array_equal(params.arrays[name], ref.arrays[name], err_msg=name)


class TestTrainMatchesReference:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_equals_step_every_tensor_loop(self, variant, data):
        # One-instance batches over alternating dimensions leave most
        # tensors idle in most steps, and live ones idle between visits.
        params = toy_params(variant, seed=data.draw(st.integers(0, 1000)))
        dims = data.draw(st.lists(st.sampled_from(params.decoder_dims), min_size=2, max_size=4,
                                  unique=True))
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        dataset = [random_instance(params, rng, int(rng.integers(1, 5)), int(rng.integers(0, 4)),
                                   dims[k % len(dims)])
                   for k in range(data.draw(st.integers(len(dims), 8)))]
        config = dataclasses.replace(
            params.config, epochs=2, batch_size=data.draw(st.sampled_from([1, 1, 3])),
            learning_rate=data.draw(st.sampled_from([0.0, 1e-2, 0.5])),
            clip_norm=data.draw(st.sampled_from([0.0, 1e-3, 5.0])),
            seed=data.draw(st.integers(0, 1000)))
        poison = data.draw(st.sampled_from([None, np.nan, np.inf, 1e200]))
        if poison is not None:
            name = data.draw(st.sampled_from(params.param_order))
            flat = params.arrays[name].reshape(-1)
            flat[data.draw(st.integers(0, flat.size - 1))] = poison
        assert_trains_like_reference(params, dataset, config)

    def test_equals_reference_when_clipping_fires(self, monkeypatch):
        train_module = importlib.import_module("ifthen.seq2seq.train")
        norms = []

        def recording_clip(grads, max_norm):
            norms.append(clip_gradients(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr(train_module, "clip_gradients", recording_clip)
        params = toy_params(ModelVariant.EventPersonXY, seed=4)
        rng = np.random.default_rng(4)
        dims = params.decoder_dims
        dataset = [random_instance(params, rng, dim=dims[k % len(dims)]) for k in range(6)]
        config = dataclasses.replace(params.config, epochs=2, batch_size=1, clip_norm=0.05,
                                     learning_rate=1e-2)
        assert_trains_like_reference(params, dataset, config)
        assert any(n > config.clip_norm for n in norms)
