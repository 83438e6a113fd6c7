import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance, toy_params

from ifthen.seq2seq import ModelConfig, ModelVariant, encoder_grouping
from ifthen.seq2seq.model import (
    ModelParams,
    TrainingInstance,
    decode_step,
    encode,
    initial_decoder_state,
    sequence_loss,
)
from ifthen.taxonomy import CausalCategory, Dimension, Subject, Volition, classify_dimension


def zeroed(params):
    for arr in params.arrays.values():
        arr[:] = 0.0
    return params


class TestEncoderGrouping:
    def test_single9(self):
        g = encoder_grouping(ModelVariant.Single9)
        assert len(set(g.values())) == 9 and len(g) == 9

    def test_voluntary_involuntary(self):
        g = encoder_grouping(ModelVariant.EventInvolEvent)
        ids = set(g.values())
        assert len(ids) == 2
        sizes = sorted(sum(1 for v in g.values() if v == i) for i in ids)
        assert sizes == [4, 5]
        assert g[Dimension.xIntent] == g[Dimension.oWant] == "voluntary"
        assert g[Dimension.xReact] == g[Dimension.oEffect] == "involuntary"

    def test_agent_theme(self):
        g = encoder_grouping(ModelVariant.EventPersonXY)
        sizes = sorted(
            sum(1 for v in g.values() if v == i) for i in set(g.values())
        )
        assert sizes == [3, 6]
        assert all(g[d] == "theme" for d in (Dimension.oEffect, Dimension.oReact, Dimension.oWant))

    def test_pre_post_omits_xattr(self):
        g = encoder_grouping(ModelVariant.EventPrePost)
        assert Dimension.xAttr not in g
        assert len(g) == 8 and len(set(g.values())) == 2
        assert g[Dimension.xNeed] == g[Dimension.xIntent] == "pre"

    @pytest.mark.parametrize(
        "variant,axis,ids",
        [
            (ModelVariant.EventInvolEvent, lambda c: c.volition,
             {Volition.Voluntary: "voluntary", Volition.Involuntary: "involuntary"}),
            (ModelVariant.EventPersonXY, lambda c: c.subject,
             {Subject.Agent: "agent", Subject.Theme: "theme"}),
            # The stative xAttr has no encoder.
            (ModelVariant.EventPrePost, lambda c: c.causal_category,
             {CausalCategory.Cause: "pre", CausalCategory.Effect: "post",
              CausalCategory.Stative: None}),
        ],
        ids=["event-invol", "event-personxy", "event-prepost"],
    )
    def test_volition_consistent_with_taxonomy(self, variant, axis, ids):
        expected = {d: ids[axis(classify_dimension(d))] for d in Dimension}
        assert encoder_grouping(variant) == {d: e for d, e in expected.items() if e is not None}


class TestTopology:
    @pytest.mark.parametrize(
        "variant,encoders,decoders",
        [
            (ModelVariant.Single9, 9, 9),
            (ModelVariant.EventInvolEvent, 2, 9),
            (ModelVariant.EventPersonXY, 2, 9),
            (ModelVariant.EventPrePost, 2, 8),
        ],
    )
    def test_parameter_group_counts(self, variant, encoders, decoders):
        params = toy_params(variant)
        assert len(params.encoder_ids) == encoders
        assert len(params.decoder_dims) == decoders
        enc_arrays = {n for n in params.arrays if n.startswith("encoder/")}
        assert len(enc_arrays) == encoders * 2 * 3

    def test_shared_encoder_is_same_object(self):
        params = toy_params(ModelVariant.EventInvolEvent)
        a = params.cell("encoder/voluntary/fwd").W
        b = params.cell("encoder/voluntary/fwd").W
        assert a is b
        # The same arrays serve every dimension in the group.
        assert params.grouping[Dimension.xIntent] == params.grouping[Dimension.xWant]


class TestEncode:
    def test_zero_params_zero_state(self):
        params = zeroed(toy_params())
        h = encode(params, params.encoder_ids[0], [8, 9, 10])
        assert np.all(h == 0.0)

    def test_empty_sequence_error(self):
        params = toy_params()
        with pytest.raises(ValueError):
            encode(params, params.encoder_ids[0], [])

    def test_repeated_token_changes_state(self):
        params = toy_params(seed=5)
        eid = params.encoder_ids[0]
        h1 = encode(params, eid, [9])
        h2 = encode(params, eid, [9, 9])
        assert not np.allclose(h1, h2)

    def test_reversal_swaps_halves_with_tied_cells(self):
        params = toy_params(seed=3)
        eid = params.encoder_ids[0]
        for key in ("W", "U", "b"):
            params.arrays[f"encoder/{eid}/bwd/{key}"][:] = params.arrays[
                f"encoder/{eid}/fwd/{key}"
            ]
        half = params.config.enc_hidden // 2
        seq = [8, 9, 10, 11]
        h = encode(params, eid, seq)
        h_rev = encode(params, eid, list(reversed(seq)))
        np.testing.assert_allclose(h_rev[:half], h[half:], atol=1e-12)
        np.testing.assert_allclose(h_rev[half:], h[:half], atol=1e-12)


class TestDecodeStep:
    def test_zero_output_layer_uniform(self):
        params = toy_params()
        dim = params.decoder_dims[0]
        params.arrays[f"decoder/{dim.value}/W_o"][:] = 0.0
        params.arrays[f"decoder/{dim.value}/b_o"][:] = 0.0
        probs, _ = decode_step(params, dim, np.zeros(params.config.dec_hidden), 9)
        np.testing.assert_allclose(probs, 1.0 / len(params.vocab), atol=1e-12)

    def test_saturated_bias_argmax(self):
        params = toy_params()
        dim = params.decoder_dims[0]
        params.arrays[f"decoder/{dim.value}/W_o"][:] = 0.0
        params.arrays[f"decoder/{dim.value}/b_o"][:] = 0.0
        params.arrays[f"decoder/{dim.value}/b_o"][17] = 50.0
        probs, _ = decode_step(params, dim, np.zeros(params.config.dec_hidden), 9)
        assert probs.argmax() == 17
        assert probs[17] > 1.0 - 1e-12

    def test_matches_scalar_oracle(self):
        params = toy_params(seed=11, vocab_size=12, hidden=6)
        dim = params.decoder_dims[2]
        state = np.linspace(-0.5, 0.5, 6)
        prev = 9
        probs, new_state = decode_step(params, dim, state, prev)

        # Independent scalar recomputation with explicit loops.
        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        H = len(state)
        c = {f"{kind}{gate}": params.arrays[f"decoder/{dim.value}/{kind}"][i * H : (i + 1) * H]
             for kind in "WUb" for i, gate in enumerate("zrn")}
        x = params.arrays["embedding"][prev]
        z = [sig(sum(c["Wz"][i][j] * x[j] for j in range(H))
                 + sum(c["Uz"][i][j] * state[j] for j in range(H)) + c["bz"][i])
             for i in range(H)]
        r = [sig(sum(c["Wr"][i][j] * x[j] for j in range(H))
                 + sum(c["Ur"][i][j] * state[j] for j in range(H)) + c["br"][i])
             for i in range(H)]
        n = [math.tanh(sum(c["Wn"][i][j] * x[j] for j in range(H))
                       + sum(c["Un"][i][j] * r[j] * state[j] for j in range(H))
                       + c["bn"][i])
             for i in range(H)]
        h = [(1 - z[i]) * n[i] + z[i] * state[i] for i in range(H)]
        w_o = params.arrays[f"decoder/{dim.value}/W_o"]
        b_o = params.arrays[f"decoder/{dim.value}/b_o"]
        logits = [sum(w_o[k][i] * h[i] for i in range(H)) + b_o[k]
                  for k in range(len(params.vocab))]
        m = max(logits)
        exps = [math.exp(v - m) for v in logits]
        total = sum(exps)
        np.testing.assert_allclose(new_state, h, atol=1e-12)
        np.testing.assert_allclose(probs, [e / total for e in exps], atol=1e-12)

    def test_rebound_gate_entry_is_used(self):
        # Rebinding a cell's entry to a new array must take effect.
        params = toy_params(seed=12)
        dim = params.decoder_dims[0]
        name = f"decoder/{dim.value}/W"
        state = np.zeros(params.config.dec_hidden)
        before, _ = decode_step(params, dim, state, 9)
        params.arrays[name] = params.arrays[name] * 2.0
        after, _ = decode_step(params, dim, state, 9)
        fresh = ModelParams(params.config, params.vocab, params.arrays, params.param_order)
        assert not np.allclose(before, after)
        np.testing.assert_array_equal(after, decode_step(fresh, dim, state, 9)[0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 12))
    def test_batched_rows_equal_single_calls(self, seed, rows):
        params = toy_params(seed=seed)
        dim = params.decoder_dims[seed % len(params.decoder_dims)]
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(rows, params.config.dec_hidden))
        prev = rng.integers(0, len(params.vocab), size=rows)
        probs, new_states = decode_step(params, dim, states, prev)
        assert probs.shape == (rows, len(params.vocab))
        assert new_states.shape == states.shape
        for i in range(rows):
            row_probs, row_state = decode_step(params, dim, states[i], int(prev[i]))
            np.testing.assert_allclose(probs[i], row_probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(new_states[i], row_state, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), prev=st.integers(0, 29))
    def test_distribution_property(self, seed, prev):
        params = toy_params(seed=seed)
        dim = params.decoder_dims[seed % len(params.decoder_dims)]
        rng = np.random.default_rng(seed)
        state = rng.normal(size=params.config.dec_hidden)
        probs, _ = decode_step(params, dim, state, prev)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-6


class TestSequenceLoss:
    def test_zero_output_layer_gives_log_vocab(self):
        params = toy_params(seed=2)
        for dim in params.decoder_dims:
            params.arrays[f"decoder/{dim.value}/W_o"][:] = 0.0
            params.arrays[f"decoder/{dim.value}/b_o"][:] = 0.0
        for dim in params.decoder_dims[:3]:
            inst = TrainingInstance((8, 9, 10), dim, (11, 12))
            assert abs(sequence_loss(params, inst) - math.log(len(params.vocab))) < 1e-12

    def test_single_eos_target(self):
        params = toy_params(seed=4)
        dim = params.decoder_dims[0]
        inst = TrainingInstance((8, 9), dim, ())
        state = initial_decoder_state(params, dim, [8, 9])
        probs, _ = decode_step(params, dim, state, params.vocab.bos_id)
        expected = -math.log(probs[params.vocab.eos_id])
        assert abs(sequence_loss(params, inst) - expected) < 1e-12

    def test_three_token_hand_computation(self):
        params = toy_params(seed=6)
        dim = params.decoder_dims[1]
        target = (9, 15, 22)
        inst = TrainingInstance((10, 11), dim, target)
        state = initial_decoder_state(params, dim, [10, 11])
        golds = list(target) + [params.vocab.eos_id]
        inputs = [params.vocab.bos_id] + list(target)
        total = 0.0
        for inp, gold in zip(inputs, golds):
            probs, state = decode_step(params, dim, state, inp)
            total += -math.log(probs[gold])
        assert abs(sequence_loss(params, inst) - total / 4) < 1e-12

    def test_non_negative(self):
        params = toy_params(seed=8)
        for i in range(5):
            inst = random_instance(params, np.random.default_rng(i))
            assert sequence_loss(params, inst) >= 0.0

    def test_out_of_scope_dimension_rejected(self):
        params = toy_params(ModelVariant.EventPrePost)
        inst = TrainingInstance((8, 9), Dimension.xAttr, (10,))
        with pytest.raises(ValueError):
            sequence_loss(params, inst)


class TestConfig:
    def test_odd_encoder_hidden_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(enc_hidden=65)

    @pytest.mark.parametrize("field", ["learning_rate", "clip_norm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-3])
    def test_bad_rate_or_clip_norm_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})

    def test_zero_rate_and_clip_norm_allowed(self):
        ModelConfig(learning_rate=0.0, clip_norm=0.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig.from_dict({"variant": "single9", "bogus": 1})

    def test_round_trip(self):
        cfg = ModelConfig(variant=ModelVariant.EventPrePost, epochs=3)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
