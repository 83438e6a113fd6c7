import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_instance, toy_params

from ifthen.seq2seq import ModelConfig, ModelVariant, encoder_grouping, model
from ifthen.seq2seq.config import FIELD_MINIMUMS
from ifthen.seq2seq.model import (
    ModelParams,
    TrainingInstance,
    _Batch,
    _Decoder,
    _Encoder,
    _output,
    _Recurrence,
    batch_loss_and_grads,
    decode_step,
    initial_decoder_state,
    sequence_loss,
)
from ifthen.taxonomy import CausalCategory, Dimension, Subject, Volition, classify_dimension


def encode(params, encoder_id, event_ids):
    """The event's concatenated final forward and backward encoder states."""
    return _Encoder(params, {encoder_id: [event_ids]}).h[encoder_id][0]


def first_encoder(params):
    return min(params.grouping.values())


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
        assert len(set(params.grouping.values())) == encoders
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
        h = encode(params, first_encoder(params), [8, 9, 10])
        assert np.all(h == 0.0)

    def test_empty_sequence_error(self):
        params = toy_params()
        with pytest.raises(ValueError):
            encode(params, first_encoder(params), [])

    def test_repeated_token_changes_state(self):
        params = toy_params(seed=5)
        eid = first_encoder(params)
        h1 = encode(params, eid, [9])
        h2 = encode(params, eid, [9, 9])
        assert not np.allclose(h1, h2)

    def test_reversal_swaps_halves_with_tied_cells(self):
        params = toy_params(seed=3)
        eid = first_encoder(params)
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


def ragged_groups(data, params, groups, most_rows):
    """Per dimension, a ragged set of id sequences; some groups have one
    row, and lengths vary so that groups finish at different steps."""
    ids = st.integers(0, len(params.vocab) - 1)
    dims = data.draw(st.lists(st.sampled_from(params.decoder_dims), min_size=groups,
                              max_size=groups, unique=True))
    return {dim: [tuple(data.draw(st.lists(ids, min_size=0, max_size=6)))
                  for _ in range(data.draw(st.sampled_from([1, 1, 2, most_rows])))]
            for dim in dims}


def assert_grads_equal(got, want):
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


class TestGroupedRecurrence:
    """One time loop over several cells equals each cell run alone, bit for bit.

    Rows of one group at one step are one product of exactly that many
    rows; 32 and 64 hidden units with up to 40 rows cross the row counts
    at which the BLAS changes kernels, and single rows take gemv.
    """

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_decoders_equal_separate_runs(self, data):
        hidden = data.draw(st.sampled_from([16, 32, 64]))
        params = toy_params(seed=data.draw(st.integers(0, 1000)), hidden=hidden)
        targets = ragged_groups(data, params, data.draw(st.integers(2, 5)), 40)
        rng = np.random.default_rng(0)
        s0 = {dim: rng.normal(size=(len(t), hidden)) for dim, t in targets.items()}
        grads = params.zero_grads()
        joint = _Decoder(params, targets, s0)
        outputs = [joint.output(g, grads, 0.5) for g in range(len(targets))]
        joint_dh0 = joint.rnn.backward([d for _, d in outputs], grads)
        alone_grads = params.zero_grads()
        for g, dim in enumerate(targets):
            alone = _Decoder(params, {dim: targets[dim]}, {dim: s0[dim]})
            np.testing.assert_array_equal(joint.rnn.packed(g), alone.rnn.packed(0))
            losses, d = alone.output(0, alone_grads, 0.5)
            np.testing.assert_array_equal(outputs[g][0], losses)
            np.testing.assert_array_equal(joint_dh0[g], alone.rnn.backward([d], alone_grads)[0])
        assert_grads_equal(grads, alone_grads)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_encoders_equal_separate_runs(self, data):
        hidden = data.draw(st.sampled_from([16, 64]))
        params = toy_params(seed=data.draw(st.integers(0, 1000)), hidden=hidden)
        ids = st.integers(0, len(params.vocab) - 1)
        events = {params.grouping[dim]: [tuple(data.draw(st.lists(ids, min_size=1, max_size=6)))
                                         for _ in range(data.draw(st.sampled_from([1, 3, 40])))]
                  for dim in params.decoder_dims[: data.draw(st.integers(1, 3))]}
        rng = np.random.default_rng(1)
        ds0 = {eid: rng.normal(size=(len(e), hidden)) for eid, e in events.items()}
        grads = params.zero_grads()
        joint = _Encoder(params, events)
        joint.backward(ds0, grads)
        alone_grads = params.zero_grads()
        for eid, group in events.items():
            alone = _Encoder(params, {eid: group})
            np.testing.assert_array_equal(joint.h[eid], alone.h[eid])
            np.testing.assert_array_equal(joint.s0[eid], alone.s0[eid])
            alone.backward({eid: ds0[eid]}, alone_grads)
        assert_grads_equal(grads, alone_grads)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_scratch_rows_are_written_before_read(self, data):
        # Every buffer the engine allocates uninitialized starts as NaN (or
        # an out-of-range index); no bit of any loss or gradient changes.
        params = toy_params(ModelVariant.EventInvolEvent, hidden=32,
                            seed=data.draw(st.integers(0, 1000)))
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        batch = [random_instance(params, rng, int(rng.integers(1, 7)), int(rng.integers(0, 6)))
                 for _ in range(data.draw(st.integers(1, 40)))]
        grads = params.zero_grads()
        losses = batch_loss_and_grads(params, batch, grads)

        def poisoned(shape, dtype=float):
            fill = np.nan if np.dtype(dtype).kind == "f" else np.iinfo(dtype).max
            return np.full(shape, fill, dtype=dtype)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model.np, "empty", poisoned)
            patch.setattr(model.np, "empty_like",
                          lambda a, dtype=None: poisoned(a.shape, dtype or a.dtype))
            poisoned_grads = params.zero_grads()
            np.testing.assert_array_equal(
                batch_loss_and_grads(params, batch, poisoned_grads), losses)
        assert_grads_equal(poisoned_grads, grads)

    def test_one_step_call_per_time_step(self, monkeypatch):
        # Every decoder of the batch shares one loop, and so do both
        # directions of every encoder.
        params = toy_params(ModelVariant.EventInvolEvent)
        rng = np.random.default_rng(3)
        batch = [random_instance(params, rng, int(rng.integers(1, 7)), int(rng.integers(0, 6)))
                 for _ in range(24)]
        calls = {"gru_step": 0, "gru_step_backward": 0}
        for name in calls:
            def counted(*args, _real=getattr(model, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(model, name, counted)
        batch_loss_and_grads(params, batch, params.zero_grads())
        steps = (max(len(i.event_ids) for i in batch)
                 + max(len(i.target_ids) for i in batch) + 1)
        assert calls == {"gru_step": steps, "gru_step_backward": steps}

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 40))
    def test_decode_step_is_one_training_step(self, seed, rows):
        params = toy_params(seed=seed, hidden=32)
        dim = params.decoder_dims[seed % len(params.decoder_dims)]
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(rows, 32))
        prev = rng.integers(0, len(params.vocab), size=rows)
        batch = _Batch([[int(t)] for t in prev])
        prefix = f"decoder/{dim.value}"
        rnn = _Recurrence(params, [prefix], [batch], [batch.pack([[int(t)] for t in prev])],
                          [states[batch.order]])
        probs, new_states = decode_step(params, dim, states, prev)
        np.testing.assert_array_equal(new_states, batch.unsort(rnn.packed(0)))
        np.testing.assert_array_equal(probs, batch.unsort(_output(params, prefix, rnn.packed(0))))


class TestEncodingMemo:
    """``initial_decoder_state`` reuses a shared encoder's last encoding only
    while everything that encoding read holds the same bytes."""

    SHARED = [v for v in ModelVariant if v is not ModelVariant.Single9]

    @staticmethod
    def fresh(params, dim, ids):
        eid = params.grouping[dim]
        return _Encoder(params, {eid: [list(ids)]}).s0[eid][0]

    @staticmethod
    def bits(a):
        return a.shape, a.tobytes()

    @staticmethod
    def read_names(eid):
        cells = [f"encoder/{eid}/{d}/{k}" for d in ("fwd", "bwd") for k in "WUb"]
        return cells + [f"bridge/{eid}/W", f"bridge/{eid}/b", "embedding"]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(variant=st.sampled_from(SHARED), seed=st.integers(0, 1_000), data=st.data())
    def test_changed_read_encodes_afresh(self, variant, seed, data):
        params = toy_params(variant, hidden=6, seed=seed)
        dim = data.draw(st.sampled_from(params.decoder_dims))
        ids = data.draw(st.lists(st.integers(4, len(params.vocab) - 1), min_size=1, max_size=5))
        name = data.draw(st.sampled_from(self.read_names(params.grouping[dim])))
        arr = params.arrays[name]
        if name == "embedding":
            index = (data.draw(st.sampled_from(ids)), data.draw(st.integers(0, arr.shape[1] - 1)))
        else:
            index = np.unravel_index(data.draw(st.integers(0, arr.size - 1)), arr.shape)
        change = data.draw(st.sampled_from(["value", "signed-zero", "nan", "replaced"]))
        if change == "signed-zero":
            zero = data.draw(st.sampled_from([0.0, -0.0]))
            arr[index] = zero
            value = -zero
        elif change == "nan":
            value = math.nan
        else:
            value = data.draw(st.floats(-1.0, 1.0))
            assume(np.float64(value).tobytes() != arr[index].tobytes())
        initial_decoder_state(params, dim, ids)
        if change == "replaced":
            arr = params.arrays[name] = arr.copy()
        arr[index] = value
        with mock.patch.object(model, "_Encoder", wraps=_Encoder) as built:
            state = initial_decoder_state(params, dim, ids)
        assert built.call_count == 1
        assert self.bits(state) == self.bits(self.fresh(params, dim, ids))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(variant=st.sampled_from(list(ModelVariant)), seed=st.integers(0, 1_000),
           data=st.data())
    def test_any_call_sequence_equals_fresh_encodings(self, variant, seed, data):
        params = toy_params(variant, hidden=6, seed=seed)
        events = st.lists(st.integers(4, 8), min_size=1, max_size=3)
        for dim, ids in data.draw(st.lists(
                st.tuples(st.sampled_from(params.decoder_dims), events), max_size=12)):
            state = initial_decoder_state(params, dim, ids)
            assert self.bits(state) == self.bits(self.fresh(params, dim, ids))

    def test_mutating_a_returned_state_leaves_the_memo(self):
        params = toy_params(ModelVariant.EventInvolEvent, hidden=6)
        state = initial_decoder_state(params, Dimension.xReact, [5, 6])
        state[:] = 7.0
        again = initial_decoder_state(params, Dimension.xReact, [5, 6])
        assert self.bits(again) == self.bits(self.fresh(params, Dimension.xReact, [5, 6]))

    def test_params_sharing_arrays_see_each_others_changes(self):
        a = toy_params(ModelVariant.EventInvolEvent, hidden=6)
        b = ModelParams(a.config, a.vocab, a.arrays, a.param_order)
        dim, ids = Dimension.xIntent, [5, 6, 7]
        before = initial_decoder_state(a, dim, ids)
        initial_decoder_state(b, dim, ids)
        b.arrays["encoder/voluntary/bwd/U"][0, 0] += 0.5
        for p in (a, b):
            state = initial_decoder_state(p, dim, ids)
            assert self.bits(state) == self.bits(self.fresh(p, dim, ids))
            assert not np.array_equal(state, before)

    @pytest.mark.parametrize("variant,builds", [
        (ModelVariant.EventInvolEvent, 2), (ModelVariant.Single9, 9)])
    def test_one_event_over_every_dimension(self, variant, builds):
        params = toy_params(variant, hidden=6)
        with mock.patch.object(model, "_Encoder", wraps=_Encoder) as built:
            states = [initial_decoder_state(params, d, [5, 6, 7]) for d in params.decoder_dims]
        assert len(states) == 9 and built.call_count == builds
        for dim, state in zip(params.decoder_dims, states):
            assert self.bits(state) == self.bits(self.fresh(params, dim, [5, 6, 7]))


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

    @pytest.mark.parametrize("field, minimum", sorted(FIELD_MINIMUMS.items()))
    def test_every_bounded_field_holds_its_minimum_and_no_less(self, field, minimum):
        assert getattr(ModelConfig(**{field: minimum}), field) == minimum
        with pytest.raises(ValueError, match=f"{field} must be finite and at least {minimum}"):
            ModelConfig(**{field: minimum - 1})

    def test_zero_rate_and_clip_norm_allowed(self):
        ModelConfig(learning_rate=0.0, clip_norm=0.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig.from_dict({"variant": "single9", "bogus": 1})

    def test_round_trip(self):
        cfg = ModelConfig(variant=ModelVariant.EventPrePost, epochs=3)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg
