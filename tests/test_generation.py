import io
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_triple, toy_params

from oracles import beam_search_reference, enumerate_sequences, nearest_neighbor_reference

from ifthen.generation import (
    GenerationList,
    beam_search,
    nearest_neighbor_predict,
    read_generations,
    write_generations,
)
from ifthen.graph import build_graph
from ifthen.seq2seq import ModelVariant
from ifthen.seq2seq.model import decode_step, initial_decoder_state
from ifthen.taxonomy import Dimension


def model_step_logprobs(params, dimension, event_ids):
    """Next-token log-probabilities via from-scratch decoder replay."""

    def step(prefix):
        state = initial_decoder_state(params, dimension, list(event_ids))
        prev = params.vocab.bos_id
        for tok in prefix:
            probs, state = decode_step(params, dimension, state, prev)
            prev = tok
        probs, _ = decode_step(params, dimension, state, prev)
        return [math.log(max(p, 1e-300)) for p in probs]

    return step


class TestBeamSearch:
    def test_exhaustive_beam_matches_brute_force(self):
        params = toy_params(vocab_size=12, hidden=8, seed=9, max_decode_len=3)
        dim = params.decoder_dims[0]
        event_ids = [8, 9]
        oracle = enumerate_sequences(
            model_step_logprobs(params, dim, event_ids),
            params.vocab.eos_id,
            max_len=3,
        )
        width = len(oracle)
        result = beam_search(
            params,
            [params.vocab.tokens[i] for i in event_ids],
            dim,
            beam_width=width,
            max_len=3,
        )
        assert len(result.entries) == width
        best = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))
        for (o_ids, o_score), (tokens, score) in zip(best, result.entries):
            assert tuple(params.vocab.tokens[i] for i in o_ids) == tokens
            assert abs(o_score - score) < 1e-9

    def test_narrow_beam_is_prefix_of_exhaustive(self):
        params = toy_params(vocab_size=12, hidden=8, seed=10, max_decode_len=3)
        dim = params.decoder_dims[1]
        wide = beam_search(params, ["w0", "w1"], dim, beam_width=500, max_len=3)
        for k in (1, 3, 7):
            narrow = beam_search(params, ["w0", "w1"], dim, beam_width=k, max_len=3)
            # Width-limited search can miss sequences, but whatever it
            # returns can never beat the exhaustive ranking.
            for entry, wide_entry in zip(narrow.entries, wide.entries):
                assert entry[1] <= wide_entry[1] + 1e-12

    def test_width_one_equals_greedy(self):
        # Width 1 keeps one hypothesis per step, as the reference does.
        params = toy_params(seed=11)
        vocab = params.vocab
        for dim in params.decoder_dims[:3]:
            step = model_step_logprobs(params, dim, vocab.encode(["w2", "w3"]))
            expected = beam_search_reference(lambda consumed: step(consumed[1:]), vocab.bos_id,
                                             vocab.eos_id, vocab.unk_id, 1,
                                             params.config.max_decode_len, False)
            result = beam_search(params, ["w2", "w3"], dim, beam_width=1)
            assert_matches(result, [(tuple(vocab.decode(list(ids))), s) for ids, s in expected])

    def test_scores_sorted_descending(self):
        params = toy_params(seed=12)
        result = beam_search(params, "w1 w4", params.decoder_dims[0], beam_width=10)
        scores = [s for _, s in result.entries]
        assert scores == sorted(scores, reverse=True)

    def test_no_duplicate_sequences(self):
        params = toy_params(vocab_size=12, hidden=8, seed=13, max_decode_len=4)
        result = beam_search(params, "w0", params.decoder_dims[0], beam_width=50, max_len=4)
        seqs = [tokens for tokens, _ in result.entries]
        assert len(seqs) == len(set(seqs))

    def test_suppress_unk_never_emits_unk(self):
        params = toy_params(vocab_size=12, hidden=8, seed=14)
        # Bias the output layer hard toward <unk> so suppression is load-bearing.
        dim = params.decoder_dims[0]
        params.arrays[f"decoder/{dim.value}/b_o"][params.vocab.unk_id] = 20.0
        result = beam_search(params, "w0 w1", dim, beam_width=5, suppress_unk=True)
        for tokens, _ in result.entries:
            assert "<unk>" not in tokens

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        variant=st.sampled_from(list(ModelVariant)),
        vocab_size=st.integers(10, 30),
        width=st.integers(1, 12),
        max_len=st.integers(1, 5),
        suppress_unk=st.booleans(),
        flat_output=st.booleans(),
        event=st.lists(st.integers(0, 9), min_size=1, max_size=4),
    )
    def test_matches_reference_loop(self, seed, variant, vocab_size, width, max_len,
                                    suppress_unk, flat_output, event):
        params = toy_params(variant=variant, vocab_size=vocab_size, hidden=8, seed=seed)
        dim = params.decoder_dims[seed % len(params.decoder_dims)]
        if flat_output:
            # Every token ties at every step: only the tie-break orders them.
            params.arrays[f"decoder/{dim.value}/W_o"][:] = 0.0
            params.arrays[f"decoder/{dim.value}/b_o"][:] = 0.0
        event_ids = [i % vocab_size for i in event]
        replays = {}

        def step_logprobs(consumed):
            if consumed not in replays:
                state = initial_decoder_state(params, dim, event_ids)
                for tok in consumed:
                    probs, state = decode_step(params, dim, state, tok)
                replays[consumed] = np.log(np.maximum(probs, 1e-300)).tolist()
            return replays[consumed]

        vocab = params.vocab
        expected = beam_search_reference(step_logprobs, vocab.bos_id, vocab.eos_id,
                                         vocab.unk_id, width, max_len, suppress_unk)
        result = beam_search(params, [vocab.tokens[i] for i in event_ids], dim,
                             beam_width=width, max_len=max_len, suppress_unk=suppress_unk)
        assert [tokens for tokens, _ in result.entries] == [
            tuple(vocab.tokens[i] for i in ids) for ids, _ in expected]
        for (_, score), (_, ref_score) in zip(result.entries, expected):
            assert abs(score - ref_score) < 1e-12

    def test_invalid_width(self):
        params = toy_params()
        with pytest.raises(ValueError):
            beam_search(params, "w0", params.decoder_dims[0], beam_width=0)

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_invalid_max_len(self, max_len):
        params = toy_params()
        with pytest.raises(ValueError, match="max_len"):
            beam_search(params, "w0", params.decoder_dims[0], max_len=max_len)


def reference_entries(params, dim, event_ids, width, max_len, suppress_unk=False):
    """``beam_search_reference`` over the model, run to the length cap."""
    replays = {}

    def step_logprobs(consumed):
        if consumed not in replays:
            state = initial_decoder_state(params, dim, event_ids)
            for tok in consumed:
                probs, state = decode_step(params, dim, state, tok)
            replays[consumed] = np.log(np.maximum(probs, 1e-300)).tolist()
        return replays[consumed]

    vocab = params.vocab
    ranked = beam_search_reference(step_logprobs, vocab.bos_id, vocab.eos_id, vocab.unk_id,
                                   width, max_len, suppress_unk)
    return [(tuple(vocab.tokens[i] for i in ids), score) for ids, score in ranked]


def assert_entries_match(result, expected):
    assert [tokens for tokens, _ in result.entries] == [tokens for tokens, _ in expected]
    for (_, score), (_, ref_score) in zip(result.entries, expected):
        assert abs(score - ref_score) < 1e-12


class TestEarlyStop:
    """The search may end before the cap only when that cannot change its result."""

    def test_stops_before_cap_with_reference_result(self, monkeypatch):
        params = toy_params(vocab_size=12, hidden=8, seed=21)
        dim = params.decoder_dims[0]
        params.arrays[f"decoder/{dim.value}/b_o"][params.vocab.eos_id] = 6.0
        event = ["w0", "w1"]
        expected = reference_entries(params, dim, params.vocab.encode(event), 3, 8)
        calls = []

        def counted(*args):
            calls.append(1)
            return decode_step(*args)

        monkeypatch.setattr("ifthen.generation.decode_step", counted)
        result = beam_search(params, event, dim, beam_width=3, max_len=8)
        assert len(calls) < 8
        assert_entries_match(result, expected)

    @pytest.mark.parametrize("width", range(1, 7))
    def test_flat_output_ties_match_reference(self, width):
        params = toy_params(vocab_size=10, hidden=8, seed=22)
        dim = params.decoder_dims[0]
        # Every token ties at every step: only the tie-break orders them.
        params.arrays[f"decoder/{dim.value}/W_o"][:] = 0.0
        params.arrays[f"decoder/{dim.value}/b_o"][:] = 0.0
        event = ["w0"]
        result = beam_search(params, event, dim, beam_width=width, max_len=6)
        expected = reference_entries(params, dim, params.vocab.encode(event), width, 6)
        assert list(result.entries) == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10_000),
        variant=st.sampled_from(list(ModelVariant)),
        vocab_size=st.integers(10, 30),
        width=st.integers(1, 12),
        max_len=st.integers(1, 6),
        eos_bias=st.floats(1.0, 3.0),
        must_prune=st.just(False),
    )
    @example(seed=4, variant=ModelVariant.Single9, vocab_size=12, width=10, max_len=6,
             eos_bias=2.0, must_prune=True)
    @example(seed=2, variant=ModelVariant.EventPrePost, vocab_size=12, width=12, max_len=6,
             eos_bias=2.0, must_prune=True)
    def test_pruned_rows_match_reference(self, seed, variant, vocab_size, width, max_len,
                                         eos_bias, must_prune):
        params = toy_params(variant=variant, vocab_size=vocab_size, hidden=8, seed=seed)
        dim = params.decoder_dims[seed % len(params.decoder_dims)]
        # Spread-out output biases and a likely <eos> fill the pool early
        # while the alive scores still differ.
        b_o = params.arrays[f"decoder/{dim.value}/b_o"]
        b_o += np.random.default_rng(seed).normal(0.0, 1.0, b_o.shape)
        b_o[params.vocab.eos_id] += eos_bias
        event = ["w0", "w1"]
        rows = []

        def counted(params, dimension, states, last):
            rows.append(len(states))
            return decode_step(params, dimension, states, last)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("ifthen.generation.decode_step", counted)
            result = beam_search(params, event, dim, beam_width=width, max_len=max_len)
        assert_entries_match(
            result, reference_entries(params, dim, params.vocab.encode(event), width, max_len))
        # Unpruned, a step decodes every finite non-<eos> candidate of the
        # step before, up to the width.
        unpruned = [min(width, n * (vocab_size - 1)) for n in rows[:-1]]
        assert not must_prune or any(n < m for n, m in zip(rows[1:], unpruned))

    def test_suppress_unk_runs_to_cap(self):
        params = toy_params(vocab_size=10, hidden=8, seed=23)
        dim = params.decoder_dims[0]
        vocab = params.vocab
        # <unk> takes all the mass (p = 1.0 exactly), so the renormalizing
        # shift is log(1e-300) and increments are positive: <eos> gains about
        # 40.8 a step and the dominant token w0 about 20.8.
        params.arrays[f"decoder/{dim.value}/W_o"][:] = 0.0
        b_o = params.arrays[f"decoder/{dim.value}/b_o"]
        b_o[:] = 0.0
        b_o[vocab.unk_id], b_o[vocab.eos_id], b_o[vocab.encode(["w0"])[0]] = 700.0, 50.0, 30.0
        event = ["w1"]
        result = beam_search(params, event, dim, beam_width=1, max_len=4, suppress_unk=True)
        expected = reference_entries(params, dim, vocab.encode(event), 1, 4, suppress_unk=True)
        assert_entries_match(result, expected)

    def test_boundary_ties_run_on(self, monkeypatch):
        # A fake decoder whose distribution depends on the step and the last
        # token, with probabilities 0, 1/2 and 1: an alive score that ties the
        # pool's worst can still finish ahead of it on token ids.
        vocab_size = 10
        params = toy_params(vocab_size=vocab_size, hidden=4, seed=24)
        dim = params.decoder_dims[0]
        eos = params.vocab.eos_id
        monkeypatch.setattr("ifthen.generation.initial_decoder_state",
                            lambda *args: np.zeros(1))
        for seed in range(600):
            rng = random.Random(seed)
            rows = {}

            def row(depth, last):
                if (depth, last) not in rows:
                    probs = np.zeros(vocab_size)
                    a, b = rng.sample([eos, 4, 8, 9], 2)
                    if rng.random() < 0.4:
                        probs[a] = 1.0
                    else:
                        probs[a] = probs[b] = 0.5
                    rows[depth, last] = probs
                return rows[depth, last]

            def fake_step(params, dimension, states, last):
                # The state's one column counts the steps taken.
                return (np.array([row(int(d), int(t)) for d, t in zip(states[:, 0], last)]),
                        states + 1)

            monkeypatch.setattr("ifthen.generation.decode_step", fake_step)
            width, max_len = rng.randint(1, 4), rng.randint(2, 6)
            result = beam_search(params, ["w0"], dim, beam_width=width, max_len=max_len)
            expected = beam_search_reference(
                lambda consumed: np.log(np.maximum(row(len(consumed) - 1, consumed[-1]),
                                                   1e-300)).tolist(),
                params.vocab.bos_id, eos, params.vocab.unk_id, width, max_len, False)
            assert [(tuple(params.vocab.encode(list(t))), s) for t, s in result.entries] \
                == expected, seed


class TestGenerationList:
    def test_rejects_unsorted_scores(self):
        with pytest.raises(ValueError):
            GenerationList(
                event="e",
                dimension=Dimension.xIntent,
                beam_width=2,
                entries=((("a",), -2.0), (("b",), -1.0)),
            )

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            GenerationList(
                event="e",
                dimension=Dimension.xIntent,
                beam_width=1,
                entries=((("a",), -1.0), (("b",), -2.0)),
            )

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GenerationList(
                event="e",
                dimension=Dimension.xIntent,
                beam_width=3,
                entries=((("a",), -1.0), (("a",), -2.0)),
            )

    @settings(max_examples=50, deadline=None)
    @given(scores=st.lists(st.floats(-50, 0), min_size=0, max_size=6, unique=True))
    def test_sorted_unique_always_accepted(self, scores):
        scores = sorted(scores, reverse=True)
        entries = tuple(((f"t{i}",), s) for i, s in enumerate(scores))
        gl = GenerationList(
            event="e", dimension=Dimension.xWant, beam_width=6, entries=entries
        )
        assert [" ".join(tokens) for tokens, _ in gl.entries] == [
            f"t{i}" for i in range(len(scores))]


def texts(result):
    return [" ".join(tokens) for tokens, _ in result.entries]


def assert_matches(result, expected):
    """Same token lists as the reference entries, scores within 1e-12."""
    assert [tokens for tokens, _ in result.entries] == [tokens for tokens, _ in expected]
    for (_, score), (_, ref_score) in zip(result.entries, expected):
        assert score == ref_score or abs(score - ref_score) <= 1e-12


class TestNearestNeighbor:
    def embeddings(self):
        return {
            "walks": np.array([1.0, 0.0]),
            "runs": np.array([0.9, 0.1]),
            "sleeps": np.array([0.0, 1.0]),
            "personx": np.array([0.5, 0.5]),
        }

    def graph(self):
        triples = [
            make_triple("PersonX walks", "xWant", "to rest", "train"),
            make_triple("PersonX runs", "xWant", "to win", "train"),
            make_triple("PersonX sleeps", "xWant", "to dream", "train"),
        ]
        return build_graph(triples)

    def test_hand_computed_ranking(self):
        result = nearest_neighbor_predict(
            self.graph(), self.embeddings(), "PersonX walks", Dimension.xWant, k=3
        )
        assert texts(result) == ["to rest", "to win", "to dream"]
        # Exact self-match has cosine similarity 1.
        assert abs(result.entries[0][1] - 1.0) < 1e-12
        e = self.embeddings()
        q = (e["personx"] + e["walks"]) / 2
        v = (e["personx"] + e["runs"]) / 2
        expected = float(np.dot(q, v) / (np.linalg.norm(q) * np.linalg.norm(v)))
        assert abs(result.entries[1][1] - expected) < 1e-12

    def test_unrepresentable_query_lexicographic_fallback(self):
        result = nearest_neighbor_predict(
            self.graph(), self.embeddings(), "qq zz", Dimension.xWant, k=3
        )
        # personx runs < personx sleeps < personx walks lexicographically.
        assert texts(result) == ["to win", "to dream", "to rest"]
        assert all(s == 0.0 for _, s in result.entries)

    def test_k_caps_results(self):
        result = nearest_neighbor_predict(
            self.graph(), self.embeddings(), "PersonX walks", Dimension.xWant, k=2
        )
        assert len(result.entries) == 2

    def test_entries_share_the_index_tuples(self):
        graph, embeddings = self.graph(), self.embeddings()
        shared = {id(t) for ts in graph.event_index[Dimension.xWant].targets for t in ts}
        first, second = (
            nearest_neighbor_predict(graph, embeddings, query, Dimension.xWant, k=3)
            for query in ("PersonX walks", "PersonX sleeps"))
        assert sorted(texts(first)) == sorted(texts(second))
        for result in (first, second):
            assert {id(tokens) for tokens, _ in result.entries} == shared

    def test_unseen_dimension_empty(self):
        result = nearest_neighbor_predict(
            self.graph(), self.embeddings(), "PersonX walks", Dimension.oWant
        )
        assert result.entries == ()

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            nearest_neighbor_predict(
                self.graph(), self.embeddings(), "PersonX walks", Dimension.xWant, k=k
            )

    def test_equal_mean_vectors_tie_in_event_order(self):
        # The "walks" events differ only in tokens without a vector, so
        # their mean vectors are equal wherever the unknown tokens sit; they
        # land on rows of both parities around the other events.
        rng = np.random.default_rng(3)
        embeddings = {t: rng.standard_normal(37) for t in ("personx", "walks", "runs", "sleeps")}
        walks = ["PersonX walks", "PersonX walks qq", "PersonX walks zz", "PersonX qq walks",
                 "PersonX zz walks", "PersonX walks qq zz", "PersonX qq walks zz"]
        graph = build_graph(
            [make_triple(ev, "xWant", f"to stop {i}", "train") for i, ev in enumerate(walks)]
            + [make_triple("PersonX runs", "xWant", "to win", "train"),
               make_triple("PersonX runs qq", "xWant", "to win again", "train")])
        result = nearest_neighbor_predict(graph, embeddings, "PersonX sleeps",
                                          Dimension.xWant, k=len(walks) + 2)
        ties = [(" ".join(tokens), score) for tokens, score in result.entries
                if tokens[:2] == ("to", "stop")]
        order = sorted(range(len(walks)), key=lambda i: walks[i].lower())
        assert [text for text, _ in ties] == [f"to stop {i}" for i in order]
        assert len({score for _, score in ties}) == 1
        assert_matches(result, nearest_neighbor_reference(
            graph, embeddings, "PersonX sleeps", Dimension.xWant, len(walks) + 2))

    def test_permuted_events_order_as_per_event_loop(self):
        # Permutations of one token list have equal mean vectors in exact
        # arithmetic, so their scores differ only by rounding: the order
        # holds only if every score rounds as the per-event loop's does.
        rng = np.random.default_rng(5)
        words = ["personx", "walks", "runs", "sleeps", "eats"]
        embeddings = {t: rng.standard_normal(32) for t in words + ["talks"]}
        events = [" ".join(p) for p in itertools.permutations(words)]
        graph = build_graph([make_triple(ev, "xWant", f"to rest {i}", "train")
                             for i, ev in enumerate(events)])
        result = nearest_neighbor_predict(graph, embeddings, "PersonX talks", Dimension.xWant,
                                          k=len(events))
        expected = nearest_neighbor_reference(graph, embeddings, "PersonX talks",
                                              Dimension.xWant, len(events))
        assert len({score for _, score in expected}) > 1
        assert_matches(result, expected)

    def test_zero_vector_token_counts_toward_mean(self):
        embeddings = {**self.embeddings(), "slowly": np.zeros(2)}
        graph = build_graph([
            make_triple("PersonX walks slowly", "xWant", "to rest", "train"),
            make_triple("PersonX sleeps", "xWant", "to dream", "train"),
        ])
        result = nearest_neighbor_predict(graph, embeddings, "walks", Dimension.xWant, k=2)
        e = embeddings
        v = (e["personx"] + e["walks"]) / 3
        expected = float(np.dot(e["walks"], v) / (np.linalg.norm(e["walks"]) * np.linalg.norm(v)))
        assert texts(result) == ["to rest", "to dream"]
        assert abs(result.entries[0][1] - expected) < 1e-12

    def test_events_without_a_cosine_left_out(self):
        # "sleeps" has a zero mean vector and "qq zz" no known token: neither
        # can be compared with a representable query.
        embeddings = {"walks": np.array([1.0, 0.0]), "runs": np.array([0.6, 0.8]),
                      "sleeps": np.zeros(2)}
        graph = build_graph([
            make_triple("PersonX walks", "xWant", "to rest", "train"),
            make_triple("PersonX sleeps", "xWant", "to dream", "train"),
            make_triple("qq zz", "xWant", "to wake", "train"),
            make_triple("PersonX runs", "xWant", "to win", "train"),
        ])
        result = nearest_neighbor_predict(graph, embeddings, "walks", Dimension.xWant, k=5)
        assert texts(result) == ["to rest", "to win"]
        assert [s for _, s in result.entries] == [1.0, pytest.approx(0.6, abs=1e-12)]
        assert_matches(result, nearest_neighbor_reference(
            graph, embeddings, "walks", Dimension.xWant, 5))

    def test_zero_query_lists_every_event_in_text_order(self):
        embeddings = {"walks": np.array([1.0, 0.0]), "sleeps": np.zeros(2)}
        graph = build_graph([
            make_triple("PersonX walks", "xWant", "to rest", "train"),
            make_triple("PersonX sleeps", "xWant", "to dream", "train"),
        ])
        result = nearest_neighbor_predict(graph, embeddings, "sleeps", Dimension.xWant, k=5)
        assert texts(result) == ["to dream", "to rest"]
        assert all(s == 0.0 for _, s in result.entries)
        assert_matches(result, nearest_neighbor_reference(
            graph, embeddings, "sleeps", Dimension.xWant, 5))

    def test_embeddings_read_afresh_each_call(self):
        graph, embeddings = self.graph(), self.embeddings()
        for query in ("PersonX walks", "PersonX sleeps"):
            before = nearest_neighbor_predict(graph, embeddings, query, Dimension.xWant, k=3)
            assert_matches(before, nearest_neighbor_reference(
                graph, embeddings, query, Dimension.xWant, 3))
        embeddings["walks"] = np.array([0.0, 1.0])  # rebound
        embeddings["sleeps"][:] = [1.0, -1.0]  # changed in place
        del embeddings["runs"]
        embeddings["qq"] = np.array([2.0, -1.0])  # added
        for query in ("PersonX walks", "qq"):
            after = nearest_neighbor_predict(graph, embeddings, query, Dimension.xWant, k=3)
            assert_matches(after, nearest_neighbor_reference(
                graph, embeddings, query, Dimension.xWant, 3))
        assert texts(after) == ["to dream", "to win", "to rest"]


# A small pool makes ties common: events with the same known tokens in
# another order or with unknown tokens between them, and, through the
# zero-vector token "z", parallel mean vectors. Scores that tie only after
# rounding must order as the per-event loop orders them.
_NN_TOKENS = ["personx", "a", "b", "c", "d", "u", "v", "z"]
_nn_text = st.lists(st.sampled_from(_NN_TOKENS), min_size=1, max_size=5)
_NN_DIMS = [Dimension.xWant, Dimension.xIntent]


class TestNearestNeighborMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 40),
        known=st.lists(st.sampled_from(_NN_TOKENS[:5]), unique=True),
        zero_vector=st.booleans(),
        events=st.lists(_nn_text, min_size=1, max_size=8),
        rows=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(_NN_DIMS),
                                st.sampled_from(["t1", "t2", "T2", "t3 x", "none"])),
                      max_size=14),
        query=_nn_text,
        upper=st.booleans(),
        dimension=st.sampled_from(_NN_DIMS + [Dimension.oReact]),
        k=st.integers(1, 6),
    )
    def test_equals_per_event_loop(self, seed, size, known, zero_vector, events, rows,
                                   query, upper, dimension, k):
        rng = np.random.default_rng(seed)
        embeddings = {t: rng.standard_normal(size) for t in known}
        if zero_vector:
            embeddings["z"] = np.zeros(size)
        graph = build_graph([
            make_triple(" ".join(events[i % len(events)]), dim, target, "train")
            for i, dim, target in rows
        ])
        text = " ".join(query).upper() if upper else " ".join(query)
        expected = nearest_neighbor_reference(graph, embeddings, text, dimension, k)
        assert_matches(nearest_neighbor_predict(graph, embeddings, text, dimension, k),
                       expected)


class TestSerialization:
    def test_round_trip(self):
        params = toy_params(seed=15)
        gens = [
            beam_search(params, "w0 w1", dim, beam_width=4)
            for dim in params.decoder_dims[:3]
        ]
        buf = io.StringIO()
        write_generations(gens, buf)
        buf.seek(0)
        assert read_generations(buf) == gens

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_not_written(self, score):
        gen = GenerationList(event="PersonX runs", dimension=Dimension.xWant, beam_width=1,
                             entries=((("to", "rest"), score),))
        with pytest.raises(ValueError):
            write_generations([gen], io.StringIO())

    @pytest.mark.parametrize("field, constant", [
        pytest.param("-0.5", value, id=value)
        for value in ["NaN", "Infinity", "-Infinity", "-1e999", "1e999",
                      "null", "-1" + "0" * 400, "true"]
    ] + [
        pytest.param('"to rest"', "5", id="text-5"),
        pytest.param('[{"score": -0.5, "text": "to rest"}]', "5", id="entries-5"),
        pytest.param("1", '"1"', id="beam_width-str"),
    ])
    def test_non_json_constant_rejected_with_line(self, field, constant):
        good = ('{"beam_width": 1, "dimension": "xWant", "entries": '
                '[{"score": -0.5, "text": "to rest"}], "event": "PersonX runs"}')
        bad = good.replace(field, constant, 1)
        with pytest.raises(ValueError, match=f"generation dump line 2: {constant} is not"):
            read_generations(io.StringIO(good + "\n" + bad + "\n"))

    def test_equal_texts_share_token_tuples(self):
        line = ('{"beam_width": 2, "dimension": "xWant", "entries": [{"score": -0.5, '
                '"text": "to rest"}, {"score": -0.7, "text": "to eat"}], "event": "%s"}\n')
        a, b = read_generations(io.StringIO(line % "PersonX runs" + line % "PersonX eats"))
        assert a.entries == b.entries
        assert all(x[0] is y[0] for x, y in zip(a.entries, b.entries))
