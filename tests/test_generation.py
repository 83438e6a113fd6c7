import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_triple, toy_params

from oracles import beam_search_reference, enumerate_sequences, nearest_neighbor_reference

from ifthen.generation import (
    GenerationList,
    beam_search,
    greedy_decode,
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
        params = toy_params(seed=11)
        for dim in params.decoder_dims[:3]:
            result = beam_search(params, ["w2", "w3"], dim, beam_width=1)
            assert result.entries == (greedy_decode(params, ["w2", "w3"], dim),)

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
        assert gl.texts == [f"t{i}" for i in range(len(scores))]


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
        assert result.texts == ["to rest", "to win", "to dream"]
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
        assert result.texts == ["to win", "to dream", "to rest"]
        assert all(s == 0.0 for _, s in result.entries)

    def test_k_caps_results(self):
        result = nearest_neighbor_predict(
            self.graph(), self.embeddings(), "PersonX walks", Dimension.xWant, k=2
        )
        assert len(result.entries) == 2

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
        assert result.texts == ["to rest", "to dream"]
        assert abs(result.entries[0][1] - expected) < 1e-12

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
        assert after.texts == ["to dream", "to win", "to rest"]


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
