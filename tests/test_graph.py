import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_triple
from oracles import build_graph_reference, event_phrase_reference, stats_oracle

from ifthen.generation import GenerationList
from ifthen.graph import (
    Edge,
    EventPhrase,
    InferenceTarget,
    Split,
    build_graph,
    graph_stats,
    query_inferences,
)
from ifthen.seq2seq.model import TrainingInstance
from ifthen.taxonomy import ContentType, Dimension


_EVENT = EventPhrase.from_text("PersonX bakes bread")
_TARGET = InferenceTarget.from_text("buy flour")
# One instance of each record made per triple, edge, instance or list, with
# a field to replace and a new value for it.
_RECORDS = [
    pytest.param(_EVENT, "blank_count", 1, id="EventPhrase"),
    pytest.param(_TARGET, "text", "buy yeast", id="InferenceTarget"),
    pytest.param(make_triple("PersonX bakes bread", "xNeed", "buy flour"), "worker_id", "w2",
                 id="Triple"),
    pytest.param(Edge(_EVENT, Dimension.xNeed, _TARGET, ("w1",), Split.Train), "split",
                 Split.Test, id="Edge"),
    pytest.param(TrainingInstance((4, 5), Dimension.xNeed, (6,)), "target_ids", (7, 8),
                 id="TrainingInstance"),
    pytest.param(GenerationList("PersonX bakes bread", Dimension.xNeed, 10,
                                ((("buy", "flour"), -0.5),)), "beam_width", 1,
                 id="GenerationList"),
]


@pytest.mark.parametrize("record, field, value", _RECORDS)
class TestSlottedRecords:
    def test_slots_and_no_instance_dict(self, record, field, value):
        assert type(record).__slots__ == tuple(f.name for f in dataclasses.fields(record))
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", 1)

    def test_fields_stay_frozen(self, record, field, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, value)

    def test_replace_builds_a_changed_copy(self, record, field, value):
        copy = dataclasses.replace(record, **{field: value})
        assert getattr(copy, field) == value and copy != record
        for other in dataclasses.fields(record):
            if other.name != field:
                assert getattr(copy, other.name) is getattr(record, other.name)


class TestEventPhrase:
    def test_person_slots_and_blanks(self):
        ev = EventPhrase.from_text("PersonX gives PersonY ___ for ___")
        assert ev.person_slots == ("PersonX", "PersonY")
        assert ev.blank_count == 2

    def test_possessive_counts_as_mention(self):
        ev = EventPhrase.from_text("PersonX breaks PersonX's arm")
        assert ev.person_slots == ("PersonX",)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EventPhrase.from_text("   ")

    def test_person_y_without_x_rejected(self):
        with pytest.raises(ValueError):
            EventPhrase.from_text("PersonY runs away")


# Person variables with possessives, near misses that are no variable, blanks.
EVENT_TOKENS = ["PersonX", "PersonX's", "PersonY", "PersonY'", "PersonY's", "PersonZ",
                "PersonZ's", "Personal", "PersonW", "Person", "PersonXs", "personx",
                "___", "runs", "Runs", "home"]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


class TestEventPhraseMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(tokens=st.lists(st.sampled_from(EVENT_TOKENS), max_size=7),
           sep=st.sampled_from([" ", "  ", "\t"]))
    def test_equals_per_variable_scan(self, tokens, sep):
        text = sep.join(tokens)
        assert _outcome(EventPhrase.from_text, text) == _outcome(event_phrase_reference, text)


class TestInferenceTarget:
    def test_empty_sentinel(self):
        t = InferenceTarget.from_text("none")
        assert t.is_empty and t.text == "none"

    def test_non_empty(self):
        t = InferenceTarget.from_text("PersonX feels happy")
        assert not t.is_empty

    def test_blank_rejected(self):
        with pytest.raises(ValueError):
            InferenceTarget.from_text("   ")


class TestBuildGraph:
    def test_empty(self):
        g = build_graph([])
        assert len(g.edges) == 0 and len(g.nodes) == 0 and len(g.events) == 0

    def test_dedup_keeps_worker_provenance(self):
        t1 = make_triple("PersonX bakes bread", "xNeed", "buy flour", worker="w1")
        t2 = make_triple("PersonX bakes bread", "xNeed", "buy flour", worker="w2")
        g = build_graph([t1, t2])
        assert len(g.edges) == 1
        assert g.edges[0].worker_ids == ("w1", "w2")

    def test_repeated_workers_are_sorted_once(self):
        triples = [make_triple("PersonX bakes bread", "xNeed", "buy flour", worker=w)
                   for w in ("w3", "w1", "w3", "w2")]
        (edge,) = build_graph(triples).edges
        assert edge.worker_ids == ("w1", "w2", "w3")

    def test_duplicate_with_conflicting_splits_rejected(self):
        t1 = make_triple("PersonX bakes bread", "xNeed", "buy flour", worker="w1")
        t2 = make_triple("PersonX Bakes  bread", "xNeed", "Buy flour", worker="w2",
                         split=Split.Test)
        with pytest.raises(ValueError, match=r"personx bakes bread.*train and test"):
            build_graph([t1, t2])

    def test_conflicting_split_after_a_repeat_names_both_splits(self):
        triples = [make_triple("PersonX bakes bread", "xNeed", "buy flour", worker=w, split=s)
                   for w, s in (("w1", Split.Dev), ("w2", Split.Dev), ("w3", Split.Train))]
        with pytest.raises(ValueError) as caught:
            build_graph(triples)
        assert str(caught.value) == (
            "conflicting splits for duplicate triple "
            "('personx bakes bread', 'xNeed', 'buy flour'): dev and train")

    def test_six_triple_adjacency_hand_enumeration(self):
        triples = [
            make_triple("PersonX bakes bread", "xNeed", "buy flour"),
            make_triple("PersonX bakes bread", "xNeed", "turn on the oven"),
            make_triple("PersonX bakes bread", "xEffect", "PersonX gets dirty"),
            make_triple("PersonX naps", "xEffect", "PersonX feels rested"),
            make_triple("PersonX naps", "xReact", "calm"),
            make_triple("PersonX naps", "xWant", "stay in bed"),
        ]
        g = build_graph(triples)
        assert len(g.edges) == 6
        assert {k: len(v) for k, v in g.adjacency.items()} == {
            ("personx bakes bread", Dimension.xNeed): 2,
            ("personx bakes bread", Dimension.xEffect): 1,
            ("personx naps", Dimension.xEffect): 1,
            ("personx naps", Dimension.xReact): 1,
            ("personx naps", Dimension.xWant): 1,
        }

    def test_o_dimension_without_person_y_is_warned_not_rejected(self):
        t = make_triple("PersonX calls for help", "oWant", "answer the call")
        g = build_graph([t])
        assert len(g.edges) == 1
        assert any("implied participant" in d for d in g.diagnostics)

    def test_implied_participants_logged_once_with_count(self, caplog):
        triples = [
            make_triple("PersonX calls for help", "oWant", "answer the call"),
            make_triple("PersonX calls for help", "oReact", "worried"),
            make_triple("PersonX sings", "oEffect", "claps"),
            make_triple("PersonX hugs PersonY", "oReact", "happy"),
        ]
        with caplog.at_level("WARNING", logger="ifthen.graph"):
            g = build_graph(triples)
        assert len(g.diagnostics) == 3
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert message.startswith("3 ")
        assert "'PersonX calls for help'" in message
        expected = build_graph_reference(triples).diagnostics
        assert message == f"3 implied-participant diagnostics; first: {expected[0]}"

    def test_deterministic_order(self):
        triples = [
            make_triple("PersonX naps", "xReact", "calm"),
            make_triple("PersonX bakes bread", "xNeed", "buy flour"),
            make_triple("PersonX bakes bread", "xEffect", "gets dirty"),
        ]
        g1 = build_graph(triples)
        g2 = build_graph(list(reversed(triples)))
        assert [
            (e.event.text, e.dimension, e.target.text) for e in g1.edges
        ] == [(e.event.text, e.dimension, e.target.text) for e in g2.edges]


# Case and spacing variants that normalize to one node, "NONE" as a
# non-empty target that normalizes like the sentinel, and o-dimension rows
# with and without PersonY.
GRAPH_EVENTS = ["PersonX runs", "personx  RUNS", "PersonX runs home", "PersonX meets PersonY",
                "PersonX meets  PersonY", "PersonX meets personY", "PersonX's dog barks"]
GRAPH_TARGETS = ["to rest", "To  rest", "none", "NONE", "PersonY smiles", "tired"]


class TestBuildGraphMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(GRAPH_EVENTS), st.sampled_from(list(Dimension)),
                      st.sampled_from(GRAPH_TARGETS), st.sampled_from(["w1", "w2", "w3"]),
                      st.sampled_from(list(Split))),
            max_size=30),
        one_split=st.booleans(),
    )
    def test_equals_normalize_per_triple_build(self, rows, one_split):
        triples = [make_triple(ev, dim, tgt, worker, Split.Train if one_split else split)
                   for ev, dim, tgt, worker, split in rows]
        got = _outcome(build_graph, triples)
        expected = _outcome(build_graph_reference, triples)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert got.events == expected.events
        assert got.edges == expected.edges
        assert got.adjacency == expected.adjacency
        assert list(got.adjacency) == list(expected.adjacency)
        assert got.nodes == expected.nodes
        assert got.diagnostics == expected.diagnostics


class TestQuery:
    def test_table1_row_retrieved(self, table1_graph):
        targets = query_inferences(
            table1_graph, "PersonX pays PersonY a compliment", Dimension.oWant
        )
        assert "PersonY will compliment PersonX back" in [t.text for t in targets]

    def test_unseen_event_empty(self, table1_graph):
        assert query_inferences(table1_graph, "PersonX flies a kite", Dimension.xIntent) == []

    def test_present_event_absent_dimension_empty(self, table1_graph):
        assert query_inferences(
            table1_graph, "PersonX calls the police", Dimension.xWant
        ) == []

    def test_empty_targets_hidden_unless_requested(self, table1_graph):
        event = "PersonX calls the police"
        assert query_inferences(table1_graph, event, Dimension.oReact) == []
        withheld = query_inferences(table1_graph, event, Dimension.oReact, include_empty=True)
        assert [t.is_empty for t in withheld] == [True]

    def test_query_results_cover_triple_set(self, table1_graph):
        seen = []
        for ev in table1_graph.events:
            for dim in Dimension:
                for t in query_inferences(table1_graph, ev.text, dim, include_empty=True):
                    seen.append((ev.text, dim, t.text))
        assert len(seen) == len(table1_graph.edges)


class TestEventIndex:
    def test_built_on_first_use_only(self, table1_triples, table1_graph):
        assert "event_index" not in vars(table1_graph)
        index = table1_graph.event_index
        assert table1_graph.event_index is index
        assert table1_graph == build_graph(table1_triples)

    def test_sorted_events_with_a_non_empty_target(self, table1_graph):
        index = table1_graph.event_index
        # "calls the police" has only the empty oReact annotation.
        assert Dimension.oReact in index
        assert index[Dimension.oReact].events == ("personx pays persony a compliment",)
        assert index[Dimension.xIntent].events == (
            "personx calls the police",
            "personx makes persony's coffee",
            "personx pays persony a compliment",
        )
        assert Dimension.xNeed in index and Dimension.xAttr in index

    def test_token_ids_padded_past_distinct_tokens(self, table1_graph):
        index = table1_graph.event_index[Dimension.xIntent]
        assert len(set(index.tokens)) == len(index.tokens)
        pad = len(index.tokens)
        assert index.token_ids.shape == (3, 5)
        for event, row in zip(index.events, index.token_ids.tolist()):
            assert [index.tokens[i] for i in row if i != pad] == event.split()
            assert row[len(event.split()):] == [pad] * (5 - len(event.split()))
        assert not index.token_ids.flags.writeable

    def test_empty_graph_has_no_dimensions(self):
        assert build_graph([]).event_index == {}


class TestStats:
    def test_empty(self):
        r = graph_stats(build_graph([]))
        assert r.triples_total == 0 and r.nodes_total == 0
        assert r.nodes_appearing_multiple == 0

    def test_shared_targets_counted(self):
        triples = [
            make_triple(f"PersonX does thing {i}", "xReact", tgt)
            for i, tgt in enumerate(
                ["happy", "happy", "sad", "sad", "tired", "calm", "bored",
                 "angry", "proud", "shy"]
            )
        ]
        r = graph_stats(build_graph(triples))
        # "happy" and "sad" each appear as target of 2 triples.
        assert r.nodes_appearing_multiple == 2

    def test_content_type_partition(self, table1_graph):
        r = graph_stats(table1_graph)
        assert r.triples_total == sum(r.triples_by_content_type.values())
        assert r.triples_by_content_type[ContentType.MentalState] == 6
        assert r.triples_by_content_type[ContentType.Event] == 5
        assert r.triples_by_content_type[ContentType.Persona] == 1

    def test_each_distinct_text_normalized_once_per_call(self, monkeypatch):
        import ifthen.graph

        triples = [
            make_triple("PersonX runs", "xWant", "to rest"),
            make_triple("PersonX runs", "xIntent", "to rest", worker="w2"),
            make_triple("PersonX Runs", "xWant", "To rest"),
            make_triple("PersonX runs", "oReact", "none"),
            make_triple("PersonX sleeps", "xEffect", "PersonX runs"),
        ]
        seen, real = [], ifthen.graph.normalize_node_text
        monkeypatch.setattr(ifthen.graph, "normalize_node_text",
                            lambda text: seen.append(text) or real(text))
        for _ in range(2):  # nothing is kept from one call to the next
            seen.clear()
            graph = build_graph(triples)
            assert sorted(seen) == ["PersonX Runs", "PersonX runs", "PersonX sleeps",
                                    "To rest", "none", "to rest"]
            seen.clear()
            assert graph_stats(graph).triples_total == 4
            assert sorted(seen) == ["PersonX runs", "to rest"]

    def test_matches_naive_oracle_on_random_fixture(self):
        rng = np.random.default_rng(42)
        dims = list(Dimension)
        triples = []
        for _ in range(1000):
            # Texts that differ only in case are one node; some targets are
            # also event texts.
            ev = f"PersonX {rng.choice(['does', 'Does', 'DOES'])} thing {rng.integers(40)}"
            dim = dims[rng.integers(9)]
            tgt = rng.choice(["none", f"{rng.choice(['outcome', 'Outcome'])} {rng.integers(60)}",
                              f"personx does thing {rng.integers(40)}"], p=[0.1, 0.8, 0.1])
            triples.append(make_triple(ev, dim, tgt, worker=f"w{rng.integers(3)}"))
        r = graph_stats(build_graph(triples))
        expected = stats_oracle(triples)
        assert r.triples_total == expected["triples_total"]
        assert r.nodes_total == expected["nodes_total"]
        assert r.base_event_count == expected["base_event_count"]
        assert r.nodes_appearing_multiple == expected["nodes_appearing_multiple"]
        assert r.base_event_avg_words == expected["base_event_avg_words"]
        for ct in ContentType:
            assert r.avg_words_per_node[ct] == expected["avg_words_per_node"].get(ct, 0.0)
            assert r.triples_by_content_type[ct] == expected["triples_by_content_type"].get(ct, 0)
            assert r.nodes_by_content_type[ct] == expected["nodes_by_content_type"].get(ct, 0)


def test_split_enum_spelling():
    assert [s.value for s in Split] == ["train", "dev", "test"]
