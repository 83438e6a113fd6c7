import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_triple

from oracles import overlap_oracle

from ifthen.cli import run
from ifthen.graph import build_graph
from ifthen.overlap import (
    _GROUP_TABLE,
    DimensionGroup,
    ExternalEdge,
    OverlapError,
    event_coverage,
    load_edge_file,
    normalize_concept,
    triple_overlap,
)
from ifthen.taxonomy import Dimension

# The start concept of line 2 is only a person variable.
EMPTIED_EDGE = "Causes\tsleep\trest\nCauses\tPersonX\tsleep\n"


class TestGroupTable:
    def test_six_groups(self):
        assert set(_GROUP_TABLE) == set(DimensionGroup)

    def test_each_dimension_in_exactly_one_group(self):
        seen = []
        for dims, _ in _GROUP_TABLE.values():
            seen.extend(dims)
        assert sorted(d.value for d in seen) == sorted(d.value for d in Dimension)

    def test_needs_relations(self):
        dims, rels = _GROUP_TABLE[DimensionGroup.Needs]
        assert dims == frozenset({Dimension.xNeed})
        assert rels == frozenset({"MotivatedByGoal", "Entails", "HasPrerequisite"})

    def test_attributes_relation(self):
        dims, rels = _GROUP_TABLE[DimensionGroup.Attributes]
        assert dims == frozenset({Dimension.xAttr})
        assert rels == frozenset({"HasProperty"})

    def test_wants_pair(self):
        dims, rels = _GROUP_TABLE[DimensionGroup.Wants]
        assert dims == frozenset({Dimension.xWant, Dimension.oWant})
        assert "CausesDesire" in rels and "MotivatedByGoal" in rels


class TestNormalizeConcept:
    def test_drops_person_variables(self):
        assert normalize_concept("PersonX thanks PersonY") == "thanks"

    def test_strips_one_leading_to(self):
        assert normalize_concept("to go to school") == "go to school"

    def test_strips_one_leading_the(self):
        assert normalize_concept("the the park") == "the park"

    def test_lowercases_and_collapses(self):
        assert normalize_concept("  Buy   Milk ") == "buy milk"


class TestTripleOverlap:
    def graph(self):
        return build_graph(
            [
                make_triple("PersonX runs", "xWant", "to rest", worker="w1"),
                make_triple("PersonX runs", "xWant", "to win", worker="w2"),
                make_triple("PersonX swims", "oWant", "to dry off", worker="w3"),
                make_triple("PersonX swims", "xWant", "to relax", worker="w4"),
                make_triple("PersonX runs", "xAttr", "athletic", worker="w5"),
            ]
        )

    def test_two_of_four_wants(self):
        edges = {
            ExternalEdge("MotivatedByGoal", "runs", "rest"),
            ExternalEdge("CausesDesire", "swims", "dry off"),
            ExternalEdge("Causes", "runs", "win"),  # wrong relation group
        }
        result = triple_overlap(self.graph(), edges)
        assert result[DimensionGroup.Wants] == pytest.approx(50.0)
        assert result[DimensionGroup.Attributes] == pytest.approx(0.0)

    def test_attributes_match(self):
        edges = {ExternalEdge("HasProperty", "runs", "athletic")}
        result = triple_overlap(self.graph(), edges)
        assert result[DimensionGroup.Attributes] == pytest.approx(100.0)

    def test_empty_group_reports_zero(self):
        result = triple_overlap(self.graph(), set())
        assert all(v == 0.0 for v in result.values())
        assert set(result) == set(DimensionGroup)

    def test_empty_targets_excluded(self):
        graph = build_graph(
            [
                make_triple("PersonX runs", "xWant", "to rest", worker="w1"),
                make_triple("PersonX runs", "xWant", "none", worker="w2"),
            ]
        )
        edges = {ExternalEdge("MotivatedByGoal", "runs", "rest")}
        assert triple_overlap(graph, edges)[DimensionGroup.Wants] == pytest.approx(100.0)

    def random_case(self, seed):
        rng = random.Random(seed)
        verbs = ["runs", "swims", "eats", "codes"]
        objs = ["rest", "win", "food", "sleep", "fun"]
        triples = []
        for i in range(40):
            dim = rng.choice(list(Dimension))
            event = f"PersonX {rng.choice(verbs)}"
            target = rng.choice(objs)
            triples.append(make_triple(event, dim.value, target, worker=f"w{i}"))
        relations = sorted({r for _, rels in _GROUP_TABLE.values() for r in rels})
        edges = {
            ExternalEdge(rng.choice(relations), rng.choice(verbs), rng.choice(objs))
            for _ in range(25)
        }
        return build_graph(triples), edges

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_oracle(self, seed):
        graph, edges = self.random_case(seed)
        result = triple_overlap(graph, edges)
        for group, (dims, rels) in _GROUP_TABLE.items():
            expected = overlap_oracle(graph, edges, normalize_concept, dims, rels)
            assert result[group] == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(["PersonX runs", "PersonX  Runs", "PersonX eats the food",
                                       "PersonX meets PersonY's dog", "PersonX runs the race"]),
                      st.sampled_from(list(Dimension)),
                      st.sampled_from(["to rest", "To rest", "the rest", "rest", "PersonY rests",
                                       "food", "none"])),
            max_size=30),
        edges=st.sets(st.builds(
            ExternalEdge,
            st.sampled_from(["MotivatedByGoal", "Causes", "HasProperty", "HasPrerequisite",
                             "RelatedTo"]),
            st.sampled_from(["runs", "eats the food", "meets dog", "runs the race"]),
            st.sampled_from(["rest", "food", "rests"])), max_size=12),
    )
    def test_matches_brute_force_oracle_on_shared_texts(self, rows, edges):
        # Events recur across dimensions and targets across events, and texts
        # that differ normalize to one concept.
        graph = build_graph([make_triple(ev, dim.value, tgt, worker=f"w{i}")
                             for i, (ev, dim, tgt) in enumerate(rows)])
        result = triple_overlap(graph, edges)
        for group, (dims, rels) in _GROUP_TABLE.items():
            assert result[group] == overlap_oracle(graph, edges, normalize_concept, dims, rels)

    def test_each_distinct_text_normalized_once_per_call(self, monkeypatch):
        import ifthen.overlap

        graph = build_graph([
            make_triple("PersonX eats", "xWant", "to sleep"),
            make_triple("PersonX eats", "xIntent", "to sleep"),
            make_triple("PersonX eats", "oReact", "none"),
            make_triple("PersonX naps", "xEffect", "PersonX eats"),
            make_triple("PersonX Eats", "xReact", "To sleep"),
        ])
        seen, real = [], normalize_concept
        monkeypatch.setattr(ifthen.overlap, "normalize_concept",
                            lambda text: seen.append(text) or real(text))
        edges = {ExternalEdge("Causes", "eats", "sleep")}
        for _ in range(2):  # nothing is kept from one call to the next
            seen.clear()
            assert triple_overlap(graph, edges)[DimensionGroup.Reactions] == 100.0
            assert sorted(seen) == ["PersonX Eats", "PersonX eats", "PersonX naps",
                                    "To sleep", "to sleep"]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), extra=st.integers(0, 5))
    def test_monotone_in_edges(self, seed, extra):
        graph, edges = self.random_case(seed)
        base = triple_overlap(graph, edges)
        rng = random.Random(seed + 1)
        more = set(edges)
        relations = sorted({r for _, rels in _GROUP_TABLE.values() for r in rels})
        for _ in range(extra):
            more.add(
                ExternalEdge(
                    rng.choice(relations),
                    rng.choice(["runs", "swims", "eats", "codes"]),
                    rng.choice(["rest", "win", "food", "sleep", "fun"]),
                )
            )
        grown = triple_overlap(graph, more)
        for group in DimensionGroup:
            assert grown[group] >= base[group] - 1e-12


class TestEventCoverage:
    def test_hand_counted(self):
        graph = build_graph(
            [
                make_triple("PersonX runs", "xWant", "to rest", worker="w1"),
                make_triple("PersonX swims", "xWant", "to dry off", worker="w2"),
            ]
        )
        edges = {ExternalEdge("MotivatedByGoal", "runs", "rest")}
        assert event_coverage(graph, edges) == pytest.approx(50.0)

    def test_empty_graph(self):
        assert event_coverage(build_graph([]), set()) == 0.0


class TestEdgeFile:
    def test_load_normalizes(self):
        buf = io.StringIO("HasProperty\tThe Runner\tVery Fast\n")
        edges = load_edge_file(buf)
        assert edges == {ExternalEdge("HasProperty", "runner", "very fast")}

    def test_bad_column_count(self):
        with pytest.raises(OverlapError):
            load_edge_file(io.StringIO("HasProperty\tonly-two\n"))

    def test_concept_that_normalizes_to_nothing_names_its_line(self):
        with pytest.raises(OverlapError, match="^line 2: edge fields must be non-empty$"):
            load_edge_file(io.StringIO(EMPTIED_EDGE))

    def test_overlap_command_names_the_line(self, tmp_path, capsys):
        atlas, edges = tmp_path / "atlas.tsv", tmp_path / "edges.tsv"
        atlas.write_text("PersonX runs\txWant\tto rest\ttrain\tw1\n")
        edges.write_text(EMPTIED_EDGE)
        assert run(["overlap", "--atlas", str(atlas), "--edges", str(edges),
                    "--out", str(tmp_path / "overlap.json")]) == 2
        assert capsys.readouterr().err.startswith("data error: line 2: ")

    def test_round_trip_with_triple_overlap(self):
        buf = io.StringIO("MotivatedByGoal\truns\tto rest\n")
        edges = load_edge_file(buf)
        graph = build_graph([make_triple("PersonX runs", "xWant", "to rest")])
        assert triple_overlap(graph, edges)[DimensionGroup.Wants] == pytest.approx(100.0)
