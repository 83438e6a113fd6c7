import dataclasses
import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_triple

from oracles import bleu2_oracle

from ifthen.evaluation import (
    SHEET_COLUMNS,
    EvalError,
    JudgmentSheet,
    SheetRow,
    avg_topk_bleu,
    bleu2,
    export_human_eval_sheet,
    is_instance_evaluable,
    precision_at_10,
    read_sheet,
    write_sheet,
)
from ifthen.generation import GenerationList
from ifthen.graph import InferenceTarget, build_graph
from ifthen.taxonomy import Dimension

TOKENS = st.lists(st.sampled_from("a b c d e".split()), min_size=1, max_size=8)


class TestBleu2:
    def test_perfect_match(self):
        assert bleu2(["a", "b", "c"], [["a", "b", "c"]]) == pytest.approx(1.0)

    def test_short_candidate_closed_form(self):
        # "a b" against "a b c d": precisions are 1, brevity penalty
        # exp(1 - 4/2) = exp(-1).
        assert bleu2(["a", "b"], [["a", "b", "c", "d"]]) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_single_token_candidate_smoothing(self):
        # No bigram slots: smoothed p2 = 0.1/1, p1 = 1, c=1 r=1 -> bp from
        # the closest reference of length 1.
        score = bleu2(["a"], [["a"]])
        assert score == pytest.approx(math.sqrt(0.1), abs=1e-12)

    def test_zero_unigram_overlap_is_zero(self):
        assert bleu2(["x", "y"], [["a", "b"]]) == 0.0

    def test_zero_bigram_smoothed(self):
        # Unigrams overlap, bigram numerator zero -> eps/denominator.
        score = bleu2(["a", "c"], [["a", "b", "c"]])
        p1 = 2 / 2
        p2 = 0.1 / 1
        bp = math.exp(1 - 3 / 2)
        assert score == pytest.approx(bp * math.sqrt(p1 * p2), abs=1e-12)

    def test_empty_candidate(self):
        assert bleu2([], [["a"]]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(EvalError):
            bleu2(["a"], [["a"], []])
        with pytest.raises(EvalError):
            bleu2(["a"], [])

    @pytest.mark.parametrize("epsilon", [0.0, -0.5, math.nan, math.inf])
    def test_smoothing_epsilon_must_be_finite_and_positive(self, epsilon):
        # The candidate has no matching bigram, so smoothing would be used;
        # an empty candidate, which never reaches it, is refused as well.
        for cand in (["a", "c"], []):
            with pytest.raises(EvalError, match="finite and positive"):
                bleu2(cand, [["a", "b"]], smoothing_epsilon=epsilon)

    def test_clipping(self):
        # "a a a a" vs "a b": unigram count of "a" clips at 1.
        score = bleu2(["a", "a", "a", "a"], [["a", "b"]])
        p1 = 1 / 4
        p2 = 0.1 / 3
        assert score == pytest.approx(math.sqrt(p1 * p2), abs=1e-12)

    def test_closest_reference_brevity_tie_prefers_shorter(self):
        # c=3; references of length 2 and 4 tie on distance; the shorter
        # one wins, giving bp = 1 (candidate longer than reference).
        with_tie = bleu2(["a", "b", "c"], [["a", "b"], ["a", "b", "c", "d"]])
        only_long = bleu2(["a", "b", "c"], [["a", "b", "c", "d"]])
        assert with_tie >= only_long

    def test_reference_order_symmetric(self):
        refs = [["a", "b"], ["b", "c", "d"], ["a"]]
        cand = ["a", "b", "d"]
        assert bleu2(cand, refs) == bleu2(cand, list(reversed(refs)))

    def test_adding_reference_never_hurts_precision_with_exact_match(self):
        cand = ["a", "b", "c"]
        base = bleu2(cand, [["x", "a", "b"]])
        more = bleu2(cand, [["x", "a", "b"], ["a", "b", "c"]])
        assert more >= base
        assert more == pytest.approx(1.0)

    def test_oracle_agreement_random_cases(self):
        rng = random.Random(0)
        alphabet = "a b c d e f".split()
        for _ in range(200):
            cand = [rng.choice(alphabet) for _ in range(rng.randint(0, 7))]
            refs = [
                [rng.choice(alphabet) for _ in range(rng.randint(1, 7))]
                for _ in range(rng.randint(1, 4))
            ]
            assert bleu2(cand, refs) == pytest.approx(
                bleu2_oracle(cand, refs), abs=1e-9
            )

    @settings(max_examples=100, deadline=None)
    @given(cand=TOKENS, refs=st.lists(TOKENS, min_size=1, max_size=3))
    def test_oracle_agreement_property(self, cand, refs):
        score = bleu2(cand, refs)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(bleu2_oracle(cand, refs), abs=1e-9)


class TestEvaluableFilter:
    def targets(self, empty, total):
        return [
            InferenceTarget.from_text("none" if i < empty else f"t{i}")
            for i in range(total)
        ]

    def test_exact_third_boundary_omitted(self):
        assert not is_instance_evaluable(self.targets(1, 3))
        assert not is_instance_evaluable(self.targets(2, 6))

    def test_below_third_kept(self):
        assert is_instance_evaluable(self.targets(1, 4))
        assert is_instance_evaluable(self.targets(0, 1))

    def test_above_third_omitted(self):
        assert not is_instance_evaluable(self.targets(2, 3))
        assert not is_instance_evaluable(self.targets(3, 3))

    def test_no_float_roundoff_at_boundary(self):
        # 333333/999999 is exactly one third; floats would call this < 1/3.
        assert not is_instance_evaluable(self.targets(333333, 999999))

    def test_empty_annotations_rejected(self):
        with pytest.raises(EvalError):
            is_instance_evaluable([])


def gen_list(event, dim, texts, width=10):
    entries = tuple(
        (tuple(t.split()), -float(i)) for i, t in enumerate(texts)
    )
    return GenerationList(event=event, dimension=dim, beam_width=width, entries=entries)


class TestAvgTopkBleu:
    def test_self_match_scores_100(self):
        triples = [
            make_triple("PersonX pays PersonY", "xWant", "to be nice", "test"),
            make_triple("PersonX pays PersonY", "xIntent", "to be kind", "test"),
        ]
        graph = build_graph(triples)
        gens = [
            gen_list("PersonX pays PersonY", Dimension.xWant, ["to be nice"]),
            gen_list("PersonX pays PersonY", Dimension.xIntent, ["to be kind"]),
        ]
        report = avg_topk_bleu(gens, graph, k=10)
        assert report.bleu_by_dimension["xWant"] == pytest.approx(100.0)
        assert report.bleu_by_dimension["xIntent"] == pytest.approx(100.0)

    def test_hand_computed_mean(self):
        graph = build_graph(
            [make_triple("PersonX runs", "xEffect", "gets tired fast", "test")]
        )
        gens = [
            gen_list(
                "PersonX runs",
                Dimension.xEffect,
                ["gets tired fast", "gets sleepy now"],
            )
        ]
        report = avg_topk_bleu(gens, graph, k=2)
        second = bleu2(
            ["gets", "sleepy", "now"], [["gets", "tired", "fast"]]
        )
        assert report.bleu_by_dimension["xEffect"] == pytest.approx(
            100.0 * (1.0 + second) / 2
        )

    def test_one_third_empty_omitted(self):
        triples = [
            make_triple("PersonX runs", "xWant", "to rest", "test"),
            make_triple("PersonX runs", "xWant", "none", worker="w2", split="test"),
            make_triple("PersonX runs", "xWant", "to stop", worker="w3", split="test"),
        ]
        graph = build_graph(triples)
        report = avg_topk_bleu(
            [gen_list("PersonX runs", Dimension.xWant, ["to rest"])], graph
        )
        assert report.omitted_by_dimension.get("xWant") == 1
        assert "xWant" not in report.bleu_by_dimension

    def test_no_gold_skipped(self):
        graph = build_graph(
            [make_triple("PersonX runs", "xWant", "to rest", "test")]
        )
        report = avg_topk_bleu(
            [gen_list("PersonX sleeps", Dimension.xWant, ["to dream"])], graph
        )
        assert report.skipped_no_gold == 1
        assert report.bleu_by_dimension == {}

    def test_smoothing_floor_positive(self):
        graph = build_graph(
            [make_triple("PersonX runs", "xWant", "to rest now ok", "test")]
        )
        report = avg_topk_bleu(
            [gen_list("PersonX runs", Dimension.xWant, ["rest to ok now"])], graph
        )
        assert report.bleu_by_dimension["xWant"] > 0.0

    def test_report_serialization(self):
        graph = build_graph(
            [make_triple("PersonX runs", "xWant", "to rest", "test")]
        )
        report = avg_topk_bleu(
            [gen_list("PersonX runs", Dimension.xWant, ["to rest"])],
            graph,
            split="test",
        )
        d = report.to_dict()
        assert d["meta"]["split"] == "test"
        assert d["xWant"]["instances"] == 1


def full_gens(num_events=120, dims=(Dimension.xWant, Dimension.xIntent)):
    gens = []
    for i in range(num_events):
        for dim in dims:
            gens.append(
                gen_list(
                    f"PersonX does thing{i:03d}",
                    dim,
                    [f"gen {dim.value} {r}" for r in range(10)],
                )
            )
    return gens


class TestHumanEvalSheet:
    def test_sample_shape(self):
        sheet = export_human_eval_sheet(full_gens(), sample_size=100, seed=3)
        assert len(sheet.rows) == 100 * 2 * 10
        by_event = {}
        for row in sheet.rows:
            by_event.setdefault(row.event, []).append(row)
        assert len(by_event) == 100
        for rows in by_event.values():
            assert len(rows) == 20
            assert sorted({r.rank for r in rows}) == list(range(1, 11))

    def test_seeded_sample_deterministic(self):
        a = export_human_eval_sheet(full_gens(), sample_size=100, seed=3)
        b = export_human_eval_sheet(full_gens(), sample_size=100, seed=3)
        assert a == b
        c = export_human_eval_sheet(full_gens(), sample_size=100, seed=4)
        assert {r.event for r in a.rows} != {r.event for r in c.rows}

    def test_too_few_events(self):
        with pytest.raises(EvalError):
            export_human_eval_sheet(full_gens(50), sample_size=100)

    def test_too_few_generations(self):
        gens = full_gens()
        gens[0] = gen_list(gens[0].event, gens[0].dimension, ["only one"])
        with pytest.raises(EvalError):
            export_human_eval_sheet(gens, sample_size=100, seed=0)

    def test_tsv_round_trip_blank_votes(self):
        sheet = export_human_eval_sheet(full_gens(), sample_size=100, seed=1)
        buf = io.StringIO()
        write_sheet(sheet, buf)
        buf.seek(0)
        assert read_sheet(buf) == sheet

    def test_tsv_round_trip_with_votes(self):
        sheet = export_human_eval_sheet(full_gens(), sample_size=100, seed=1)
        voted = JudgmentSheet(
            rows=tuple(
                dataclasses.replace(r, votes_valid=i % 6, judges_total=5)
                for i, r in enumerate(sheet.rows)
            )
        )
        buf = io.StringIO()
        write_sheet(voted, buf)
        buf.seek(0)
        assert read_sheet(buf) == voted

    @pytest.mark.parametrize(
        "votes,judges",
        [("3", ""), ("", "5"), ("7", "5"), ("-1", "5"), ("0", "0"), ("1", "-1")],
        ids=["votes-only", "judges-only", "more-votes-than-judges", "negative-votes",
             "no-judges", "negative-judges"],
    )
    def test_impossible_vote_row_rejected(self, votes, judges):
        buf = io.StringIO(
            "\t".join(SHEET_COLUMNS) + "\n"
            + f"PersonX runs\txWant\t1\tgo home\t{votes}\t{judges}\n"
        )
        with pytest.raises(EvalError, match="line 2"):
            read_sheet(buf)

    @pytest.mark.parametrize(
        "row",
        ["PersonX runs\txWant\tfirst\tgo home\t\t",
         "PersonX runs\txWant\t1\tgo home\tfive\t5",
         "PersonX runs\txWant\t1\tgo home\t3\tfive",
         "PersonX runs\txFoo\t1\tgo home\t\t"],
        ids=["rank", "votes-valid", "judges-total", "dimension"],
    )
    def test_unparsable_field_names_line(self, row):
        buf = io.StringIO("\t".join(SHEET_COLUMNS) + "\n\n" + row + "\n")
        with pytest.raises(EvalError, match="line 3"):
            read_sheet(buf)

    @pytest.mark.parametrize(
        "ranks,bad_line",
        [([1, 0], 3), ([1, 11], 3), ([-5], 2), ([1, 2, 1], 4),
         (list(range(1, 11)) + [1], 12)],
        ids=["zero", "eleven", "negative", "repeated", "eleventh-row"],
    )
    def test_rank_outside_sheet_or_repeated_names_line(self, ranks, bad_line):
        buf = io.StringIO("\t".join(SHEET_COLUMNS) + "\n" + "".join(
            f"PersonX runs\txWant\t{rank}\tgo home\t5\t5\n" for rank in ranks))
        with pytest.raises(EvalError, match=f"^line {bad_line}: rank "):
            read_sheet(buf)

    def test_pair_with_missing_ranks_rejected(self):
        buf = io.StringIO("\t".join(SHEET_COLUMNS) + "\n" + "".join(
            f"PersonX runs\txWant\t{rank}\tgo home\t5\t5\n" for rank in range(1, 11))
            + "PersonX naps\txWant\t1\tsleep\t5\t5\nPersonX naps\txWant\t2\trest\t0\t5\n")
        with pytest.raises(EvalError, match=r"^\('PersonX naps', xWant\) has 2 rows, need 10$"):
            read_sheet(buf)


class TestPrecisionAt10:
    def sheet(self, votes):
        rows = tuple(
            SheetRow(
                event="PersonX runs",
                dimension=Dimension.xWant,
                rank=i + 1,
                generation=f"g{i}",
                votes_valid=v,
                judges_total=5,
            )
            for i, v in enumerate(votes)
        )
        return JudgmentSheet(rows=rows)

    def test_all_valid(self):
        result = precision_at_10(self.sheet([5] * 10))
        assert result["xWant"] == pytest.approx(100.0)

    def test_half_valid_majority(self):
        result = precision_at_10(self.sheet([5, 5, 5, 5, 5, 0, 0, 1, 2, 2]))
        assert result["xWant"] == pytest.approx(50.0)

    def test_any_threshold(self):
        votes = [5, 5, 5, 5, 5, 0, 0, 1, 2, 2]
        result = precision_at_10(self.sheet(votes), valid_threshold="any")
        assert result["xWant"] == pytest.approx(80.0)

    def test_exact_half_votes_not_majority(self):
        rows = tuple(
            SheetRow("e", Dimension.xWant, i + 1, f"g{i}", 2, 4) for i in range(10)
        )
        result = precision_at_10(JudgmentSheet(rows=rows))
        assert result["xWant"] == pytest.approx(0.0)

    def test_missing_votes_rejected(self):
        sheet = self.sheet([5] * 9 + [None])
        with pytest.raises(EvalError):
            precision_at_10(sheet)

    def test_unknown_threshold(self):
        with pytest.raises(EvalError):
            precision_at_10(self.sheet([5] * 10), valid_threshold="plurality")
