"""Automatic and human-judgment evaluation of generated inferences.

The automatic metric is sentence-level BLEU with maximum n-gram order 2,
uniform weights, closest-reference brevity penalty, and Smoothing1: a
zero numerator of a higher-order modified precision is replaced by a
small epsilon (default 0.1). Instances where a third or more of the
annotations are the empty sentinel are omitted, compared as exact
rationals so the boundary is never a floating-point accident.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterable

from ifthen.generation import GenerationList
from ifthen.graph import AtlasGraph, InferenceTarget, normalize_node_text, query_inferences
from ifthen.taxonomy import Dimension

SMOOTHING_EPSILON = 0.1
ROWS_PER_PAIR = 10  # ranked generations per sampled (event, dimension) on a sheet

SHEET_COLUMNS = ("event", "dimension", "rank", "generation", "votes_valid", "judges_total")


class EvalError(ValueError):
    pass


def tokenize_for_bleu(text: str) -> list[str]:
    """Whitespace tokens of lowercased text, matching node identity."""
    return normalize_node_text(text).split()


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu2(
    candidate: list[str],
    references: list[list[str]],
    smoothing_epsilon: float = SMOOTHING_EPSILON,
) -> float:
    """Sentence BLEU, order 2, Smoothing1, closest-reference brevity penalty.

    Returns a value in [0, 1]; an empty candidate scores 0. Smoothing
    applies only to orders above 1: if unigram precision is zero the
    score is 0. ``smoothing_epsilon`` must be finite and positive.
    """
    if not (math.isfinite(smoothing_epsilon) and smoothing_epsilon > 0):
        raise EvalError(f"smoothing epsilon must be finite and positive, got {smoothing_epsilon}")
    if not references or any(not r for r in references):
        raise EvalError("references must be non-empty token sequences")
    if not candidate:
        return 0.0

    log_precisions = []
    for n in (1, 2):
        cand_counts = _ngram_counts(candidate, n)
        denom = max(len(candidate) - n + 1, 0)
        clipped = 0
        if cand_counts:
            max_ref: Counter = Counter()
            for ref in references:
                for gram, count in _ngram_counts(ref, n).items():
                    if count > max_ref[gram]:
                        max_ref[gram] = count
            clipped = sum(min(c, max_ref[g]) for g, c in cand_counts.items())
        if clipped > 0:
            log_precisions.append(math.log(clipped / denom))
        elif n > 1:
            log_precisions.append(math.log(smoothing_epsilon / max(denom, 1)))
        else:
            return 0.0

    c = len(candidate)
    r = min((len(ref) for ref in references), key=lambda L: (abs(L - c), L))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(sum(log_precisions) / len(log_precisions))


def is_instance_evaluable(annotations: list[InferenceTarget]) -> bool:
    """False iff one-third or more of the annotations are empty (exact rational)."""
    if not annotations:
        raise EvalError("annotations must be non-empty")
    empty = sum(1 for a in annotations if a.is_empty)
    return Fraction(empty, len(annotations)) < Fraction(1, 3)


@dataclass(frozen=True)
class EvalReport:
    """Per-dimension average BLEU (percentage) with instance accounting."""

    split: str
    k: int
    smoothing_epsilon: float
    bleu_by_dimension: dict[str, float]
    evaluated_by_dimension: dict[str, int]
    omitted_by_dimension: dict[str, int]
    skipped_no_gold: int = 0

    def to_dict(self) -> dict:
        return {
            **{
                dim: {
                    "bleu": self.bleu_by_dimension[dim],
                    "instances": self.evaluated_by_dimension[dim],
                    "omitted": self.omitted_by_dimension.get(dim, 0),
                }
                for dim in sorted(self.bleu_by_dimension)
            },
            "meta": {
                "split": self.split,
                "k": self.k,
                "smoothing_epsilon": self.smoothing_epsilon,
                "skipped_no_gold": self.skipped_no_gold,
            },
        }


def avg_topk_bleu(
    generations: Iterable[GenerationList],
    gold: AtlasGraph,
    k: int = 10,
    split: str = "",
    smoothing_epsilon: float = SMOOTHING_EPSILON,
) -> EvalReport:
    """Mean top-k BLEU per dimension, times 100.

    For each (event, dimension) with gold annotations that passes the
    empty-annotation filter, the instance score is the mean over the top
    ``k`` predictions of their BLEU against the union of non-empty gold
    annotations; the reported value per dimension averages instances.
    Generations without any gold annotation are counted and skipped.
    """
    totals: dict[str, float] = {}
    evaluated: dict[str, int] = {}
    omitted: dict[str, int] = {}
    skipped = 0
    for gen in generations:
        annotations = query_inferences(gold, gen.event, gen.dimension, include_empty=True)
        dim = gen.dimension.value
        if not annotations:
            skipped += 1
            continue
        if not is_instance_evaluable(annotations):
            omitted[dim] = omitted.get(dim, 0) + 1
            continue
        refs = [tokenize_for_bleu(a.text) for a in annotations if not a.is_empty]
        preds = [list(tokens) for tokens, _ in gen.entries[:k]]
        if not preds:
            score = 0.0
        else:
            score = sum(
                bleu2(
                    tokenize_for_bleu(" ".join(p)), refs, smoothing_epsilon
                )
                for p in preds
            ) / len(preds)
        totals[dim] = totals.get(dim, 0.0) + score
        evaluated[dim] = evaluated.get(dim, 0) + 1
    return EvalReport(
        split=split,
        k=k,
        smoothing_epsilon=smoothing_epsilon,
        bleu_by_dimension={
            dim: 100.0 * totals[dim] / evaluated[dim] for dim in totals
        },
        evaluated_by_dimension=evaluated,
        omitted_by_dimension=omitted,
        skipped_no_gold=skipped,
    )


@dataclass(frozen=True)
class SheetRow:
    event: str
    dimension: Dimension
    rank: int
    generation: str
    votes_valid: int | None
    judges_total: int | None


@dataclass(frozen=True)
class JudgmentSheet:
    rows: tuple[SheetRow, ...] = field(default=())


def export_human_eval_sheet(
    generations: list[GenerationList],
    sample_size: int = 100,
    seed: int = 0,
) -> JudgmentSheet:
    """Seeded sample of events, ten ranked rows per (event, dimension).

    Vote columns are left blank for external judges to fill in.
    """
    events = sorted({g.event for g in generations})
    if len(events) < sample_size:
        raise EvalError(
            f"need at least {sample_size} events with generations, have {len(events)}"
        )
    sampled = set(random.Random(seed).sample(events, sample_size))
    rows: list[SheetRow] = []
    for gen in sorted(generations, key=lambda g: (g.event, g.dimension.value)):
        if gen.event not in sampled:
            continue
        if len(gen.entries) < ROWS_PER_PAIR:
            raise EvalError(
                f"({gen.event!r}, {gen.dimension.value}) has "
                f"{len(gen.entries)} generations, need {ROWS_PER_PAIR}"
            )
        for rank, (tokens, _) in enumerate(gen.entries[:ROWS_PER_PAIR], start=1):
            rows.append(
                SheetRow(
                    event=gen.event,
                    dimension=gen.dimension,
                    rank=rank,
                    generation=" ".join(tokens),
                    votes_valid=None,
                    judges_total=None,
                )
            )
    return JudgmentSheet(rows=tuple(rows))


def write_sheet(sheet: JudgmentSheet, stream: IO[str]) -> None:
    stream.write("\t".join(SHEET_COLUMNS) + "\n")
    for r in sheet.rows:
        stream.write(
            "\t".join(
                (
                    r.event,
                    r.dimension.value,
                    str(r.rank),
                    r.generation,
                    "" if r.votes_valid is None else str(r.votes_valid),
                    "" if r.judges_total is None else str(r.judges_total),
                )
            )
            + "\n"
        )


def read_sheet(stream: IO[str]) -> JudgmentSheet:
    """Parse a judgment sheet; a row's vote columns are both blank or both
    filled, with at least one judge and at most that many valid votes, and
    each (event, dimension) has exactly one row of each rank from 1 to
    ``ROWS_PER_PAIR``."""
    lines = iter(enumerate(stream, start=1))
    try:
        _, header = next(lines)
    except StopIteration:
        raise EvalError("empty judgment sheet") from None
    if header.rstrip("\n").split("\t") != list(SHEET_COLUMNS):
        raise EvalError(f"bad sheet header, expected {SHEET_COLUMNS}")
    rows, seen = [], {}
    for line_no, line in lines:
        line = line.rstrip("\n")
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != len(SHEET_COLUMNS):
            raise EvalError(f"line {line_no}: expected {len(SHEET_COLUMNS)} columns")
        event, dim, rank, generation, votes, judges = cols
        if bool(votes) != bool(judges):
            raise EvalError(f"line {line_no}: fill both vote columns or neither")
        try:
            votes_valid = int(votes) if votes else None
            judges_total = int(judges) if judges else None
            rank, dimension = int(rank), Dimension(dim)
        except ValueError as exc:
            raise EvalError(f"line {line_no}: {exc}") from None
        if not 1 <= rank <= ROWS_PER_PAIR:
            raise EvalError(f"line {line_no}: rank {rank} is outside 1..{ROWS_PER_PAIR}")
        first = seen.setdefault((event, dimension, rank), line_no)
        if first != line_no:
            raise EvalError(f"line {line_no}: rank {rank} of {event!r} {dim} "
                            f"repeats line {first}")
        if judges_total is not None and not (
            judges_total >= 1 and 0 <= votes_valid <= judges_total
        ):
            raise EvalError(
                f"line {line_no}: {votes_valid} of {judges_total} judges voted valid"
            )
        rows.append(
            SheetRow(
                event=event,
                dimension=dimension,
                rank=rank,
                generation=generation,
                votes_valid=votes_valid,
                judges_total=judges_total,
            )
        )
    for (event, dimension), count in Counter((e, d) for e, d, _ in seen).items():
        if count < ROWS_PER_PAIR:
            raise EvalError(f"({event!r}, {dimension.value}) has {count} rows, "
                            f"need {ROWS_PER_PAIR}")
    return JudgmentSheet(rows=tuple(rows))


def precision_at_10(
    sheet: JudgmentSheet, valid_threshold: str = "majority"
) -> dict[str, float]:
    """Per-dimension precision (%) of generations judged valid.

    ``majority`` counts a row when more than half the judges marked it
    valid; ``any`` when at least one did. The aggregation rule is a
    documented choice and is echoed by callers in report metadata.
    """
    if valid_threshold not in ("majority", "any"):
        raise EvalError(f"unknown threshold rule {valid_threshold!r}")
    missing = [
        (r.event, r.dimension.value, r.rank)
        for r in sheet.rows
        if r.votes_valid is None or r.judges_total is None
    ]
    if missing:
        raise EvalError(f"rows without judgments: {missing}")

    per_pair: dict[tuple[str, str], tuple[int, int]] = {}
    for r in sheet.rows:
        if valid_threshold == "majority":
            correct = r.votes_valid * 2 > r.judges_total
        else:
            correct = r.votes_valid >= 1
        key = (r.event, r.dimension.value)
        good, total = per_pair.get(key, (0, 0))
        per_pair[key] = (good + int(correct), total + 1)

    by_dim: dict[str, list[float]] = {}
    for (_, dim), (good, total) in per_pair.items():
        by_dim.setdefault(dim, []).append(good / total)
    return {
        dim: 100.0 * sum(vals) / len(vals) for dim, vals in sorted(by_dim.items())
    }

