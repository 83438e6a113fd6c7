import io
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifthen.graph import BLANK_TOKEN, EventPhrase, Split, person_variable_of
from ifthen.ingest import (
    NGRAMS_TOP_RANK,
    FrequencySource,
    FrequencyTable,
    IngestError,
    blank_infrequent_args,
    content_key,
    default_stopwords,
    load_frequency_table,
    load_name_lexicon,
    normalize_event,
    split_events,
)
from oracles import blank_infrequent_args_reference

NAMES = {"alex", "taylor", "jordan", "sam"}


class TestNormalizeEvent:
    def test_two_names(self):
        ev = normalize_event("Alex buys Taylor coffee", NAMES)
        assert ev.text == "PersonX buys PersonY coffee"

    def test_already_normalized_unchanged(self):
        ev = normalize_event("PersonX bakes bread", NAMES)
        assert ev.text == "PersonX bakes bread"

    def test_repeated_name_same_variable(self):
        ev = normalize_event("Alex breaks Alex's arm", NAMES)
        assert ev.text == "PersonX breaks PersonX's arm"

    def test_existing_variables_reserved(self):
        ev = normalize_event("PersonX buys Taylor coffee", NAMES)
        assert ev.text == "PersonX buys PersonY coffee"

    def test_too_many_names(self):
        with pytest.raises(IngestError):
            normalize_event("Alex asks Taylor and Jordan about Sam", NAMES)

    def test_idempotent(self):
        once = normalize_event("Alex buys Taylor coffee", NAMES)
        twice = normalize_event(once.text, NAMES)
        assert once == twice

    def test_lexicon_file_case_ignored(self):
        lexicon = load_name_lexicon(io.StringIO("ALEX\n"))
        ev = normalize_event("Alex calls alex's friend ALEX", lexicon)
        assert ev.text == "PersonX calls PersonX's friend PersonX"


class TestBlanking:
    @pytest.fixture
    def freq(self):
        return FrequencyTable(
            counts={("drinks", "dark roast"): 2, ("drinks", "coffee"): 50},
            source=FrequencySource.Stories,
        )

    def test_infrequent_argument_blanked(self, freq):
        ev = EventPhrase.from_text("drinks dark roast in the morning")
        assert blank_infrequent_args(ev, freq, 5).text == "drinks ___ in the morning"

    def test_frequent_argument_kept(self, freq):
        ev = EventPhrase.from_text("drinks coffee in the morning")
        assert blank_infrequent_args(ev, freq, 5).text == ev.text

    def test_idempotent(self, freq):
        ev = EventPhrase.from_text("drinks ___ in the morning")
        assert blank_infrequent_args(ev, freq, 5).text == ev.text

    def test_verb_never_blanked(self):
        freq = FrequencyTable(
            counts={("drinks", "drinks"): 1}, source=FrequencySource.Stories
        )
        ev = EventPhrase.from_text("drinks drinks")
        out = blank_infrequent_args(ev, freq, 5)
        assert out.tokens[0] == "drinks"

    def test_span_before_verb_never_blanked(self):
        table = FrequencyTable(counts={("drinks", "PersonX drinks"): 1},
                               source=FrequencySource.Stories)
        ev = EventPhrase.from_text("PersonX drinks coffee")
        assert blank_infrequent_args(ev, table, 5).text == "PersonX drinks coffee"

    def test_subject_never_blanked(self):
        # Blanking PersonX would leave PersonY without PersonX: not an event.
        table = FrequencyTable(counts={("gives", "PersonX"): 1}, source=FrequencySource.Stories)
        ev = EventPhrase.from_text("PersonX gives PersonY a book")
        assert blank_infrequent_args(ev, table, 5).text == "PersonX gives PersonY a book"

    def test_no_verb_is_error(self, freq):
        ev = EventPhrase.from_text("PersonX ___")
        with pytest.raises(IngestError):
            blank_infrequent_args(ev, freq, 5)

    def test_default_threshold_by_source(self):
        stories = FrequencyTable(counts={("a", "b"): 1}, source=FrequencySource.Stories)
        blogs = FrequencyTable(counts={("a", "b"): 1}, source=FrequencySource.Blogs)
        assert stories.default_threshold() == 5
        assert blogs.default_threshold() == 100

    def test_load_frequency_table(self):
        table = load_frequency_table(
            io.StringIO("drinks\tdark roast\t2\tstories\ndrinks\tcoffee\t50\tstories\n")
        )
        assert table.counts[("drinks", "dark roast")] == 2
        assert table.source is FrequencySource.Stories

    def test_whitespace_only_argument_ignored(self):
        # " " splits to no tokens; such a span would match everywhere.
        table = load_frequency_table(io.StringIO("drinks\t \t1\tstories\n"))
        ev = EventPhrase.from_text("drinks coffee")
        assert blank_infrequent_args(ev, table, 5).text == "drinks coffee"

    def test_rarest_of_same_tokens_blanks(self):
        table = FrequencyTable(
            counts={("drinks", "dark roast"): 50, ("drinks", "dark  roast"): 2},
            source=FrequencySource.Stories,
        )
        ev = EventPhrase.from_text("drinks dark roast")
        assert blank_infrequent_args(ev, table, 5).text == "drinks ___"

    def test_longest_rare_span_wins(self):
        table = FrequencyTable(
            counts={("drinks", "dark"): 1, ("drinks", "dark roast"): 1,
                    ("drinks", "roast coffee"): 1},
            source=FrequencySource.Stories,
        )
        ev = EventPhrase.from_text("drinks dark roast coffee")
        assert blank_infrequent_args(ev, table, 5).text == "drinks ___ coffee"

    def test_counts_read_only(self):
        counts = {("drinks", "coffee"): 2}
        table = FrequencyTable(counts=counts, source=FrequencySource.Stories)
        with pytest.raises(TypeError):
            table.counts[("drinks", "coffee")] = 50
        counts[("drinks", "coffee")] = 50  # the caller's dict is not the table's
        ev = EventPhrase.from_text("drinks coffee")
        assert blank_infrequent_args(ev, table, 5).text == "drinks ___"
        assert table == FrequencyTable(counts={("drinks", "coffee"): 2},
                                       source=FrequencySource.Stories)
        assert table != FrequencyTable(counts=counts, source=FrequencySource.Stories)

    def test_ngrams_threshold_is_top_rank_count(self):
        values = list(range(1, NGRAMS_TOP_RANK + 2))  # 10,001 distinct counts
        random.Random(0).shuffle(values)
        counts = {("v", f"a{i}"): c for i, c in enumerate(values)}
        table = FrequencyTable(counts=counts, source=FrequencySource.Ngrams)
        assert table.default_threshold() == 2  # the 10,000th largest
        del counts[("v", f"a{values.index(1)}")]
        short = FrequencyTable(counts=counts, source=FrequencySource.Ngrams)
        assert short.default_threshold() == 1
        one_row = FrequencyTable(counts={("v", "a"): 50}, source=FrequencySource.Ngrams)
        assert one_row.default_threshold() == 1


VOCAB = ["drinks", "eats", "dark", "roast", "coffee", "PersonX", "PersonY", "___"]
_args = st.one_of(
    st.just(""),
    st.builds(lambda toks, sep, pad: pad + sep.join(toks) + pad,
              st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3),
              st.sampled_from([" ", "  ", "\t"]), st.sampled_from(["", " "])),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # IngestError, or an event left without PersonX
        return type(exc)


@st.composite
def _event_and_counts(draw):
    """An event and a table, sometimes with a row for the event's own verb
    whose span starts at or before the verb: such a span must not match."""
    event = draw(st.lists(st.sampled_from(VOCAB + ["PersonX's"]), min_size=1, max_size=8))
    counts = draw(st.dictionaries(
        st.tuples(st.sampled_from(["drinks", "eats", "dark"]), _args),
        st.integers(1, 12), max_size=12))
    verb_at = next((i for i, t in enumerate(event)
                    if person_variable_of(t) is None and t != BLANK_TOKEN), None)
    if verb_at is not None and draw(st.booleans()):
        start = draw(st.integers(0, verb_at))
        end = draw(st.integers(start + 1, len(event)))
        span = (event[verb_at], " ".join(event[start:end]))
        counts = {**counts, span: draw(st.integers(1, 12))}
    return event, counts


class TestBlankingMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        event_and_counts=_event_and_counts(),
        threshold=st.one_of(st.none(), st.integers(1, 10)),
        source=st.sampled_from(FrequencySource),
    )
    def test_equals_sort_per_call_reference(self, event_and_counts, threshold, source):
        event, counts = event_and_counts
        try:
            ev = EventPhrase.from_text(" ".join(event))
        except ValueError:
            assume(False)
        table = FrequencyTable(counts=counts, source=source)
        assert (_outcome(blank_infrequent_args, ev, table, threshold)
                == _outcome(blank_infrequent_args_reference, ev, table, threshold))


class TestContentKey:
    def test_skips_stopwords_and_variables(self):
        ev = EventPhrase.from_text("PersonX takes the dog for a walk")
        assert content_key(ev, default_stopwords()) == ("takes", "dog")

    def test_same_key_for_shared_prefix(self):
        a = EventPhrase.from_text("PersonX takes the dog for a walk")
        b = EventPhrase.from_text("PersonX takes the dog to the vet")
        sw = default_stopwords()
        assert content_key(a, sw) == content_key(b, sw)

    def test_padding(self):
        ev = EventPhrase.from_text("PersonX sleeps")
        assert content_key(ev, default_stopwords()) == ("sleeps", "")

    def test_blanks_not_content(self):
        ev = EventPhrase.from_text("PersonX drinks ___ quickly")
        assert content_key(ev, default_stopwords()) == ("drinks", "quickly")


class TestSplitEvents:
    def test_shared_key_events_stay_together(self):
        events = [
            EventPhrase.from_text("PersonX takes the dog for a walk"),
            EventPhrase.from_text("PersonX takes the dog to the vet"),
        ] + [EventPhrase.from_text(f"PersonX does thing {i}") for i in range(20)]
        for seed in range(5):
            a = split_events(events, seed=seed)
            assert (
                a.assignment["PersonX takes the dog for a walk"]
                is a.assignment["PersonX takes the dog to the vet"]
            )

    def test_singleton_groups_exact_ratio(self):
        events = [EventPhrase.from_text(f"PersonX item{i}") for i in range(10)]
        a = split_events(events, seed=3)
        counts = {s: 0 for s in Split}
        for s in a.assignment.values():
            counts[s] += 1
        assert counts == {Split.Train: 8, Split.Dev: 1, Split.Test: 1}

    def test_deterministic(self):
        events = [EventPhrase.from_text(f"PersonX item{i}") for i in range(30)]
        assert split_events(events, seed=7) == split_events(events, seed=7)

    def test_too_few_groups(self):
        events = [EventPhrase.from_text("PersonX naps")]
        with pytest.raises(IngestError):
            split_events(events)

    def test_bad_ratios(self):
        events = [EventPhrase.from_text(f"PersonX item{i}") for i in range(10)]
        with pytest.raises(IngestError):
            split_events(events, ratios=(0.5, 0.5, 0.5))

    @pytest.mark.parametrize("ratios", [(1.5, -0.25, -0.25), (float("nan"), 0.5, 0.5),
                                        (0.5, 0.5)])
    def test_negative_nan_or_missing_ratio(self, ratios):
        events = [EventPhrase.from_text(f"PersonX item{i}") for i in range(10)]
        with pytest.raises(IngestError):
            split_events(events, ratios=ratios)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        keys=st.lists(st.integers(0, 40), min_size=10, max_size=120),
    )
    def test_bucketing_invariant(self, seed, keys):
        assume(len(set(keys)) >= 3)
        events = [
            EventPhrase.from_text(f"key{k} shared tail{i}") for i, k in enumerate(keys)
        ]
        sw = default_stopwords()
        a = split_events(events, seed=seed, stopwords=sw)
        by_key = {}
        for ev in events:
            by_key.setdefault(content_key(ev, sw), set()).add(a.assignment[ev.text])
        assert all(len(splits) == 1 for splits in by_key.values())
