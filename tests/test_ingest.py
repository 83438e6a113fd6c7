import io
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifthen import atlas_io, ingest
from ifthen.graph import BLANK_TOKEN, EventPhrase, Split, person_variable_of
from ifthen.ingest import (
    NGRAMS_TOP_RANK,
    FrequencySource,
    FrequencyTable,
    IngestError,
    NameLexicon,
    blank_infrequent_args,
    content_key,
    default_stopwords,
    load_frequency_table,
    load_name_lexicon,
    load_stopwords,
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


    def test_lexicon_keeps_one_token_lines_around_their_whitespace(self):
        assert load_name_lexicon(io.StringIO("  Alex \nbob\t\n")) == {"alex", "bob"}


@pytest.mark.parametrize("load", [load_name_lexicon, load_stopwords],
                         ids=["names", "stopwords"])
@pytest.mark.parametrize("line, token", [
    ("mary ann", "mary ann"),
    ("  mary  ann ", "mary  ann"),
    ("of\u00a0the", "of\u00a0the"),
], ids=["space", "padded", "no-break-space"])
def test_one_field_line_of_two_tokens_names_its_line(load, line, token):
    # Events are compared one token at a time, so such an entry never matches.
    with pytest.raises(IngestError) as exc:
        load(io.StringIO(f"alex\n# a comment\n{line}\nbob\n"))
    assert str(exc.value) == f"line 3: expected one token, got {token!r}"


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

    @pytest.mark.parametrize("rows, message", [
        ("drinks\tcoffee\t2\tstory\n", "line 1: 'story' is not a valid FrequencySource"),
        ("drinks\tcoffee\t2\tstories\n# blogs from here\ndrinks\ttea\t9\tblogs\n",
         "line 3: mixed sources stories and blogs"),
        ("drinks\tcoffee\t10\tstories\ndrinks\tcoffee\t-5\tstories\n",
         "line 2: count must be an integer >= 1, got '-5'"),
        ("drinks\tcoffee\tmany\tstories\n", "line 1: count must be an integer >= 1, got 'many'"),
    ], ids=["unknown-source", "mixed-sources", "negative-count", "non-integer-count"])
    def test_bad_row_names_its_line(self, rows, message):
        with pytest.raises(IngestError) as exc:
            load_frequency_table(io.StringIO(rows))
        assert str(exc.value) == message

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


@pytest.fixture
def made(monkeypatch):
    """``(function, text)`` for each phrase that naming or blanking builds:
    the work that the lexicon's and the table's memos save."""
    made = []

    class Counted:
        @staticmethod
        def from_text(text):
            made.append((sys._getframe(1).f_code.co_name, text))
            return EventPhrase.from_text(text)

    monkeypatch.setattr(ingest, "EventPhrase", Counted)
    return made


def test_each_distinct_event_is_named_and_blanked_once(made):
    # Called once per triple, as the ingest command and the benchmark call them.
    raw = atlas_io.parse_atlas_tsv(io.StringIO(
        "Alice runs home\txWant\tto rest\ttrain\tw1\n"
        "Alice runs home\txWant\tto rest\ttrain\tw2\n"
        "Alice runs home\txIntent\tto get fit\ttrain\tw1\n"
        "Bob meets Alice\toReact\tglad\ttrain\tw1\n"
        "Bob  meets Alice\txWant\tto chat\ttrain\tw2\n"
        "Alice runs home\toWant\tnone\ttest\tw3\n"))
    lexicon = load_name_lexicon(io.StringIO("alice\nbob\n"))
    table = load_frequency_table(io.StringIO("runs\thome\t1\tstories\n"
                                             "meets\tPersonY\t9\tstories\n"))
    out = [blank_infrequent_args(normalize_event(t.event.text, lexicon), table) for t in raw]
    # Keyed by the parsed text, in which "Bob  meets Alice" has one space.
    assert made == [("normalize_event", "PersonX runs home"),
                    ("blank_infrequent_args", "PersonX runs ___"),
                    ("normalize_event", "PersonX meets PersonY"),
                    ("blank_infrequent_args", "PersonX meets PersonY")]
    assert [e.text for e in out] == ["PersonX runs ___"] * 3 + ["PersonX meets PersonY"] * 2 + [
        "PersonX runs ___"]
    # The same phrases as from a plain set and a fresh table per call, which keep nothing.
    assert out == [blank_infrequent_args(normalize_event(t.event.text, set(lexicon)),
                                         FrequencyTable(table.counts, table.source))
                   for t in raw]


class TestMemo:
    """The lexicon keeps what naming returns, and the table what blanking returns."""

    @pytest.fixture
    def table(self):
        return FrequencyTable(counts={("drinks", "dark roast"): 2, ("drinks", "coffee"): 50},
                              source=FrequencySource.Stories)

    def test_repeated_call_returns_the_same_phrase(self, table, made):
        lexicon = NameLexicon(NAMES)
        named = normalize_event("Alex drinks dark roast", lexicon)
        assert normalize_event("Alex drinks dark roast", lexicon) is named
        blanked = blank_infrequent_args(named, table)
        again = EventPhrase.from_text("PersonX drinks dark roast")
        assert blank_infrequent_args(again, table) is blanked
        assert blank_infrequent_args(again, table, table.default_threshold()) is blanked
        assert blanked.text == "PersonX drinks ___"
        assert len(made) == 2

    def test_error_is_raised_on_every_call(self, table, made):
        lexicon = NameLexicon(NAMES)
        no_verb = EventPhrase.from_text("PersonX ___")
        for _ in range(3):
            with pytest.raises(IngestError, match="more than 3 distinct person"):
                normalize_event("Alex asks Taylor and Jordan about Sam", lexicon)
            with pytest.raises(ValueError, match="without PersonX"):
                normalize_event("PersonY drinks", lexicon)
            with pytest.raises(IngestError, match="no identifiable verb"):
                blank_infrequent_args(no_verb, table, 5)
            with pytest.raises(IngestError, match="threshold must be >= 1"):
                blank_infrequent_args(EventPhrase.from_text("drinks coffee"), table, 0)
        # Only the one phrase each failed naming built before its error.
        assert made == [("normalize_event", "PersonY drinks")] * 3

    def test_thresholds_never_share_a_result(self, table):
        ev = EventPhrase.from_text("drinks dark roast and coffee")
        for _ in range(2):
            assert blank_infrequent_args(ev, table, 2).text == ev.text
            assert blank_infrequent_args(ev, table).text == "drinks ___ and coffee"
            assert blank_infrequent_args(ev, table, 51).text == "drinks ___ and ___"

    def test_tables_never_share_a_result(self, table):
        ev = EventPhrase.from_text("drinks dark roast")
        common = FrequencyTable(counts={("drinks", "dark roast"): 50},
                                source=FrequencySource.Stories)
        twin = FrequencyTable(table.counts, table.source)
        for _ in range(2):
            assert blank_infrequent_args(ev, table).text == "drinks ___"
            assert blank_infrequent_args(ev, common).text == "drinks dark roast"
        # Equal tables keep results apart too: a memo is owned, not looked up by value.
        assert twin == table
        assert blank_infrequent_args(ev, twin) is not blank_infrequent_args(ev, table)

    def test_lexicons_never_share_a_result(self):
        few, many, twin = NameLexicon({"alex"}), NameLexicon(NAMES), NameLexicon({"alex"})
        for _ in range(2):
            assert normalize_event("Alex calls Taylor", few).text == "PersonX calls Taylor"
            assert normalize_event("Alex calls Taylor", many).text == "PersonX calls PersonY"
        assert twin == few
        assert normalize_event("Alex calls Taylor", twin) is not normalize_event(
            "Alex calls Taylor", few)

    def test_lexicon_is_a_set_of_names(self):
        # The benchmark reads a lexicon with ``in`` and ``len()``.
        lexicon = load_name_lexicon(io.StringIO("Alex\nTAYLOR\nalex\n"))
        assert type(lexicon) is NameLexicon
        normalize_event("Alex meets Taylor", lexicon)
        assert "alex" in lexicon and "taylor" in lexicon
        assert "Alex" not in lexicon and "Alex meets Taylor" not in lexicon
        assert len(lexicon) == 2
        assert lexicon == {"alex", "taylor"} and sorted(lexicon) == ["alex", "taylor"]


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
