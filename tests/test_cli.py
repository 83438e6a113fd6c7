import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings

import pytest

from conftest import poison_gradients

from ifthen import atlas_io, generation
from ifthen.atlas_io import AtlasFormatError
from ifthen.cli import _apply_config, _build_parser, run
from ifthen.evaluation import EvalError
from ifthen.ingest import IngestError
from ifthen.overlap import OverlapError
from ifthen.seq2seq import ModelConfig
from ifthen.seq2seq.checkpoint import CheckpointError
from ifthen.seq2seq.embeddings import EmbeddingFormatError
from ifthen.seq2seq.gradcheck import MAX_RELATIVE_ERROR
from ifthen.seq2seq.model import _param_shapes
from ifthen.taxonomy import Dimension

ATLAS = """\
PersonX runs home\txWant\tto rest\ttrain\tw1
PersonX runs home\txWant\tto shower\ttrain\tw2
PersonX runs home\txIntent\tto get fit\ttrain\tw1
PersonX runs home\toReact\tnone\ttrain\tw1
PersonX bakes bread\txWant\tto eat it\ttrain\tw1
PersonX bakes bread\txIntent\tto be fed\ttrain\tw2
PersonX calls PersonY\txWant\tto chat\tdev\tw1
PersonX walks the dog\txWant\tto relax\ttest\tw1
PersonX walks the dog\txIntent\tto be kind\ttest\tw1
"""


# Each command's parser, and every flag whose range it declares: a flag
# with a minimum is tried one below it, and a float flag at inf, NaN and
# an int beyond the float range.
COMMANDS = _build_parser().commands
OUT_OF_RANGE = [
    pytest.param(name, dest, value, id=f"{name}-{dest}={str(value)[:8]}")
    for name, parser in COMMANDS.items()
    for dest, (action, _, minimum) in parser.flags.items()
    for value in ([] if minimum is None else [minimum - 1])
    + ([math.inf, math.nan, 10**400] if action.type is float else [])
]
MINIMA = [
    pytest.param(name, dest, minimum, id=f"{name}-{dest}={minimum}")
    for name, parser in COMMANDS.items()
    for dest, (_, _, minimum) in parser.flags.items() if minimum is not None
]


def required_args(command, value):
    """Each required flag of ``command``, given ``value``."""
    return [arg for action, _, _ in COMMANDS[command].flags.values() if action.required
            for arg in (action.option_strings[0], value)]


@pytest.fixture
def atlas(tmp_path):
    path = tmp_path / "atlas.tsv"
    path.write_text(ATLAS)
    return str(path)


def train_args(atlas, out, extra=()):
    return [
        "train", "--atlas", atlas, "--out", out,
        "--epochs", "2", "--embed-dim", "8", "--enc-hidden", "8",
        "--dec-hidden", "8", "--batch-size", "4",
    ] + list(extra)


class TestDataCommands:
    def test_ingest_tsv_to_jsonl(self, atlas, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert run(["ingest", "--in", atlas, "--out", str(out)]) == 0
        assert "wrote 9 triples" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 9

    def test_ingest_writes_resolved_config(self, atlas, tmp_path, capsys):
        out = tmp_path / "out.tsv"
        assert run(["ingest", "--in", atlas, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 9
        resolved = json.loads((tmp_path / "out.tsv.config.json").read_text())
        assert resolved["input"] == atlas and resolved["out"] == str(out)

    def test_ingest_names_then_blanks_every_event(self, tmp_path):
        src = tmp_path / "raw.tsv"
        src.write_text(
            "Alice runs home\txWant\tto rest\ttrain\tw1\n"
            "Alice runs home\txWant\tto rest\ttrain\tw2\n"
            "Alice runs home\txIntent\tto get fit\ttrain\tw1\n"
            "Bob meets Alice\toReact\tglad\ttrain\tw1\n"
            "Bob  meets Alice\txWant\tto chat\ttrain\tw2\n"
            "Alice runs home\toWant\tnone\ttest\tw3\n")
        (tmp_path / "names.txt").write_text("alice\nbob\n")
        (tmp_path / "freq.tsv").write_text("runs\thome\t1\tstories\nmeets\tPersonY\t9\tstories\n")
        out = tmp_path / "clean.tsv"
        assert run(["ingest", "--in", str(src), "--out", str(out), "--name-lexicon",
                    str(tmp_path / "names.txt"), "--freq-table", str(tmp_path / "freq.tsv")]) == 0
        assert out.read_text() == (
            "PersonX meets PersonY\toReact\tglad\ttrain\tw1\n"
            "PersonX meets PersonY\txWant\tto chat\ttrain\tw2\n"
            "PersonX runs ___\toWant\tnone\ttest\tw3\n"
            "PersonX runs ___\txIntent\tto get fit\ttrain\tw1\n"
            "PersonX runs ___\txWant\tto rest\ttrain\tw1\n"
            "PersonX runs ___\txWant\tto rest\ttrain\tw2\n")

    @pytest.mark.parametrize("event, worker", [("#metoo PersonX posts", "w1"),
                                               ("PersonX posts", "w\t1")],
                             ids=["comment-line", "tab-in-worker-id"])
    def test_ingest_refuses_a_tsv_line_that_reads_back_differently(self, tmp_path, capsys,
                                                                   event, worker):
        src = tmp_path / "raw.jsonl"
        src.write_text("".join(json.dumps(
            {"event": e, "dimension": "xWant", "target": "to share", "split": "train",
             "worker_id": w}) + "\n" for e, w in [("PersonX naps", "w1"), (event, worker)]))
        assert run(["ingest", "--in", str(src), "--out", str(tmp_path / "clean.tsv")]) == 2
        assert capsys.readouterr().err.startswith(f"data error: triple ({event!r}, 'xWant'")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.jsonl"]
        assert run(["ingest", "--in", str(src), "--out", str(tmp_path / "clean.jsonl")]) == 0
        assert len(atlas_io.parse_atlas_file(str(tmp_path / "clean.jsonl"))) == 2

    def test_ingest_bad_frequency_source_names_its_line(self, atlas, tmp_path, capsys):
        freq = tmp_path / "freq.tsv"
        freq.write_text("runs\thome\t1\tstory\n")
        assert run(["ingest", "--in", atlas, "--out", str(tmp_path / "clean.tsv"),
                    "--freq-table", str(freq)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "data error: line 1: 'story' is not a valid FrequencySource"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atlas.tsv", "freq.tsv"]

    def test_ingest_name_lexicon_line_of_two_tokens_names_its_line(self, atlas, tmp_path,
                                                                   capsys):
        names = tmp_path / "names.txt"
        names.write_text("alice\nmary ann\n")
        assert run(["ingest", "--in", atlas, "--out", str(tmp_path / "clean.tsv"),
                    "--name-lexicon", str(names)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "data error: line 2: expected one token, got 'mary ann'"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atlas.tsv", "names.txt"]

    @pytest.mark.parametrize("rows,flags,message", [
        ("Alice naps\txReact\tcalm\ttrain\tw1\nBob naps\txReact\ttired\ttest\tw2\n",
         ["--name-lexicon", "{tmp}/names.txt"],
         "events 'Alice naps' (train) and 'Bob naps' (test) both become 'PersonX naps'"),
        ("PersonX eats pizza\txWant\tmore\ttrain\tw1\n"
         "PersonX eats pizza\txNeed\tfood\tdev\tw1\n"
         "PersonX eats pasta\txWant\tsleep\ttrain\tw2\n"
         "PersonX eats pasta\txNeed\ta fork\tdev\tw2\n",
         ["--freq-table", "{tmp}/freq.tsv", "--blank-threshold", "5"],
         "events 'PersonX eats pizza' (dev) and 'PersonX eats pasta' (train) both become "
         "'PersonX eats ___'"),
    ], ids=["names", "blanking"])
    def test_ingest_refuses_merging_events_of_different_splits(self, tmp_path, capsys, rows,
                                                               flags, message):
        src = tmp_path / "raw.tsv"
        src.write_text(rows)
        (tmp_path / "names.txt").write_text("alice\nbob\n")
        (tmp_path / "freq.tsv").write_text("eats\tpizza\t1\tstories\neats\tpasta\t1\tstories\n")
        out = tmp_path / "clean.tsv"
        assert run(["ingest", "--in", str(src), "--out", str(out)]
                   + [f.format(tmp=tmp_path) for f in flags]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists() and not (tmp_path / "clean.tsv.config.json").exists()

    def test_stats_report(self, atlas, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert run(["stats", "--atlas", atlas, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["triples_total"] == 9
        assert data["base_event_count"] == 4
        assert (tmp_path / "stats.json.config.json").exists()

    def test_query(self, atlas, capsys):
        assert run(["query", "--atlas", atlas, "--event", "PersonX runs home",
                    "--dim", "xWant"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sorted(out) == ["to rest", "to shower"]

    def test_query_no_results(self, atlas, capsys):
        assert run(["query", "--atlas", atlas, "--event", "PersonX flies",
                    "--dim", "xWant"]) == 0
        assert "(no inferences)" in capsys.readouterr().err

    def test_split(self, atlas, tmp_path):
        out = tmp_path / "split.json"
        assert run(["split", "--atlas", atlas, "--out", str(out),
                    "--ratios", "0.5,0.25,0.25"]) == 0
        data = json.loads(out.read_text())
        assert len(data) == 4
        assert set(data.values()) <= {"train", "dev", "test"}

    def test_split_prints_only_its_sizes(self, atlas, tmp_path, capsys):
        out = tmp_path / "split.json"
        assert run(["split", "--atlas", atlas, "--out", str(out), "--ratios", "1,0,0"]) == 0
        assert capsys.readouterr().out == "split sizes: {'train': 4, 'dev': 0, 'test': 0}\n"
        assert out.read_text() == (
            '{\n  "PersonX bakes bread": "train",\n  "PersonX calls PersonY": "train",\n'
            '  "PersonX runs home": "train",\n  "PersonX walks the dog": "train"\n}\n')

    def test_overlap(self, atlas, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("MotivatedByGoal\truns home\trest\n")
        out = tmp_path / "overlap.json"
        assert run(["overlap", "--atlas", atlas, "--edges", str(edges),
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["triple_overlap"]["Wants"] > 0.0


class TestModelCommands:
    def test_train_generate_eval_round_trip(self, atlas, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert run(train_args(atlas, str(ckpt))) == 0
        assert ckpt.exists()
        assert json.loads((tmp_path / "model.ckpt.config.json").read_text())[
            "epochs"
        ] == 2

        gen = tmp_path / "gen.jsonl"
        assert run(["generate", "--ckpt", str(ckpt), "--atlas", atlas,
                    "--split", "test", "--beam-width", "3", "--max-len", "4",
                    "--out", str(gen)]) == 0
        lines = gen.read_text().splitlines()
        assert len(lines) == 9  # one test event x nine dimensions
        assert f"wrote 9 generation lists to {gen}\n" in capsys.readouterr().out

        report = tmp_path / "bleu.json"
        assert run(["eval-bleu", "--gen", str(gen), "--atlas", atlas,
                    "--k", "3", "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["meta"]["k"] == 3
        assert "xWant" in data

    def test_train_deterministic_bit_identical(self, atlas, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert run(train_args(atlas, str(a))) == 0
        assert run(train_args(atlas, str(b))) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_without_ckpt_is_usage_error(self, atlas, tmp_path, capsys):
        assert run(["generate", "--atlas", atlas,
                    "--out", str(tmp_path / "g.jsonl")]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_nearest_neighbor_generate(self, atlas, tmp_path):
        emb = tmp_path / "emb.tsv"
        rows = []
        for i, tok in enumerate(["personx", "runs", "home", "bakes", "bread",
                                 "walks", "the", "dog"]):
            rows.append(f"{tok}\t{i * 0.1:.1f} {1.0 - i * 0.1:.1f}")
        emb.write_text("\n".join(rows) + "\n")
        gen = tmp_path / "nn.jsonl"
        assert run(["generate", "--nearest", "--embeddings", str(emb),
                    "--atlas", atlas, "--split", "test", "--dims", "xWant",
                    "--out", str(gen)]) == 0
        record = json.loads(gen.read_text().splitlines()[0])
        assert record["dimension"] == "xWant"
        assert record["entries"]

    @pytest.mark.parametrize("rows, expected", [
        # Only "personx" is known, as a zero vector: the query and every
        # training event have a zero mean, so nothing has a cosine.
        (["personx\t0 0"], [("to eat it", 0.0), ("to rest", 0.0), ("to shower", 0.0)]),
        # "PersonX runs home" has a zero mean vector; "PersonX bakes bread" does not.
        (["personx\t0 0", "walks\t1 0", "bakes\t0 1"], [("to eat it", 0.0)]),
    ], ids=["zero-query", "zero-event"])
    def test_nearest_neighbor_dump_is_strict_json(self, atlas, tmp_path, rows, expected):
        emb = tmp_path / "emb.tsv"
        emb.write_text("\n".join(rows) + "\n")
        gen = tmp_path / "nn.jsonl"
        assert run(["generate", "--nearest", "--embeddings", str(emb),
                    "--atlas", atlas, "--split", "test", "--dims", "xWant",
                    "--out", str(gen)]) == 0

        def reject(name):
            raise AssertionError(f"{name} in dump")

        [line] = gen.read_text().splitlines()
        record = json.loads(line, parse_constant=reject)
        assert [(e["text"], e["score"]) for e in record["entries"]] == expected
        assert run(["eval-bleu", "--gen", str(gen), "--atlas", atlas,
                    "--out", str(tmp_path / "bleu.json")]) == 0

    def test_gradcheck(self, capsys):
        assert run(["gradcheck", "--variant", "event-invol", "--samples", "50"]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_gradcheck_smallest_flags(self, capsys):
        # One sample per category and one token beyond the reserved ones.
        assert run(["gradcheck", "--samples", "1", "--vocab-size", "9"]) == 0
        assert capsys.readouterr().out.startswith("max relative gradient error")


class TestEvalCommands:
    def make_sheet(self, tmp_path, votes="\t"):
        sheet = tmp_path / "sheet.tsv"
        header = "event\tdimension\trank\tgeneration\tvotes_valid\tjudges_total"
        rows = [header]
        for i in range(10):
            rows.append(f"PersonX runs home\txWant\t{i + 1}\tgen {i}\t{votes}")
        sheet.write_text("\n".join(rows) + "\n")
        return str(sheet)

    def test_precision_no_judgments(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run(["precision", "--sheet", self.make_sheet(tmp_path),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "no judgments"
        resolved = json.loads((tmp_path / "p.json.config.json").read_text())
        assert resolved["threshold"] == "majority"

    def test_precision_with_votes(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["precision", "--sheet", self.make_sheet(tmp_path, "5\t5"),
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["precision_at_10"]["xWant"] == 100.0

    def test_precision_impossible_votes_exit_2(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run(["precision", "--sheet", self.make_sheet(tmp_path, "7\t5"),
                    "--out", str(out)]) == 2
        assert "7 of 5 judges" in capsys.readouterr().err
        assert not out.exists()

    def test_precision_repeated_rank_exit_2(self, tmp_path, capsys):
        sheet = self.make_sheet(tmp_path, "5\t5")
        with open(sheet, "a", encoding="utf-8") as fh:
            fh.write("PersonX runs home\txWant\t1\tgen 10\t1\t5\n")
        out = tmp_path / "p.json"
        assert run(["precision", "--sheet", sheet, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "data error: line 12: rank 1 of 'PersonX runs home' xWant repeats line 2"]
        assert not out.exists()

    def test_precision_missing_ranks_exit_2(self, tmp_path, capsys):
        sheet = tmp_path / "sheet.tsv"
        sheet.write_text(
            "event\tdimension\trank\tgeneration\tvotes_valid\tjudges_total\n"
            "PersonX runs home\txWant\t1\tgen 0\t5\t5\n"
            "PersonX runs home\txWant\t2\tgen 1\t0\t5\n")
        out = tmp_path / "p.json"
        assert run(["precision", "--sheet", str(sheet), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "data error: ('PersonX runs home', xWant) has 2 rows, need 10"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sheet.tsv"]

    def test_precision_non_integer_votes_exit_2(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run(["precision", "--sheet", self.make_sheet(tmp_path, "five\t5"),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error: line 2" in err and "Traceback" not in err
        assert not out.exists()

    def test_export_human_eval_too_few_events(self, atlas, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert run(train_args(atlas, str(ckpt))) == 0
        gen = tmp_path / "gen.jsonl"
        assert run(["generate", "--ckpt", str(ckpt), "--atlas", atlas,
                    "--beam-width", "10", "--max-len", "3",
                    "--out", str(gen)]) == 0
        assert run(["export-human-eval", "--gen", str(gen),
                    "--out", str(tmp_path / "sheet.tsv")]) == 2
        assert "data error" in capsys.readouterr().err


    @pytest.mark.parametrize("event", ["PersonX\truns", "#metoo PersonX posts"],
                             ids=["tab", "comment-line"])
    def test_export_human_eval_refuses_a_row_with_no_sheet_line(self, tmp_path, capsys, event):
        gen, sheet = tmp_path / "gen.jsonl", tmp_path / "sheet.tsv"
        entries = tuple(((f"gen{r}",), -float(r)) for r in range(10))
        with open(gen, "w", encoding="utf-8") as fh:
            generation.write_generations(
                [generation.GenerationList(event, dim, 10, entries)
                 for dim in (Dimension.xIntent, Dimension.xWant)], fh)
        assert run(["export-human-eval", "--gen", str(gen), "--sample-size", "1",
                    "--out", str(sheet)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: sheet row {(event, 'xIntent', '1', 'gen0', '', '')} has no TSV "
            "line: a field holds a tab or line break, or the line would start with '#'"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.jsonl"]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_argument(self, capsys):
        assert run(["stats"]) == 1

    def test_bad_dimension_choice(self, atlas, capsys):
        assert run(["query", "--atlas", atlas, "--event", "e",
                    "--dim", "xFoo"]) == 1

    def test_malformed_atlas(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only two\tcolumns\n")
        assert run(["stats", "--atlas", str(bad)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run(["stats", "--atlas", str(tmp_path / "nope.tsv")]) == 2

    def test_conflicting_duplicate_splits_are_data_error(self, tmp_path, capsys):
        bad = tmp_path / "conflict.tsv"
        bad.write_text("PersonX naps\txReact\tcalm\ttrain\tw1\n"
                       "PersonX naps\txReact\tcalm\ttest\tw2\n")
        assert run(["stats", "--atlas", str(bad)]) == 2
        assert "data error: conflicting splits" in capsys.readouterr().err

    def generate_with_header(self, atlas, tmp_path, mutate):
        """Exit code of ``generate`` on a checkpoint whose header was mutated."""
        ckpt = tmp_path / "model.ckpt"
        assert run(train_args(atlas, str(ckpt))) == 0
        line, rest = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        mutate(header)
        ckpt.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + rest)
        return run(["generate", "--ckpt", str(ckpt), "--atlas", atlas,
                    "--out", str(tmp_path / "g.jsonl")])

    @pytest.mark.parametrize("header, message", [
        (b"[" * 200_000, "invalid JSON: nested too deeply"),
        (b'{"format_version": NaN}', "NaN is not a JSON number"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["nested-too-deeply", "nan", "not-utf-8"])
    def test_unreadable_checkpoint_header_is_data_error(self, atlas, tmp_path, capsys, header,
                                                        message):
        ckpt, gen = tmp_path / "model.ckpt", tmp_path / "g.jsonl"
        ckpt.write_bytes(header + b"\n")
        assert run(["generate", "--ckpt", str(ckpt), "--atlas", atlas, "--out", str(gen)]) == 2
        assert capsys.readouterr().err == f"data error: bad checkpoint header: {message}\n"
        assert not gen.exists()

    def test_checkpoint_without_config_is_data_error(self, atlas, tmp_path, capsys):
        assert self.generate_with_header(atlas, tmp_path, lambda h: h.pop("config")) == 2
        assert "data error" in capsys.readouterr().err

    def test_removed_variant_checkpoint_is_data_error(self, atlas, tmp_path, capsys):
        assert self.generate_with_header(
            atlas, tmp_path, lambda h: h["config"].update(variant="nearest-neighbor")) == 2
        assert "data error" in capsys.readouterr().err

    def test_old_format_checkpoint_is_data_error(self, atlas, tmp_path, capsys):
        assert self.generate_with_header(
            atlas, tmp_path, lambda h: h.update(format_version=1)) == 2
        assert "unsupported checkpoint format version 1" in capsys.readouterr().err

    def test_checkpoint_promising_more_data_than_it_holds_is_data_error(self, atlas, tmp_path,
                                                                         capsys):
        def grow(header):  # some 10^13 bytes of tensors
            header["config"]["embed_dim"] = 10**11
            shapes = _param_shapes(ModelConfig.from_dict(header["config"]), len(header["vocab"]))
            header["tensors"] = [{"name": n, "shape": list(s)} for n, s in shapes.items()]

        tracemalloc.start()
        try:
            assert self.generate_with_header(atlas, tmp_path, grow) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "data error: the header's tensors take" in capsys.readouterr().err
        assert peak < 2**24

    def test_non_finite_embedding_is_data_error(self, atlas, tmp_path, capsys):
        emb = tmp_path / "emb.tsv"
        emb.write_text("personx\t0.5 0.5\nruns\tnan 1.0\n")
        gen = tmp_path / "nn.jsonl"
        assert run(["generate", "--nearest", "--embeddings", str(emb), "--atlas", atlas,
                    "--out", str(gen)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: line 2: non-finite value")
        assert "Traceback" not in err
        assert not gen.exists()

    def test_embedding_line_without_values_is_data_error(self, atlas, tmp_path, capsys):
        emb = tmp_path / "emb.tsv"
        emb.write_text("personx\t\nruns\t\n")
        gen = tmp_path / "nn.jsonl"
        assert run(["generate", "--nearest", "--embeddings", str(emb), "--atlas", atlas,
                    "--out", str(gen)]) == 2
        assert capsys.readouterr().err == "data error: line 1: no values\n"
        assert not gen.exists()

    @pytest.mark.parametrize("field, constant, message", [
        pytest.param("-0.5", value, f"{value} is not a JSON number", id=value)
        for value in ["-Infinity", "NaN"]
    ] + [
        pytest.param("-0.5", value, f"{value} is not a finite number", id=value)
        for value in ["-1e999", "1e999"]
    ] + [
        pytest.param("-0.5", value, f"expected a float for 'score', got {value}", id=value)
        for value in ["null", "-1" + "0" * 400, "true"]
    ] + [
        pytest.param('"to eat it"', "5", "expected a string for 'text', got 5", id="text-5"),
        pytest.param('[{"score": -0.5, "text": "to eat it"}]', "5",
                     "expected a list for 'entries', got 5", id="entries-5"),
        pytest.param("10", '"1"', "expected an integer for 'beam_width', got \"1\"",
                     id="beam_width-str"),
    ])
    def test_eval_bleu_rejects_non_json_score(self, atlas, tmp_path, capsys, field, constant,
                                              message):
        gen = tmp_path / "nn.jsonl"
        gen.write_text(
            '{"beam_width": 10, "dimension": "xWant", "entries": [{"score": -0.5, '
            '"text": "to eat it"}], "event": "PersonX walks the dog"}\n'.replace(field, constant, 1))
        out = tmp_path / "bleu.json"
        assert run(["eval-bleu", "--gen", str(gen), "--atlas", atlas,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: generation dump line 1: {message}\n"
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gradcheck_step_is_numeric_failure(self, capsys):
        assert run(["gradcheck", "--epsilon", "1e300", "--samples", "8"]) == 3
        assert capsys.readouterr().err == "numeric failure: gradient check produced NaN\n"

    @pytest.mark.parametrize("epsilon", ["1e-10", "1e-12"])
    def test_gradcheck_above_its_tolerance_is_numeric_failure(self, capsys, epsilon):
        # A step this small drowns the central difference in rounding.
        assert run(["gradcheck", "--epsilon", epsilon]) == 3
        captured = capsys.readouterr()
        err = float(captured.out.rsplit(" ", 1)[1])
        assert err > MAX_RELATIVE_ERROR
        assert captured.err == (f"numeric failure: max relative gradient error {err:.3e} "
                                f"exceeds {MAX_RELATIVE_ERROR:g}\n")

    def test_gradcheck_with_one_unit_per_encoder_direction_passes(self, capsys):
        assert run(["gradcheck", "--hidden", "1", "--samples", "50"]) == 0
        assert float(capsys.readouterr().out.rsplit(" ", 1)[1]) < MAX_RELATIVE_ERROR

    def test_size_far_beyond_memory_is_data_error(self, capsys):
        # 213 PiB for the embedding alone: refused at once, nothing is allocated.
        assert run(["gradcheck", "--hidden", "1000000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: out of memory: ")
        assert "Traceback" not in err

    def test_overflowing_training_fails_without_runtime_warnings(self, atlas, tmp_path, capsys):
        # A huge rate drives gate pre-activations past exp's range and a gold
        # probability to 0: the run must stop on the numeric failure alone.
        ckpt = tmp_path / "model.ckpt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = run(train_args(atlas, str(ckpt), ["--epochs", "3", "--learning-rate", "50"]))
        assert status == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite loss")
        assert "RuntimeWarning" not in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("rate", ["1e308", "1e300", "1e200"])
    def test_overflowing_parameters_print_one_numeric_failure_line(self, atlas, tmp_path,
                                                                   capsys, rate):
        # The first Adam step moves parameters by about the rate, so the next
        # batch's forward pass overflows; only its failure line is printed.
        assert run(train_args(atlas, str(tmp_path / "m.ckpt"), ["--learning-rate", rate])) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: "), lines

    def test_nan_gradient_is_numeric_failure(self, atlas, tmp_path, capsys, monkeypatch):
        poison_gradients(monkeypatch)
        assert run(train_args(atlas, str(tmp_path / "model.ckpt"))) == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [{"epochs": "2"}, {"epochs": 2.0}, {"epochs": True},
                                       {"learning_rate": "fast"}, {"variant": "nine"},
                                       {"embeddings": 3}])
    def test_wrongly_typed_config_value_is_usage_error(self, atlas, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(value))
        ckpt = tmp_path / "model.ckpt"
        assert run(train_args(atlas, str(ckpt), ["--config", str(cfg)])) == 1
        assert "usage error" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_non_object_config_is_usage_error(self, atlas, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('["epochs"]')
        assert run(["stats", "--atlas", atlas, "--config", str(cfg)]) == 1
        assert "usage error" in capsys.readouterr().err
        cfg.write_text("{")  # not JSON at all
        assert run(["stats", "--atlas", atlas, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("usage error: the --config file is not JSON")
        # A missing config file is a missing input, like any other.
        assert run(["stats", "--atlas", atlas, "--config", str(tmp_path / "nope.json")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_deeply_nested_config_is_usage_error(self, atlas, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 200_000)
        assert run(["stats", "--atlas", atlas, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "usage error: the --config file is not JSON: invalid JSON: nested too deeply\n")

    @pytest.mark.parametrize("flag", [["--enc-hidden", "7"], ["--epochs", "0"],
                                      ["--batch-size", "0"], ["--min-count", "0"]])
    def test_invalid_model_setting_is_usage_error(self, atlas, tmp_path, capsys, flag):
        assert run(train_args(atlas, str(tmp_path / "m.ckpt"), flag)) == 1
        assert "usage error" in capsys.readouterr().err

    def test_beam_width_below_one_is_usage_error(self, atlas, tmp_path, capsys):
        for nearest in ([], ["--nearest", "--embeddings", str(tmp_path / "e.tsv")]):
            assert run(["generate", "--ckpt", str(tmp_path / "m.ckpt"), "--atlas", atlas,
                        "--beam-width", "0", "--out", str(tmp_path / "g.jsonl")]
                       + nearest) == 1
            assert "--beam-width" in capsys.readouterr().err

    def test_unknown_dims_is_usage_error(self, atlas, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert run(train_args(atlas, str(ckpt))) == 0
        capsys.readouterr()
        assert run(["generate", "--ckpt", str(ckpt), "--atlas", atlas,
                    "--dims", "xWant,xFoo", "--out", str(tmp_path / "g.jsonl")]) == 1
        assert "xFoo" in capsys.readouterr().err
        assert not (tmp_path / "g.jsonl").exists()

    def test_dims_outside_variant_is_usage_error(self, atlas, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert run(train_args(atlas, str(ckpt), ["--variant", "event-prepost"])) == 0
        assert run(["generate", "--ckpt", str(ckpt), "--atlas", atlas,
                    "--dims", "xAttr", "--out", str(tmp_path / "g.jsonl")]) == 1

    def test_failed_dump_keeps_previous_file(self, atlas, tmp_path, monkeypatch, capsys):
        ckpt, gen = tmp_path / "model.ckpt", tmp_path / "gen.jsonl"
        assert run(train_args(atlas, str(ckpt))) == 0
        generate = ["generate", "--ckpt", str(ckpt), "--atlas", atlas,
                    "--beam-width", "2", "--max-len", "3", "--out", str(gen)]
        assert run(generate) == 0
        before = gen.read_bytes()
        real = generation.write_generations

        def fail_mid_write(lists, stream):
            real(itertools.islice(lists, 1), stream)
            raise OSError("disk full")

        monkeypatch.setattr(generation, "write_generations", fail_mid_write)
        capsys.readouterr()
        assert run(generate) == 2
        assert capsys.readouterr().err == "data error: disk full\n"
        assert gen.read_bytes() == before
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("nearest", [False, True], ids=["beam", "nearest"])
    def test_failed_generation_leaves_no_partial_dump(self, atlas, tmp_path, monkeypatch,
                                                      capsys, nearest):
        ckpt, emb, gen = tmp_path / "model.ckpt", tmp_path / "emb.tsv", tmp_path / "gen.jsonl"
        assert run(train_args(atlas, str(ckpt))) == 0
        emb.write_text("personx\t0.5 0.5\nruns\t1.0 0.0\n")
        generate = ["generate", "--atlas", atlas, "--beam-width", "2", "--max-len", "3",
                    "--out", str(gen)] + (["--nearest", "--embeddings", str(emb)]
                                          if nearest else ["--ckpt", str(ckpt)])
        name = "nearest_neighbor_predict" if nearest else "beam_search"
        real, made = getattr(generation, name), []

        def fail_on_third(*args, **kwargs):
            if len(made) == 2:
                raise ValueError("bad list")
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(generation, name, fail_on_third)
        assert run(generate) == 2
        assert capsys.readouterr().err == "data error: bad list\n"
        assert len(made) == 2
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("gen.jsonl")]

    @pytest.mark.parametrize("error", [AtlasFormatError, IngestError, EvalError, OverlapError,
                                       CheckpointError, EmbeddingFormatError])
    def test_package_errors_are_value_errors(self, error):
        # run() maps ValueError to exit 2, so every package error must be one.
        assert issubclass(error, ValueError)

    @pytest.mark.parametrize("argv, named", [
        (["stats", "--atlas", "{tmp}"], "{tmp}"),
        (["stats", "--atlas", "{atlas}", "--out", "{tmp}/d"], "{tmp}/d"),
        (["generate", "--ckpt", "{tmp}/d", "--atlas", "{atlas}", "--out", "{tmp}/g.jsonl"],
         "{tmp}/d"),
    ], ids=["stats-atlas", "stats-out", "generate-ckpt"])
    def test_directory_path_is_data_error(self, atlas, tmp_path, capsys, argv, named):
        (tmp_path / "d").mkdir()
        assert run([a.format(atlas=atlas, tmp=tmp_path) for a in argv]) == 2
        captured = capsys.readouterr()
        named = named.format(tmp=tmp_path)
        assert captured.err == f"data error: [Errno 21] Is a directory: {named!r}\n"
        assert ".tmp" not in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atlas.tsv", "d"]

    @pytest.mark.parametrize("out, message", [
        ("d", "[Errno 21] Is a directory"),
        ("missing/x.json", "[Errno 2] No such file or directory"),
    ], ids=["directory", "missing-parent"])
    def test_out_is_checked_before_any_input_is_read(self, atlas, tmp_path, capsys,
                                                     monkeypatch, out, message):
        from ifthen import cli

        monkeypatch.setattr(cli, "parse_atlas_file", lambda path: pytest.fail("input read"))
        (tmp_path / "d").mkdir()
        target = str(tmp_path / out)
        assert run(["stats", "--atlas", atlas, "--out", target]) == 2
        assert capsys.readouterr().err == f"data error: {message}: {target!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atlas.tsv", "d"]

    @pytest.mark.parametrize("line", [
        "5",
        '{"dimension": "xReact", "event": null, "split": "train", "target": "calm", '
        '"worker_id": "w1"}',
    ], ids=["number", "null-event"])
    def test_non_object_or_non_string_jsonl_is_data_error(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        assert run(["query", "--atlas", str(bad), "--event", "None", "--dim", "xReact"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: line 1: expected a")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["ingest", "stats", "query", "split", "train",
                                         "generate", "eval-bleu", "export-human-eval",
                                         "precision", "overlap", "gradcheck"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exited:
            run([command, "--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: ifthen {command} ")

    def test_bad_ratios(self, atlas, tmp_path, capsys):
        assert run(["split", "--atlas", atlas, "--ratios", "0.5,0.5",
                    "--out", str(tmp_path / "s.json")]) == 1

    # Bad flag values exit 1 before any input is read: {tmp} holds only the
    # atlas, so a command that read further would fail as a data error (2).
    @pytest.mark.parametrize("argv,expected", [
        (["gradcheck", "--epsilon", "0"], 1),
        (["gradcheck", "--epsilon=-1e-4"], 1),
        (["gradcheck", "--hidden", "0"], 1),
        (["gradcheck", "--samples", "0"], 1),
        (["gradcheck", "--samples", "-3"], 1),
        (["gradcheck", "--vocab-size", "0"], 1),
        (["gradcheck", "--vocab-size", "8"], 1),
        (["generate", "--ckpt", "{tmp}/m.ckpt", "--atlas", "{atlas}", "--max-len", "0",
          "--out", "{tmp}/g.jsonl"], 1),
        (["generate", "--ckpt", "{tmp}/m.ckpt", "--atlas", "{atlas}", "--max-len", "-3",
          "--out", "{tmp}/g.jsonl"], 1),
        (["split", "--atlas", "{atlas}", "--ratios", "a,b,c", "--out", "{tmp}/s.json"], 1),
        (["split", "--atlas", "{atlas}", "--ratios", "1.5,-0.25,-0.25",
          "--out", "{tmp}/s.json"], 1),
        (["split", "--atlas", "{atlas}", "--ratios", "0.5,0.3,0.1", "--out", "{tmp}/s.json"], 1),
        (["ingest", "--in", "{atlas}", "--out", "{tmp}/o.tsv", "--freq-table", "{tmp}/f.tsv",
          "--blank-threshold", "0"], 1),
        (["ingest", "--in", "{atlas}", "--out", "{tmp}/o.tsv", "--blank-threshold", "3"], 1),
        (["export-human-eval", "--gen", "{tmp}/g.jsonl", "--sample-size", "-1",
          "--out", "{tmp}/sheet.tsv"], 1),
        (["eval-bleu", "--gen", "{tmp}/g.jsonl", "--atlas", "{atlas}", "--k", "0"], 1),
        (["train", "--atlas", "{atlas}", "--out", "{tmp}/m.ckpt", "--learning-rate", "nan"], 1),
        (["train", "--atlas", "{atlas}", "--out", "{tmp}/m.ckpt", "--learning-rate", "inf"], 1),
        (["train", "--atlas", "{atlas}", "--out", "{tmp}/m.ckpt", "--learning-rate=-1e-3"], 1),
        (["generate", "--ckpt", "{tmp}/m.ckpt", "--atlas", "{atlas}", "--event", "",
          "--out", "{tmp}/g.jsonl"], 1),
        (["generate", "--nearest", "--embeddings", "{tmp}/e.tsv", "--atlas", "{atlas}",
          "--event", "  ", "--out", "{tmp}/g.jsonl"], 1),
        (["generate", "--ckpt", "{tmp}/m.ckpt", "--atlas", "{atlas}", "--dims", "",
          "--out", "{tmp}/g.jsonl"], 1),
        (["generate", "--nearest", "--embeddings", "{tmp}/e.tsv", "--atlas", "{atlas}",
          "--dims", "", "--out", "{tmp}/g.jsonl"], 1),
        (["generate", "--ckpt", "{tmp}/m.ckpt", "--atlas", "{atlas}",
          "--dims", "xIntent,xIntent", "--out", "{tmp}/g.jsonl"], 1),
        (["generate", "--ckpt", "{tmp}/m.ckpt", "--atlas", "{atlas}", "--max-len", "1",
          "--out", "{tmp}/g.jsonl"], 2),
        (["train", "--atlas", "{atlas}", "--out", "{tmp}/m.ckpt", "--seed", "-1"], 1),
        (["gradcheck", "--seed", "-1"], 1),
        (["gradcheck", "--epsilon", "inf"], 1),
    ] + [
        (["eval-bleu", "--gen", "{tmp}/g.jsonl", "--atlas", "{atlas}",
          f"--smoothing-epsilon={value}", "--out", "{tmp}/b.json"], 1)
        for value in ["0", "-0.5", "nan", "inf"]
    ], ids=["gradcheck-epsilon-0", "gradcheck-epsilon-negative", "gradcheck-hidden-0",
            "gradcheck-samples-0", "gradcheck-samples-negative", "gradcheck-vocab-size-0",
            "gradcheck-vocab-size-reserved-only",
            "generate-max-len-0", "generate-max-len-negative", "split-ratios-not-numbers",
            "split-ratios-negative", "split-ratios-not-summing-to-1",
            "ingest-blank-threshold-0", "ingest-blank-threshold-without-freq-table",
            "export-sample-size-negative", "eval-bleu-k-0", "train-learning-rate-nan",
            "train-learning-rate-inf", "train-learning-rate-negative", "generate-event-empty",
            "generate-event-blank-nearest", "generate-dims-empty",
            "generate-dims-empty-nearest", "generate-dims-repeated", "generate-missing-ckpt",
            "train-seed-negative", "gradcheck-seed-negative", "gradcheck-epsilon-inf",
            "eval-bleu-epsilon-0", "eval-bleu-epsilon-negative", "eval-bleu-epsilon-nan",
            "eval-bleu-epsilon-inf"])
    def test_bad_flag_value_exit_code(self, atlas, tmp_path, capsys, argv, expected):
        assert run([a.format(atlas=atlas, tmp=tmp_path) for a in argv]) == expected
        err = capsys.readouterr().err
        assert err.startswith("usage error" if expected == 1 else "data error")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atlas.tsv"]

    @pytest.mark.parametrize("command, dest, value", OUT_OF_RANGE)
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, command, dest, value,
                                               source):
        flag = COMMANDS[command].flags[dest][0].option_strings[0]
        # Required flags name a path that does not exist: the value is refused first.
        argv = [command] + required_args(command, str(tmp_path / "missing"))
        if source == "flag":
            argv.append(f"{flag}={value}")
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({dest: value}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {flag} must be")
        assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if source == "config" else [])

    @pytest.mark.parametrize("command, dest, minimum", MINIMA)
    def test_minimum_passes_the_resolver(self, tmp_path, command, dest, minimum):
        parser = COMMANDS[command]
        flag = parser.flags[dest][0].option_strings[0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({dest: minimum}))
        for given in ([f"{flag}={minimum!r}"], ["--config", str(cfg)]):
            args = _apply_config(parser, parser.parse_args(required_args(command, "x") + given))
            assert getattr(args, dest) == minimum


class TestConfigLayering:
    def test_config_file_supplies_defaults(self, atlas, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3, "embed_dim": 8,
                                   "enc_hidden": 8, "dec_hidden": 8,
                                   "batch_size": 4}))
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--atlas", atlas, "--out", str(ckpt),
                    "--config", str(cfg)]) == 0
        resolved = json.loads((tmp_path / "model.ckpt.config.json").read_text())
        assert resolved["epochs"] == 3

    def test_flag_overrides_config(self, atlas, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 3, "embed_dim": 8,
                                   "enc_hidden": 8, "dec_hidden": 8,
                                   "batch_size": 4}))
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--atlas", atlas, "--out", str(ckpt),
                    "--config", str(cfg), "--epochs", "1"]) == 0
        resolved = json.loads((tmp_path / "model.ckpt.config.json").read_text())
        assert resolved["epochs"] == 1

    def test_every_model_flag_reaches_the_checkpoint(self, atlas, tmp_path):
        values = {"variant": "event-invol", "epochs": 2, "seed": 3, "embed_dim": 6,
                  "enc_hidden": 4, "dec_hidden": 10, "learning_rate": 0.01, "batch_size": 3,
                  "min_count": 2, "max_decode_len": 5}
        # The flags are the ModelConfig fields but for clip_norm and early_stop_loss.
        fields = dataclasses.fields(ModelConfig)
        assert set(values) == {f.name for f in fields} - {"clip_norm", "early_stop_loss"}
        defaults = ModelConfig().to_dict()
        assert all(values[name] != defaults[name] for name in values)
        ckpt = tmp_path / "model.ckpt"
        flags = [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]
        assert run(["train", "--atlas", atlas, "--out", str(ckpt)] + flags) == 0
        config = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])["config"]
        assert config == {**defaults, **values}

    def test_flag_equal_to_default_overrides_config(self, atlas, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "seed": 5, "dec_hidden": 8}))
        ckpt = tmp_path / "model.ckpt"
        epochs, seed = ModelConfig.epochs, ModelConfig.seed
        assert run(["train", "--atlas", atlas, "--out", str(ckpt), "--config", str(cfg),
                    "--epochs", str(epochs), "--seed", str(seed),
                    "--embed-dim", "8", "--enc-hidden", "8"]) == 0
        resolved = json.loads((tmp_path / "model.ckpt.config.json").read_text())
        assert (resolved["epochs"], resolved["seed"], resolved["dec_hidden"]) == (epochs, seed, 8)
        assert f"for {epochs} epochs" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, atlas, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_knob": 1}))
        assert run(["stats", "--atlas", atlas, "--config", str(cfg)]) == 1
        assert "usage error" in capsys.readouterr().err
