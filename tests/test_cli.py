import json
import warnings

import pytest

from conftest import poison_gradients

from ifthen import generation
from ifthen.cli import run
from ifthen.seq2seq import ModelConfig

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

    def test_gradcheck(self, capsys):
        assert run(["gradcheck", "--variant", "event-invol", "--samples", "50"]) == 0
        assert "max relative gradient error" in capsys.readouterr().out


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

    def test_failed_dump_keeps_previous_file(self, atlas, tmp_path, monkeypatch):
        ckpt, gen = tmp_path / "model.ckpt", tmp_path / "gen.jsonl"
        assert run(train_args(atlas, str(ckpt))) == 0
        generate = ["generate", "--ckpt", str(ckpt), "--atlas", atlas,
                    "--beam-width", "2", "--max-len", "3", "--out", str(gen)]
        assert run(generate) == 0
        before = gen.read_bytes()
        real = generation.write_generations

        def fail_mid_write(lists, stream):
            real(lists[:1], stream)
            raise OSError("disk full")

        monkeypatch.setattr(generation, "write_generations", fail_mid_write)
        with pytest.raises(OSError, match="disk full"):
            run(generate[:-1] + [str(gen)])
        assert gen.read_bytes() == before
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_bad_ratios(self, atlas, tmp_path, capsys):
        assert run(["split", "--atlas", atlas, "--ratios", "0.5,0.5",
                    "--out", str(tmp_path / "s.json")]) == 1

    # Bad flag values exit 1 before any input is read: {tmp} holds only the
    # atlas, so a command that read further would fail as a data error (2).
    @pytest.mark.parametrize("argv,expected", [
        (["gradcheck", "--epsilon", "0"], 1),
        (["gradcheck", "--epsilon=-1e-4"], 1),
        (["gradcheck", "--hidden", "0"], 1),
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
        (["generate", "--ckpt", "{tmp}/m.ckpt", "--atlas", "{atlas}", "--max-len", "1",
          "--out", "{tmp}/g.jsonl"], 2),
    ], ids=["gradcheck-epsilon-0", "gradcheck-epsilon-negative", "gradcheck-hidden-0",
            "generate-max-len-0", "generate-max-len-negative", "split-ratios-not-numbers",
            "split-ratios-negative", "split-ratios-not-summing-to-1",
            "ingest-blank-threshold-0", "ingest-blank-threshold-without-freq-table",
            "export-sample-size-negative", "eval-bleu-k-0", "train-learning-rate-nan",
            "train-learning-rate-inf", "train-learning-rate-negative", "generate-missing-ckpt"])
    def test_bad_flag_value_exit_code(self, atlas, tmp_path, capsys, argv, expected):
        assert run([a.format(atlas=atlas, tmp=tmp_path) for a in argv]) == expected
        err = capsys.readouterr().err
        assert err.startswith("usage error" if expected == 1 else "data error")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atlas.tsv"]


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
