"""Single command-line entry point for reproducible workflows.

Layered settings: argparse defaults < ``--config`` JSON file < explicit
flags. Every successful run with an ``--out`` target also writes the resolved
settings next to it (``<out>.config.json``). Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys
from collections.abc import Callable

import numpy as np

from ifthen import evaluation, generation
from ifthen.atlas_io import atomic_write, parse_atlas_file, write_atlas_file
from ifthen.graph import (
    EventPhrase,
    Split,
    Triple,
    build_graph,
    graph_stats,
    query_inferences,
)
from ifthen.ingest import (
    IngestError,
    blank_infrequent_args,
    check_ratios,
    default_stopwords,
    load_frequency_table,
    load_name_lexicon,
    load_stopwords,
    normalize_event,
    split_events,
)
from ifthen.overlap import event_coverage, load_edge_file, triple_overlap
from ifthen.seq2seq import (
    RESERVED_TOKENS,
    ModelConfig,
    ModelVariant,
    NumericError,
    TrainingInstance,
    VocabularyMap,
    build_vocab,
    gradient_check,
    init_params,
    load_checkpoint,
    load_embedding_file,
    make_training_instances,
    save_checkpoint,
    train,
)
from ifthen.seq2seq.config import FIELD_MINIMUMS
from ifthen.taxonomy import Dimension

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


class _CommandParser(_Parser):
    """One subcommand: its ``handler`` and flags that were not given left
    out of the namespace.

    ``flags`` keeps each flag's action, default and minimum (None for no
    bound), so a ``--config`` value fills exactly the flags not given,
    even one equal to its default, and is checked like a flag's.
    """

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, tuple[argparse.Action, object, float | None]] = {}
        self.handler: Callable[[argparse.Namespace], None] | None = None
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, minimum: float | None = None, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:
            self.flags[action.dest] = (action, action.default, minimum)
            action.default = argparse.SUPPRESS
        return action

    def add_model_flags(self, fields: tuple[str, ...]) -> None:
        """A flag per ``ModelConfig`` field, typed, defaulted and bounded by
        the field."""
        for name in fields:
            default = getattr(ModelConfig, name)
            if isinstance(default, ModelVariant):
                self.add_argument("--variant", default=default.value,
                                  choices=[v.value for v in ModelVariant])
            else:
                self.add_argument("--" + name.replace("_", "-"), type=type(default),
                                  default=default, minimum=FIELD_MINIMUMS.get(name))


# The ModelConfig fields that ``train`` takes as flags, in --help order.
_TRAIN_FIELDS = ("variant", "epochs", "seed", "embed_dim", "enc_hidden", "dec_hidden",
                 "learning_rate", "batch_size", "min_count", "max_decode_len")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ifthen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    def add(name: str, help_text: str, handler) -> _CommandParser:
        p = sub.add_parser(name, help=help_text, parents=[], add_help=True)
        p.handler = handler
        p.add_argument("--config", default=None, help="JSON settings file (default: none)")
        return p

    p = add("ingest", "validate, normalize and canonicalize a triple file", _cmd_ingest)
    p.add_argument("--in", dest="input", required=True, help="input TSV or JSONL file")
    p.add_argument("--out", required=True, help="output file; .jsonl extension selects JSONL")
    p.add_argument("--name-lexicon", default=None,
                   help="one name per line; replaces names with person variables (default: off)")
    p.add_argument("--freq-table", default=None,
                   help="verb/argument frequency TSV for blanking (default: off)")
    p.add_argument("--blank-threshold", type=int, default=None, minimum=1,
                   help="blanking cutoff (default: per-source rule)")

    p = add("stats", "graph statistics for a triple file", _cmd_stats)
    p.add_argument("--atlas", required=True, help="triple file")
    p.add_argument("--out", default=None, help="also write JSON report here (default: stdout only)")

    p = add("query", "list annotated inferences for an event and dimension", _cmd_query)
    p.add_argument("--atlas", required=True, help="triple file")
    p.add_argument("--event", required=True, help="event text")
    p.add_argument("--dim", required=True, choices=[d.value for d in Dimension])
    p.add_argument("--include-empty", action="store_true",
                   help="also return empty-annotation sentinels (default: off)")

    p = add("split", "assign base events to train/dev/test by content-key groups", _cmd_split)
    p.add_argument("--atlas", required=True, help="triple file supplying base events")
    p.add_argument("--ratios", default="0.8,0.1,0.1", help="train,dev,test (default: 0.8,0.1,0.1)")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed (default: 0)")
    p.add_argument("--stopwords", default=None, help="stopword file (default: shipped list)")
    p.add_argument("--out", required=True, help="JSON assignment output")

    p = add("train", "train a model variant on the train split", _cmd_train)
    p.add_argument("--atlas", required=True, help="triple file")
    p.add_model_flags(_TRAIN_FIELDS)
    p.add_argument("--embeddings", default=None,
                   help="static embedding file to initialize known tokens (default: off)")
    p.add_argument("--out", required=True, help="checkpoint output path")

    p = add("generate", "beam-search inferences for events", _cmd_generate)
    p.add_argument("--ckpt", default=None, help="trained checkpoint (required unless --nearest)")
    p.add_argument("--atlas", required=True, help="triple file supplying events and gold splits")
    p.add_argument("--split", default="test", choices=[s.value for s in Split],
                   help="which split's events to generate for (default: test)")
    p.add_argument("--event", default=None, help="generate for this single event instead")
    p.add_argument("--dims", default=None,
                   help="comma-separated dimensions (default: all in scope)")
    p.add_argument("--beam-width", type=int, default=10, minimum=1)
    p.add_argument("--max-len", type=int, default=None, minimum=1,
                   help="decode length cap (default: checkpoint setting)")
    p.add_argument("--suppress-unk", action="store_true",
                   help="never emit <unk>, renormalizing (default: off)")
    p.add_argument("--nearest", action="store_true",
                   help="use the retrieval baseline instead of a checkpoint (default: off)")
    p.add_argument("--embeddings", default=None,
                   help="static embedding file (required with --nearest)")
    p.add_argument("--out", required=True, help="JSONL generation dump")

    p = add("eval-bleu", "average top-k BLEU of a generation dump against gold", _cmd_eval_bleu)
    p.add_argument("--gen", required=True, help="generation dump (JSONL)")
    p.add_argument("--atlas", required=True, help="gold triple file")
    p.add_argument("--k", type=int, default=10, minimum=1)
    p.add_argument("--split", default="test", help="split label recorded in the report")
    p.add_argument("--smoothing-epsilon", type=float, default=evaluation.SMOOTHING_EPSILON,
                   minimum=math.ulp(0.0))
    p.add_argument("--out", default=None, help="JSON report path (default: stdout only)")

    p = add("export-human-eval", "sample events and export a judgment sheet",
            _cmd_export_human_eval)
    p.add_argument("--gen", required=True, help="generation dump (JSONL)")
    p.add_argument("--sample-size", type=int, default=100, minimum=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="TSV sheet output")

    p = add("precision", "precision@10 from a filled judgment sheet", _cmd_precision)
    p.add_argument("--sheet", required=True, help="judgment sheet TSV")
    p.add_argument("--threshold", default="majority", choices=["majority", "any"],
                   help="vote aggregation rule (default: majority)")
    p.add_argument("--out", default=None, help="JSON output path (default: stdout only)")

    p = add("overlap", "triple overlap and event coverage against an edge file", _cmd_overlap)
    p.add_argument("--atlas", required=True, help="triple file")
    p.add_argument("--edges", required=True, help="external edge TSV")
    p.add_argument("--out", default=None, help="JSON output path (default: stdout only)")

    p = add("gradcheck", "finite-difference check of analytic gradients", _cmd_gradcheck)
    p.add_model_flags(("variant", "seed"))
    p.add_argument("--vocab-size", type=int, default=30, minimum=len(RESERVED_TOKENS) + 1)
    p.add_argument("--hidden", type=int, default=16, minimum=1)
    p.add_argument("--epsilon", type=float, default=1e-4, minimum=math.ulp(0.0))
    p.add_argument("--samples", type=int, default=200, minimum=1)
    parser.commands = sub.choices
    return parser


def _check_config_value(action: argparse.Action, value) -> None:
    """A config value must have the type its flag parses to."""
    if action.nargs == 0:  # on/off switch
        ok = isinstance(value, bool)
    elif action.type in (int, float):
        ok = not isinstance(value, bool) and isinstance(
            value, int if action.type is int else (int, float))
    else:
        ok = isinstance(value, str) or (value is None and action.default is None)
    if not ok or (action.choices is not None and value not in action.choices):
        raise UsageError(f"config value {action.dest}={value!r} is not valid for its flag")


def _apply_config(parser: _CommandParser, args: argparse.Namespace) -> argparse.Namespace:
    """Fill the flags not given on the command line: from the --config
    file if it sets them, else from their defaults. Then check every
    value: a float must be finite, and no value may be below its flag's
    minimum."""
    settings = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            try:
                settings = json.load(fh)
            except ValueError as exc:  # not UTF-8 or not JSON
                raise UsageError(f"the --config file is not JSON: {exc}") from None
        if not isinstance(settings, dict):
            raise UsageError("the --config file must hold a JSON object")
        unknown = set(settings) - set(parser.flags)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in settings.items():
            _check_config_value(parser.flags[key][0], value)
    for key, (action, default, minimum) in parser.flags.items():
        if not hasattr(args, key):
            setattr(args, key, settings.get(key, default))
        value, flag = getattr(args, key), action.option_strings[0]
        if value is None:
            continue
        # A --config int beyond the float range is as unusable as inf.
        if action.type is float and not -sys.float_info.max <= value <= sys.float_info.max:
            raise UsageError(f"{flag} must be a finite float, got {value}")
        if minimum is not None and value < minimum:
            raise UsageError(f"{flag} must be at least {minimum}, got {value}")
    return args


def _emit_resolved_config(args: argparse.Namespace) -> None:
    out = getattr(args, "out", None)
    if not out:
        return
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "config"}
    with atomic_write(out + ".config.json") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(data, out_path: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with atomic_write(out_path) as fh:
            fh.write(text + "\n")
    print(text)


def _report(value):
    """``value`` as JSON data: enum keys become their values and floats
    are rounded to 3 places."""
    if isinstance(value, dict):
        return {getattr(k, "value", k): _report(v) for k, v in value.items()}
    if isinstance(value, float):
        return round(value, 3)
    return value


def _model_config(**fields) -> ModelConfig:
    """``ModelConfig.from_dict(fields)``; an invalid setting is a usage error."""
    try:
        return ModelConfig.from_dict(fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _map_events(
    triples: list[Triple], fn: Callable[[EventPhrase], EventPhrase]
) -> list[Triple]:
    """``triples`` with each event replaced by ``fn(event)``, called once per
    distinct event (two events are equal exactly when their texts are)."""
    fn = functools.cache(fn)
    return [Triple(fn(t.event), t.dimension, t.target, t.worker_id, t.split) for t in triples]


def _check_merged_splits(source: list[Triple], triples: list[Triple]) -> None:
    """Refuse two distinct input events that became one event text but
    came from different splits: the output would carry that text in both."""
    # Output text -> split -> up to two distinct input texts, enough to
    # hold one that differs from any given input text.
    seen: dict[str, dict[Split, list[str]]] = {}
    for old, new in zip(source, triples):
        by_split = seen.setdefault(new.event.text, {})
        for split, texts in by_split.items():
            other = next((t for t in texts if t != old.event.text), None)
            if split is not old.split and other is not None:
                raise IngestError(
                    f"events {other!r} ({split.value}) and {old.event.text!r} "
                    f"({old.split.value}) both become {new.event.text!r}")
        texts = by_split.setdefault(old.split, [])
        if old.event.text not in texts and len(texts) < 2:
            texts.append(old.event.text)


def _cmd_ingest(args) -> None:
    if args.blank_threshold is not None and not args.freq_table:
        raise UsageError("--blank-threshold needs --freq-table")
    triples = source = parse_atlas_file(args.input)
    if args.name_lexicon:
        with open(args.name_lexicon, encoding="utf-8") as fh:
            lexicon = load_name_lexicon(fh)
        triples = _map_events(triples, lambda ev: normalize_event(ev.text, lexicon))
    if args.freq_table:
        with open(args.freq_table, encoding="utf-8") as fh:
            freq = load_frequency_table(fh)
        triples = _map_events(
            triples, lambda ev: blank_infrequent_args(ev, freq, args.blank_threshold))
    _check_merged_splits(source, triples)
    write_atlas_file(triples, args.out)
    print(f"wrote {len(triples)} triples to {args.out}")


def _cmd_stats(args) -> None:
    report = graph_stats(build_graph(parse_atlas_file(args.atlas)))
    _write_json(_report(dataclasses.asdict(report)), args.out)


def _cmd_query(args) -> None:
    graph = build_graph(parse_atlas_file(args.atlas))
    targets = query_inferences(
        graph, args.event, Dimension(args.dim), include_empty=args.include_empty
    )
    for t in targets:
        print(t.text)
    if not targets:
        print("(no inferences)", file=sys.stderr)


def _cmd_split(args) -> None:
    try:
        ratios = tuple(float(r) for r in args.ratios.split(","))
        check_ratios(ratios)
    except ValueError:  # includes IngestError
        raise UsageError(f"--ratios needs three non-negative numbers that sum to 1, "
                         f"got {args.ratios!r}") from None
    graph = build_graph(parse_atlas_file(args.atlas))
    if args.stopwords:
        with open(args.stopwords, encoding="utf-8") as fh:
            stopwords = load_stopwords(fh)
    else:
        stopwords = default_stopwords()
    assignment = split_events(list(graph.events), ratios, args.seed, stopwords)
    _write_json({ev: s.value for ev, s in sorted(assignment.assignment.items())}, args.out)
    counts = {s.value: 0 for s in Split}
    for s in assignment.assignment.values():
        counts[s.value] += 1
    print(f"split sizes: {counts}", file=sys.stderr)


def _cmd_train(args) -> None:
    config = _model_config(**{name: getattr(args, name) for name in _TRAIN_FIELDS})
    triples = parse_atlas_file(args.atlas)
    train_triples = [t for t in triples if t.split is Split.Train]
    if not train_triples:
        raise IngestError("no train-split triples in atlas")
    vocab = build_vocab(train_triples, config.min_count)
    pretrained = None
    if args.embeddings:
        with open(args.embeddings, encoding="utf-8") as fh:
            pretrained = load_embedding_file(fh)
    params = init_params(config, vocab, pretrained_embeddings=pretrained)
    grouping = params.grouping
    instances = [
        i
        for i in make_training_instances(train_triples, vocab)
        if i.dimension in grouping
    ]
    params, trace = train(params, instances, config)
    save_checkpoint(params, args.out)
    print(f"trained {len(instances)} instances for {len(trace)} epochs; "
          f"final loss {trace[-1]:.4f}; checkpoint at {args.out}")


def _dim_names(flag: str | None) -> list[str] | None:
    """The names ``--dims`` lists, or None when it is not given; an empty
    list or a name given twice is a usage error."""
    if flag is None:
        return None
    names = flag.split(",")
    if names == [""]:
        raise UsageError("--dims needs at least one dimension")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise UsageError(f"--dims names a dimension more than once: {repeated}")
    return names


def _dims(names: list[str] | None, available: list[Dimension]) -> list[Dimension]:
    """The dimensions named by ``--dims``, or all available ones."""
    if names is None:
        return available
    unknown = [n for n in names if n not in {d.value for d in available}]
    if unknown:
        raise UsageError(f"--dims names unknown or unmodeled dimensions: {unknown}")
    return [Dimension(n) for n in names]


def _cmd_generate(args) -> None:
    if args.event is not None and not args.event.split():
        raise UsageError("--event needs at least one token")
    names = _dim_names(args.dims)
    triples = parse_atlas_file(args.atlas)
    if args.event is not None:
        events = [args.event]
    else:
        wanted = Split(args.split)
        events = sorted({t.event.text for t in triples if t.split is wanted})

    if args.nearest:
        if not args.embeddings:
            raise UsageError("--nearest requires --embeddings")
        with open(args.embeddings, encoding="utf-8") as fh:
            embeddings = load_embedding_file(fh)
        train_graph = build_graph([t for t in triples if t.split is Split.Train])
        dims = _dims(names, list(Dimension))
        results = (
            generation.nearest_neighbor_predict(
                train_graph, embeddings, ev, dim, k=args.beam_width
            )
            for ev in events
            for dim in dims
        )
    else:
        if not args.ckpt:
            raise UsageError("--ckpt is required unless --nearest is used")
        params = load_checkpoint(args.ckpt)
        dims = _dims(names, params.decoder_dims)
        results = (
            generation.beam_search(
                params, ev, dim, beam_width=args.beam_width,
                max_len=args.max_len, suppress_unk=args.suppress_unk,
            )
            for ev in events
            for dim in dims
        )
    # Lists are written as they are made, so none is held beyond its line.
    with atomic_write(args.out) as fh:
        written = generation.write_generations(results, fh)
    print(f"wrote {written} generation lists to {args.out}")


def _cmd_eval_bleu(args) -> None:
    with open(args.gen, encoding="utf-8") as fh:
        gens = generation.read_generations(fh)
    gold = build_graph(parse_atlas_file(args.atlas))
    report = evaluation.avg_topk_bleu(
        gens, gold, k=args.k, split=args.split, smoothing_epsilon=args.smoothing_epsilon
    )
    _write_json(report.to_dict(), args.out)


def _cmd_export_human_eval(args) -> None:
    with open(args.gen, encoding="utf-8") as fh:
        gens = generation.read_generations(fh)
    sheet = evaluation.export_human_eval_sheet(
        gens, sample_size=args.sample_size, seed=args.seed
    )
    with atomic_write(args.out) as fh:
        evaluation.write_sheet(sheet, fh)
    print(f"wrote {len(sheet.rows)} sheet rows to {args.out}")


def _cmd_precision(args) -> None:
    with open(args.sheet, encoding="utf-8") as fh:
        sheet = evaluation.read_sheet(fh)
    if sheet.rows and all(r.votes_valid is None for r in sheet.rows):
        _write_json({"status": "no judgments", "threshold": args.threshold}, args.out)
        return
    result = evaluation.precision_at_10(sheet, valid_threshold=args.threshold)
    _write_json({"precision_at_10": result, "threshold": args.threshold}, args.out)


def _cmd_overlap(args) -> None:
    graph = build_graph(parse_atlas_file(args.atlas))
    with open(args.edges, encoding="utf-8") as fh:
        edges = load_edge_file(fh)
    _write_json(_report({"triple_overlap": triple_overlap(graph, edges),
                         "event_coverage": event_coverage(graph, edges)}), args.out)


def _cmd_gradcheck(args) -> None:
    extra = [f"w{i}" for i in range(args.vocab_size - len(RESERVED_TOKENS))]
    vocab = VocabularyMap.from_tokens(list(RESERVED_TOKENS) + extra)
    hidden = args.hidden + (args.hidden % 2)
    config = _model_config(variant=args.variant, seed=args.seed,
                           embed_dim=hidden, enc_hidden=hidden, dec_hidden=hidden)
    params = init_params(config, vocab)
    rng = np.random.default_rng(args.seed)
    dims = params.decoder_dims
    dim = dims[int(rng.integers(len(dims)))]
    instance = TrainingInstance(
        event_ids=tuple(int(v) for v in rng.integers(1, len(vocab), size=4)),
        dimension=dim,
        target_ids=tuple(int(v) for v in rng.integers(1, len(vocab), size=3)),
    )
    err = gradient_check(
        params, instance, epsilon=args.epsilon, num_samples=args.samples, seed=args.seed
    )
    print(f"max relative gradient error ({args.variant}): {err:.3e}")
    if math.isnan(err):
        raise NumericError("gradient check produced NaN")


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command = parser.commands[args.command]
        args = _apply_config(command, args)
        # An unusable --out fails before any work, naming the target itself.
        out = getattr(args, "out", None)
        if out and os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
        command.handler(args)
        _emit_resolved_config(args)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:  # every package error is a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
