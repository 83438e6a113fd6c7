"""Single command-line entry point for reproducible workflows.

Layered settings: argparse defaults < ``--config`` JSON file < explicit
flags. Every successful run with an ``--out`` target also writes the resolved
settings next to it (``<out>.config.json``). Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from ifthen import atlas_io, evaluation, generation
from ifthen.atlas_io import AtlasFormatError, atomic_write, parse_atlas_file
from ifthen.evaluation import EvalError
from ifthen.graph import Split, Triple, build_graph, graph_stats, query_inferences
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
from ifthen.overlap import OverlapError, event_coverage, load_edge_file, triple_overlap
from ifthen.seq2seq import (
    ModelConfig,
    ModelVariant,
    NumericError,
    build_vocab,
    gradient_check,
    init_params,
    load_checkpoint,
    load_embedding_file,
    make_training_instances,
    save_checkpoint,
    train,
)
from ifthen.seq2seq.checkpoint import CheckpointError
from ifthen.seq2seq.embeddings import EmbeddingFormatError
from ifthen.seq2seq.model import TrainingInstance
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
    """Leaves flags that were not given out of the namespace.

    ``flags`` keeps each flag's action and default, so a ``--config``
    value fills exactly the flags not given, even one equal to its default.
    """

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, tuple[argparse.Action, object]] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:
            self.flags[action.dest] = (action, action.default)
            action.default = argparse.SUPPRESS
        return action


def _build_parser() -> _Parser:
    parser = _Parser(prog="ifthen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, parents=[], add_help=True)
        p.add_argument("--config", default=None, help="JSON settings file (default: none)")
        return p

    p = add("ingest", "validate, normalize and canonicalize a triple file")
    p.add_argument("--in", dest="input", required=True, help="input TSV or JSONL file")
    p.add_argument("--out", required=True, help="output file; .jsonl extension selects JSONL")
    p.add_argument("--name-lexicon", default=None,
                   help="one name per line; replaces names with person variables (default: off)")
    p.add_argument("--freq-table", default=None,
                   help="verb/argument frequency TSV for blanking (default: off)")
    p.add_argument("--blank-threshold", type=int, default=None,
                   help="blanking cutoff (default: per-source rule)")

    p = add("stats", "graph statistics for a triple file")
    p.add_argument("--atlas", required=True, help="triple file")
    p.add_argument("--out", default=None, help="also write JSON report here (default: stdout only)")

    p = add("query", "list annotated inferences for an event and dimension")
    p.add_argument("--atlas", required=True, help="triple file")
    p.add_argument("--event", required=True, help="event text")
    p.add_argument("--dim", required=True, choices=[d.value for d in Dimension])
    p.add_argument("--include-empty", action="store_true",
                   help="also return empty-annotation sentinels (default: off)")

    p = add("split", "assign base events to train/dev/test by content-key groups")
    p.add_argument("--atlas", required=True, help="triple file supplying base events")
    p.add_argument("--ratios", default="0.8,0.1,0.1", help="train,dev,test (default: 0.8,0.1,0.1)")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed (default: 0)")
    p.add_argument("--stopwords", default=None, help="stopword file (default: shipped list)")
    p.add_argument("--out", required=True, help="JSON assignment output")

    p = add("train", "train a model variant on the train split")
    p.add_argument("--atlas", required=True, help="triple file")
    p.add_argument("--variant", default=ModelConfig.variant.value,
                   choices=[v.value for v in ModelVariant])
    p.add_argument("--epochs", type=int, default=ModelConfig.epochs)
    p.add_argument("--seed", type=int, default=ModelConfig.seed)
    p.add_argument("--embed-dim", type=int, default=ModelConfig.embed_dim)
    p.add_argument("--enc-hidden", type=int, default=ModelConfig.enc_hidden)
    p.add_argument("--dec-hidden", type=int, default=ModelConfig.dec_hidden)
    p.add_argument("--learning-rate", type=float, default=ModelConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=ModelConfig.batch_size)
    p.add_argument("--min-count", type=int, default=ModelConfig.min_count)
    p.add_argument("--max-decode-len", type=int, default=ModelConfig.max_decode_len)
    p.add_argument("--embeddings", default=None,
                   help="static embedding file to initialize known tokens (default: off)")
    p.add_argument("--out", required=True, help="checkpoint output path")

    p = add("generate", "beam-search inferences for events")
    p.add_argument("--ckpt", default=None, help="trained checkpoint (required unless --nearest)")
    p.add_argument("--atlas", required=True, help="triple file supplying events and gold splits")
    p.add_argument("--split", default="test", choices=[s.value for s in Split],
                   help="which split's events to generate for (default: test)")
    p.add_argument("--event", default=None, help="generate for this single event instead")
    p.add_argument("--dims", default=None,
                   help="comma-separated dimensions (default: all in scope)")
    p.add_argument("--beam-width", type=int, default=10)
    p.add_argument("--max-len", type=int, default=None,
                   help="decode length cap (default: checkpoint setting)")
    p.add_argument("--suppress-unk", action="store_true",
                   help="never emit <unk>, renormalizing (default: off)")
    p.add_argument("--nearest", action="store_true",
                   help="use the retrieval baseline instead of a checkpoint (default: off)")
    p.add_argument("--embeddings", default=None,
                   help="static embedding file (required with --nearest)")
    p.add_argument("--out", required=True, help="JSONL generation dump")

    p = add("eval-bleu", "average top-k BLEU of a generation dump against gold")
    p.add_argument("--gen", required=True, help="generation dump (JSONL)")
    p.add_argument("--atlas", required=True, help="gold triple file")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--split", default="test", help="split label recorded in the report")
    p.add_argument("--smoothing-epsilon", type=float, default=evaluation.SMOOTHING_EPSILON)
    p.add_argument("--out", default=None, help="JSON report path (default: stdout only)")

    p = add("export-human-eval", "sample events and export a judgment sheet")
    p.add_argument("--gen", required=True, help="generation dump (JSONL)")
    p.add_argument("--sample-size", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="TSV sheet output")

    p = add("precision", "precision@10 from a filled judgment sheet")
    p.add_argument("--sheet", required=True, help="judgment sheet TSV")
    p.add_argument("--threshold", default="majority", choices=["majority", "any"],
                   help="vote aggregation rule (default: majority)")
    p.add_argument("--out", default=None, help="JSON output path (default: stdout only)")

    p = add("overlap", "triple overlap and event coverage against an edge file")
    p.add_argument("--atlas", required=True, help="triple file")
    p.add_argument("--edges", required=True, help="external edge TSV")
    p.add_argument("--out", default=None, help="JSON output path (default: stdout only)")

    p = add("gradcheck", "finite-difference check of analytic gradients")
    p.add_argument("--variant", default=ModelConfig.variant.value,
                   choices=[v.value for v in ModelVariant])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab-size", type=int, default=30)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--samples", type=int, default=200)
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
    file if it sets them, else from their defaults."""
    settings = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise UsageError("the --config file must hold a JSON object")
        unknown = set(settings) - set(parser.flags)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in settings.items():
            _check_config_value(parser.flags[key][0], value)
    for key, (_, default) in parser.flags.items():
        if not hasattr(args, key):
            setattr(args, key, settings.get(key, default))
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
    text = json.dumps(data, indent=2, sort_keys=True)
    if out_path:
        with atomic_write(out_path) as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_ingest(args) -> int:
    if args.blank_threshold is not None:
        if not args.freq_table:
            raise UsageError("--blank-threshold needs --freq-table")
        if args.blank_threshold < 1:
            raise UsageError("--blank-threshold must be at least 1")
    triples = parse_atlas_file(args.input)
    if args.name_lexicon:
        with open(args.name_lexicon, encoding="utf-8") as fh:
            lexicon = load_name_lexicon(fh)
        triples = [
            Triple(normalize_event(t.event.text, lexicon), t.dimension, t.target,
                   t.worker_id, t.split)
            for t in triples
        ]
    if args.freq_table:
        with open(args.freq_table, encoding="utf-8") as fh:
            freq = load_frequency_table(fh)
        triples = [
            Triple(blank_infrequent_args(t.event, freq, args.blank_threshold),
                   t.dimension, t.target, t.worker_id, t.split)
            for t in triples
        ]
    with atomic_write(args.out) as fh:
        if args.out.endswith(".jsonl"):
            atlas_io.write_atlas_jsonl(triples, fh)
        else:
            atlas_io.write_atlas_tsv(triples, fh)
    print(f"wrote {len(triples)} triples to {args.out}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    report = graph_stats(build_graph(parse_atlas_file(args.atlas)))
    data = {
        "triples_total": report.triples_total,
        "triples_by_content_type": {
            ct.value: n for ct, n in report.triples_by_content_type.items()
        },
        "nodes_total": report.nodes_total,
        "nodes_by_content_type": {
            ct.value: n for ct, n in report.nodes_by_content_type.items()
        },
        "avg_words_per_node": {
            ct.value: round(v, 3) for ct, v in report.avg_words_per_node.items()
        },
        "base_event_count": report.base_event_count,
        "base_event_avg_words": round(report.base_event_avg_words, 3),
        "nodes_appearing_multiple": report.nodes_appearing_multiple,
    }
    _write_json(data, args.out)
    return EXIT_OK


def _cmd_query(args) -> int:
    graph = build_graph(parse_atlas_file(args.atlas))
    targets = query_inferences(
        graph, args.event, Dimension(args.dim), include_empty=args.include_empty
    )
    for t in targets:
        print(t.text)
    if not targets:
        print("(no inferences)", file=sys.stderr)
    return EXIT_OK


def _cmd_split(args) -> int:
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
    return EXIT_OK


def _cmd_train(args) -> int:
    try:
        config = ModelConfig(
            variant=ModelVariant(args.variant),
            embed_dim=args.embed_dim,
            enc_hidden=args.enc_hidden,
            dec_hidden=args.dec_hidden,
            max_decode_len=args.max_decode_len,
            learning_rate=args.learning_rate,
            batch_size=args.batch_size,
            epochs=args.epochs,
            seed=args.seed,
            min_count=args.min_count,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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
    return EXIT_OK


def _dims(names: str | None, available: list[Dimension]) -> list[Dimension]:
    """The dimensions named by ``--dims``, or all available ones."""
    if not names:
        return available
    unknown = [n for n in names.split(",") if n not in {d.value for d in available}]
    if unknown:
        raise UsageError(f"--dims names unknown or unmodeled dimensions: {unknown}")
    return [Dimension(n) for n in names.split(",")]


def _cmd_generate(args) -> int:
    if args.beam_width < 1:
        raise UsageError("--beam-width must be at least 1")
    if args.max_len is not None and args.max_len < 1:
        raise UsageError("--max-len must be at least 1")
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
        dims = _dims(args.dims, list(Dimension))
        results = [
            generation.nearest_neighbor_predict(
                train_graph, embeddings, ev, dim, k=args.beam_width
            )
            for ev in events
            for dim in dims
        ]
    else:
        if not args.ckpt:
            raise UsageError("--ckpt is required unless --nearest is used")
        params = load_checkpoint(args.ckpt)
        dims = _dims(args.dims, params.decoder_dims)
        results = [
            generation.beam_search(
                params, ev, dim, beam_width=args.beam_width,
                max_len=args.max_len, suppress_unk=args.suppress_unk,
            )
            for ev in events
            for dim in dims
        ]
    with atomic_write(args.out) as fh:
        generation.write_generations(results, fh)
    print(f"wrote {len(results)} generation lists to {args.out}")
    return EXIT_OK


def _cmd_eval_bleu(args) -> int:
    if args.k < 1:
        raise UsageError("--k must be at least 1")
    with open(args.gen, encoding="utf-8") as fh:
        gens = generation.read_generations(fh)
    gold = build_graph(parse_atlas_file(args.atlas))
    report = evaluation.avg_topk_bleu(
        gens, gold, k=args.k, split=args.split, smoothing_epsilon=args.smoothing_epsilon
    )
    _write_json(report.to_dict(), args.out)
    return EXIT_OK


def _cmd_export_human_eval(args) -> int:
    if args.sample_size < 1:
        raise UsageError("--sample-size must be at least 1")
    with open(args.gen, encoding="utf-8") as fh:
        gens = generation.read_generations(fh)
    sheet = evaluation.export_human_eval_sheet(
        gens, sample_size=args.sample_size, seed=args.seed
    )
    with atomic_write(args.out) as fh:
        evaluation.write_sheet(sheet, fh)
    print(f"wrote {len(sheet.rows)} sheet rows to {args.out}")
    return EXIT_OK


def _cmd_precision(args) -> int:
    with open(args.sheet, encoding="utf-8") as fh:
        sheet = evaluation.read_sheet(fh)
    if sheet.rows and all(r.votes_valid is None for r in sheet.rows):
        _write_json({"status": "no judgments", "threshold": args.threshold}, args.out)
        return EXIT_OK
    result = evaluation.precision_at_10(sheet, valid_threshold=args.threshold)
    _write_json({"precision_at_10": result, "threshold": args.threshold}, args.out)
    return EXIT_OK


def _cmd_overlap(args) -> int:
    graph = build_graph(parse_atlas_file(args.atlas))
    with open(args.edges, encoding="utf-8") as fh:
        edges = load_edge_file(fh)
    result = {
        "triple_overlap": {
            g.value: round(v, 3) for g, v in triple_overlap(graph, edges).items()
        },
        "event_coverage": round(event_coverage(graph, edges), 3),
    }
    _write_json(result, args.out)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    import numpy as np

    from ifthen.seq2seq.vocab import RESERVED_TOKENS, VocabularyMap

    if not args.epsilon > 0:
        raise UsageError("--epsilon must be positive")
    extra = [f"w{i}" for i in range(max(args.vocab_size - len(RESERVED_TOKENS), 0))]
    vocab = VocabularyMap.from_tokens(list(RESERVED_TOKENS) + extra)
    hidden = args.hidden + (args.hidden % 2)
    try:
        config = ModelConfig(
            variant=ModelVariant(args.variant),
            embed_dim=hidden,
            enc_hidden=hidden,
            dec_hidden=hidden,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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
    if err != err:  # NaN
        raise NumericError("gradient check produced NaN")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "query": _cmd_query,
    "split": _cmd_split,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "eval-bleu": _cmd_eval_bleu,
    "export-human-eval": _cmd_export_human_eval,
    "precision": _cmd_precision,
    "overlap": _cmd_overlap,
    "gradcheck": _cmd_gradcheck,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(parser.commands[args.command], args)
        status = _COMMANDS[args.command](args)
        _emit_resolved_config(args)
        return status
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        AtlasFormatError,
        IngestError,
        EvalError,
        OverlapError,
        CheckpointError,
        EmbeddingFormatError,
        FileNotFoundError,
        json.JSONDecodeError,
        ValueError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
