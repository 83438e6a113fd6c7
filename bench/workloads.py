"""The benchmark's three workloads, driven through the package's public API.

Each workload calls the same functions the matching CLI commands call,
closed-loop: one caller, each call issued after the previous returns.
Calls go through module attributes (``atlas_io.parse_atlas_file``), so
a traced run sees them. Output checks run outside the timed region and
every failed check counts as a failed operation.

Every workload reports the same end-to-end metrics, by role:

* ``main_items_per_s``: items per second of the main phase
  (train: instances in mixed-dimension epochs; generate: beam lists;
  atlas: ingested triples);
* ``main_call_p50_ms``: median latency of one main-phase call
  (one ``train()`` epoch; one ``beam_search`` list; one ingest pass);
* ``side_items_per_s``: items per second of the side phase
  (train: instances in single-dimension epochs; generate:
  nearest-neighbour lists; atlas: triples through stats, split and overlap);
* ``setup_s``: median of several set-ups.

Timings are medians over calls of (call time / calibration time), times
``CAL_NOMINAL_S``: see :func:`calibrate` and :meth:`Context.scaled_s`.
Unscaled medians are reported next to them in the run's detail line.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import importlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ifthen import atlas_io, evaluation, generation, graph, ingest, overlap
from ifthen.graph import Split, Triple, normalize_node_text, person_variable_of
from ifthen.seq2seq.config import ModelConfig, ModelVariant
from ifthen.taxonomy import Dimension

s2s_model = importlib.import_module("ifthen.seq2seq.model")
s2s_train = importlib.import_module("ifthen.seq2seq.train")
s2s_vocab = importlib.import_module("ifthen.seq2seq.vocab")
s2s_ckpt = importlib.import_module("ifthen.seq2seq.checkpoint")
s2s_emb = importlib.import_module("ifthen.seq2seq.embeddings")

TRAIN_SAMPLE = 96       # instances per train() epoch: three batches
SINGLE_DIM = Dimension.xIntent
BEAM_WIDTH = 10         # the paper's setting
DECODE_CAP = 10         # max tokens per hypothesis
TOPK = 10
GUARD_LISTS = 9         # beam lists (one test event, all dims) behind beam_bleu2
SCORE_TOL = 1e-9

_CAL_A = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) / 8.0
CAL_NOMINAL_S = 0.025   # calibration time that scaled timings are expressed at
CAL_EVERY_S = 0.25      # calls closer together than this share a calibration
SETUP_MIN_S = 3.0       # cheap set-ups repeat until this much time is spent
SETUP_MAX_REPEATS = 12


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work.

    Shared machines change speed from second to second. Timed calls are
    bracketed by this kernel, and each call's time is divided by the
    kernel's, so a slower moment slows both and cancels out.
    """
    t0 = time.perf_counter()
    v = np.ones(64)
    for _ in range(300):
        v = np.tanh(_CAL_A @ v)
    d = {}
    for i in range(15000):
        d[(i * 7919) % 10007] = (i, str(i))
    sorted(d.items(), key=lambda kv: (-kv[1][0], kv[0]))
    acc = 0
    for i in range(100000):
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Context:
    """What one workload run needs, and what it has counted and timed."""

    inputs: str
    work: str
    seed: int
    seconds: float
    setup_repeats: int
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # name -> [(start, seconds)]
    cals: list = field(default_factory=list)     # [(taken at, calibration seconds)]

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def untraced(self):
        """Checks call package code too; keep it out of the layer numbers."""
        if self.tracer:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.paused = False

    def record(self, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {problems[0]}")
        return not problems

    def call(self, name: str, fn, *args):
        """Time one operation; an exception is a failed operation."""
        if not self.cals or time.perf_counter() - self.cals[-1][0] > CAL_EVERY_S:
            self.calibrate()
        with self.span(name):
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # counted, reported, and the loop goes on
                self.record([f"{type(exc).__name__}: {exc}"], name)
                return None
            self.samples.setdefault(name, []).append((t0, time.perf_counter() - t0))
        return result

    def calibrate(self) -> None:
        self.cals.append((time.perf_counter(), calibrate()))

    def pairs(self, name: str) -> list[tuple[float, float]]:
        """(call seconds, calibration seconds) per call. The calibration is
        the mean of the last one before the call and the first one after."""
        times = [at for at, _ in self.cals]
        out = []
        for start, secs in self.samples.get(name, ()):
            before = self.cals[bisect.bisect_right(times, start) - 1][1]
            i = bisect.bisect_left(times, start + secs)
            out.append((secs, (before + self.cals[i][1]) / 2 if i < len(times) else before))
        return out

    def set_up(self, fn):
        """Set up ``setup_repeats`` times, more while under SETUP_MIN_S in
        total (at most SETUP_MAX_REPEATS); keep the last state."""
        state = None
        start = time.perf_counter()
        n = 0
        while n < self.setup_repeats or (
                time.perf_counter() - start < SETUP_MIN_S and n < SETUP_MAX_REPEATS):
            state = None  # free the previous set-up before building the next
            gc.collect()
            state = self.call("bench.setup", fn)
            if state is None:
                raise RuntimeError("set-up failed: " + "; ".join(self.failures))
            n += 1
        self.calibrate()
        return state

    def scaled_s(self, name: str) -> float:
        """Median call time, scaled to the nominal calibration speed.

        Only calls whose calibration took at most its median time count:
        code differs in how much a busy machine slows it, so the ratio is
        steadiest while the machine runs at its faster half.
        """
        pairs = self.pairs(name)
        if not pairs:
            return 0.0
        mid = statistics.median(c for _, c in pairs)
        return CAL_NOMINAL_S * statistics.median(t / c for t, c in pairs if c <= mid)

    def raw_s(self, name: str) -> float:
        pairs = self.samples.get(name)
        return statistics.median(t for _, t in pairs) if pairs else 0.0

    def count(self, name: str) -> int:
        return len(self.samples.get(name, ()))

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)


def loop(ctx: Context, share: float, minimum: int, step) -> None:
    """Call ``step(i)`` until ``share`` of the run's seconds have passed."""
    start = time.perf_counter()
    budget = share * ctx.seconds
    i = 0
    while i < minimum or time.perf_counter() - start < budget:
        step(i)
        i += 1
    ctx.calibrate()


def rate(items: float, seconds: float) -> float:
    return items / seconds if seconds > 0 else 0.0


def _result(ctx: Context, main: str, main_items: float, side: str, side_items: float,
            named: dict, shape: dict) -> dict:
    """The end-to-end metrics plus the run's details."""
    return {
        "e2e": {
            "setup_s": ctx.scaled_s("bench.setup"),
            "main_items_per_s": rate(main_items, ctx.scaled_s(main)),
            "main_call_p50_ms": 1000 * ctx.scaled_s(main),
            "side_items_per_s": rate(side_items, ctx.scaled_s(side)),
        },
        "unscaled": {
            "setup_s": ctx.raw_s("bench.setup"),
            "main_items_per_s": rate(main_items, ctx.raw_s(main)),
            "main_call_p50_ms": 1000 * ctx.raw_s(main),
            "side_items_per_s": rate(side_items, ctx.raw_s(side)),
            "calibration_p50_ms": 1000 * statistics.median(c for _, c in ctx.cals),
        },
        "named": named,
        "shape": shape,
    }


# --------------------------------------------------------------------- train
def _setup_train(ctx: Context):
    triples = atlas_io.parse_atlas_file(ctx.path("atlas.tsv"))
    train_triples = [t for t in triples if t.split is Split.Train]
    config = ModelConfig(variant=ModelVariant.EventInvolEvent, epochs=1, seed=ctx.seed)
    vocab = s2s_vocab.build_vocab(train_triples, config.min_count)
    params = s2s_model.init_params(config, vocab)
    instances = [i for i in s2s_model.make_training_instances(train_triples, vocab)
                 if i.dimension in params.grouping]
    return config, params, instances


def run_train(ctx: Context) -> dict:
    config, params, instances = ctx.set_up(lambda: _setup_train(ctx))
    rng = np.random.default_rng(ctx.seed)
    samples = {
        "mixed": [instances[i] for i in rng.choice(len(instances), TRAIN_SAMPLE, replace=False)],
    }
    one_dim = [i for i in instances if i.dimension is SINGLE_DIM]
    samples["single"] = [one_dim[i] for i in rng.choice(len(one_dim), TRAIN_SAMPLE, replace=False)]
    initial = {k: v.copy() for k, v in params.arrays.items()}
    losses: dict[str, list[float]] = {"mixed": [], "single": []}
    trained = {}

    def epoch(kind: str):
        # Every epoch starts from the same initial weights.
        p = s2s_model.ModelParams(config, params.vocab,
                                  {k: v.copy() for k, v in initial.items()},
                                  list(params.param_order))
        out = ctx.call(f"bench.train_{kind}", s2s_train.train, p, samples[kind], config)
        if out is None:
            return
        loss = out[1][0]
        seen = losses[kind]
        seen.append(loss)
        problems = []
        if not math.isfinite(loss):
            problems.append(f"non-finite loss {loss}")
        elif loss != seen[0]:
            problems.append(f"loss {loss!r} differs from the first epoch's {seen[0]!r}")
        ctx.record(problems, f"train_{kind}")
        trained[kind] = out[0]

    def step(_):
        epoch("mixed")
        epoch("single")

    loop(ctx, 1.0, 1, step)

    # The epoch is followed by save_checkpoint; save -> load -> save must
    # rewrite the same bytes and reload the same tensors.
    problems = ["no epoch completed"] if "mixed" not in trained else []
    if not problems:
        ckpt = os.path.join(ctx.work, "model.ckpt")
        again = os.path.join(ctx.work, "model.again.ckpt")
        ctx.call("bench.checkpoint_save", s2s_ckpt.save_checkpoint, trained["mixed"], ckpt)
        with ctx.untraced():
            loaded = s2s_ckpt.load_checkpoint(ckpt)
            s2s_ckpt.save_checkpoint(loaded, again)
            with open(ckpt, "rb") as a, open(again, "rb") as b:
                if a.read() != b.read():
                    problems.append("save -> load -> save is not byte-identical")
            if loaded.param_order != trained["mixed"].param_order or any(
                    not np.array_equal(trained["mixed"].arrays[k], loaded.arrays[k])
                    for k in loaded.param_order):
                problems.append("reloaded tensors differ")
    ctx.record(problems, "checkpoint")

    main = rate(TRAIN_SAMPLE, ctx.scaled_s("bench.train_mixed"))
    return _result(
        ctx, "bench.train_mixed", TRAIN_SAMPLE, "bench.train_single", TRAIN_SAMPLE,
        named={
            "train_instances_per_s": main,
            "train_instances_per_s_single_dim": rate(TRAIN_SAMPLE,
                                                     ctx.scaled_s("bench.train_single")),
            "train_loss": losses["mixed"][0] if losses["mixed"] else float("nan"),
            "train_loss_single_dim": losses["single"][0] if losses["single"] else float("nan"),
        },
        shape={
            "variant": config.variant.value,
            "hidden": config.dec_hidden,
            "batch_size": config.batch_size,
            "vocab_size": len(params.vocab),
            "train_instances": len(instances),
            "sample": TRAIN_SAMPLE,
            "single_dim": SINGLE_DIM.value,
            "epochs_timed": ctx.count("bench.train_mixed") + ctx.count("bench.train_single"),
            "parameters": sum(v.size for v in initial.values()),
        },
    )


# ------------------------------------------------------------------ generate
def _setup_generate(ctx: Context):
    triples = atlas_io.parse_atlas_file(ctx.path("atlas.tsv"))
    train_graph = graph.build_graph([t for t in triples if t.split is Split.Train])
    gold = graph.build_graph(triples)
    params = s2s_ckpt.load_checkpoint(ctx.path("model.ckpt"))
    with open(ctx.path("vectors.tsv"), encoding="utf-8") as fh:
        vectors = s2s_emb.load_embedding_file(fh)
    events = sorted({t.event.text for t in triples if t.split is Split.Test})
    return train_graph, gold, params, vectors, events


def _beam_problems(params, gen) -> list[str]:
    """Scores equal the log-probability recomputed token by token."""
    vocab = params.vocab
    if not 1 <= len(gen.entries) <= BEAM_WIDTH:
        return [f"{len(gen.entries)} entries"]
    keys = [(-s, tuple(vocab.encode(list(t)))) for t, s in gen.entries]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        return ["entries not sorted and unique"]
    event_ids = vocab.encode(gen.event.split())
    for tokens, score in gen.entries:
        ids = vocab.encode(list(tokens))
        state = s2s_model.initial_decoder_state(params, gen.dimension, event_ids)
        last = vocab.bos_id
        total = 0.0
        # Hypotheses shorter than the cap finished with <eos>; the rest were cut.
        for tok in ids + ([vocab.eos_id] if len(ids) < DECODE_CAP else []):
            probs, state = s2s_model.decode_step(params, gen.dimension, state, last)
            total += float(np.log(max(probs[tok], 1e-300)))
            last = tok
        if abs(total - score) > SCORE_TOL:
            return [f"score {score!r} != recomputed {total!r} for {' '.join(tokens)!r}"]
    return []


def _nn_problems(allowed, gen) -> list[str]:
    if len(gen.entries) > TOPK:
        return [f"{len(gen.entries)} entries"]
    for tokens, _ in gen.entries:
        if " ".join(tokens) not in allowed.get(gen.dimension, ()):
            return [f"{' '.join(tokens)!r} is not a train target of {gen.dimension.value}"]
    return []


def _bleu(report) -> float:
    """Average top-k BLEU-2 over all evaluated lists, in percent."""
    n = sum(report.evaluated_by_dimension.values())
    if not n:
        return 0.0
    return sum(report.bleu_by_dimension[d] * c
               for d, c in report.evaluated_by_dimension.items()) / n


def run_generate(ctx: Context) -> dict:
    train_graph, gold, params, vectors, events = ctx.set_up(lambda: _setup_generate(ctx))
    pairs = [(ev, dim) for ev in events for dim in params.decoder_dims]
    beams: list = []
    nns: list = []

    def beam_step(i):
        ev, dim = pairs[i % len(pairs)]
        gen = ctx.call("bench.beam_list", generation.beam_search,
                       params, ev, dim, BEAM_WIDTH, DECODE_CAP)
        if gen is not None:
            beams.append(gen)

    def nn_step(i):
        ev, dim = pairs[i % len(pairs)]
        gen = ctx.call("bench.nn_list", generation.nearest_neighbor_predict,
                       train_graph, vectors, ev, dim, TOPK)
        if gen is not None:
            nns.append(gen)

    loop(ctx, 0.6, GUARD_LISTS, beam_step)
    loop(ctx, 0.3, GUARD_LISTS, nn_step)

    with ctx.untraced():
        for gen in beams:
            ctx.record(_beam_problems(params, gen), "beam_list")
        allowed: dict = {}
        for edge in train_graph.edges:
            if not edge.target.is_empty:
                allowed.setdefault(edge.dimension, set()).add(
                    normalize_node_text(edge.target.text))
        for gen in nns:
            ctx.record(_nn_problems(allowed, gen), "nn_list")

    # Dumps: written, read back, and scored, as generate + eval-bleu do.
    dumps = {}
    for name, lists in (("beam", beams), ("nn", nns)):
        path = os.path.join(ctx.work, f"{name}.jsonl")

        def write_dump(lists=lists, path=path):
            with open(path, "w", encoding="utf-8") as fh:
                generation.write_generations(lists, fh)

        def read_dump(path=path):
            with open(path, encoding="utf-8") as fh:
                return generation.read_generations(fh)

        ctx.call("bench.write_dump", write_dump)
        back = ctx.call("bench.read_dump", read_dump)
        ctx.record([] if back == lists else ["dump does not read back equal"], f"{name}_dump")
        dumps[name] = back or []

    reports: list = []

    def eval_step(_):
        out = ctx.call("bench.eval", lambda: (
            evaluation.avg_topk_bleu(dumps["beam"], gold, k=TOPK, split="test"),
            evaluation.avg_topk_bleu(dumps["nn"], gold, k=TOPK, split="test")))
        if out is None:
            return
        problems = []
        for report, lists in zip(out, (dumps["beam"], dumps["nn"])):
            seen = (sum(report.evaluated_by_dimension.values())
                    + sum(report.omitted_by_dimension.values()) + report.skipped_no_gold)
            if seen != len(lists):
                problems.append(f"report covers {seen} of {len(lists)} lists")
        if reports and [r.to_dict() for r in out] != [r.to_dict() for r in reports[0]]:
            problems.append("repeated evaluation differs")
        reports.append(out)
        ctx.record(problems, "eval")

    loop(ctx, 0.1, 1, eval_step)

    with ctx.untraced():
        guard = evaluation.avg_topk_bleu(beams[:GUARD_LISTS], gold, k=TOPK, split="test")
    first = reports[0] if reports else None
    scored = len(dumps["beam"]) + len(dumps["nn"])
    return _result(
        ctx, "bench.beam_list", 1, "bench.nn_list", 1,
        named={
            "beam_lists_per_s": rate(1, ctx.scaled_s("bench.beam_list")),
            "beam_list_p50_ms": 1000 * ctx.scaled_s("bench.beam_list"),
            "nn_lists_per_s": rate(1, ctx.scaled_s("bench.nn_list")),
            "eval_lists_per_s": rate(scored, ctx.scaled_s("bench.eval")),
            "beam_bleu2": _bleu(guard),
            "beam_bleu2_all_lists": _bleu(first[0]) if first else 0.0,
            "nn_bleu2_all_lists": _bleu(first[1]) if first else 0.0,
        },
        shape={
            "vocab_size": len(params.vocab),
            "test_events": len(events),
            "dims": len(params.decoder_dims),
            "beam_width": BEAM_WIDTH,
            "decode_cap": DECODE_CAP,
            "beam_lists": len(beams),
            "nn_lists": len(nns),
            "eval_calls": len(reports),
            "eval_omitted": sum(first[0].omitted_by_dimension.values()) if first else 0,
        },
    )


# --------------------------------------------------------------------- atlas
def _setup_atlas(ctx: Context):
    with open(ctx.path("names.txt"), encoding="utf-8") as fh:
        lexicon = ingest.load_name_lexicon(fh)
    with open(ctx.path("freq.tsv"), encoding="utf-8") as fh:
        freq = ingest.load_frequency_table(fh)
    with open(ctx.path("edges.tsv"), encoding="utf-8") as fh:
        edges = overlap.load_edge_file(fh)
    return lexicon, freq, edges, ingest.default_stopwords()


def _ingest(src: str, dst: str, lexicon, freq) -> int:
    """The ``ingest`` command's path: parse, normalize names, blank, write."""
    triples = atlas_io.parse_atlas_file(src)
    triples = [Triple(ingest.normalize_event(t.event.text, lexicon), t.dimension,
                      t.target, t.worker_id, t.split) for t in triples]
    triples = [Triple(ingest.blank_infrequent_args(t.event, freq), t.dimension,
                      t.target, t.worker_id, t.split) for t in triples]
    with open(dst, "w", encoding="utf-8") as fh:
        atlas_io.write_atlas_tsv(triples, fh)
    return len(triples)


def _ingest_problems(dst: str, expected: int, lexicon) -> list[str]:
    with open(dst, encoding="utf-8") as fh:
        written = fh.read()
    triples = atlas_io.parse_atlas_tsv(io.StringIO(written))
    if len(triples) != expected:
        return [f"{len(triples)} triples written, {expected} read"]
    again = io.StringIO()
    atlas_io.write_atlas_tsv(triples, again)
    if again.getvalue() != written:
        return ["write -> parse -> write is not byte-identical"]
    for t in triples:
        for tok in t.event.tokens:
            if person_variable_of(tok) is None and tok.split("'")[0].lower() in lexicon:
                return [f"name {tok!r} left in {t.event.text!r}"]
    return []


def _graph_paths(path: str, seed: int, stopwords, edges):
    """The ``stats``, ``split`` and ``overlap`` commands, each from the file."""
    stats = graph.graph_stats(graph.build_graph(atlas_io.parse_atlas_file(path)))
    g = graph.build_graph(atlas_io.parse_atlas_file(path))
    split = ingest.split_events(list(g.events), (0.8, 0.1, 0.1), seed, stopwords)
    g = graph.build_graph(atlas_io.parse_atlas_file(path))
    over = overlap.triple_overlap(g, edges), overlap.event_coverage(g, edges)
    return stats, (g, split), over


def run_atlas(ctx: Context) -> dict:
    lexicon, freq, edges, stopwords = ctx.set_up(lambda: _setup_atlas(ctx))
    with open(ctx.path("inputs.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    chunks = info["raw_chunks"]
    chunk_triples = info["raw_triples"] // chunks

    def ingest_step(i):
        src = ctx.path(f"raw_{i % chunks:03d}.tsv")
        dst = os.path.join(ctx.work, f"clean_{i % chunks:03d}.tsv")
        n = ctx.call("bench.ingest", _ingest, src, dst, lexicon, freq)
        if n is None:
            return
        with ctx.untraced():
            problems = _ingest_problems(dst, chunk_triples, lexicon)
        ctx.record(problems or ([] if n == chunk_triples else [f"{n} triples"]), "ingest")

    loop(ctx, 0.5, 1, ingest_step)

    atlas = ctx.path("graph_atlas.tsv")
    first: dict = {}

    def graph_step(_):
        out = ctx.call("bench.graph_paths", _graph_paths, atlas, ctx.seed, stopwords, edges)
        if out is None:
            return
        stats, (g, split), over = out
        want = info["corpus"]["distinct_triples"]
        ctx.record([] if stats.triples_total == want else
                   [f"stats counts {stats.triples_total} triples, generator made {want}"],
                   "stats")
        with ctx.untraced():
            keys: dict = {}
            for ev in g.events:
                keys.setdefault(ingest.content_key(ev, stopwords), set()).add(
                    split.assignment[ev.text])
        spans = [k for k, s in keys.items() if len(s) > 1]
        ctx.record([f"content key {spans[0]} spans two splits"] if spans else [], "split")
        first.setdefault("overlap", over)
        ctx.record([] if over == first["overlap"] else ["overlap differs between rounds"],
                   "overlap")

    loop(ctx, 0.5, 1, graph_step)

    graph_items = 3 * info["corpus"]["triples"]
    over = first.get("overlap", ({}, 0.0))
    return _result(
        ctx, "bench.ingest", chunk_triples, "bench.graph_paths", graph_items,
        named={
            "ingest_triples_per_s": rate(chunk_triples, ctx.scaled_s("bench.ingest")),
            "graph_triples_per_s": rate(graph_items, ctx.scaled_s("bench.graph_paths")),
            "event_coverage_pct": over[1],
            "triple_overlap_pct": {g.value: v for g, v in over[0].items()},
        },
        shape={
            "ingest_calls": ctx.count("bench.ingest"),
            "triples_per_ingest_call": chunk_triples,
            "graph_rounds": ctx.count("bench.graph_paths"),
            "graph_atlas_triples": info["corpus"]["triples"],
            "lexicon_names": len(lexicon),
            "freq_rows": len(freq.counts),
            "ext_edges": len(edges),
        },
    )


WORKLOADS = {"train": run_train, "generate": run_generate, "atlas": run_atlas}
