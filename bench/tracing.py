"""Spans around the package's public functions, recorded from outside.

The tracer replaces module attributes with timing wrappers; no file of
the package changes. A function imported by name into another module
(``from ifthen.seq2seq.model import decode_step``) is patched there too,
so calls between modules are seen. A target that no longer exists is
reported as absent and the run goes on.

Each span is ``(id, parent id, name, start ns, end ns)``. Spans stay in
memory until :meth:`Tracer.write` stores them once, at the end of a run.
Self time is a span's duration minus the time its child spans cover;
the benchmark's own operations are root spans, so their ids group the
spans of one operation.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute path, span name). Span names are the layer metric
# prefixes; two targets may share a name (both atlas parsers are "parse").
TARGETS = (
    ("ifthen.seq2seq.model", "loss_and_grads", "seq2seq.model.loss_and_grads"),
    ("ifthen.seq2seq.model", "gru_step", "seq2seq.model.gru_step"),
    ("ifthen.seq2seq.model", "gru_step_backward", "seq2seq.model.gru_step_backward"),
    ("ifthen.seq2seq.model", "ModelParams.zero_grads", "seq2seq.model.zero_grads"),
    ("ifthen.seq2seq.model", "decode_step", "seq2seq.model.decode_step"),
    ("ifthen.seq2seq.model", "initial_decoder_state", "seq2seq.model.initial_decoder_state"),
    ("ifthen.seq2seq.train", "train", "seq2seq.train.train"),
    ("ifthen.seq2seq.train", "batch_loss_and_grads", "seq2seq.train.batch_loss_and_grads"),
    ("ifthen.seq2seq.train", "clip_gradients", "seq2seq.train.clip_gradients"),
    ("ifthen.seq2seq.train", "AdamOptimizer.step", "seq2seq.train.adam_step"),
    ("ifthen.seq2seq.vocab", "build_vocab", "seq2seq.vocab.build_vocab"),
    ("ifthen.seq2seq.checkpoint", "save_checkpoint", "seq2seq.checkpoint.save"),
    ("ifthen.seq2seq.checkpoint", "load_checkpoint", "seq2seq.checkpoint.load"),
    ("ifthen.seq2seq.embeddings", "load_embedding_file", "seq2seq.embeddings.load"),
    ("ifthen.generation", "beam_search", "generation.beam_search"),
    ("ifthen.generation", "nearest_neighbor_predict", "generation.nearest_neighbor_predict"),
    ("ifthen.generation", "write_generations", "generation.write_generations"),
    ("ifthen.generation", "read_generations", "generation.read_generations"),
    ("ifthen.evaluation", "avg_topk_bleu", "evaluation.avg_topk_bleu"),
    ("ifthen.evaluation", "bleu2", "evaluation.bleu2"),
    ("ifthen.graph", "build_graph", "graph.build_graph"),
    ("ifthen.graph", "graph_stats", "graph.graph_stats"),
    ("ifthen.graph", "query_inferences", "graph.query_inferences"),
    ("ifthen.atlas_io", "parse_atlas_tsv", "atlas_io.parse"),
    ("ifthen.atlas_io", "parse_atlas_jsonl", "atlas_io.parse"),
    ("ifthen.atlas_io", "write_atlas_tsv", "atlas_io.write"),
    ("ifthen.atlas_io", "write_atlas_jsonl", "atlas_io.write"),
    ("ifthen.ingest", "normalize_event", "ingest.normalize_event"),
    ("ifthen.ingest", "blank_infrequent_args", "ingest.blank_infrequent_args"),
    ("ifthen.ingest", "load_frequency_table", "ingest.load_frequency_table"),
    ("ifthen.ingest", "split_events", "ingest.split_events"),
    ("ifthen.overlap", "load_edge_file", "overlap.load_edge_file"),
    ("ifthen.overlap", "triple_overlap", "overlap.triple_overlap"),
    ("ifthen.overlap", "event_coverage", "overlap.event_coverage"),
)


def _sized(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


class Tracer:
    """Records spans and per-name counters while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.paused = False
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []
        self._blanked: set[tuple[int, str]] = set()

    # -- recording -------------------------------------------------------
    def span(self, name: str):
        """Context manager for a benchmark-side span (one operation)."""
        return _Span(self, name)

    def _enter(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0])
        return sid

    def _exit(self, name: str, t0: int, t1: int) -> None:
        sid, child_ns = self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.spans.append((sid, parent[0] if parent else 0, name, t0, t1))
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child_ns

    def root_id(self) -> int:
        return self._stack[0][0] if self._stack else 0

    def _wrap(self, fn, name: str):
        tracer = self
        hook = _HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer._enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, t0, clock())
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every target that exists; remember the absent ones."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ifthen" or n.startswith("ifthen.")) and m is not None]
        for mod_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{path}")
                continue
            wrapped = self._wrap(original, name)
            self._patch(owner, attr, wrapped)
            if not outer:
                # Rebind copies imported by name into other modules.
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and (mod, key) != (owner, attr):
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        """Store all spans, one tab-separated line each."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{t0}\t{t1}\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._enter()
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.name, self.t0, time.perf_counter_ns())
        return False


# -- counters taken at the wrapped boundaries ------------------------------
def _clip_hook(tr, args, kwargs, result):
    max_norm = args[1] if len(args) > 1 else kwargs.get("max_norm", 0.0)
    tr.counts["clip.calls"] += 1
    if max_norm > 0 and result > max_norm:
        tr.counts["clip.clipped"] += 1


def _blank_hook(tr, args, kwargs, result):
    event = args[0] if args else kwargs["event"]
    tr._blanked.add((tr.root_id(), event.text))
    tr.counts["blank.unique"] = len(tr._blanked)


def _build_hook(tr, args, kwargs, result):
    tr.counts["build_graph.triples"] += _sized(args[0] if args else kwargs["triples"])
    tr.counts["build_graph.edges"] += len(result.edges)
    tr.counts["build_graph.diagnostics"] += len(result.diagnostics)


def _parse_hook(tr, args, kwargs, result):
    tr.counts["parse.triples"] += len(result)


def _write_hook(tr, args, kwargs, result):
    tr.counts["write.triples"] += _sized(args[0] if args else kwargs["triples"])


def _save_hook(tr, args, kwargs, result):
    import os

    tr.counts["checkpoint.bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _write_gen_hook(tr, args, kwargs, result):
    tr.counts["write_generations.lists"] += _sized(args[0] if args else kwargs["generations"])


def _read_gen_hook(tr, args, kwargs, result):
    tr.counts["read_generations.lists"] += len(result)


_HOOKS = {
    "seq2seq.train.clip_gradients": _clip_hook,
    "ingest.blank_infrequent_args": _blank_hook,
    "graph.build_graph": _build_hook,
    "atlas_io.parse": _parse_hook,
    "atlas_io.write": _write_hook,
    "seq2seq.checkpoint.save": _save_hook,
    "generation.write_generations": _write_gen_hook,
    "generation.read_generations": _read_gen_hook,
}
