"""Per-layer metrics computed from a traced run.

``PER_LAYER`` lists every metric with its unit and direction; the names
are the ones ``BENCHMARK.json`` declares. A layer the workload does not
reach reports 0.
"""

from __future__ import annotations

PER_LAYER = (
    ("seq2seq.model.loss_and_grads.us_per_instance", "us", "lower"),
    ("seq2seq.model.gru_step.us_per_call", "us", "lower"),
    ("seq2seq.model.gru_step.calls", "count", "lower"),
    ("seq2seq.model.gru_step_backward.us_per_call", "us", "lower"),
    ("seq2seq.model.gru_step_backward.calls", "count", "lower"),
    ("seq2seq.model.zero_grads.ms_per_call", "ms", "lower"),
    ("seq2seq.model.decode_step.us_per_call", "us", "lower"),
    ("seq2seq.model.decode_calls_per_list", "calls/list", "lower"),
    ("seq2seq.model.initial_decoder_state.calls_per_list", "calls/list", "lower"),
    ("seq2seq.train.batch_loss_and_grads.ms_per_batch", "ms", "lower"),
    ("seq2seq.train.clip_gradients.ms_per_call", "ms", "lower"),
    ("seq2seq.train.clip_rate", "share", "lower"),
    ("seq2seq.train.adam_step.ms_per_call", "ms", "lower"),
    ("seq2seq.train.train.self_ms", "ms", "lower"),
    ("seq2seq.train.epoch_loss", "nats/token", "lower"),
    ("seq2seq.vocab.build_vocab.ms", "ms", "lower"),
    ("seq2seq.checkpoint.save.ms", "ms", "lower"),
    ("seq2seq.checkpoint.load.ms", "ms", "lower"),
    ("seq2seq.checkpoint.bytes", "bytes", "lower"),
    ("seq2seq.embeddings.load.ms", "ms", "lower"),
    ("generation.beam_search.ms_per_list", "ms", "lower"),
    ("generation.beam_search.self_share", "share", "lower"),
    ("generation.nearest_neighbor_predict.ms_per_query", "ms", "lower"),
    ("generation.write_generations.us_per_list", "us", "lower"),
    ("generation.read_generations.us_per_list", "us", "lower"),
    ("evaluation.avg_topk_bleu.ms", "ms", "lower"),
    ("evaluation.bleu2.us_per_call", "us", "lower"),
    ("evaluation.bleu2.calls", "count", "lower"),
    ("evaluation.beam_bleu2", "bleu", "higher"),
    ("graph.build_graph.us_per_triple", "us", "lower"),
    ("graph.graph_stats.ms", "ms", "lower"),
    ("graph.diagnostics.per_edge", "1/edge", "lower"),
    ("graph.query_inferences.us_per_call", "us", "lower"),
    ("graph.query_inferences.calls", "count", "lower"),
    ("atlas_io.parse.us_per_triple", "us", "lower"),
    ("atlas_io.write.us_per_triple", "us", "lower"),
    ("ingest.normalize_event.us_per_call", "us", "lower"),
    ("ingest.blank_infrequent_args.ms_per_call", "ms", "lower"),
    ("ingest.blank_infrequent_args.calls", "count", "lower"),
    ("ingest.blank_infrequent_args.unique_ratio", "share", "higher"),
    ("ingest.load_frequency_table.ms", "ms", "lower"),
    ("ingest.split_events.ms", "ms", "lower"),
    ("overlap.load_edge_file.ms", "ms", "lower"),
    ("overlap.triple_overlap.ms", "ms", "lower"),
    ("overlap.event_coverage.ms", "ms", "lower"),
    ("trace.overhead.main_items_per_s", "%", "lower"),
    ("trace.overhead.side_items_per_s", "%", "lower"),
    ("trace.spans", "count", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr, traced: dict, untraced: dict) -> dict[str, float]:
    """Per-layer values from the tracer, plus the tracing overhead.

    ``traced`` and ``untraced`` are the workload results of the two
    halves of a traced run; the overhead is how much slower the traced
    half ran, in percent of the untraced figure.
    """
    calls, total, self_ns, counts = tr.calls, tr.total_ns, tr.self_ns, tr.counts

    def per_call(name: str, scale: float) -> float:
        return _ratio(total[name], calls[name]) / scale

    def per_item(name: str, items: float, scale: float) -> float:
        return _ratio(total[name], items) / scale

    lists = calls["generation.beam_search"]
    named = traced.get("named", {})
    out = {
        "seq2seq.model.loss_and_grads.us_per_instance": per_call("seq2seq.model.loss_and_grads", 1e3),
        "seq2seq.model.gru_step.us_per_call": per_call("seq2seq.model.gru_step", 1e3),
        "seq2seq.model.gru_step.calls": calls["seq2seq.model.gru_step"],
        "seq2seq.model.gru_step_backward.us_per_call": per_call("seq2seq.model.gru_step_backward", 1e3),
        "seq2seq.model.gru_step_backward.calls": calls["seq2seq.model.gru_step_backward"],
        "seq2seq.model.zero_grads.ms_per_call": per_call("seq2seq.model.zero_grads", 1e6),
        "seq2seq.model.decode_step.us_per_call": per_call("seq2seq.model.decode_step", 1e3),
        "seq2seq.model.decode_calls_per_list": _ratio(calls["seq2seq.model.decode_step"], lists),
        "seq2seq.model.initial_decoder_state.calls_per_list":
            _ratio(calls["seq2seq.model.initial_decoder_state"], lists),
        "seq2seq.train.batch_loss_and_grads.ms_per_batch":
            per_call("seq2seq.train.batch_loss_and_grads", 1e6),
        "seq2seq.train.clip_gradients.ms_per_call": per_call("seq2seq.train.clip_gradients", 1e6),
        "seq2seq.train.clip_rate": _ratio(counts["clip.clipped"], counts["clip.calls"]),
        "seq2seq.train.adam_step.ms_per_call": per_call("seq2seq.train.adam_step", 1e6),
        "seq2seq.train.train.self_ms":
            _ratio(self_ns["seq2seq.train.train"], calls["seq2seq.train.train"]) / 1e6,
        "seq2seq.train.epoch_loss": named.get("train_loss", 0.0),
        "seq2seq.vocab.build_vocab.ms": per_call("seq2seq.vocab.build_vocab", 1e6),
        "seq2seq.checkpoint.save.ms": per_call("seq2seq.checkpoint.save", 1e6),
        "seq2seq.checkpoint.load.ms": per_call("seq2seq.checkpoint.load", 1e6),
        "seq2seq.checkpoint.bytes": counts["checkpoint.bytes"],
        "seq2seq.embeddings.load.ms": per_call("seq2seq.embeddings.load", 1e6),
        "generation.beam_search.ms_per_list": per_call("generation.beam_search", 1e6),
        "generation.beam_search.self_share":
            _ratio(self_ns["generation.beam_search"], total["generation.beam_search"]),
        "generation.nearest_neighbor_predict.ms_per_query":
            per_call("generation.nearest_neighbor_predict", 1e6),
        "generation.write_generations.us_per_list":
            per_item("generation.write_generations", counts["write_generations.lists"], 1e3),
        "generation.read_generations.us_per_list":
            per_item("generation.read_generations", counts["read_generations.lists"], 1e3),
        "evaluation.avg_topk_bleu.ms": per_call("evaluation.avg_topk_bleu", 1e6),
        "evaluation.bleu2.us_per_call": per_call("evaluation.bleu2", 1e3),
        "evaluation.bleu2.calls": calls["evaluation.bleu2"],
        "evaluation.beam_bleu2": named.get("beam_bleu2", 0.0),
        "graph.build_graph.us_per_triple":
            per_item("graph.build_graph", counts["build_graph.triples"], 1e3),
        "graph.graph_stats.ms": per_call("graph.graph_stats", 1e6),
        "graph.diagnostics.per_edge":
            _ratio(counts["build_graph.diagnostics"], counts["build_graph.edges"]),
        "graph.query_inferences.us_per_call": per_call("graph.query_inferences", 1e3),
        "graph.query_inferences.calls": calls["graph.query_inferences"],
        "atlas_io.parse.us_per_triple": per_item("atlas_io.parse", counts["parse.triples"], 1e3),
        "atlas_io.write.us_per_triple": per_item("atlas_io.write", counts["write.triples"], 1e3),
        "ingest.normalize_event.us_per_call": per_call("ingest.normalize_event", 1e3),
        "ingest.blank_infrequent_args.ms_per_call": per_call("ingest.blank_infrequent_args", 1e6),
        "ingest.blank_infrequent_args.calls": calls["ingest.blank_infrequent_args"],
        "ingest.blank_infrequent_args.unique_ratio":
            _ratio(counts["blank.unique"], calls["ingest.blank_infrequent_args"]),
        "ingest.load_frequency_table.ms": per_call("ingest.load_frequency_table", 1e6),
        "ingest.split_events.ms": per_call("ingest.split_events", 1e6),
        "overlap.load_edge_file.ms": per_call("overlap.load_edge_file", 1e6),
        "overlap.triple_overlap.ms": per_call("overlap.triple_overlap", 1e6),
        "overlap.event_coverage.ms": per_call("overlap.event_coverage", 1e6),
        "trace.spans": len(tr.spans),
    }
    for key in ("main_items_per_s", "side_items_per_s"):
        base = untraced["e2e"][key]
        out[f"trace.overhead.{key}"] = 100.0 * _ratio(base - traced["e2e"][key], base)
    return {k: float(v) for k, v in out.items()}
