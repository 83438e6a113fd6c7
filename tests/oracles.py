"""Independent reference implementations used to cross-check the library.

These deliberately share no code with the package: plain loops, exact
rationals where possible, exhaustive enumeration instead of search.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def bleu2_oracle(candidate: list[str], references: list[list[str]], eps: float = 0.1) -> float:
    """Scalar re-derivation of order-2 smoothed sentence BLEU."""
    if not candidate:
        return 0.0
    logs = []
    for n in (1, 2):
        grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
        matched = 0
        budget: dict[tuple, int] = {}
        for ref in references:
            ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            for g in set(ref_grams):
                budget[g] = max(budget.get(g, 0), ref_grams.count(g))
        remaining = dict(budget)
        for g in grams:
            if remaining.get(g, 0) > 0:
                remaining[g] -= 1
                matched += 1
        denom = len(grams)
        if matched > 0:
            precision = Fraction(matched, denom)
            logs.append(math.log(float(precision)))
        elif n == 1:
            return 0.0
        else:
            logs.append(math.log(eps / max(denom, 1)))
    c = len(candidate)
    best = None
    for ref in references:
        key = (abs(len(ref) - c), len(ref))
        if best is None or key < best:
            best = key
    r = best[1]
    bp = 1.0 if c > r else math.exp(1.0 - Fraction(r, c))
    return bp * math.exp(0.5 * logs[0] + 0.5 * logs[1])


def enumerate_sequences(step_logprobs, eos_id: int, max_len: int):
    """All decodable sequences with their total log-probability.

    ``step_logprobs(prefix)`` returns the next-token log-probability list
    given the emitted prefix. A sequence terminates on the eos token or at
    ``max_len``. Returns a dict keyed by emitted tokens (eos stripped),
    keeping the best score for duplicates.
    """
    results: dict[tuple[int, ...], float] = {}

    def visit(prefix: tuple[int, ...], score: float) -> None:
        logp = step_logprobs(prefix)
        for tok, lp in enumerate(logp):
            seq = prefix + (tok,)
            total = score + lp
            if tok == eos_id:
                key = prefix
                if key not in results or total > results[key]:
                    results[key] = total
            elif len(seq) == max_len:
                if seq not in results or total > results[seq]:
                    results[seq] = total
            else:
                visit(seq, total)

    visit((), 0.0)
    return results


def beam_search_reference(step_logprobs, bos, eos, unk, width, max_len, suppress_unk):
    """Beam search one hypothesis at a time, one Python tuple per candidate.

    ``step_logprobs(consumed)`` returns the next-token log-probabilities
    ``log(max(p, 1e-300))`` after the consumed ids, which start with
    ``bos``. With ``suppress_unk`` the ``unk`` token is dropped and the
    rest renormalized. Candidates sort by (-score, ids); hypotheses retire
    on ``eos`` or at ``max_len``. Returns the ranked ``(ids, score)`` list.
    """
    alive = [((), 0.0)]
    pool: dict[tuple[int, ...], float] = {}
    for _ in range(max_len):
        candidates = []
        for ids, score in alive:
            logp = list(step_logprobs((bos,) + ids))
            if suppress_unk:
                shift = math.log(max(1.0 - math.exp(logp[unk]), 1e-300))
                logp = [lp - shift for lp in logp]
                logp[unk] = -math.inf
            for tok, lp in enumerate(logp):
                if lp != -math.inf:
                    candidates.append((ids + (tok,), score + lp))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        alive = []
        for ids, score in candidates:
            if ids[-1] == eos:
                seq = ids[:-1]
                if seq not in pool or score > pool[seq]:
                    pool[seq] = score
            elif len(alive) < width:
                alive.append((ids, score))
        if not alive:
            break
    for ids, score in alive:
        if ids not in pool or score > pool[ids]:
            pool[ids] = score
    return sorted(pool.items(), key=lambda kv: (-kv[1], kv[0]))[:width]


def stats_oracle(triples):
    """Naive re-scan of deduplicated triples (event, dimension, target texts)."""
    from ifthen.graph import normalize_node_text
    from ifthen.taxonomy import classify_dimension

    seen = {}
    for t in triples:
        key = (
            normalize_node_text(t.event.text),
            t.dimension.value,
            normalize_node_text(t.target.text),
        )
        seen.setdefault(key, t)

    by_ct = {}
    node_sets = {}
    position_counts = {}
    events = set()
    for (ev, _, tgt), t in seen.items():
        ct = classify_dimension(t.dimension).content_type
        by_ct[ct] = by_ct.get(ct, 0) + 1
        events.add(ev)
        position_counts[ev] = position_counts.get(ev, 0) + 1
        if not t.target.is_empty:
            node_sets.setdefault(ct, set()).add(tgt)
            position_counts[tgt] = position_counts.get(tgt, 0) + 1
    all_nodes = set(events)
    for nodes in node_sets.values():
        all_nodes |= nodes
    return {
        "triples_total": len(seen),
        "triples_by_content_type": by_ct,
        "nodes_total": len(all_nodes),
        "nodes_by_content_type": {ct: len(s) for ct, s in node_sets.items()},
        "base_event_count": len(events),
        "nodes_appearing_multiple": sum(1 for c in position_counts.values() if c > 1),
    }


def blank_infrequent_args_reference(event, freq, threshold=None):
    """The sort-per-call blanking: every call ranks the whole table, rare
    spans longest first, and takes the first one that matches at each
    position. A key whose argument string has no tokens would match
    everywhere without advancing, so callers must not pass one."""
    from ifthen.graph import BLANK_TOKEN, EventPhrase, person_variable_of
    from ifthen.ingest import (
        DEFAULT_MIN_COUNT,
        NGRAMS_TOP_RANK,
        FrequencySource,
        IngestError,
    )

    if threshold is None:
        if freq.source is FrequencySource.Ngrams:
            ranked = sorted(freq.counts.values(), reverse=True)
            threshold = 1 if len(ranked) <= NGRAMS_TOP_RANK else ranked[NGRAMS_TOP_RANK - 1]
        else:
            threshold = DEFAULT_MIN_COUNT[freq.source]
    if threshold < 1:
        raise IngestError(f"threshold must be >= 1, got {threshold}")
    tokens = event.tokens
    verb = next(
        (t for t in tokens if person_variable_of(t) is None and t != BLANK_TOKEN),
        None,
    )
    if verb is None:
        raise IngestError(f"no identifiable verb token in {event.text!r}")

    rare_args = [
        args.split()
        for (v, args), count in sorted(
            freq.counts.items(), key=lambda kv: (-len(kv[0][1].split()), kv[0])
        )
        if v == verb and count < threshold and args
    ]
    out = []
    i = 0
    while tokens[i] != verb:  # nothing up to the verb is an argument
        out.append(tokens[i])
        i += 1
    out.append(verb)
    i += 1
    while i < len(tokens):
        replaced = False
        for span in rare_args:
            if tokens[i : i + len(span)] == span:
                out.append(BLANK_TOKEN)
                i += len(span)
                replaced = True
                break
        if not replaced:
            out.append(tokens[i])
            i += 1
    return EventPhrase.from_text(" ".join(out))


def nearest_neighbor_reference(train_graph, embeddings, event, dimension, k):
    """The per-event retrieval loop: every call walks the adjacency for the
    dimension's events, then takes one ``np.mean`` and one cosine with two
    norms per event. Returns ``(tokens, score)`` entries, best first."""

    def normalize(text):
        return " ".join(text.lower().split())

    targets = {}
    for (ev, dim), edges in train_graph.adjacency.items():
        texts = [e.target.text for e in edges if not e.target.is_empty]
        if dim is dimension and texts:
            targets[ev] = sorted(texts)

    def mean_vector(text):
        vecs = [embeddings[t] for t in text.split() if t in embeddings]
        return np.mean(vecs, axis=0) if vecs else None

    def cosine(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            return -math.inf
        return float(np.dot(a, b) / (na * nb))

    query = mean_vector(normalize(event))
    scored = []
    for ev in sorted(targets):
        vec = mean_vector(ev)
        sim = -math.inf if query is None or vec is None else cosine(query, vec)
        scored.append((sim, ev))
    scored.sort(key=lambda sv: (-sv[0], sv[1]))

    entries = []
    seen = set()
    for sim, ev in scored:
        for text in targets[ev]:
            tokens = tuple(normalize(text).split())
            if tokens not in seen:
                seen.add(tokens)
                entries.append((tokens, 0.0 if query is None else sim))
    return entries[:k]


def overlap_oracle(atlas, edges, normalizer, group_dims, group_relations):
    """Double loop over triples x edges for one dimension group."""
    total = 0
    matched = 0
    for e in atlas.edges:
        if e.dimension not in group_dims or e.target.is_empty:
            continue
        total += 1
        ev, tgt = normalizer(e.event.text), normalizer(e.target.text)
        for edge in edges:
            if edge.relation in group_relations and edge.start == ev and edge.end == tgt:
                matched += 1
                break
    return 100.0 * matched / total if total else 0.0


def _ref_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _ref_softmax(logits):
    exp = np.exp(logits - logits.max())
    return exp / exp.sum()


def _ref_gru_step(c, x, h_prev):
    z = _ref_sigmoid(c["Wz"] @ x + c["Uz"] @ h_prev + c["bz"])
    r = _ref_sigmoid(c["Wr"] @ x + c["Ur"] @ h_prev + c["br"])
    n = np.tanh(c["Wn"] @ x + c["Un"] @ (r * h_prev) + c["bn"])
    return (1.0 - z) * n + z * h_prev, (x, h_prev, z, r, n)


def _ref_gru_step_backward(c, cache, dh, g):
    """One token of backprop; ``g`` holds the cell's gradient arrays."""
    x, h_prev, z, r, n = cache
    dz = dh * (h_prev - n)
    dn = dh * (1.0 - z)
    dh_prev = dh * z
    dn_pre = dn * (1.0 - n * n)
    g["Wn"] += np.outer(dn_pre, x)
    g["Un"] += np.outer(dn_pre, r * h_prev)
    g["bn"] += dn_pre
    drh = c["Un"].T @ dn_pre
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r
    dz_pre = dz * z * (1.0 - z)
    dr_pre = dr * r * (1.0 - r)
    g["Wz"] += np.outer(dz_pre, x)
    g["Uz"] += np.outer(dz_pre, h_prev)
    g["bz"] += dz_pre
    g["Wr"] += np.outer(dr_pre, x)
    g["Ur"] += np.outer(dr_pre, h_prev)
    g["br"] += dr_pre
    dh_prev = dh_prev + c["Uz"].T @ dz_pre + c["Ur"].T @ dr_pre
    dx = c["Wz"].T @ dz_pre + c["Wr"].T @ dr_pre + c["Wn"].T @ dn_pre
    return dx, dh_prev


def instance_loss_and_grads_reference(arrays, grads, encoder_id, dimension,
                                      event_ids, target_ids, bos, eos, weight=1.0):
    """One instance, one token at a time, with outer-product weight gradients.

    ``arrays`` and ``grads`` map the model's parameter names to arrays;
    ``weight`` times the gradient of the mean token cross entropy is
    added to ``grads``. Returns the unweighted loss.
    """
    def cell(store, prefix):
        # Per-gate views of the stacked z, r, n row blocks.
        return {f"{kind}{gate}": block for kind in "WUb"
                for gate, block in zip("zrn", np.split(store[f"{prefix}/{kind}"], 3))}

    emb, g_emb = arrays["embedding"], grads["embedding"]
    enc = f"encoder/{encoder_id}"
    fwd, bwd = cell(arrays, f"{enc}/fwd"), cell(arrays, f"{enc}/bwd")
    half = fwd["bz"].size
    h_f, fwd_caches = np.zeros(half), []
    for tok in event_ids:
        h_f, cache = _ref_gru_step(fwd, emb[tok], h_f)
        fwd_caches.append(cache)
    h_b, bwd_caches = np.zeros(half), []
    for tok in reversed(event_ids):
        h_b, cache = _ref_gru_step(bwd, emb[tok], h_b)
        bwd_caches.append(cache)
    h = np.concatenate([h_f, h_b])
    w_bridge = arrays[f"bridge/{encoder_id}/W"]
    state = w_bridge @ h + arrays[f"bridge/{encoder_id}/b"]

    dec = f"decoder/{dimension}"
    dec_cell = cell(arrays, dec)
    w_o, b_o = arrays[f"{dec}/W_o"], arrays[f"{dec}/b_o"]
    inputs = [bos] + list(target_ids)
    golds = list(target_ids) + [eos]
    states, caches, probs_seq, total = [], [], [], 0.0
    for inp, gold in zip(inputs, golds):
        state, cache = _ref_gru_step(dec_cell, emb[inp], state)
        probs = _ref_softmax(w_o @ state + b_o)
        total -= math.log(probs[gold])
        states.append(state)
        caches.append(cache)
        probs_seq.append(probs)
    m = len(golds)

    ds_next = np.zeros_like(state)
    for i in reversed(range(m)):
        dlogits = probs_seq[i].copy()
        dlogits[golds[i]] -= 1.0
        dlogits *= weight / m
        grads[f"{dec}/W_o"] += np.outer(dlogits, states[i])
        grads[f"{dec}/b_o"] += dlogits
        dx, ds_next = _ref_gru_step_backward(
            dec_cell, caches[i], w_o.T @ dlogits + ds_next, cell(grads, dec))
        g_emb[inputs[i]] += dx
    grads[f"bridge/{encoder_id}/W"] += np.outer(ds_next, h)
    grads[f"bridge/{encoder_id}/b"] += ds_next
    dh = w_bridge.T @ ds_next
    n = len(event_ids)
    dh_next = dh[:half]
    for t in reversed(range(n)):
        dx, dh_next = _ref_gru_step_backward(fwd, fwd_caches[t], dh_next, cell(grads, f"{enc}/fwd"))
        g_emb[event_ids[t]] += dx
    dh_next = dh[half:]
    for t in reversed(range(n)):
        dx, dh_next = _ref_gru_step_backward(bwd, bwd_caches[t], dh_next, cell(grads, f"{enc}/bwd"))
        g_emb[event_ids[n - 1 - t]] += dx
    return total / m


def batch_loss_and_grads_reference(arrays, encoder_of, batch, bos, eos):
    """Multitask batch objective by per-instance loops.

    ``batch`` holds ``(event ids, dimension name, target ids)`` triples and
    ``encoder_of`` maps a dimension name to its encoder id. The loss is the
    mean over dimensions of the mean instance loss. Returns the loss and
    the gradient of every parameter.
    """
    grads = {name: np.zeros_like(arr) for name, arr in arrays.items()}
    by_dim: dict[str, list] = {}
    for inst in batch:
        by_dim.setdefault(inst[1], []).append(inst)
    total = 0.0
    for dim, insts in by_dim.items():
        weight = 1.0 / (len(by_dim) * len(insts))
        dim_total = 0.0
        for event_ids, _, target_ids in insts:
            dim_total += instance_loss_and_grads_reference(
                arrays, grads, encoder_of[dim], dim, event_ids, target_ids, bos, eos, weight)
        total += dim_total / len(insts)
    return total / len(by_dim), grads


def train_reference(params, dataset, config, loss_and_grads):
    """The step-every-tensor training loop, in textbook formulas.

    Every batch zeroes a gradient for every tensor, clips their global
    norm and takes an Adam step (beta1 0.9, beta2 0.999, eps 1e-8) on
    every tensor, reached or not. ``loss_and_grads(params, batch, grads)``
    is the batch forward and backward pass; ``params.arrays`` is updated
    in place. Returns the per-epoch multitask mean losses; raises
    :class:`FloatingPointError` where training must abort.
    """
    arrays = params.arrays
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, config.learning_rate
    m = {n: np.zeros(a.shape) for n, a in arrays.items()}
    v = {n: np.zeros(a.shape) for n, a in arrays.items()}
    t = 0
    rng = np.random.default_rng(config.seed)
    trace = []
    for epoch in range(config.epochs):
        perm = rng.permutation(len(dataset))
        totals: dict = {}
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in perm[start : start + config.batch_size]]
            grads = {n: np.zeros(a.shape) for n, a in arrays.items()}
            losses = loss_and_grads(params, batch, grads)
            if not np.isfinite(losses).all():
                raise FloatingPointError(f"non-finite loss at epoch {epoch}, batch start {start}")
            for inst, loss in zip(batch, losses.tolist()):
                total, count = totals.get(inst.dimension, (0.0, 0))
                totals[inst.dimension] = (total + loss, count + 1)
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if not math.isfinite(norm):
                raise FloatingPointError(
                    f"non-finite gradient norm {norm} at epoch {epoch}, batch start {start}")
            if config.clip_norm > 0 and norm > config.clip_norm:
                grads = {n: g * (config.clip_norm / norm) for n, g in grads.items()}
            if lr == 0.0:
                continue
            t += 1
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1 - b1) * g
                v[n] = b2 * v[n] + (1 - b2) * g * g
                arrays[n] -= lr * (m[n] / (1 - b1**t)) / (np.sqrt(v[n] / (1 - b2**t)) + eps)
        epoch_mean = sum(total / count for total, count in totals.values()) / len(totals)
        trace.append(epoch_mean)
        if config.early_stop_loss is not None and epoch_mean < config.early_stop_loss:
            break
    return trace
