"""Shared builders and brute-force reference implementations for tests.

The reference implementations here are deliberately literal (double loops,
full enumeration) and independent of the library code paths they check.
"""

import random
from dataclasses import replace
from functools import reduce
from itertools import combinations
from operator import add

from l2srl.corpus import Corpus, SentencePair
from l2srl.errors import NoValidPath
from l2srl.model import (
    CORE_LABELS,
    REL_TAG,
    Alignment,
    AnnotatedSentence,
    Frame,
    Span,
    spans_from_tags,
    spans_overlap,
    tags_from_spans,
)
from l2srl.oracle import ORACLE_SEQUENCE, OracleStage
from l2srl.scoring import _aligned, score
from l2srl.tagger import (
    PAD_END,
    PAD_START,
    TaggerModel,
    _can_end,
    _can_follow,
    _can_start,
    build_label_set,
    extract_features,
)

VOCAB = ("wa", "ni", "de", "ta", "shi", "ren", "chi", "zuo", "hao", "lai")


def sent(sid, forms, frames=(), lang="ENG", side="L2", pair=None):
    return AnnotatedSentence(
        id=sid,
        lang=lang,
        side=side,
        pair_id=pair if pair is not None else sid,
        forms=forms,
        frames=tuple(frames),
    )


def frame(predicate, *spans):
    return Frame(predicate, tuple(Span(s, e, lab) for s, e, lab in spans))


def corpus(*sentences):
    return Corpus(tuple(sentences))


def make_pair(l2_sentence, l1_sentence, links):
    return SentencePair(
        l2_sentence, l1_sentence, Alignment(l2_sentence.pair_id, frozenset(links))
    )


def identity_pair(sid, forms, frames, lang="ENG"):
    """L2 == L1 sentence with an identity alignment."""
    l2 = sent(f"{sid}.l2", forms, frames, lang=lang, side="L2", pair=sid)
    l1 = sent(f"{sid}.l1", forms, frames, lang=lang, side="L1", pair=sid)
    return make_pair(l2, l1, {(i, i) for i in range(len(forms))})


def random_frame(rng, n, predicate, labels=("A0", "A1", "A2", "AM")):
    """Random non-overlapping spans avoiding the predicate token."""
    spans = []
    i = 1
    while i <= n:
        if i == predicate:
            i += 1
            continue
        if rng.random() < 0.45:
            end = min(i + rng.randint(0, 2), n)
            if i <= predicate <= end:
                end = predicate - 1
            if end >= i:
                spans.append(Span(i, end, rng.choice(labels)))
                i = end + 2 if rng.random() < 0.5 else end + 1
                continue
        i += 1
    return Frame(predicate, tuple(spans))


def random_sentence(rng, sid, n_frames=1, length=None, lang=None, side=None):
    n = length if length is not None else rng.randint(3, 10)
    forms = [rng.choice(VOCAB) for _ in range(n)]
    predicates = sorted(rng.sample(range(1, n + 1), min(n_frames, n)))
    frames = tuple(random_frame(rng, n, p) for p in predicates)
    return sent(
        sid,
        forms,
        frames,
        lang=lang or rng.choice(("ENG", "JPN", "RUS", "ARA")),
        side=side or rng.choice(("L2", "L1")),
    )


def random_pred_gold_corpora(rng, n_sentences, labels=("A0", "A1", "A2", "AM")):
    """Same tokenization on both sides, independent random frames."""
    preds, golds = [], []
    for k in range(n_sentences):
        n = rng.randint(3, 9)
        forms = [rng.choice(VOCAB) for _ in range(n)]
        lang = rng.choice(("ENG", "JPN", "RUS", "ARA"))
        side = rng.choice(("L2", "L1"))
        n_frames = rng.randint(0, 2)
        all_preds = sorted(rng.sample(range(1, n + 1), min(3, n)))
        pred_frames = tuple(
            random_frame(rng, n, p, labels) for p in rng.sample(all_preds, n_frames)
        )
        gold_frames = tuple(
            random_frame(rng, n, p, labels)
            for p in rng.sample(all_preds, rng.randint(0, len(all_preds)))
        )
        pred_frames = tuple(sorted(pred_frames, key=lambda f: f.predicate_index))
        gold_frames = tuple(sorted(gold_frames, key=lambda f: f.predicate_index))
        sid = f"s{k}"
        preds.append(sent(sid, forms, pred_frames, lang=lang, side=side))
        golds.append(sent(sid, forms, gold_frames, lang=lang, side=side))
    return Corpus(tuple(preds)), Corpus(tuple(golds))


def brute_force_counts(pred_corpus, gold_corpus, am_coarse=False):
    """Literal span-triple counter: enumerate all (pred, gold) span pairs.

    Returns the total (matched, predicted, gold) and a dict of the same
    triple per label, with every AM-* label read as AM when am_coarse.
    """
    per_label = {}

    def bump(label, k):
        per_label.setdefault(label, [0, 0, 0])[k] += 1

    def triple(s):
        label = "AM" if am_coarse and s.label.startswith("AM-") else s.label
        return s.start, s.end, label

    gold_by_id = {s.id: s for s in gold_corpus.sentences}
    for p_sent in pred_corpus.sentences:
        g_sent = gold_by_id[p_sent.id]
        p_frames = {f.predicate_index: f for f in p_sent.frames}
        g_frames = {f.predicate_index: f for f in g_sent.frames}
        for idx in set(p_frames) | set(g_frames):
            p_spans = [triple(s) for s in p_frames[idx].spans] if idx in p_frames else []
            g_spans = [triple(s) for s in g_frames[idx].spans] if idx in g_frames else []
            for ps in p_spans:
                bump(ps[2], 1)
            for gs in g_spans:
                bump(gs[2], 2)
            used = set()
            for ps in p_spans:
                for gi, gs in enumerate(g_spans):
                    if gi in used:
                        continue
                    if ps == gs:
                        bump(ps[2], 0)
                        used.add(gi)
                        break
    totals = tuple(sum(counts[k] for counts in per_label.values()) for k in range(3))
    return totals, {label: tuple(counts) for label, counts in per_label.items()}


def brute_force_prf(pred_corpus, gold_corpus, am_coarse=False):
    (matched, predicted, gold), _ = brute_force_counts(pred_corpus, gold_corpus, am_coarse)
    p = 100.0 * matched / predicted if predicted else 0.0
    r = 100.0 * matched / gold if gold else 0.0
    f = 2.0 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def brute_force_shared(links, l2_tuples, l1_tuples, coarse):
    """Literal double loop over every (L2 tuple, L1 tuple) pair."""

    def same_role(a, b):
        if coarse:
            a = "AM" if a.startswith("AM") else a
            b = "AM" if b.startswith("AM") else b
        return a == b

    def linked(t, u):
        return (
            same_role(t.role, u.role)
            and (t.predicate - 1, u.predicate - 1) in links
            and (t.argument - 1, u.argument - 1) in links
        )

    matched_l2 = {t for t in l2_tuples if any(linked(t, u) for u in l1_tuples)}
    matched_l1 = {u for u in l1_tuples if any(linked(t, u) for t in l2_tuples)}
    return matched_l2, matched_l1


def _distance_bucket(d: int) -> str:
    if d == 0:
        return "0"
    sign = "-" if d < 0 else "+"
    m = abs(d)
    if m <= 2:
        return f"{sign}{m}"
    if m <= 5:
        return f"{sign}3-5"
    return f"{sign}>5"


def reference_features(
    sentence: AnnotatedSentence, predicate_index: int, position: int
) -> list[str]:
    """Feature template instantiation for one token position.

    Templates: current/previous/next word, the two word bigrams, predicate
    word and its neighbors, bucketed signed distance to the predicate, a
    predicate/side flag, and word x predicate and distance x predicate
    conjunctions.  Boundary positions use padding symbols.
    """
    forms = sentence.forms
    n = len(forms)

    def word(i: int) -> str:
        if i < 1:
            return PAD_START
        if i > n:
            return PAD_END
        return forms[i - 1]

    w0 = word(position)
    wm1 = word(position - 1)
    wp1 = word(position + 1)
    pw = word(predicate_index)
    d = position - predicate_index
    bucket = _distance_bucket(d)
    feats = [
        f"w0={w0}",
        f"w-1={wm1}",
        f"w+1={wp1}",
        f"w-1|w0={wm1}|{w0}",
        f"w0|w+1={w0}|{wp1}",
        f"pw={pw}",
        f"pw-1={word(predicate_index - 1)}",
        f"pw+1={word(predicate_index + 1)}",
        f"dist={bucket}",
        f"w0&pw={w0}|{pw}",
        f"dist&pw={bucket}|{pw}",
    ]
    if d == 0:
        feats.append("is_pred")
    else:
        feats.append("side=left" if d < 0 else "side=right")
    return feats


def reference_viterbi(labels, emissions, transitions, feats, predicate_pos):
    """String-keyed grammar-constrained Viterbi straight from the predicates.

    Re-checks ``_can_follow`` and looks the weights up by tag strings at
    every cell; ties break toward earlier labels.  Emission rows add left to
    right from 0, as the decoder does; ``sum`` would not, since from Python
    3.12 it compensates float rounding.  Returns tag strings, or raises
    NoValidPath when no valid sequence has a finite score.
    """
    n = len(feats)
    neg = float("-inf")
    emit = [
        [reduce(add, (emissions.get((f, lab), 0) for f in feats[t]), 0) for lab in labels]
        for t in range(n)
    ]

    def allowed(t, lab):
        if t == predicate_pos:
            return lab == REL_TAG
        return lab != REL_TAG

    scores = [[neg] * len(labels) for _ in range(n)]
    back = [[-1] * len(labels) for _ in range(n)]
    for j, lab in enumerate(labels):
        if allowed(0, lab) and _can_start(lab):
            scores[0][j] = emit[0][j]
    for t in range(1, n):
        for j, lab in enumerate(labels):
            if not allowed(t, lab):
                continue
            best, best_k = neg, -1
            for k, prev in enumerate(labels):
                if scores[t - 1][k] == neg or not _can_follow(prev, lab):
                    continue
                candidate = scores[t - 1][k] + transitions.get((prev, lab), 0)
                if candidate > best:
                    best, best_k = candidate, k
            if best_k >= 0:
                scores[t][j] = best + emit[t][j]
                back[t][j] = best_k
    best, best_j = neg, -1
    for j, lab in enumerate(labels):
        if scores[n - 1][j] > best and _can_end(lab):
            best, best_j = scores[n - 1][j], j
    if best_j < 0:
        raise NoValidPath("no grammar-valid tag sequence has a finite score")
    path = [best_j]
    for t in range(n - 1, 0, -1):
        path.append(back[t][path[-1]])
    path.reverse()
    return [labels[j] for j in path]


def reference_train(corpus, config):
    """Literal averaged structured perceptron with string keys.

    Visits the (sentence, frame) sequences in ``train``'s shuffled order,
    decodes each with ``reference_viterbi`` and applies the same update; after
    every step it adds every weight to its running total, and the model
    keeps each non-zero total divided by the number of steps.
    """
    roles = {s.label for sent in corpus.sentences for f in sent.frames for s in f.spans}
    labels = build_label_set(roles)
    sequences = []
    for sentence in corpus.sentences:
        n = len(sentence.tokens)
        for fr in sentence.frames:
            feats = [extract_features(sentence, fr.predicate_index, i) for i in range(1, n + 1)]
            sequences.append((feats, tags_from_spans(fr, n), fr.predicate_index - 1))
    emissions, transitions = {}, {}
    emission_totals, transition_totals = {}, {}
    steps = 0
    rng = random.Random(config.seed)
    order = list(range(len(sequences)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for index in order:
            feats, gold, predicate_pos = sequences[index]
            predicted = reference_viterbi(labels, emissions, transitions, feats, predicate_pos)
            for t in range(len(gold)):
                if gold[t] != predicted[t]:
                    for f in feats[t]:
                        emissions[(f, gold[t])] = emissions.get((f, gold[t]), 0) + 1
                        emissions[(f, predicted[t])] = emissions.get((f, predicted[t]), 0) - 1
                if t > 0 and (gold[t - 1], gold[t]) != (predicted[t - 1], predicted[t]):
                    g, p = (gold[t - 1], gold[t]), (predicted[t - 1], predicted[t])
                    transitions[g] = transitions.get(g, 0) + 1
                    transitions[p] = transitions.get(p, 0) - 1
            steps += 1
            for weights, totals in (emissions, emission_totals), (transitions, transition_totals):
                for key, w in weights.items():
                    totals[key] = totals.get(key, 0) + w
    model = TaggerModel(labels=labels)
    for totals, target in (
        (emission_totals, model.emissions),
        (transition_totals, model.transitions),
    ):
        for key, total in totals.items():
            if total:
                target[key] = total / steps
    return model


def reference_tag_corpus(model, corpus):
    """Re-annotate every sentence with ``reference_viterbi``: one decode per
    predicate position, frames in predicate order."""
    sentences = []
    for s in corpus.sentences:
        n = len(s.forms)
        frames = []
        for p in sorted(f.predicate_index for f in s.frames):
            feats = [extract_features(s, p, i) for i in range(1, n + 1)]
            tags = reference_viterbi(model.labels, model.emissions, model.transitions, feats, p - 1)
            frames.append(spans_from_tags(tags))
        sentences.append(replace(s, frames=tuple(frames)))
    return Corpus(tuple(sentences))


def reference_render_model(model):
    """The canonical model bytes, written one weight cell at a time, each
    weight as ``repr(float(w))``."""
    lines = ["SRLMODEL v1", "\t".join(model.labels)]
    for f in sorted(model.rows):
        for label in sorted(model.labels):
            w = model.rows[f][model.labels.index(label)]
            if w:
                lines.append(f"E\t{f}\t{label}\t{repr(float(w))}")
    for a, b in sorted(model.transitions):
        w = model.transitions[(a, b)]
        if w:
            lines.append(f"T\t{a}\t{b}\t{repr(float(w))}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _with_empty_counterparts(pred_s, gold_s):
    """Give the predicted sentence an empty frame for every gold-only predicate."""
    have = {f.predicate_index for f in pred_s.frames}
    missing = [
        Frame(f.predicate_index)
        for f in gold_s.frames
        if f.predicate_index not in have
    ]
    if not missing:
        return pred_s
    frames = tuple(sorted(pred_s.frames + tuple(missing), key=lambda f: f.predicate_index))
    return replace(pred_s, frames=frames)


def _fits(span, others, predicate_index):
    if span.covers(predicate_index):
        return False
    return not any(spans_overlap(span, other) for other in others)


def _without(spans, *removed):
    gone = set(removed)
    return [s for s in spans if s not in gone]


def _reframed(pred, spans):
    return pred if spans is pred.spans else Frame(pred.predicate_index, tuple(spans))


def _ref_fix(pred, gold):
    by_bounds = {(g.start, g.end): g.label for g in gold.spans}
    new = tuple(Span(s, e, by_bounds.get((s, e), label)) for s, e, label in pred.spans)
    return pred if new == pred.spans else Frame(pred.predicate_index, new)


def _ref_move(pred, gold):
    spans = pred.spans
    for label in CORE_LABELS:
        mine = [s for s in spans if s.label == label]
        theirs = [g for g in gold.spans if g.label == label]
        if len(mine) != 1 or len(theirs) != 1 or mine[0] == theirs[0]:
            continue
        rest = _without(spans, mine[0])
        if _fits(theirs[0], rest, pred.predicate_index):
            spans = rest + [theirs[0]]
    return _reframed(pred, spans)


def _ref_merge(pred, gold):
    extents = {(g.start, g.end) for g in gold.spans}
    spans = pred.spans
    while True:
        # Only sorted pairs with a gap of 0-1 that join into a gold extent
        # can merge; on a frame with none, this returns pred at once.
        joins = [(a, b) for a, b in combinations(sorted(spans), 2)
                 if 0 < b.start - a.end < 3 and (a.start, b.end) in extents]
        merged = next((
            rest + [g]
            for g in gold.spans
            for a, b in joins
            if (a.start, b.end) == (g.start, g.end)
            for rest in [_without(spans, a, b)]
            if _fits(g, rest, pred.predicate_index)
        ), None)
        if merged is None:
            return _reframed(pred, spans)
        spans = merged


def _ref_split(pred, gold):
    # Only a span whose extent two gold spans with a gap of 0-1 tile can
    # split; on a frame with none, this returns pred at once.
    tiles = [(g1, g2) for g1, g2 in combinations(gold.spans, 2) if 0 < g2.start - g1.end < 3]
    extents = {(g1.start, g2.end) for g1, g2 in tiles}
    spans = pred.spans
    while True:
        split = next((
            rest + [g1, g2]
            for s in sorted(spans)
            if (s.start, s.end) in extents
            for g1, g2 in tiles
            if (g1.start, g2.end) == (s.start, s.end)
            for rest in [_without(spans, s)]
            if _fits(g1, rest, pred.predicate_index)
            and _fits(g2, rest + [g1], pred.predicate_index)
        ), None)
        if split is None:
            return _reframed(pred, spans)
        spans = split


def _ref_boundary(pred, gold):
    spans = pred.spans
    for s in pred.spans:
        if s not in spans:
            continue
        candidates = [
            g
            for g in gold.spans
            if g.label == s.label
            and spans_overlap(s, g)
            and (g.start, g.end) != (s.start, s.end)
        ]
        if not candidates:
            continue

        def overlap_size(g):
            return min(s.end, g.end) - max(s.start, g.start) + 1

        best = sorted(candidates, key=lambda g: (-overlap_size(g), g.start))[0]
        rest = _without(spans, s)
        if _fits(best, rest, pred.predicate_index):
            spans = rest + [best]
    return _reframed(pred, spans)


def _ref_drop(pred, gold):
    # Keeping only exact matches (rather than anything overlapping gold)
    # guarantees the add stage can complete the frame.
    keep = set(gold.spans)
    kept = tuple(s for s in pred.spans if s in keep)
    return pred if len(kept) == len(pred.spans) else Frame(pred.predicate_index, kept)


def _ref_add(pred, gold):
    spans = pred.spans
    for g in gold.spans:
        if not any(spans_overlap(g, s) for s in spans):
            spans = spans + (g,)
    return _reframed(pred, spans)


_REFERENCE_TRANSFORMS = {
    "fix": _ref_fix,
    "move": _ref_move,
    "merge": _ref_merge,
    "split": _ref_split,
    "boundary": _ref_boundary,
    "drop": _ref_drop,
    "add": _ref_add,
}


def reference_apply_oracle(pred, gold, kind):
    """One oracle transform as first written: per-span overlap checks, new
    Spans on every relabel, and a sorted candidate list in boundary.  Like
    ``apply_oracle`` it returns ``pred`` itself when nothing changes."""
    return _REFERENCE_TRANSFORMS[kind](pred, gold)


def reference_oracle_sequence(pred, gold, am_coarse=False):
    """Full-rescore oracle: apply each reference transform to every frame,
    then score the whole corpus again after every stage."""
    sentences = []
    gold_frames_by_id = {}
    for pred_s, gold_s in _aligned(pred, gold):
        sentences.append(_with_empty_counterparts(pred_s, gold_s))
        gold_frames_by_id[gold_s.id] = {f.predicate_index: f for f in gold_s.frames}
    current = Corpus(tuple(sentences))
    baseline = score(current, gold, am_coarse)
    f_before = baseline.f1
    stages = []
    for kind in ORACLE_SEQUENCE:
        transformed = []
        for s in current.sentences:
            gold_frames = gold_frames_by_id[s.id]
            frames = tuple(
                reference_apply_oracle(
                    f, gold_frames.get(f.predicate_index, Frame(f.predicate_index)), kind
                )
                for f in s.frames
            )
            transformed.append(replace(s, frames=frames))
        current = Corpus(tuple(transformed))
        report = score(current, gold, am_coarse)
        stages.append(OracleStage(kind, report, f_before))
        f_before = report.f1
    return baseline, stages


def reference_render_corpus(corpus):
    """The canonical corpus bytes, written one token line at a time, each
    tag read off the frame's spans at that position."""

    def tag(f, index):
        if index == f.predicate_index:
            return REL_TAG
        for span in f.spans:
            if span.start <= index <= span.end:
                if span.start == span.end:
                    return f"S-{span.label}"
                if index == span.start:
                    return f"B-{span.label}"
                return f"E-{span.label}" if index == span.end else f"I-{span.label}"
        return "O"

    text = ""
    for s in corpus.sentences:
        text += f"# id = {s.id}\n# lang = {s.lang}\n# side = {s.side}\n# pair = {s.pair_id}\n"
        for index, form in enumerate(s.forms, start=1):
            marker = "Y" if any(f.predicate_index == index for f in s.frames) else "_"
            cells = [str(index), form, marker] + [tag(f, index) for f in s.frames]
            text += "\t".join(cells) + "\n"
        text += "\n"
    return text.encode("utf-8")


def reference_align(l2, l1):
    """Form-identity aligner with a full LCS table: LCS links first, then a
    greedy nearest-position pass over the remaining identical forms."""
    a = [t.form for t in l2.tokens]
    b = [t.form for t in l1.tokens]
    n, m = len(a), len(b)
    lengths = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                lengths[i][j] = lengths[i + 1][j + 1] + 1
            else:
                lengths[i][j] = max(lengths[i + 1][j], lengths[i][j + 1])
    links = set()
    used_i, used_j = set(), set()
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j] and lengths[i][j] == lengths[i + 1][j + 1] + 1:
            links.add((i, j))
            used_i.add(i)
            used_j.add(j)
            i += 1
            j += 1
        elif lengths[i + 1][j] >= lengths[i][j + 1]:
            i += 1
        else:
            j += 1
    for i in range(n):
        if i in used_i:
            continue
        candidates = [j for j in range(m) if j not in used_j and b[j] == a[i]]
        if not candidates:
            continue
        j = min(candidates, key=lambda j: (abs(j - i), j))
        links.add((i, j))
        used_i.add(i)
        used_j.add(j)
    return Alignment(l2.pair_id, frozenset(links))


HELD_OUT_AGENTS = ["nilo", "pexa", "quib", "rost"]
HELD_OUT_PATIENTS = ["vun", "wex", "yalt", "zorb"]
HELD_OUT_VERBS = ["jumpa", "liftu", "mendo", "pusht"]


def held_out_sentence(sid, k, side, correct=True, lang="ENG", pair=None):
    """Vocabulary and argument order unseen in the toy training corpus.

    Patient-first order: gold is (1,1,A1) (3,3,A0), so a model that only
    learned positional cues from the agent-first toy corpus mislabels it.
    ``correct=False`` swaps the labels, producing gold-inconsistent frames.
    """
    forms = [
        HELD_OUT_PATIENTS[k % 4],
        HELD_OUT_VERBS[(k // 4) % 4],
        HELD_OUT_AGENTS[(k + k // 4) % 4],
    ]
    if correct:
        frames = [frame(2, (1, 1, "A1"), (3, 3, "A0"))]
    else:
        frames = [frame(2, (1, 1, "A0"), (3, 3, "A1"))]
    return sent(sid, forms, frames, lang=lang, side=side, pair=pair)


def build_retrain_fixture(root, pool_pairs=200, good_pairs=50):
    """Write a full retrain setup under ``root`` and return the config path.

    The pool holds ``good_pairs`` identical, correctly-annotated pairs of
    held-out-vocabulary sentences (selected at p=0.9) and inconsistent pairs
    for the rest (L2 and L1 labels disagree, so both recalls are 0).
    """
    root.mkdir(parents=True, exist_ok=True)
    from l2srl.corpus import render_corpus

    (root / "train.tsv").write_bytes(render_corpus(toy_separable_corpus()))
    pool_l2, pool_l1 = [], []
    for k in range(pool_pairs):
        pid = f"pool{k}"
        good = k < good_pairs
        pool_l2.append(
            held_out_sentence(f"{pid}.l2", k, "L2", correct=good, pair=pid)
        )
        pool_l1.append(
            held_out_sentence(f"{pid}.l1", k, "L1", correct=True, pair=pid)
        )
    (root / "pool_l2.tsv").write_bytes(render_corpus(Corpus(tuple(pool_l2))))
    (root / "pool_l1.tsv").write_bytes(render_corpus(Corpus(tuple(pool_l1))))
    dev = Corpus(
        tuple(held_out_sentence(f"dev{k}", k, "L2" if k % 2 else "L1") for k in range(8))
    )
    test_l2 = Corpus(
        tuple(held_out_sentence(f"t{k}.l2", k, "L2") for k in range(16))
    )
    test_l1 = Corpus(
        tuple(held_out_sentence(f"t{k}.l1", k + 1, "L1") for k in range(16))
    )
    (root / "dev.tsv").write_bytes(render_corpus(dev))
    (root / "test_l2.tsv").write_bytes(render_corpus(test_l2))
    (root / "test_l1.tsv").write_bytes(render_corpus(test_l1))
    config = root / "retrain.cfg"
    config.write_text(
        "train = train.tsv\n"
        "pool_l2 = pool_l2.tsv\n"
        "pool_l1 = pool_l1.tsv\n"
        "dev = dev.tsv\n"
        "test_l2 = test_l2.tsv\n"
        "test_l1 = test_l1.tsv\n"
        "alignments = heuristic\n"
        "tag_pool = false\n"
        "p = 0.9\n"
        "epochs = 10\n"
        "seed = 1\n"
        f"out = {root / 'run'}\n",
        encoding="utf-8",
    )
    return config


def toy_separable_corpus():
    """20 sentences where every role is keyed by a unique cue word.

    Linearly separable by construction, so the perceptron must reach
    training F = 100 within the default epoch budget.
    """
    agents = ["kip", "mora", "tavi", "zun"]
    patients = ["lem", "rudo", "fein", "galt"]
    adjuncts = ["soon", "hapt", "offa", "awey"]
    verbs = ["runsa", "taket", "givon", "seest"]
    sentences = []
    k = 0
    for i in range(4):
        for j in range(4):
            forms = [agents[i], verbs[(i + j) % 4], patients[j]]
            frames = [frame(2, (1, 1, "A0"), (3, 3, "A1"))]
            if (i + j) % 2 == 0:
                forms.append(adjuncts[(i * 2 + j) % 4])
                frames = [frame(2, (1, 1, "A0"), (3, 3, "A1"), (4, 4, "AM"))]
            sentences.append(sent(f"toy{k}", forms, frames, side="L1"))
            k += 1
    for i in range(4):
        # two-token patient spans with dedicated begin/end cue words
        forms = [agents[i], verbs[i], "bron", "dell"]
        sentences.append(sent(f"toy{k}", forms, [frame(2, (1, 1, "A0"), (3, 4, "A1"))], side="L1"))
        k += 1
    return Corpus(tuple(sentences))


REPLAY_NOUNS = ("mako", "tiv", "sorn", "pell", "drue", "kesh", "lom", "wiba")
REPLAY_VERBS = ("grask", "plon", "vitu", "snar")
REPLAY_ADVERBS = ("oft", "yonder", "quel")


def replay_sentence(rng, sid, side, pair=None):
    """Noun(s) verb noun [adverb], sometimes followed by a second verb and
    noun.  The agent (A0) usually comes before its verb, but a quarter of the
    frames swap A0 and A1, so no model tags every sentence right."""
    forms, frames = [], []
    for _ in range(rng.choice((1, 1, 2))):
        agent = [rng.choice(REPLAY_NOUNS) for _ in range(rng.choice((1, 1, 2)))]
        start = len(forms) + 1
        forms += agent + [rng.choice(REPLAY_VERBS), rng.choice(REPLAY_NOUNS)]
        verb = start + len(agent)
        first, second = ("A1", "A0") if rng.random() < 0.25 else ("A0", "A1")
        spans = [(start, verb - 1, first), (verb + 1, verb + 1, second)]
        if rng.random() < 0.4:
            forms.append(rng.choice(REPLAY_ADVERBS))
            spans.append((len(forms), len(forms), "AM"))
        frames.append(frame(verb, *spans))
    return sent(sid, forms, frames, side=side, pair=pair)


def build_replay_fixture(root, seed=2):
    """Write a small ``tag_pool = true`` retrain setup under ``root`` and
    return the config path.

    A third of the pool pairs have identical sides; on the rest the L2 side
    swaps one noun for another or shuffles its words (the frames stay), so
    the baseline often tags the two sides differently and the aligner's
    LCS has ties to break.  One more pair leaves the aligner's greedy pass
    a tie between two equally near positions.  At ``p = 0.9`` the run
    selects some pairs but not all, and both models score F strictly
    between 0 and 100 on every evaluation split.
    """
    from l2srl.corpus import render_corpus

    rng = random.Random(seed)
    root.mkdir(parents=True, exist_ok=True)

    def write(name, sentences):
        (root / name).write_bytes(render_corpus(Corpus(tuple(sentences))))

    write("train.tsv", [replay_sentence(rng, f"tr{k}", "L1") for k in range(24)])
    pool_l2, pool_l1 = [], []
    for k in range(12):
        l1 = replay_sentence(rng, f"p{k}.l1", "L1", pair=f"p{k}")
        forms = list(l1.forms)
        if k % 3 == 1:
            nouns = [i for i, form in enumerate(forms) if form in REPLAY_NOUNS]
            forms[rng.choice(nouns)] = rng.choice(REPLAY_NOUNS)
        elif k % 3 == 2:
            rng.shuffle(forms)
        pool_l2.append(replace(l1, id=f"p{k}.l2", side="L2", forms=forms))
        pool_l1.append(l1)
    # Two L2 "mako"s left to the greedy pass, each as near to one L1 "mako"
    # as to the other; the tie goes to the earlier position.
    pool_l1.append(sent("tie.l1", ["mako", "tiv", "kesh", "grask", "mako"],
                        [frame(4)], side="L1", pair="tie"))
    pool_l2.append(sent("tie.l2", ["tiv", "kesh", "mako", "mako", "grask"],
                        [frame(5)], side="L2", pair="tie"))
    write("pool_l2.tsv", pool_l2)
    write("pool_l1.tsv", pool_l1)
    write("dev.tsv", [replay_sentence(rng, f"dv{k}", "L1") for k in range(8)])
    write("test_l2.tsv", [replay_sentence(rng, f"te{k}", "L2") for k in range(8)])
    write("test_l1.tsv", [replay_sentence(rng, f"tf{k}", "L1") for k in range(8)])
    config = root / "retrain.cfg"
    config.write_text(
        "train = train.tsv\npool_l2 = pool_l2.tsv\npool_l1 = pool_l1.tsv\n"
        "dev = dev.tsv\ntest_l2 = test_l2.tsv\ntest_l1 = test_l1.tsv\n"
        "alignments = heuristic\ntag_pool = true\np = 0.9\nepochs = 3\nseed = 1\n"
        f"out = {root / 'run'}\n",
        encoding="utf-8",
    )
    return config
