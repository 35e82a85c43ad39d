"""Predicate-conditioned linear-chain tagger for role labeling.

The model is a first-order global linear model over position-tag sequences,
trained with the averaged structured perceptron.  Features are purely lexical
and positional (no POS tags, no parse).  Decoding is Viterbi constrained by
the tag grammar: a B-x run continues with I-x and closes with E-x, ``rel`` is
forced at the predicate token and forbidden elsewhere, so every decode is a
well-formed frame.  Training is sequential and fully deterministic given the
seed; per-epoch shuffling uses a private RNG.
"""

import math
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import repeat
from operator import add
from typing import NamedTuple

from l2srl.corpus import Corpus, text_lines, write_atomic
from l2srl.errors import (
    EmptyCorpus,
    InvalidPredicateIndex,
    NoValidPath,
    ParseError,
    VersionMismatch,
)
from l2srl.model import (
    AnnotatedSentence,
    O_TAG,
    POSITIONS,
    REL_TAG,
    is_position_tag,
    make_tag,
    spans_from_tags,
    split_tag,
    tags_from_spans,
)

MODEL_MAGIC = "SRLMODEL"
MODEL_VERSION = "v1"
PAD_START = "<s>"
PAD_END = "</s>"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    seed: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class TaggerModel:
    """Ordered label set plus sparse emission and transition weights."""

    labels: list[str]
    emissions: dict = field(default_factory=dict)  # (feature, label) -> weight
    transitions: dict = field(default_factory=dict)  # (prev label, label) -> weight


def build_label_set(role_labels) -> list[str]:
    """Canonical label order: O, rel, then S/B/I/E per sorted role label."""
    labels = [O_TAG, REL_TAG]
    for role in sorted(set(role_labels)):
        labels.extend(make_tag(position, role) for position in POSITIONS)
    return labels


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


def extract_features(
    sentence: AnnotatedSentence, predicate_index: int, position: int
) -> list[str]:
    """Feature template instantiation for one token position.

    Templates: current/previous/next word, the two word bigrams, predicate
    word and its neighbors, bucketed signed distance to the predicate, a
    predicate/side flag, and word x predicate and distance x predicate
    conjunctions.  Boundary positions use padding symbols.
    """
    forms = [t.form for t in sentence.tokens]
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


def _can_start(tag: str) -> bool:
    return split_tag(tag)[0] not in ("I", "E")


def _can_end(tag: str) -> bool:
    return split_tag(tag)[0] not in ("B", "I")


def _can_follow(prev: str, tag: str) -> bool:
    prev_pos, prev_label = split_tag(prev)
    pos, label = split_tag(tag)
    if prev_pos in ("B", "I"):
        return pos in ("I", "E") and label == prev_label
    return pos not in ("I", "E")


class Grammar(NamedTuple):
    """The tag grammar over label indices of one label set.

    ``predecessors[j]`` lists, ascending, every label index that may precede
    label ``j``; ``starts`` lists the labels a sequence may start with and
    ``ends[j]`` says whether one may end with label ``j``.
    """

    rel: int
    predecessors: tuple
    starts: tuple
    ends: tuple


@lru_cache(maxsize=16)
def compile_grammar(labels: tuple) -> Grammar:
    """Compile the tag grammar of ``labels`` from the reference predicates."""
    indices = range(len(labels))
    return Grammar(
        rel=labels.index(REL_TAG),
        predecessors=tuple(
            tuple(k for k in indices if _can_follow(labels[k], lab)) for lab in labels
        ),
        starts=tuple(j for j in indices if _can_start(labels[j])),
        ends=tuple(_can_end(lab) for lab in labels),
    )


def _lattice(grammar: Grammar, matrix) -> tuple:
    """The Viterbi lattice: per label ``j``, ``(j, pairs)`` where ``pairs``
    holds ``(k, matrix[k][j])`` for each legal predecessor ``k`` in order;
    ``matrix[k][j]`` weighs the transition from label ``k`` to ``j``."""
    return tuple(
        (j, tuple([(k, matrix[k][j]) for k in preds]))
        for j, preds in enumerate(grammar.predecessors)
    )


def _viterbi(grammar: Grammar, lattice, feats, rows, predicate_pos: int) -> list[int]:
    """Best grammar-valid label-index sequence; ties break toward earlier labels.

    ``feats[t]`` lists the features of token ``t`` and ``rows[f]`` holds
    feature ``f``'s weight per label, or a false value when it has none; a
    token scores each label by adding its features' rows in feature order.
    ``lattice`` is the transition lattice ``_lattice`` built for ``grammar``.
    The predicate token takes ``rel`` and every other token anything but
    ``rel``.  Raises NoValidPath when no valid sequence has a finite score.
    """
    neg = float("-inf")
    rel = grammar.rel
    size = len(grammar.ends)
    zero = [0] * size
    emit = []
    for token_feats in feats:
        # Adding the rows per label in feature order keeps float sums those
        # of sum(); skipping a missing row, or sum()'s leading int 0, can only
        # flip the sign of a zero score, which no comparison or later
        # non-zero sum sees.  A lone row is not copied, so no weight row may
        # change while this call runs.
        row = zero
        for f in token_feats:
            if hit := rows[f]:
                row = hit if row is zero else list(map(add, row, hit))
        emit.append(row)
    only_rel = lattice[rel : rel + 1]
    others = lattice[:rel] + lattice[rel + 1 :]
    scores = [neg] * size
    for j in grammar.starts:
        if (j == rel) == (predicate_pos == 0):
            scores[j] = emit[0][j]
    back = [None]
    for t in range(1, len(emit)):
        prev, row = scores, emit[t]
        scores = [neg] * size
        pointers = [-1] * size
        for j, pairs in only_rel if t == predicate_pos else others:
            best, best_k = neg, -1
            for k, w in pairs:
                candidate = prev[k] + w
                if candidate > best:
                    best, best_k = candidate, k
            if best_k >= 0:
                scores[j] = best + row[j]
                pointers[j] = best_k
        back.append(pointers)
    best, best_j = neg, -1
    for j, can_end in enumerate(grammar.ends):
        if scores[j] > best and can_end:
            best, best_j = scores[j], j
    if best_j < 0:
        raise NoValidPath("no grammar-valid tag sequence has a finite score")
    path = [best_j]
    for t in range(len(emit) - 1, 0, -1):
        path.append(back[t][path[-1]])
    path.reverse()
    return path


class _Scorer(dict):
    """Decoding state of one model, shared by the frames of one ``tag`` call.

    Holds the compiled grammar and the transition lattice, and is itself the
    memo from feature to its per-label emission row (``None`` when every
    weight is zero), filled on first lookup.  It reads the model's weights
    once, so it must not outlive a call: callers may change the model's
    dicts between calls.
    """

    def __init__(self, model: TaggerModel):
        labels = model.labels
        index = {lab: j for j, lab in enumerate(labels)}
        matrix = [[0] * len(labels) for _ in labels]
        for (prev, lab), w in model.transitions.items():
            if prev in index and lab in index:
                matrix[index[prev]][index[lab]] = w
        self.grammar = compile_grammar(tuple(labels))
        self.lattice = _lattice(self.grammar, matrix)
        self.weight = model.emissions.get
        self.labels = labels

    def __missing__(self, f):
        # weight((f, label), 0) for every label, in order
        weights = list(map(self.weight, zip(repeat(f), self.labels), repeat(0)))
        row = self[f] = weights if any(weights) else None
        return row


def viterbi_decode(
    model: TaggerModel,
    sentence: AnnotatedSentence,
    predicate_index: int,
    scorer: _Scorer | None = None,
) -> list[str]:
    """Decode the best tag sequence for one predicate of a sentence.

    ``scorer`` is the state ``tag`` shares across one sentence's frames;
    without it a fresh one is built from ``model``.
    """
    n = len(sentence.tokens)
    if not 1 <= predicate_index <= n:
        raise InvalidPredicateIndex(f"predicate index {predicate_index} outside 1..{n}")
    scorer = scorer if scorer is not None else _Scorer(model)
    feats = [extract_features(sentence, predicate_index, i) for i in range(1, n + 1)]
    path = _viterbi(scorer.grammar, scorer.lattice, feats, scorer, predicate_index - 1)
    return [model.labels[j] for j in path]


def _training_sequences(corpus: Corpus, index: dict):
    sequences = []
    for sentence in corpus.sentences:
        n = len(sentence.tokens)
        for frame in sentence.frames:
            gold = [index[lab] for lab in tags_from_spans(frame, n)]
            feats = [
                extract_features(sentence, frame.predicate_index, i)
                for i in range(1, n + 1)
            ]
            sequences.append((feats, gold, frame.predicate_index - 1))
    return sequences


def train(corpus: Corpus, config: TrainConfig | None = None) -> TaggerModel:
    """Averaged structured perceptron over one sequence per (sentence, frame).

    Weights stay integral during training (updates are feature-count
    differences), so averaging is an exact rational and runs with the same
    seed produce bit-identical models.  They are kept as feature -> per-label
    rows and a label x label transition matrix.  Beside each weight ``w``
    runs ``lagged``, the sum of ``d * (step - 1)`` over its updates ``d``;
    the mean of ``w`` over all ``steps`` steps is then
    ``(steps * w - lagged) / steps``.
    """
    config = config or TrainConfig()
    roles = {
        s.label for sent in corpus.sentences for f in sent.frames for s in f.spans
    }
    labels = build_label_set(roles)
    sequences = _training_sequences(corpus, {lab: j for j, lab in enumerate(labels)})
    if not sequences:
        raise EmptyCorpus("no (sentence, frame) training sequences in corpus")
    grammar = compile_grammar(tuple(labels))
    size = len(labels)
    # feature -> weight per label, None until the feature's first update
    emissions = dict.fromkeys(f for feats, _, _ in sequences for fs in feats for f in fs)
    emissions_lagged: dict = {}
    transitions = [[0] * size for _ in labels]  # [previous label][label]
    transitions_lagged = [[0] * size for _ in labels]
    lattice = None  # rebuilt after a step that updates a transition weight
    step = 0
    rng = random.Random(config.seed)
    order = list(range(len(sequences)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for index in order:
            lag = step
            step += 1
            feats, gold, predicate_pos = sequences[index]
            if lattice is None:
                lattice = _lattice(grammar, transitions)
            predicted = _viterbi(grammar, lattice, feats, emissions, predicate_pos)
            if predicted == gold:
                continue
            for t, (g, p) in enumerate(zip(gold, predicted)):
                if g != p:
                    for f in feats[t]:
                        if emissions[f] is None:
                            emissions[f] = [0] * size
                            emissions_lagged[f] = [0] * size
                        weights, lagged = emissions[f], emissions_lagged[f]
                        weights[g] += 1
                        weights[p] -= 1
                        lagged[g] += lag
                        lagged[p] -= lag
                if t and (gold[t - 1], g) != (predicted[t - 1], p):
                    transitions[gold[t - 1]][g] += 1
                    transitions[predicted[t - 1]][p] -= 1
                    transitions_lagged[gold[t - 1]][g] += lag
                    transitions_lagged[predicted[t - 1]][p] -= lag
                    lattice = None
    model = TaggerModel(labels=labels)
    tables = [
        (model.emissions, f, w, emissions_lagged[f]) for f, w in emissions.items() if w
    ]
    tables += [
        (model.transitions, labels[k], w, transitions_lagged[k])
        for k, w in enumerate(transitions)
    ]
    for target, first, weights, lagged in tables:
        for lab, w, lag in zip(labels, weights, lagged):
            if summed := step * w - lag:
                target[(first, lab)] = summed / step
    return model


def tag(
    model: TaggerModel, sentence: AnnotatedSentence, predicate_indices
) -> AnnotatedSentence:
    """Attach one decoded frame per given predicate position (gold predicates)."""
    n = len(sentence.tokens)
    indices = list(predicate_indices)
    if len(set(indices)) != len(indices):
        raise InvalidPredicateIndex("duplicate predicate indices")
    for index in indices:
        if not 1 <= index <= n:
            raise InvalidPredicateIndex(f"predicate index {index} outside 1..{n}")
    scorer = _Scorer(model) if indices else None
    frames = []
    for index in sorted(indices):
        tags = viterbi_decode(model, sentence, index, scorer)
        frames.append(spans_from_tags(tags))
    return replace(sentence, frames=tuple(frames))


def tag_corpus(model: TaggerModel, corpus: Corpus) -> Corpus:
    """Re-annotate every sentence at its own predicate positions."""
    out = []
    for sentence in corpus.sentences:
        predicates = [f.predicate_index for f in sentence.frames]
        out.append(tag(model, sentence, predicates))
    return Corpus(tuple(out))


def render_model(model: TaggerModel) -> bytes:
    """Canonical model file: header, label line, then sorted E/T weight rows."""
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}", "\t".join(model.labels)]
    for kind, table in (("E", model.emissions), ("T", model.transitions)):
        for a, b in sorted(table):
            if w := table[(a, b)]:
                lines.append(f"{kind}\t{a}\t{b}\t{float(w)!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_model(data: bytes) -> TaggerModel:
    lines = text_lines(data)
    if not lines:
        raise ParseError("truncated model file (no header)", 1)
    magic, _, version = lines[0].partition(" ")
    if magic != MODEL_MAGIC or not version:
        raise ParseError(f"not a model file (header {lines[0]!r})", 1)
    if version != MODEL_VERSION:
        raise VersionMismatch(f"unsupported model version {version!r}")
    if len(lines) < 2:
        raise ParseError("truncated model file (no label line)", 2)
    labels = lines[1].split("\t")
    _validate_label_set(labels)
    model = TaggerModel(labels=labels)
    known = set(labels)
    for n, line in enumerate(lines[2:], start=3):
        cells = line.split("\t")
        if len(cells) != 4:
            raise ParseError(f"weight row needs 4 columns, got {len(cells)}", n)
        kind, a, b, raw = cells
        try:
            weight = float(raw)
        except ValueError:
            raise ParseError(f"bad weight {raw!r}", n) from None
        if not math.isfinite(weight):
            raise ParseError(f"non-finite weight {raw!r}", n)
        if kind == "E":
            if b not in known:
                raise ParseError(f"unknown label {b!r}", n)
            target = model.emissions
        elif kind == "T":
            if a not in known or b not in known:
                raise ParseError(f"unknown label in transition {a!r} -> {b!r}", n)
            target = model.transitions
        else:
            raise ParseError(f"unknown row kind {kind!r}", n)
        if (a, b) in target:
            raise ParseError(f"duplicate {kind} row for {a!r} -> {b!r}", n)
        target[(a, b)] = weight
    return model


def _validate_label_set(labels) -> None:
    if O_TAG not in labels or REL_TAG not in labels:
        raise ParseError("label set must include O and rel", 2)
    roles = set()
    for label in labels:
        if not is_position_tag(label):
            raise ParseError(f"bad label {label!r} in label set", 2)
        position, role = split_tag(label)
        if position is not None:
            roles.add(role)
    for role in roles:
        for position in POSITIONS:
            if make_tag(position, role) not in labels:
                raise ParseError(
                    f"label set not closed under the tag grammar: missing {position}-{role}",
                    2,
                )
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate labels in label set", 2)


def load_model(path) -> TaggerModel:
    with open(path, "rb") as f:
        return parse_model(f.read())


def save_model(model: TaggerModel, path) -> None:
    write_atomic(path, render_model(model))
