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
import struct
from collections import defaultdict
from collections.abc import MutableMapping
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import repeat
from operator import add, is_, itemgetter
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
    """Ordered label set plus sparse emission and transition weights.

    ``rows`` maps a feature to its weight per label, in ``labels`` order, with
    a zero weight stored as the int ``0``; only features with a non-zero
    weight have a row.  ``emissions`` is the same weights keyed by
    ``(feature, label)``, a fresh view on each read; ``labels`` may be
    reordered in place, not resized.
    Decoding reuses one ``(grammar, lattice)`` pair until ``labels`` or a
    transition weight changes (see ``_scorer``).
    """

    labels: list[str]
    rows: dict = field(default_factory=dict)  # feature -> weight per label
    transitions: dict = field(default_factory=dict)  # (prev label, label) -> weight

    @property
    def emissions(self) -> "Emissions":
        return Emissions(self)


class Emissions(MutableMapping):
    """A model's emission weights as a ``(feature, label) -> weight`` mapping.

    Reads and writes go through to ``rows`` at the label's current index in
    ``labels``.  A zero weight is absent: writing one deletes the cell, and a
    row left all zero is dropped.  Writing an unknown label raises KeyError,
    and reaching a row whose length is not the number of labels ValueError.
    """

    def __init__(self, model: TaggerModel):
        self._rows = model.rows
        self._labels = model.labels

    def get(self, key, default=None):
        f, lab = key
        if (row := self._rows.get(f)) is None or lab not in self._labels:
            return default
        _check_rows((row,), len(self._labels))
        return row[self._labels.index(lab)] or default

    def __getitem__(self, key):
        if (w := self.get(key)) is None:
            raise KeyError(key)
        return w

    def __setitem__(self, key, weight):
        f, lab = key
        try:
            j = self._labels.index(lab)
        except ValueError:
            raise KeyError(lab) from None
        row = self._rows.setdefault(f, [0] * len(self._labels))
        _check_rows((row,), len(self._labels))
        row[j] = weight or 0
        if not any(row):
            del self._rows[f]

    def __delitem__(self, key):
        if self.get(key) is None:
            raise KeyError(key)
        self[key] = 0

    def __iter__(self):
        for f, row in self._rows.items():
            for lab, w in zip(self._labels, row):
                if w:
                    yield f, lab

    def __len__(self):
        return sum(len(row) - row.count(0) for row in self._rows.values())


def _check_rows(rows, size: int) -> None:
    """ValueError unless each of ``rows`` holds ``size`` weights."""
    if any(len(row) != size for row in rows):
        raise ValueError(f"an emission row does not hold one weight per label ({size})")


def _label_index(labels) -> dict:
    """Label -> its position in ``labels``."""
    return {lab: j for j, lab in enumerate(labels)}


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


# ``(dist feature, bucket, side feature)`` per distance -6..6, where -6 and 6
# stand for every distance past 5 on their side.
_DISTANCE = tuple(
    (f"dist={b}", b, "is_pred" if d == 0 else "side=left" if d < 0 else "side=right")
    for d in range(-6, 7)
    for b in [_distance_bucket(d)]
)


def _window(forms, i: int) -> list[str]:
    """The words at 1-based positions ``i - 1``, ``i`` and ``i + 1``, padded."""
    n = len(forms)
    return [
        forms[k - 1] if 0 < k <= n else PAD_START if k < 1 else PAD_END
        for k in (i - 1, i, i + 1)
    ]


def extract_features(
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
    if 1 < position < n:
        wm1, w0, wp1 = forms[position - 2 : position + 1]
    else:
        wm1, w0, wp1 = _window(forms, position)
    if 1 < predicate_index < n:
        pwm1, pw, pwp1 = forms[predicate_index - 2 : predicate_index + 1]
    else:
        pwm1, pw, pwp1 = _window(forms, predicate_index)
    d = position - predicate_index
    dist, bucket, side = _DISTANCE[d + 6 if -6 < d < 6 else 0 if d < 0 else 12]
    return [
        f"w0={w0}",
        f"w-1={wm1}",
        f"w+1={wp1}",
        f"w-1|w0={wm1}|{w0}",
        f"w0|w+1={w0}|{wp1}",
        f"pw={pw}",
        f"pw-1={pwm1}",
        f"pw+1={pwp1}",
        dist,
        f"w0&pw={w0}|{pw}",
        f"dist&pw={bucket}|{pw}",
        side,
    ]


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
    label ``j``.  ``closed`` is the predecessor list of ``rel``: the labels
    that close a run (O, rel, S-x, E-x), which are also the labels a sequence
    may end with.  ``opening`` lists the other labels with exactly those
    predecessors (O, S-x, B-x) and ``inner`` the rest (I-x, E-x); ``rel`` and
    ``opening`` are the labels a sequence may start with.
    """

    rel: int
    predecessors: tuple
    closed: tuple
    opening: tuple
    inner: tuple


@lru_cache(maxsize=16)
def compile_grammar(labels: tuple) -> Grammar:
    """Compile the tag grammar of ``labels`` from the reference predicates.

    Raises ValueError for a list that repeats a label or has no ``rel``.
    """
    if len(set(labels)) != len(labels):
        repeated = sorted({lab for lab in labels if labels.count(lab) > 1})
        raise ValueError(f"label list repeats {', '.join(repeated)}")
    if REL_TAG not in labels:
        raise ValueError(f"label list has no {REL_TAG!r} label")
    indices = range(len(labels))
    rel = labels.index(REL_TAG)
    predecessors = tuple(
        tuple(k for k in indices if _can_follow(labels[k], lab)) for lab in labels
    )
    closed = predecessors[rel]
    return Grammar(
        rel=rel,
        predecessors=predecessors,
        closed=closed,
        opening=tuple(j for j in indices if j != rel and predecessors[j] == closed),
        inner=tuple(j for j in indices if predecessors[j] != closed),
    )


def _entry(grammar: Grammar, j: int, column) -> tuple:
    """Label ``j``'s lattice entry; ``column[k]`` weighs the transition k -> j.

    A label whose predecessors are ``grammar.closed`` gets ``(j, top,
    column)``, ``top`` being the largest of those predecessors' weights; any
    other label gets ``(j, k1, w1, k2, w2)``: its predecessors ``k1 < k2``
    with their weights.  A label with fewer than two predecessors (in a label
    list not closed under the grammar) is padded with a dead ``(j, -inf)``
    slot.  None has more, as ``compile_grammar`` rejects repeated labels.
    """
    if j in grammar.inner:
        slots = [(k, column[k]) for k in grammar.predecessors[j]]
        (k1, w1), (k2, w2) = slots + [(j, float("-inf"))] * (2 - len(slots))
        return j, k1, w1, k2, w2
    # max() skips a NaN unless it comes first; a NaN top only stops pruning
    return j, max([column[k] for k in grammar.closed]), column


_first = itemgetter(0)


def _viterbi(grammar: Grammar, lattice, emit, predicate_pos: int) -> list[int]:
    """Best grammar-valid label-index sequence; ties break toward earlier labels.

    ``emit[t][j]`` scores label ``j`` at token ``t``, and ``lattice`` holds
    one ``_entry`` per label of ``grammar``.  The predicate token takes
    ``rel`` and every other token anything but ``rel``.  Raises NoValidPath
    when no valid sequence has a finite score.  Scores of -inf or NaN are
    dead: they never win a comparison.

    A label whose predecessors are the closed labels takes the best-ranked
    live closed label as its first candidate, then scans the rest best score
    first and stops at the first ``k`` with ``prev[k] + top < best``: float
    addition rounds monotonically (and int weights, as ``train`` uses, add
    exactly below 2**53), so no later candidate reaches or ties ``best``, and
    the result is that of a full scan in index order.  That test is first
    made for the second-ranked label, before the scan: when it holds, the
    label settles on the best-ranked one, where each token's pointers start;
    a tie, a dead sum or a NaN ``top`` fails it and takes the scan.  With no
    live closed label these labels stay dead.  An I-x or E-x label compares
    its two predecessor slots directly; the first wins a tie.
    """
    neg = float("-inf")
    rel = grammar.rel
    size = len(lattice)
    closed = grammar.closed
    only_rel = [lattice[rel]]
    opening = [lattice[j] for j in grammar.opening]
    inner = [lattice[j] for j in grammar.inner]
    scores = [neg] * size
    for j in (rel, *grammar.opening):
        if (j == rel) == (predicate_pos == 0):
            scores[j] = emit[0][j]
    back = [None]
    for t in range(1, len(emit)):
        prev, row = scores, emit[t]
        scores = [neg] * size
        at_rel = t == predicate_pos
        # Live closed labels, best score first; the sort is stable, so ties
        # keep ascending index order.
        ranked = [(prev[k], k) for k in closed if prev[k] > neg]
        if ranked:
            ranked.sort(key=_first, reverse=True)
            first, first_k = ranked[0]
            rest = ranked[1:]
            second = rest[0][0] if rest else neg
            pointers = [first_k] * size
            for j, top, column in only_rel if at_rel else opening:
                best = first + column[first_k]
                if second + top < best:
                    scores[j] = best + row[j]
                    continue
                best_k = first_k
                if not best > neg:  # a dead sum: any live candidate replaces it
                    best = neg
                for score, k in rest:
                    candidate = score + column[k]
                    if candidate > best or (candidate == best and k < best_k):
                        best, best_k = candidate, k
                    elif score + top < best:
                        break
                scores[j] = best + row[j]
                pointers[j] = best_k
        else:
            pointers = [-1] * size
        if not at_rel:
            for j, k1, w1, k2, w2 in inner:
                a = prev[k1] + w1
                b = prev[k2] + w2
                if b > a:
                    scores[j] = b + row[j]
                    pointers[j] = k2
                elif a > neg:
                    scores[j] = a + row[j]
                    pointers[j] = k1
                elif b > neg:  # a is NaN
                    scores[j] = b + row[j]
                    pointers[j] = k2
        back.append(pointers)
    best, best_j = neg, -1
    for j in closed:
        if scores[j] > best:
            best, best_j = scores[j], j
    if best_j < 0:
        raise NoValidPath("no grammar-valid tag sequence has a finite score")
    path = [best_j]
    for t in range(len(emit) - 1, 0, -1):
        path.append(back[t][path[-1]])
    path.reverse()
    return path


def _scorer(model: TaggerModel) -> tuple:
    """The model's ``(grammar, lattice)`` decode state, reused while its labels
    are equal and its transitions hold the same keys and weight objects, in order.

    Weights are compared by identity, not ``==``: ``10**16 == 1e16`` but
    sums with them round differently, ``0 == -0.0`` but their signs differ,
    and ``NaN != NaN`` would never reuse.  The copy keeps the weights alive,
    so no identity is reused.  The cache sits in the model's ``__dict__``
    and holds no reference to the model.  A rebuild raises ValueError when
    an emission row's length is not the number of labels.
    """
    labels, transitions = tuple(model.labels), model.transitions
    cached = model.__dict__.get("_scorer_cache")
    if (
        cached is not None
        and cached[0] == labels
        and len(cached[1]) == len(transitions)
        and all(map(is_, cached[1], transitions))
        and all(map(is_, cached[1].values(), transitions.values()))
    ):
        return cached[2]
    _check_rows(model.rows.values(), len(labels))
    index = _label_index(labels)
    matrix = [[0] * len(labels) for _ in labels]
    for (prev, lab), w in transitions.items():
        if prev in index and lab in index:
            matrix[index[prev]][index[lab]] = w
    grammar = compile_grammar(labels)
    scorer = grammar, [_entry(grammar, j, column) for j, column in enumerate(zip(*matrix))]
    model._scorer_cache = (labels, dict(transitions), scorer)
    return scorer


def viterbi_decode(
    model: TaggerModel,
    sentence: AnnotatedSentence,
    predicate_index: int,
    scorer: tuple | None = None,
) -> list[str]:
    """Decode the best tag sequence for one predicate of a sentence.

    ``scorer`` is the model's ``_scorer`` pair, which ``tag`` looks up once
    for all the frames it decodes; without it this call looks it up.
    """
    n = len(sentence)
    if not 1 <= predicate_index <= n:
        raise InvalidPredicateIndex(f"predicate index {predicate_index} outside 1..{n}")
    scorer = scorer if scorer is not None else _scorer(model)
    feats = [extract_features(sentence, predicate_index, i) for i in range(1, n + 1)]
    zero = [0] * len(model.labels)
    emit = []
    weights = model.rows.get
    for token_feats in feats:
        # Adding the rows per label in feature order keeps float sums those
        # of left-to-right addition from an int 0; skipping a missing row, or
        # that leading 0, can only flip the sign of a zero score, which no
        # comparison or later non-zero sum sees.  Later rows chain lazily, so
        # a token builds one list; a lone row is not copied, so no weight row
        # may change while this call runs.
        hits = filter(None, map(weights, token_feats))
        row = first = next(hits, zero)
        for hit in hits:
            row = map(add, row, hit)
        emit.append(first if row is first else list(row))
    path = _viterbi(*scorer, emit, predicate_index - 1)
    return [model.labels[j] for j in path]


def _training_sequences(corpus: Corpus, index: dict):
    sequences = []
    for sentence in corpus.sentences:
        n = len(sentence)
        for frame in sentence.frames:
            gold = [index[lab] for lab in tags_from_spans(frame, n)]
            feats = [
                extract_features(sentence, frame.predicate_index, i)
                for i in range(1, n + 1)
            ]
            sequences.append((feats, gold, frame.predicate_index - 1))
    return sequences


def _lanes(size: int):
    """``(lane, unpack)`` for ``size`` signed 64-bit lanes in one int: ``lane[j]``
    is label ``j``'s unit and ``unpack`` reads a sum of lane multiples back as
    a tuple.  The bias makes every lane non-negative without carries and the
    XOR restores two's complement."""
    lane = [1 << 64 * j for j in range(size)]
    bias = sum(lane) << 63
    read = struct.Struct(f"<{size}q").unpack

    def unpack(x: int) -> tuple:
        return read(((x + bias) ^ bias).to_bytes(8 * size, "little"))

    return lane, unpack


def train(corpus: Corpus, config: TrainConfig | None = None) -> TaggerModel:
    """Averaged structured perceptron over one sequence per (sentence, frame).

    Weights stay integral during training (updates are feature-count
    differences), so averaging is an exact rational and runs with the same
    seed produce bit-identical models.  Each feature's weights are one int of
    per-label ``_lanes``, so an update adds once per feature and an emission
    row is one sum; transitions are a label x label matrix.  Beside each
    weight ``w`` runs ``lagged``, the sum of ``d * (step - 1)`` over its
    updates ``d``; the mean over all ``steps`` is ``(steps * w - lagged) /
    steps``.  A step moves a lane by at most the longest sentence's ``n``, so
    over ``S`` steps a sum of ``k`` rows stays within ``k * S * n`` and
    ``steps * w - lagged`` within ``S * S * n``; ValueError is raised before
    the first step unless ``max(k, 2 * S) * S * n`` fits in a lane.
    """
    config = config or TrainConfig()
    roles = {
        s.label for sent in corpus.sentences for f in sent.frames for s in f.spans
    }
    labels = build_label_set(roles)
    sequences = _training_sequences(corpus, _label_index(labels))
    if not sequences:
        raise EmptyCorpus("no (sentence, frame) training sequences in corpus")
    total = config.epochs * len(sequences)
    n = max(len(feats) for feats, _, _ in sequences)
    k = max(len(token) for feats, _, _ in sequences for token in feats)
    if max(k, 2 * total) * total * n >= 2**63:
        raise ValueError(f"{total} steps on {n}-token sentences overflow a weight lane")
    grammar = compile_grammar(tuple(labels))
    size = len(labels)
    lane, unpack = _lanes(size)
    emissions = defaultdict(int)  # feature -> packed weights, from its first update
    emissions_lagged = defaultdict(int)
    transitions = [[0] * size for _ in labels]  # [previous label][label]
    transitions_lagged = [[0] * size for _ in labels]
    lattice = [_entry(grammar, j, column) for j, column in enumerate(zip(*transitions))]
    changed = set()  # labels whose incoming transition weights a step updated
    step = 0
    rng = random.Random(config.seed)
    order = list(range(len(sequences)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for index in order:
            lag = step
            step += 1
            feats, gold, predicate_pos = sequences[index]
            emit = [unpack(sum(map(emissions.get, token, repeat(0)))) for token in feats]
            predicted = _viterbi(grammar, lattice, emit, predicate_pos)
            if predicted == gold:
                continue
            for t, (g, p) in enumerate(zip(gold, predicted)):
                if g != p:
                    d = lane[g] - lane[p]
                    lagged_d = lag * d
                    for f in feats[t]:
                        emissions[f] += d
                        emissions_lagged[f] += lagged_d
                if t and (gold[t - 1], g) != (predicted[t - 1], p):
                    transitions[gold[t - 1]][g] += 1
                    transitions[predicted[t - 1]][p] -= 1
                    transitions_lagged[gold[t - 1]][g] += lag
                    transitions_lagged[predicted[t - 1]][p] -= lag
                    changed.update((g, p))
            for j in changed:
                lattice[j] = _entry(grammar, j, [row[j] for row in transitions])
            changed.clear()
    model = TaggerModel(labels=labels)
    for f, w in emissions.items():
        if num := step * w - emissions_lagged[f]:
            model.rows[f] = [x / step if x else 0 for x in unpack(num)]
    for prev, weights, lagged in zip(labels, transitions, transitions_lagged):
        for lab, w, lag in zip(labels, weights, lagged):
            if num := step * w - lag:
                model.transitions[(prev, lab)] = num / step
    return model


def tag(
    model: TaggerModel, sentence: AnnotatedSentence, predicate_indices
) -> AnnotatedSentence:
    """Attach one decoded frame per given predicate position (gold predicates)."""
    indices = list(predicate_indices)
    if len(set(indices)) != len(indices):
        raise InvalidPredicateIndex("duplicate predicate indices")
    scorer = _scorer(model) if indices else None
    frames = [spans_from_tags(viterbi_decode(model, sentence, i, scorer)) for i in sorted(indices)]
    return replace(sentence, frames=tuple(frames))


def tag_corpus(model: TaggerModel, corpus: Corpus) -> Corpus:
    """Re-annotate every sentence at its own predicate positions."""
    return Corpus(
        tuple(tag(model, s, [f.predicate_index for f in s.frames]) for s in corpus.sentences)
    )


def render_model(model: TaggerModel) -> bytes:
    """Canonical model file: header, label line, then sorted E/T weight rows.
    Each distinct emission weight is formatted once, as ``repr(float(w))``."""
    labels = model.labels
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}", "\t".join(labels)]
    by_name = sorted(range(len(labels)), key=labels.__getitem__)
    text = {w: repr(float(w)) for w in set().union(*model.rows.values())}
    for f in sorted(model.rows):
        row, prefix = model.rows[f], f"E\t{f}\t"
        lines.extend(f"{prefix}{labels[j]}\t{text[row[j]]}" for j in by_name if row[j])
    for a, b in sorted(model.transitions):
        if w := model.transitions[(a, b)]:
            lines.append(f"T\t{a}\t{b}\t{float(w)!r}")
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
    index = _label_index(labels)
    seen = set()
    for n, line in enumerate(lines[2:], start=3):
        cells = line.split("\t")
        if len(cells) != 4:
            raise ParseError(f"weight row needs 4 columns, got {len(cells)}", n)
        kind, a, b, raw = cells
        try:
            # float() also reads digit-group underscores, surrounding
            # whitespace and non-ASCII digits, none of which render back
            if not raw.isascii() or "_" in raw or raw != raw.strip():
                raise ValueError(raw)
            weight = float(raw)
        except ValueError:
            raise ParseError(f"bad weight {raw!r}", n) from None
        if not math.isfinite(weight):
            raise ParseError(f"non-finite weight {raw!r}", n)
        if kind == "E":
            if b not in index:
                raise ParseError(f"unknown label {b!r}", n)
        elif kind == "T":
            if a not in index or b not in index:
                raise ParseError(f"unknown label in transition {a!r} -> {b!r}", n)
        else:
            raise ParseError(f"unknown row kind {kind!r}", n)
        if (kind, a, b) in seen:
            raise ParseError(f"duplicate {kind} row for {a!r} -> {b!r}", n)
        seen.add((kind, a, b))
        if kind == "T":
            model.transitions[(a, b)] = weight
        elif weight:
            if (row := model.rows.get(a)) is None:
                row = model.rows[a] = [0] * len(labels)
            row[index[b]] = weight
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
