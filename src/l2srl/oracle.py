"""Oracle error analysis: idealized transformations applied to predictions.

Seven transforms, always applied in this order, each using gold knowledge to
repair one error type:

    fix       relabel a span whose boundaries exactly match a gold span
    move      relocate a core label occurring exactly once on both sides
    merge     combine two spans separated by <= 1 token into the gold span
              with that exact extent
    split     replace one span by the two gold spans (gap <= 1) that tile it
    boundary  snap a span to an overlapping same-label gold span
    drop      remove predicted spans that match no gold span
    add       insert gold spans that overlap no predicted span

A transform is skipped wherever it would create overlapping spans or cover
the predicate token.  Re-scoring after each stage gives a monotonically
non-decreasing F that ends at 100 once everything has been dropped or added.

The sequence is scored incrementally: it keeps each sentence's span counts
and integer running totals, and after a stage rescores only the sentences
that stage changed, so every report equals a full rescore of the corpus.
Frames already equal to their gold frame are skipped.
"""

from copy import deepcopy
from dataclasses import dataclass, replace
from itertools import combinations

from l2srl.corpus import Corpus
from l2srl.model import CORE_LABELS, Frame, Span, spans_overlap
from l2srl.scoring import ScoreReport, _accumulate, _aligned, add_counts

ORACLE_SEQUENCE = ("fix", "move", "merge", "split", "boundary", "drop", "add")


@dataclass(frozen=True)
class OracleStage:
    """Score after one transform plus the share of the remaining gap it closed."""

    kind: str
    report: ScoreReport
    f_before: float

    @property
    def relative_improvement(self) -> float:
        gap = 100.0 - self.f_before
        if gap <= 0.0:
            return 0.0
        return 100.0 * (self.report.f1 - self.f_before) / gap


def _fits(span: Span, others, predicate_index: int) -> bool:
    if span.covers(predicate_index):
        return False
    return not any(spans_overlap(span, other) for other in others)


def _without(spans, *removed) -> list[Span]:
    gone = set(removed)
    return [s for s in spans if s not in gone]


def _fix(pred: Frame, gold: Frame) -> Frame:
    by_bounds = {(g.start, g.end): g.label for g in gold.spans}
    new = [
        Span(s.start, s.end, by_bounds.get((s.start, s.end), s.label))
        for s in pred.spans
    ]
    return Frame(pred.predicate_index, tuple(new))


def _move(pred: Frame, gold: Frame) -> Frame:
    spans = list(pred.spans)
    for label in CORE_LABELS:
        mine = [s for s in spans if s.label == label]
        theirs = [g for g in gold.spans if g.label == label]
        if len(mine) != 1 or len(theirs) != 1 or mine[0] == theirs[0]:
            continue
        rest = _without(spans, mine[0])
        if _fits(theirs[0], rest, pred.predicate_index):
            spans = rest + [theirs[0]]
    return Frame(pred.predicate_index, tuple(spans))


def _merge(pred: Frame, gold: Frame) -> Frame:
    spans = list(pred.spans)
    changed = True
    while changed:
        changed = False
        for g in gold.spans:
            for a, b in combinations(sorted(spans), 2):
                gap = b.start - a.end - 1
                if gap < 0 or gap > 1:
                    continue
                if (a.start, b.end) != (g.start, g.end):
                    continue
                rest = _without(spans, a, b)
                if _fits(g, rest, pred.predicate_index):
                    spans = rest + [g]
                    changed = True
                    break
            if changed:
                break
    return Frame(pred.predicate_index, tuple(spans))


def _split(pred: Frame, gold: Frame) -> Frame:
    spans = list(pred.spans)
    changed = True
    while changed:
        changed = False
        for s in sorted(spans):
            for g1, g2 in combinations(gold.spans, 2):
                gap = g2.start - g1.end - 1
                if gap < 0 or gap > 1:
                    continue
                if (g1.start, g2.end) != (s.start, s.end):
                    continue
                rest = _without(spans, s)
                if _fits(g1, rest, pred.predicate_index) and _fits(
                    g2, rest + [g1], pred.predicate_index
                ):
                    spans = rest + [g1, g2]
                    changed = True
                    break
            if changed:
                break
    return Frame(pred.predicate_index, tuple(spans))


def _boundary(pred: Frame, gold: Frame) -> Frame:
    spans = list(pred.spans)
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
    return Frame(pred.predicate_index, tuple(spans))


def _drop(pred: Frame, gold: Frame) -> Frame:
    # Keeping only exact matches (rather than anything overlapping gold)
    # guarantees the add stage can complete the frame.
    keep = set(gold.spans)
    return Frame(pred.predicate_index, tuple(s for s in pred.spans if s in keep))


def _add(pred: Frame, gold: Frame) -> Frame:
    spans = list(pred.spans)
    for g in gold.spans:
        if not any(spans_overlap(g, s) for s in spans):
            spans.append(g)
    return Frame(pred.predicate_index, tuple(spans))


_TRANSFORMS = {
    "fix": _fix,
    "move": _move,
    "merge": _merge,
    "split": _split,
    "boundary": _boundary,
    "drop": _drop,
    "add": _add,
}


def apply_oracle(pred: Frame, gold: Frame, kind: str) -> Frame:
    """Apply one transform to a predicted frame; inapplicable cases are no-ops."""
    if pred.predicate_index != gold.predicate_index:
        raise ValueError("oracle transforms require frames with the same predicate")
    try:
        transform = _TRANSFORMS[kind]
    except KeyError:
        raise ValueError(f"unknown oracle transform {kind!r}") from None
    return transform(pred, gold)


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


def oracle_sequence(
    pred: Corpus, gold: Corpus, am_coarse: bool = False
) -> tuple[ScoreReport, list[OracleStage]]:
    """Apply the seven transforms in order, re-scoring after each.

    Returns the pre-transform baseline report and one OracleStage per
    transform; the final stage always scores F = 100.  Gold frames must be
    valid, as ``parse_corpus`` guarantees.
    """
    aligned = _aligned(pred, gold)
    sentences = []
    golds = []  # per sentence: the gold frame of each of its predicted frames
    counts = []  # per sentence: its span counts against gold
    totals = ScoreReport()
    for pred_s, gold_s in aligned:
        pred_s = _with_empty_counterparts(pred_s, gold_s)
        by_predicate = {f.predicate_index: f for f in gold_s.frames}
        sentences.append(pred_s)
        golds.append(tuple(
            by_predicate.get(f.predicate_index, Frame(f.predicate_index))
            for f in pred_s.frames
        ))
        counts.append(_sentence_counts(pred_s, gold_s, am_coarse))
        add_counts(totals, counts[-1])
    baseline = deepcopy(totals)
    f_before = baseline.f1
    stages = []
    for kind in ORACLE_SEQUENCE:
        transform = _TRANSFORMS[kind]
        for k, s in enumerate(sentences):
            frames = None
            for j, (f, g) in enumerate(zip(s.frames, golds[k])):
                # A frame equal to its gold frame is a fixed point of every
                # transform, as valid gold spans never overlap.
                if f.spans == g.spans:
                    continue
                new = transform(f, g)
                if new.spans != f.spans:
                    if frames is None:
                        frames = list(s.frames)
                    frames[j] = new
            if frames is None:
                continue
            sentences[k] = s = replace(s, frames=tuple(frames))
            add_counts(totals, counts[k], -1)
            counts[k] = _sentence_counts(s, aligned[k][1], am_coarse)
            add_counts(totals, counts[k])
        report = deepcopy(totals)
        stages.append(OracleStage(kind, report, f_before))
        f_before = report.f1
    return baseline, stages


def _sentence_counts(pred_s, gold_s, am_coarse: bool) -> ScoreReport:
    report = ScoreReport()
    _accumulate(report, pred_s, gold_s, am_coarse)
    return report

