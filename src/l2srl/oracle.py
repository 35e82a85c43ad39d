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
non-decreasing F.  When the gold holds at least one span, F ends at 100 once
everything has been dropped or added; on span-free gold every stage scores
F 0 and closes none of the gap, as the scorer reads 0/0 as 0.

The sequence is scored on the scorer's own frame pairs and per-label counts.
Gold labels are counted once.  A transform that changes nothing returns the
frame it was given, so each stage knows the frames it changed; it counts
them with the scorer's ``_counts`` as they were and as they are now, and
takes the first predicted and matched counts out and puts the second in.
Every report thus equals a full rescore of the corpus.
"""

from dataclasses import dataclass
from itertools import combinations

from l2srl.corpus import Corpus
from l2srl.model import CORE_LABELS, Frame, Span
from l2srl.scoring import ScoreReport, _aligned, _counts, _frame_pairs, _report


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
    start, end, _ = span
    if start <= predicate_index <= end:
        return False
    for s, e, _ in others:
        if start <= e and s <= end:
            return False
    return True


def _without(spans, *removed) -> list[Span]:
    gone = set(removed)
    return [s for s in spans if s not in gone]


def _reframed(pred: Frame, spans) -> Frame:
    """A frame of ``spans``; ``pred`` itself while they are still its own."""
    return pred if spans is pred.spans else Frame(pred.predicate_index, tuple(spans))


def _fix(pred: Frame, gold: Frame) -> Frame:
    # A Span equals its (start, end, label) triple, so a relabelled span is
    # the gold span with its bounds.
    by_bounds = {(g.start, g.end): g for g in gold.spans}
    new = tuple([by_bounds.get((s.start, s.end), s) for s in pred.spans])
    return pred if new == pred.spans else Frame(pred.predicate_index, new)


def _singles(spans) -> dict:
    """Each label's only span, or None for a label with more than one."""
    found = {}
    for span in spans:
        label = span[2]
        found[label] = None if label in found else span
    return found


def _move(pred: Frame, gold: Frame) -> Frame:
    # A move swaps one label's only span for another of the same label, so
    # every other label keeps the spans it has in pred.
    mine, theirs = _singles(pred.spans), _singles(gold.spans)
    spans = pred.spans
    for label in CORE_LABELS:
        old, new = mine.get(label), theirs.get(label)
        if old is None or new is None or old == new:
            continue
        rest = [s for s in spans if s is not old]
        if _fits(new, rest, pred.predicate_index):
            spans = rest + [new]
    return _reframed(pred, spans)


def _merge(pred: Frame, gold: Frame) -> Frame:
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


def _split(pred: Frame, gold: Frame) -> Frame:
    # Only a span whose extent two gold spans with a gap of 0-1 tile can
    # split; on a frame with none, this returns pred at once.
    tiles = [(g1, g2) for g1, g2 in combinations(gold.spans, 2) if 0 < g2.start - g1.end < 3]
    if not tiles:
        return pred
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


def _boundary(pred: Frame, gold: Frame) -> Frame:
    # Each span of pred is still in spans at its turn: a gold span snapped
    # in fits beside the spans not yet visited, so it replaced none of them.
    spans = pred.spans
    for s in pred.spans:
        start, end, label = s
        # The same-label gold span overlapping s with other bounds: largest
        # overlap (smallest rank) first, then smallest start, then the first.
        best = None
        for g in gold.spans:
            gs, ge, gl = g
            if gl == label and gs <= end and start <= ge and (gs != start or ge != end):
                rank = max(start, gs) - min(end, ge)
                if best is None or rank < best_rank or rank == best_rank and gs < best[0]:
                    best, best_rank = g, rank
        if best is not None:
            rest = [t for t in spans if t is not s]
            if _fits(best, rest, pred.predicate_index):
                spans = rest + [best]
    return _reframed(pred, spans)


def _drop(pred: Frame, gold: Frame) -> Frame:
    # Keeping only exact matches (rather than anything overlapping gold)
    # guarantees the add stage can complete the frame.
    keep = set(gold.spans)
    kept = tuple(s for s in pred.spans if s in keep)
    return pred if len(kept) == len(pred.spans) else Frame(pred.predicate_index, kept)


def _add(pred: Frame, gold: Frame) -> Frame:
    spans = pred.spans
    for g in gold.spans:
        gs, ge, _ = g
        for s, e, _ in spans:
            if gs <= e and s <= ge:
                break
        else:
            spans += (g,)
    return _reframed(pred, spans)


_TRANSFORMS = {
    "fix": _fix,
    "move": _move,
    "merge": _merge,
    "split": _split,
    "boundary": _boundary,
    "drop": _drop,
    "add": _add,
}
ORACLE_SEQUENCE = tuple(_TRANSFORMS)


def apply_oracle(pred: Frame, gold: Frame, kind: str) -> Frame:
    """Apply one transform to a predicted frame; inapplicable cases are no-ops."""
    if pred.predicate_index != gold.predicate_index:
        raise ValueError("oracle transforms require frames with the same predicate")
    try:
        transform = _TRANSFORMS[kind]
    except KeyError:
        raise ValueError(f"unknown oracle transform {kind!r}") from None
    return transform(pred, gold)


def oracle_sequence(
    pred: Corpus, gold: Corpus, am_coarse: bool = False
) -> tuple[ScoreReport, list[OracleStage]]:
    """Apply the seven transforms in order, re-scoring after each.

    Returns the pre-transform baseline report and one OracleStage per
    transform; when the gold holds at least one span, the final stage scores
    F = 100.  Gold frames must be valid, as ``parse_corpus`` guarantees.
    """
    # [predicted frame, gold frame] lists, so a changed frame replaces the first
    pairs = [list(pair) for pair in _frame_pairs(_aligned(pred, gold))]
    golds, predicted, matched = _counts(pairs, am_coarse)
    baseline = _report(golds, predicted, matched)
    f_before = baseline.f1
    stages = []
    for kind in ORACLE_SEQUENCE:
        transform = _TRANSFORMS[kind]
        # A frame equal to its gold frame is a fixed point of every
        # transform, as valid gold spans never overlap.
        pairs = [pair for pair in pairs if pair[0].spans != pair[1].spans]
        before, after = [], []
        for pair in pairs:
            old, truth = pair
            new = transform(old, truth)
            if new is not old:
                before.append((old, truth))
                after.append((new, truth))
                pair[0] = new
        _, old_predicted, old_matched = _counts(before, am_coarse)
        _, new_predicted, new_matched = _counts(after, am_coarse)
        predicted.subtract(old_predicted)
        predicted.update(new_predicted)
        matched.subtract(old_matched)
        matched.update(new_matched)
        report = _report(golds, predicted, matched)
        stages.append(OracleStage(kind, report, f_before))
        f_before = report.f1
    return baseline, stages
