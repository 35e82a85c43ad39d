"""Oracle transforms: per-transform behavior, and the sequential suite's
monotonicity / overlap-freedom / terminal-100 guarantees."""

import random
from itertools import combinations

import pytest

from helpers import (
    corpus,
    frame,
    random_frame,
    random_pred_gold_corpora,
    reference_apply_oracle,
    reference_oracle_sequence,
    sent,
)
from l2srl.corpus import Corpus
from l2srl.model import Frame, Span, spans_overlap
from l2srl.oracle import ORACLE_SEQUENCE, apply_oracle, oracle_sequence
from l2srl.scoring import report_to_json, score

LABELS = ("A0", "A1", "A2", "A3", "AM", "AM-TMP", "AM-LOC")


@pytest.mark.parametrize("pred, kind, message", [
    (frame(2, (1, 1, "A0")), "fix", "oracle transforms require frames with the same predicate"),
    (frame(1, (2, 2, "A0")), "relabel", "unknown oracle transform 'relabel'"),
])
def test_apply_oracle_rejects_a_foreign_frame_or_an_unknown_kind(pred, kind, message):
    with pytest.raises(ValueError, match=message):
        apply_oracle(pred, frame(1, (2, 2, "A1")), kind)


def test_fix_relabels_on_boundary_match():
    pred = frame(1, (2, 3, "A0"))
    gold = frame(1, (2, 3, "A1"))
    assert apply_oracle(pred, gold, "fix") == frame(1, (2, 3, "A1"))


def test_fix_ignores_boundary_mismatch():
    pred = frame(1, (2, 4, "A0"))
    gold = frame(1, (2, 3, "A1"))
    assert apply_oracle(pred, gold, "fix") == pred


def test_move_unique_core_argument():
    pred = frame(3, (1, 1, "A0"))
    gold = frame(3, (5, 6, "A0"))
    assert apply_oracle(pred, gold, "move") == gold


def test_move_requires_uniqueness_and_core():
    # two A0 spans on the predicted side: ambiguous, no-op
    pred = frame(5, (1, 1, "A0"), (3, 3, "A0"))
    gold = frame(5, (2, 2, "A0"))
    assert apply_oracle(pred, gold, "move") == pred
    # adjuncts never move
    pred = frame(3, (1, 1, "AM"))
    gold = frame(3, (4, 4, "AM"))
    assert apply_oracle(pred, gold, "move") == pred


def test_move_skipped_when_overlap_would_result():
    pred = frame(9, (1, 1, "A0"), (4, 5, "A1"))
    gold = frame(9, (4, 4, "A0"), (6, 7, "A1"))
    # moving A0 to (4,4) collides with predicted A1 (4,5): skipped; A1 moves
    out = apply_oracle(pred, gold, "move")
    assert out == frame(9, (1, 1, "A0"), (6, 7, "A1"))


def test_merge_with_gap():
    pred = frame(7, (2, 2, "A1"), (4, 5, "A1"))
    gold = frame(7, (2, 5, "A1"))
    assert apply_oracle(pred, gold, "merge") == gold


def test_merge_adjacent_spans():
    pred = frame(7, (2, 3, "A1"), (4, 5, "A0"))
    gold = frame(7, (2, 5, "A1"))
    assert apply_oracle(pred, gold, "merge") == gold


def test_merge_matches_brute_force_pair_search():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(4, 10)
        predicate = rng.randint(1, n)
        pred = random_frame(rng, n, predicate)
        gold = random_frame(rng, n, predicate)
        merged = apply_oracle(pred, gold, "merge")
        # brute force: a merge must exist iff some span pair with gap <= 1
        # tiles a gold extent and the result stays overlap-free
        def mergeable(frame_now):
            for a, b in combinations(sorted(frame_now.spans), 2):
                gap = b.start - a.end - 1
                if gap < 0 or gap > 1:
                    continue
                for g in gold.spans:
                    if (g.start, g.end) != (a.start, b.end):
                        continue
                    rest = [s for s in frame_now.spans if s not in (a, b)]
                    merged_span = Span(g.start, g.end, g.label)
                    if merged_span.covers(predicate):
                        continue
                    if not any(spans_overlap(merged_span, r) for r in rest):
                        return True
            return False

        assert not mergeable(merged)  # ran to fixpoint
        if pred != merged:
            assert mergeable(pred)
        else:
            assert not mergeable(pred)


def test_split_into_two_gold_spans():
    pred = frame(7, (2, 5, "A1"))
    gold = frame(7, (2, 3, "A0"), (5, 5, "A1"))
    assert apply_oracle(pred, gold, "split") == gold


def _merged_neighbours(rng, gold):
    """A predicted frame that joins some runs of gold neighbours with a gap
    of at most 1 into one span each, so split has work to do."""
    spans = list(gold.spans)
    k = 0
    while k + 1 < len(spans):
        a, b = spans[k], spans[k + 1]
        if b.start - a.end <= 2 and rng.random() < 0.6:
            spans[k : k + 2] = [Span(a.start, b.end, rng.choice(LABELS))]
        else:
            k += 1
    return Frame(gold.predicate_index, tuple(spans))


def test_split_matches_brute_force_tile_search():
    rng = random.Random(12)
    splits = 0
    for _ in range(400):
        n = rng.randint(4, 12)
        predicate = rng.randint(1, n)
        gold = random_frame(rng, n, predicate, LABELS)
        if rng.random() < 0.7:
            pred = _merged_neighbours(rng, gold)
        else:
            pred = random_frame(rng, n, predicate, LABELS)
        split = apply_oracle(pred, gold, "split")

        # brute force: a split must exist iff some span is tiled by two gold
        # spans with gap <= 1 and the result stays overlap-free
        def splittable(frame_now):
            for s in frame_now.spans:
                for g1, g2 in combinations(gold.spans, 2):
                    if g2.start - g1.end - 1 not in (0, 1):
                        continue
                    if (g1.start, g2.end) != (s.start, s.end):
                        continue
                    rest = [r for r in frame_now.spans if r != s]
                    if any(g.covers(predicate) for g in (g1, g2)):
                        continue
                    if not any(spans_overlap(g, r) for g in (g1, g2) for r in rest):
                        return True
            return False

        assert not splittable(split)  # ran to fixpoint
        if pred != split:
            splits += 1
            assert splittable(pred)
        else:
            assert not splittable(pred)
    assert splits > 50


def test_merge_and_split_keep_pred_when_the_gold_span_does_not_fit():
    # (2,2) and (4,5) join into the gold extent (2,5), but (3,3) lies inside
    pred = frame(7, (2, 2, "A1"), (3, 3, "A0"), (4, 5, "A1"))
    gold = frame(7, (2, 5, "A1"))
    assert apply_oracle(pred, gold, "merge") is pred
    # (2,3)+(5,5) tiles (2,5), but (5,5) would overlap the predicted (5,6)
    pred = frame(9, (2, 5, "A1"), (5, 6, "A2"))
    gold = frame(9, (2, 3, "A0"), (5, 5, "A1"))
    assert apply_oracle(pred, gold, "split") is pred


def test_boundary_snaps_same_label_overlap():
    pred = frame(7, (2, 4, "A0"))
    gold = frame(7, (2, 3, "A0"))
    assert apply_oracle(pred, gold, "boundary") == gold


def test_boundary_ignores_label_mismatch():
    pred = frame(7, (2, 4, "A0"))
    gold = frame(7, (2, 3, "A1"))
    assert apply_oracle(pred, gold, "boundary") == pred


def test_boundary_prefers_max_overlap_then_smaller_start():
    pred = frame(9, (2, 6, "A0"))
    gold = frame(9, (1, 2, "A0"), (4, 6, "A0"))
    # (4,6) overlaps 3 tokens vs 1: snap there, leaving (1,2) for the add stage
    assert apply_oracle(pred, gold, "boundary") == frame(9, (4, 6, "A0"))
    # equal overlap: the smaller start wins
    pred = frame(9, (2, 5, "A0"))
    gold = frame(9, (1, 3, "A0"), (4, 6, "A0"))
    assert apply_oracle(pred, gold, "boundary") == frame(9, (1, 3, "A0"))


def test_drop_examples():
    pred = frame(7, (1, 1, "A0"), (4, 5, "AM"))
    gold = frame(7, (4, 5, "AM"))
    assert apply_oracle(pred, gold, "drop") == gold


def test_add_examples():
    pred = frame(7, (4, 5, "AM"))
    gold = frame(7, (1, 1, "A0"), (4, 5, "AM"))
    assert apply_oracle(pred, gold, "add") == gold
    # overlapping gold spans are not added
    pred = frame(7, (1, 2, "A0"))
    gold = frame(7, (2, 3, "A1"))
    assert apply_oracle(pred, gold, "add") == pred


def _frame_f1(pred, gold):
    p = set(pred.spans)
    g = set(gold.spans)
    m = len(p & g)
    if not p or not g:
        return 100.0 if not p and not g else 0.0
    prec, rec = 100.0 * m / len(p), 100.0 * m / len(g)
    return 2 * prec * rec / (prec + rec) if prec + rec else 0.0


def test_sequence_monotone_terminal_and_overlap_free():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(4, 12)
        predicate = rng.randint(1, n)
        pred = random_frame(rng, n, predicate)
        gold = random_frame(rng, n, predicate)
        f_prev = _frame_f1(pred, gold)
        current = pred
        for kind in ORACLE_SEQUENCE:
            current = apply_oracle(current, gold, kind)
            spans = sorted(current.spans)
            for a, b in zip(spans, spans[1:]):
                assert not spans_overlap(a, b)
            assert not any(s.covers(predicate) for s in current.spans)
            f_now = _frame_f1(current, gold)
            assert f_now >= f_prev - 1e-9
            f_prev = f_now
        assert current == gold  # the sequence always reaches the gold frame


def test_sequence_fixpoint_on_identical():
    c = corpus(sent("s1", list("abcd"), [frame(2, (1, 1, "A0"), (3, 4, "A1"))]))
    baseline, stages = oracle_sequence(c, c)
    assert baseline.f1 == 100.0
    assert [s.report.f1 for s in stages] == [100.0] * 7
    assert [s.kind for s in stages] == list(ORACLE_SEQUENCE)


def test_sequence_on_span_free_gold_scores_zero_at_every_stage():
    # With no gold span, recall is 0/0 and so is precision once drop has
    # run; the scorer reads both as 0, so F never reaches 100.
    gold = corpus(sent("s1", list("abcd"), [frame(2)]), sent("s2", list("ab")))
    pred = corpus(
        sent("s1", list("abcd"), [frame(2, (1, 1, "A0"), (3, 4, "A1"))]),
        sent("s2", list("ab"), [frame(1, (2, 2, "AM"))]),
    )
    baseline, stages = oracle_sequence(pred, gold)
    assert baseline.f1 == 0.0
    assert [s.report.f1 for s in stages] == [0.0] * len(ORACLE_SEQUENCE)
    assert [s.relative_improvement for s in stages] == [0.0] * len(ORACLE_SEQUENCE)


def test_sequence_over_corpus_handles_unmatched_frames():
    gold = corpus(
        sent("s1", list("abcde"), [frame(2, (1, 1, "A0")), frame(4, (5, 5, "A1"))])
    )
    pred = corpus(
        sent("s1", list("abcde"), [frame(2, (3, 3, "A1")), frame(5, (1, 2, "AM"))])
    )
    baseline, stages = oracle_sequence(pred, gold)
    assert stages[-1].kind == "add"
    assert stages[-1].report.f1 == 100.0
    f = baseline.f1
    for stage in stages:
        assert stage.report.f1 >= f - 1e-9
        f = stage.report.f1


def test_sequence_reports_relative_improvement():
    gold = corpus(sent("s1", list("abc"), [frame(2, (1, 1, "A0"), (3, 3, "A1"))]))
    pred = corpus(sent("s1", list("abc"), [frame(2, (1, 1, "A1"), (3, 3, "A1"))]))
    baseline, stages = oracle_sequence(pred, gold)
    fix = stages[0]
    assert fix.kind == "fix"
    assert fix.report.f1 == 100.0
    assert fix.relative_improvement == 100.0
    # later stages close none of an already-closed gap
    assert all(s.relative_improvement == 0.0 for s in stages[1:])


def test_sequence_over_random_corpora_reaches_gold():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(4, 9)
        predicate = rng.randint(1, n)
        gold_frame = random_frame(rng, n, predicate)
        while not gold_frame.spans:  # empty gold hits the degenerate F=0 case
            gold_frame = random_frame(rng, n, predicate)
        pred_c = corpus(sent("s1", ["w"] * n, [random_frame(rng, n, predicate)]))
        gold_c = corpus(sent("s1", ["w"] * n, [gold_frame]))
        baseline, stages = oracle_sequence(pred_c, gold_c)
        assert stages[-1].report.f1 == 100.0
        assert score(pred_c, gold_c).f1 == baseline.f1


def test_transforms_return_pred_itself_when_they_change_nothing():
    rng = random.Random(47)
    kept = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        predicate = rng.randint(1, n)
        gold = random_frame(rng, n, predicate, LABELS)
        if rng.random() < 0.5:
            pred = _near_gold(rng, gold, n)
        else:
            pred = random_frame(rng, n, predicate, LABELS)
        for kind in ORACLE_SEQUENCE:
            out = apply_oracle(pred, gold, kind)
            if out.spans == pred.spans:
                kept += 1
                assert out is pred, kind
    assert kept > 1000


def test_each_transform_maps_a_gold_frame_to_itself():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 12)
        gold = random_frame(rng, n, rng.randint(1, n), LABELS)
        for kind in ORACLE_SEQUENCE:
            assert apply_oracle(gold, gold, kind) == gold, kind


def _near_gold(rng, gold, n):
    """A predicted frame made from a gold one by relabelling, shifting,
    splitting, merging and dropping its spans, plus a spurious span."""
    spans = []
    pending = list(gold.spans)
    while pending:
        s = pending.pop(0)
        r = rng.random()
        if r < 0.1 and pending:
            nxt = pending.pop(0)
            spans.append(Span(s.start, nxt.end, s.label))
        elif r < 0.25:
            spans.append(Span(s.start, s.end, rng.choice(LABELS)))
        elif r < 0.4:
            start = max(1, s.start + rng.choice((-1, 0, 1)))
            end = min(n, max(start, s.end + rng.choice((-1, 0, 1))))
            spans.append(Span(start, end, s.label))
        elif r < 0.5 and s.end > s.start:
            cut = rng.randint(s.start, s.end - 1)
            spans += [Span(s.start, cut, s.label), Span(cut + 1, s.end, s.label)]
        elif r < 0.6:
            continue
        else:
            spans.append(s)
    if rng.random() < 0.3:
        start = rng.randint(1, n)
        spans.append(Span(start, min(n, start + rng.randint(0, 2)), rng.choice(LABELS)))
    return Frame(gold.predicate_index, tuple(spans))


def _rough_frame(rng, n, predicate):
    """A frame that parsing would reject: its spans may overlap each other,
    cover the predicate, or share their bounds or their start."""
    spans = []
    for _ in range(rng.randint(0, 5)):
        start = rng.randint(1, n)
        end = min(n, start + rng.randint(0, 3))
        label = rng.choice(LABELS)
        spans.append(Span(start, end, label))
        if rng.random() < 0.3:  # a twin from the same start, often of the same label
            twin_end = min(n, end + rng.randint(0, 1))
            spans.append(Span(start, twin_end, rng.choice((label, rng.choice(LABELS)))))
    return Frame(predicate, spans)


def test_transforms_equal_the_reference_transforms():
    """Each transform, applied alone and along the sequence, returns the
    reference's frame, and returns pred itself exactly when it does."""
    rng = random.Random(53)
    kept = 0
    for trial in range(20000):
        n = rng.randint(1, 12)
        predicate = rng.randint(1, n)
        if rng.random() < 0.6:
            gold = random_frame(rng, n, predicate, LABELS)
        else:
            gold = _rough_frame(rng, n, predicate)
        r = rng.random()
        if r < 0.4:
            pred = _near_gold(rng, gold, n)
        elif r < 0.7:
            pred = random_frame(rng, n, predicate, LABELS)
        else:
            pred = _rough_frame(rng, n, predicate)
        for kind in ORACLE_SEQUENCE:
            want = reference_apply_oracle(pred, gold, kind)
            got = apply_oracle(pred, gold, kind)
            assert got == want, (trial, kind)
            assert type(got) is Frame and {type(s) for s in got.spans} <= {Span}
            assert (got is pred) == (want is pred), (trial, kind)
            kept += want is pred
            pred = want
    assert kept > 50000


def _random_oracle_corpora(rng):
    pred, gold = random_pred_gold_corpora(rng, rng.randint(1, 8), LABELS)
    sentences = []
    for p, g in zip(pred.sentences, gold.sentences):
        r = rng.random()
        if r < 0.4:
            n = len(g.tokens)
            p = sent(p.id, p.forms, [_near_gold(rng, f, n) for f in g.frames],
                     lang=p.lang, side=p.side)
        elif r < 0.5:
            p = g
        sentences.append(p)
    return Corpus(tuple(sentences)), gold


def _oracle_json(baseline, stages):
    return [report_to_json(baseline)] + [
        (s.kind, s.f_before, report_to_json(s.report)) for s in stages
    ]


def test_sequence_matches_full_rescore_reference():
    rng = random.Random(43)
    for trial in range(240):
        pred, gold = _random_oracle_corpora(rng)
        for am_coarse in (False, True):
            got = _oracle_json(*oracle_sequence(pred, gold, am_coarse))
            want = _oracle_json(*reference_oracle_sequence(pred, gold, am_coarse))
            assert got == want, (trial, am_coarse)


def test_sequence_keys_frames_by_predicate_like_a_full_rescore():
    forms = list("abcdefgh")
    gold = corpus(
        sent("s1", forms, [frame(2, (3, 4, "AM-TMP")), frame(6, (7, 8, "A1"))]),
        sent("s2", forms, [frame(3, (1, 2, "A0"), (4, 5, "AM-LOC"))]),
        sent("s3", forms, [frame(4, (1, 1, "A0"))]),
    )
    pred = corpus(
        # two frames on predicate 2: the last one is scored; 6 is gold-only
        sent("s1", forms, [frame(2, (3, 4, "AM-LOC")), frame(2, (1, 1, "A0"), (3, 3, "A2"))]),
        # a predicted-only frame on predicate 7 beside a matched one
        sent("s2", forms, [frame(3, (1, 1, "A0"), (4, 5, "AM-TMP")), frame(7, (8, 8, "A2"))]),
        # two frames on predicate 4, the first equal to gold
        sent("s3", forms, [frame(4, (1, 1, "A0")), frame(4, (1, 2, "A0"), (6, 6, "AM"))]),
    )
    for am_coarse in (False, True):
        got = _oracle_json(*oracle_sequence(pred, gold, am_coarse))
        want = _oracle_json(*reference_oracle_sequence(pred, gold, am_coarse))
        assert got == want, am_coarse
        assert oracle_sequence(pred, gold, am_coarse)[1][-1].report.f1 == 100.0


def test_sequence_drops_a_predicted_only_label_once_it_vanishes():
    gold = corpus(sent("s1", list("abcde"), [frame(2, (3, 3, "A0"))]))
    pred = corpus(sent("s1", list("abcde"), [frame(2, (1, 1, "A3"), (5, 5, "A0"))]))
    baseline, stages = oracle_sequence(pred, gold)
    assert "A3" in baseline.per_role
    drop = stages[ORACLE_SEQUENCE.index("drop")]
    assert "A3" not in drop.report.per_role
    assert _oracle_json(baseline, stages) == _oracle_json(
        *reference_oracle_sequence(pred, gold)
    )
