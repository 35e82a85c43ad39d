"""Scorer correctness against a brute-force counter, grouped deltas, IAA
symmetry, confusion-matrix counting, and report rendering."""

import random

import pytest

from helpers import (
    brute_force_counts,
    brute_force_prf,
    corpus,
    frame,
    random_pred_gold_corpora,
    sent,
)
from l2srl.corpus import Corpus
from l2srl.errors import MismatchedCorpora, MissingMetadata
from l2srl.scoring import (
    GROUPINGS,
    ScoreReport,
    confusion_matrix,
    confusion_to_tsv,
    f_delta,
    fmt2,
    iaa,
    report_to_json,
    report_to_text,
    report_to_tsv,
    round2,
    score,
    score_grouped,
)


def test_identity_scores_100():
    c = corpus(sent("s1", ["a", "b", "c"], [frame(2, (1, 1, "A0"), (3, 3, "A1"))]))
    report = score(c, c)
    assert (report.precision, report.recall, report.f1) == (100.0, 100.0, 100.0)


def test_forced_arithmetic():
    # 2 of 3 predictions correct, 4 gold spans
    gold = corpus(
        sent("s1", list("abcdef"), [frame(6, (1, 1, "A0"), (2, 2, "A1"), (3, 3, "A2"), (4, 4, "AM"))])
    )
    pred = corpus(
        sent("s1", list("abcdef"), [frame(6, (1, 1, "A0"), (2, 2, "A1"), (3, 3, "AM"))])
    )
    report = score(pred, gold)
    assert (report.matched, report.predicted, report.gold) == (2, 3, 4)
    assert fmt2(report.precision) == "66.67"
    assert fmt2(report.recall) == "50.00"
    assert fmt2(report.f1) == "57.14"


def test_empty_prediction_convention():
    gold = corpus(sent("s1", ["a", "b"], [frame(1, (2, 2, "A0"))]))
    pred = corpus(sent("s1", ["a", "b"], [frame(1)]))
    report = score(pred, gold)
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
    # and the reverse: no gold
    reverse = score(gold, pred)
    assert (reverse.recall, reverse.f1) == (0.0, 0.0)


def test_unmatched_predicates_count_as_miss_and_spurious():
    gold = corpus(sent("s1", ["a", "b", "c"], [frame(1, (2, 2, "A0"))]))
    pred = corpus(sent("s1", ["a", "b", "c"], [frame(3, (2, 2, "A0"))]))
    report = score(pred, gold)
    assert (report.matched, report.predicted, report.gold) == (0, 1, 1)


def test_score_matches_sentences_by_id_not_order():
    a = sent("s1", ["a", "b"], [frame(1, (2, 2, "A0"))])
    b = sent("s2", ["c", "d"], [frame(2, (1, 1, "A1"))])
    report = score(corpus(b, a), corpus(a, b))
    assert report.f1 == 100.0


def test_mismatched_corpora_rejected():
    a = corpus(sent("s1", ["a"], []))
    b = corpus(sent("s2", ["a"], []))
    with pytest.raises(MismatchedCorpora):
        score(a, b)
    c = corpus(sent("s1", ["a", "b"], []))
    with pytest.raises(MismatchedCorpora):
        score(a, c)


def test_am_coarse_option():
    gold = corpus(sent("s1", ["a", "b"], [frame(1, (2, 2, "AM-TMP"))]))
    pred = corpus(sent("s1", ["a", "b"], [frame(1, (2, 2, "AM-LOC"))]))
    assert score(pred, gold).f1 == 0.0
    assert score(pred, gold, am_coarse=True).f1 == 100.0


def test_per_role_breakdown():
    gold = corpus(
        sent("s1", list("abcd"), [frame(4, (1, 1, "A0"), (2, 2, "A1"), (3, 3, "AM"))])
    )
    pred = corpus(
        sent("s1", list("abcd"), [frame(4, (1, 1, "A0"), (2, 2, "AM"))])
    )
    report = score(pred, gold)
    assert report.per_role["A0"].matched == 1
    assert report.per_role["A1"].gold == 1 and report.per_role["A1"].predicted == 0
    assert report.per_role["AM"].predicted == 1 and report.per_role["AM"].matched == 0


SUBTYPED_LABELS = ("A0", "A1", "A2", "AM", "AM-TMP", "AM-LOC")


def test_scorer_equals_brute_force_on_random_corpora():
    rng = random.Random(42)
    for _ in range(200):
        pred, gold = random_pred_gold_corpora(rng, rng.randint(1, 5), SUBTYPED_LABELS)
        for am_coarse in (False, True):
            report = score(pred, gold, am_coarse)
            bp, br, bf = brute_force_prf(pred, gold, am_coarse)
            assert (report.precision, report.recall, report.f1) == (bp, br, bf)
            totals, per_label = brute_force_counts(pred, gold, am_coarse)
            assert (report.matched, report.predicted, report.gold) == totals
            assert {label: (role.matched, role.predicted, role.gold)
                    for label, role in report.per_role.items()} == per_label


def test_grouped_report_is_the_sum_of_its_groups():
    rng = random.Random(29)
    for _ in range(40):
        pred, gold = random_pred_gold_corpora(rng, rng.randint(1, 12))
        for group_by, parts in GROUPINGS.items():
            for am_coarse in (False, True):
                grouped = score_grouped(pred, gold, group_by, am_coarse)
                overall = grouped.to_dict()
                del overall["groups"]
                assert overall == score(pred, gold, am_coarse).to_dict()
                for key, report in grouped.groups.items():
                    ids = {s.id for s in gold
                           if "/".join(getattr(s, part) for part in parts) == key}
                    sub_pred = Corpus(tuple(s for s in pred if s.id in ids))
                    sub_gold = Corpus(tuple(s for s in gold if s.id in ids))
                    expected = score(sub_pred, sub_gold, am_coarse).to_dict()
                    got = report.to_dict()
                    got.pop("delta_f", None)
                    assert got == expected


def test_grouped_delta_per_language():
    def lang_pair(lang, sid):
        l1_gold = sent(f"{sid}.l1", ["a", "b"], [frame(1, (2, 2, "A0"))], lang=lang, side="L1")
        l2_gold = sent(f"{sid}.l2", ["a", "b"], [frame(1, (2, 2, "A0"))], lang=lang, side="L2")
        return l1_gold, l2_gold

    g_eng_l1, g_eng_l2 = lang_pair("ENG", "e")
    g_jpn_l1, g_jpn_l2 = lang_pair("JPN", "j")
    gold = corpus(g_eng_l1, g_eng_l2, g_jpn_l1, g_jpn_l2)
    # predictions: perfect on L1 sides, wrong label on ENG L2, perfect on JPN L2
    pred = corpus(
        g_eng_l1,
        sent("e.l2", ["a", "b"], [frame(1, (2, 2, "A1"))], lang="ENG", side="L2"),
        g_jpn_l1,
        g_jpn_l2,
    )
    report = score_grouped(pred, gold, "lang,side")
    assert set(report.groups) == {"ENG/L1", "ENG/L2", "JPN/L1", "JPN/L2"}
    assert report.groups["ENG/L2"].delta_f == -100.0
    assert report.groups["JPN/L2"].delta_f == 0.0
    assert report.groups["ENG/L1"].delta_f is None


def test_grouped_by_side_only():
    gold = corpus(
        sent("a", ["x"], [], side="L1"),
        sent("b", ["x"], [], side="L2"),
    )
    report = score_grouped(gold, gold, "side")
    assert set(report.groups) == {"L1", "L2"}
    assert report.groups["L2"].delta_f == 0.0


@pytest.mark.parametrize("group_by, error, message", [
    ("pair", ValueError, r"unknown grouping 'pair' \(use lang, side, or lang,side\)"),
    ("lang,side", MissingMetadata, "sentence 'b' has no lang"),
])
def test_score_grouped_rejects_an_unknown_grouping_or_missing_metadata(group_by, error, message):
    c = corpus(sent("a", ["x"], [frame(1)]), sent("b", ["x"], [frame(1)], lang=""))
    with pytest.raises(error, match=message) as err:
        score_grouped(c, c, group_by)
    assert type(err.value) is error


def test_delta_anchor_values():
    # integer counts chosen so each micro F renders to an exact 2-decimal value
    l1 = ScoreReport(matched=7381, predicted=10000, gold=10000)
    l2 = ScoreReport(matched=6920, predicted=10000, gold=10000)
    assert fmt2(l1.f1) == "73.81"
    assert fmt2(l2.f1) == "69.20"
    assert fmt2(f_delta(l2, l1)) == "-4.61"
    l1 = ScoreReport(matched=7412, predicted=10000, gold=10000)
    l2 = ScoreReport(matched=6871, predicted=10000, gold=10000)
    assert fmt2(f_delta(l2, l1)) == "-5.41"


def test_iaa_symmetry():
    a = corpus(sent("s1", list("abc"), [frame(2, (1, 1, "A0"), (3, 3, "A1"))]))
    b = corpus(sent("s1", list("abc"), [frame(2, (1, 1, "A0"))]))
    ab = iaa(a, b)
    ba = iaa(b, a)
    assert ab.f1 == ba.f1
    assert ab.precision == ba.recall and ab.recall == ba.precision
    assert iaa(a, a).f1 == 100.0


def test_iaa_hand_counted_three_sentences():
    # one label disagreement across three sentences, counted by hand:
    # A0 agrees 3/3, AM agrees 2/2, the A1-vs-A2 span mismatches both ways
    annotator_a = corpus(
        sent("s1", list("abc"), [frame(2, (1, 1, "A0"), (3, 3, "A1"))]),
        sent("s2", list("xyz"), [frame(2, (1, 1, "A0"), (3, 3, "AM"))]),
        sent("s3", list("pqr"), [frame(2, (1, 1, "A0"), (3, 3, "AM"))], side="L1"),
    )
    annotator_b = corpus(
        sent("s1", list("abc"), [frame(2, (1, 1, "A0"), (3, 3, "A2"))]),
        sent("s2", list("xyz"), [frame(2, (1, 1, "A0"), (3, 3, "AM"))]),
        sent("s3", list("pqr"), [frame(2, (1, 1, "A0"), (3, 3, "AM"))], side="L1"),
    )
    report = iaa(annotator_a, annotator_b)
    assert (report.matched, report.predicted, report.gold) == (5, 6, 6)
    assert fmt2(report.f1) == "83.33"
    assert report.per_role["A0"].f1 == 100.0
    assert report.per_role["AM"].f1 == 100.0
    assert report.per_role["A1"].f1 == 0.0
    assert report.per_role["A2"].f1 == 0.0
    # `l2srl iaa` prints this same score, broken down by lang and side
    grouped = score_grouped(annotator_a, annotator_b, "lang,side").to_dict()
    assert sorted(grouped.pop("groups")) == ["ENG/L1", "ENG/L2"]
    assert grouped == report.to_dict()


def test_iaa_symmetry_random():
    rng = random.Random(17)
    for _ in range(50):
        a, b = random_pred_gold_corpora(rng, rng.randint(1, 3))
        ab, ba = iaa(a, b), iaa(b, a)
        assert ab.f1 == ba.f1
        assert ab.precision == ba.recall and ab.recall == ba.precision


CONFUSION_FIXTURE_PRED = corpus(
    sent("s1", list("abcdef"), [frame(1, (2, 2, "A1"), (3, 3, "A1"), (5, 5, "AM"))])
)
CONFUSION_FIXTURE_GOLD = corpus(
    sent("s1", list("abcdef"), [frame(1, (2, 2, "A0"), (3, 4, "A1"), (6, 6, "A2"))])
)


def test_confusion_matrix_hand_fixture():
    # (2,2): boundary match, label confusion        -> (A0, A1)
    # (3,3) vs (3,4): overlap without boundary match -> nothing
    # (5,5): predicted span overlapping no gold      -> (O, AM)
    # (6,6): gold span overlapping no prediction     -> (A2, O)
    matrix = confusion_matrix(CONFUSION_FIXTURE_PRED, CONFUSION_FIXTURE_GOLD)
    assert matrix.counts == {("A0", "A1"): 1, ("O", "AM"): 1, ("A2", "O"): 1}
    assert matrix.total == 3


def test_confusion_matrix_counts_diagonal():
    c = corpus(sent("s1", ["a", "b"], [frame(1, (2, 2, "A0"))]))
    matrix = confusion_matrix(c, c)
    assert matrix.counts == {("A0", "A0"): 1}


def test_confusion_case_totals_random():
    rng = random.Random(3)
    for _ in range(50):
        pred, gold = random_pred_gold_corpora(rng, rng.randint(1, 3), SUBTYPED_LABELS)
        for am_coarse in (False, True):
            def label(span):
                return "AM" if am_coarse and span.label.startswith("AM-") else span.label

            matrix = confusion_matrix(pred, gold, am_coarse)
            expected = {}
            boundary = overlap_only = pred_alone = gold_alone = 0

            def bump(key):
                expected[key] = expected.get(key, 0) + 1

            for p_sent, g_sent in zip(
                sorted(pred.sentences, key=lambda s: s.id),
                sorted(gold.sentences, key=lambda s: s.id),
            ):
                pf = {f.predicate_index: f for f in p_sent.frames}
                gf = {f.predicate_index: f for f in g_sent.frames}
                for idx in set(pf) | set(gf):
                    ps = list(pf[idx].spans) if idx in pf else []
                    gs = list(gf[idx].spans) if idx in gf else []
                    for s in ps:
                        exact = [g for g in gs if (g.start, g.end) == (s.start, s.end)]
                        anyov = [g for g in gs if g.start <= s.end and s.start <= g.end]
                        if exact:
                            boundary += 1
                            bump((label(exact[0]), label(s)))
                        elif anyov:
                            overlap_only += 1
                        else:
                            pred_alone += 1
                            bump(("O", label(s)))
                    for g in gs:
                        if not any(p.start <= g.end and g.start <= p.end for p in ps):
                            gold_alone += 1
                            bump((label(g), "O"))
            assert matrix.counts == expected
            assert matrix.total == boundary + pred_alone + gold_alone


def test_confusion_tsv_layout():
    matrix = confusion_matrix(CONFUSION_FIXTURE_PRED, CONFUSION_FIXTURE_GOLD)
    text = confusion_to_tsv(matrix)
    lines = text.strip().split("\n")
    header = lines[0].split("\t")
    assert header[-1] == "O" and header[1:-1] == sorted(header[1:-1])


def test_rounding_half_up():
    assert round2(57.142857) == 57.14
    assert round2(57.145) == 57.15
    assert fmt2(69.2) == "69.20"
    assert fmt2(-4.609999999999999) == "-4.61"


def test_report_rendering():
    gold = corpus(sent("s1", ["a", "b"], [frame(1, (2, 2, "A0"))], lang="ENG", side="L2"))
    report = score_grouped(gold, gold, "lang,side")
    text = report_to_text(report)
    assert "ALL" in text and "100.00" in text
    tsv = report_to_tsv(report)
    assert "f1\tALL\t100.00" in tsv
    assert "f1\tENG/L2:A0\t100.00" in tsv
    js = report_to_json(report)
    assert '"f1": 100.0' in js
