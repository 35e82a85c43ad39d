"""Role-tuple extraction, alignment-based matching against a brute-force
oracle, recalls, selection semantics, and the fallback aligner."""

import random

import pytest

from helpers import (
    brute_force_shared,
    frame,
    identity_pair,
    make_pair,
    reference_align,
    sent,
)
from l2srl.agreement import (
    PairRecall,
    RoleTuple,
    SelectionConfig,
    extract_tuples,
    heuristic_align,
    is_selected,
    match_tuples,
    recall_pair,
    select,
    selection_tsv,
)
from l2srl.corpus import SentencePair
from l2srl.model import Alignment, Frame, Span


def test_extract_one_tuple_per_covered_word():
    s = sent("s1", list("abcde"), [frame(3, (4, 5, "A1"))])
    assert extract_tuples(s) == {RoleTuple(3, 4, "A1"), RoleTuple(3, 5, "A1")}


def test_extract_empty_and_multi_frame():
    assert extract_tuples(sent("s1", ["a", "b"], [])) == set()
    s = sent(
        "s1",
        list("abcdef"),
        [frame(2, (1, 1, "A0")), frame(6, (5, 5, "A0"))],
    )
    assert extract_tuples(s) == {RoleTuple(2, 1, "A0"), RoleTuple(6, 5, "A0")}


def test_tuple_count_equals_span_length_sum():
    rng = random.Random(8)
    from helpers import random_sentence

    for k in range(100):
        s = random_sentence(rng, f"s{k}", n_frames=rng.randint(0, 3))
        total = sum(
            sp.end - sp.start + 1 for f in s.frames for sp in f.spans
        )
        assert len(extract_tuples(s)) == total


def shared(pair):
    """match_tuples over the tuples extracted from each side of a pair."""
    return match_tuples(pair.alignment.links, extract_tuples(pair.l2), extract_tuples(pair.l1))


WORKED_L2 = {RoleTuple(2, 1, "A0"), RoleTuple(2, 3, "A1")}
WORKED_L1 = {RoleTuple(3, 1, "A0"), RoleTuple(3, 4, "A1"), RoleTuple(3, 5, "AM")}
WORKED_LINKS = {(1, 2), (0, 0), (2, 3)}


def test_worked_example_from_tuples():
    matched_l2, matched_l1 = match_tuples(WORKED_LINKS, WORKED_L2, WORKED_L1)
    assert matched_l2 == WORKED_L2
    assert matched_l1 == {RoleTuple(3, 1, "A0"), RoleTuple(3, 4, "A1")}
    assert shared(worked_pair()) == (matched_l2, matched_l1)


def worked_pair():
    l2 = sent("w.l2", ["he", "eat", "rice"], [frame(2, (1, 1, "A0"), (3, 3, "A1"))],
              side="L2", pair="w")
    l1 = sent("w.l1", ["he", "often", "eats", "rice", "today"],
              [frame(3, (1, 1, "A0"), (4, 4, "A1"), (5, 5, "AM"))],
              side="L1", pair="w")
    return make_pair(l2, l1, WORKED_LINKS)


def test_worked_example_recalls():
    recall = recall_pair(worked_pair())
    assert recall.eligible
    assert recall.l2_recall == 1.0
    assert abs(recall.l1_recall - 2 / 3) < 0.00005


def test_identity_pair_recall_is_perfect():
    pair = identity_pair("p", ["a", "b", "c"], [frame(2, (1, 1, "A0"), (3, 3, "A1"))])
    matched_l2, matched_l1 = shared(pair)
    assert matched_l2 == extract_tuples(pair.l2)
    assert matched_l1 == extract_tuples(pair.l1)
    recall = recall_pair(pair)
    assert (recall.l2_recall, recall.l1_recall, recall.eligible) == (1.0, 1.0, True)


def test_empty_alignment_matches_nothing():
    pair = identity_pair("p", ["a", "b"], [frame(1, (2, 2, "A0"))])
    bare = SentencePair(pair.l2, pair.l1, Alignment("p", frozenset()))
    assert shared(bare) == (set(), set())


def test_zero_tuple_side_is_ineligible():
    l2 = sent("p.l2", ["a", "b"], [], side="L2", pair="p")
    l1 = sent("p.l1", ["a", "b"], [frame(1, (2, 2, "A0"))], side="L1", pair="p")
    recall = recall_pair(make_pair(l2, l1, {(0, 0), (1, 1)}))
    assert not recall.eligible
    assert recall.l2_recall == 0.0 and recall.l1_recall == 0.0


def test_coarse_am_matching_default():
    l2 = sent("p.l2", ["a", "b"], [frame(1, (2, 2, "AM-TMP"))], side="L2", pair="p")
    l1 = sent("p.l1", ["a", "b"], [frame(1, (2, 2, "AM-LOC"))], side="L1", pair="p")
    pair = make_pair(l2, l1, {(0, 0), (1, 1)})
    assert recall_pair(pair).l2_recall == 1.0
    assert recall_pair(pair, am_coarse=False).l2_recall == 0.0


def _random_tuples(rng, max_index, count):
    out = set()
    for _ in range(count):
        out.add(
            RoleTuple(
                rng.randint(1, max_index),
                rng.randint(1, max_index),
                rng.choice(("A0", "A1", "A2", "AM", "AM-TMP", "AM-LOC")),
            )
        )
    return out


def test_match_tuples_equals_brute_force():
    rng = random.Random(99)
    for _ in range(200):
        size = rng.randint(3, 20)
        l2 = _random_tuples(rng, size, rng.randint(0, 20))
        l1 = _random_tuples(rng, size, rng.randint(0, 20))
        links = {
            (rng.randint(0, size - 1), rng.randint(0, size - 1))
            for _ in range(rng.randint(0, 2 * size))
        }
        for coarse in (True, False):
            got = match_tuples(links, l2, l1, coarse)
            want = brute_force_shared(links, l2, l1, coarse)
            assert got == want


def _code_built_sentence(rng, sid, side):
    """Frames built in code: predicates repeat, spans overlap or repeat
    across frames, and adjunct subtypes occur."""
    roles = ("A0", "A1", "AM", "AM-TMP", "AM-LOC")
    n = rng.randint(1, 8)
    frames = []
    for _ in range(rng.randint(0, 4)):
        starts = [rng.randint(1, n) for _ in range(rng.randint(0, 3))]
        spans = [Span(s, rng.randint(s, min(n, s + 2)), rng.choice(roles)) for s in starts]
        frames.append(Frame(rng.randint(1, n), tuple(spans)))
    if frames and rng.random() < 0.5:
        frames.append(rng.choice(frames))
    return sent(sid, ["w"] * n, frames, side=side, pair=sid[:-3])


def test_recall_pair_equals_brute_force_over_extract_tuples():
    rng = random.Random(16)
    for k in range(400):
        l2 = _code_built_sentence(rng, f"r{k}.l2", "L2")
        l1 = _code_built_sentence(rng, f"r{k}.l1", "L1")
        links = set()
        if k % 4:  # every fourth pair has no links
            links = {
                (rng.randrange(len(l2)), rng.randrange(len(l1)))
                for _ in range(rng.randint(1, 2 * max(len(l2), len(l1))))
            }
        l2_tuples, l1_tuples = extract_tuples(l2), extract_tuples(l1)
        for s, tuples in ((l2, l2_tuples), (l1, l1_tuples)):
            assert all(type(t) is RoleTuple for t in tuples)
            assert tuples == {
                (f.predicate_index, argument, span.label)
                for f in s.frames
                for span in f.spans
                for argument in range(span.start, span.end + 1)
            }
        pair = make_pair(l2, l1, links)
        for coarse in (True, False):
            shared_l2, shared_l1 = brute_force_shared(links, l2_tuples, l1_tuples, coarse)
            assert recall_pair(pair, am_coarse=coarse) == PairRecall(
                len(l2_tuples), len(l1_tuples), len(shared_l2), len(shared_l1)
            )


def test_matching_monotone_in_links():
    rng = random.Random(7)
    for _ in range(50):
        size = rng.randint(3, 10)
        l2 = _random_tuples(rng, size, 8)
        l1 = _random_tuples(rng, size, 8)
        links = {
            (rng.randint(0, size - 1), rng.randint(0, size - 1)) for _ in range(6)
        }
        more = links | {(rng.randint(0, size - 1), rng.randint(0, size - 1))}
        small_l2, small_l1 = match_tuples(links, l2, l1)
        big_l2, big_l1 = match_tuples(more, l2, l1)
        assert small_l2 <= big_l2 and small_l1 <= big_l1


def _swap(pair):
    l2 = sent(pair.l1.id, [t.form for t in pair.l1.tokens], pair.l1.frames,
              lang=pair.l1.lang, side="L2", pair=pair.l1.pair_id)
    l1 = sent(pair.l2.id, [t.form for t in pair.l2.tokens], pair.l2.frames,
              lang=pair.l2.lang, side="L1", pair=pair.l2.pair_id)
    inverted = {(j, i) for i, j in pair.alignment.links}
    return make_pair(l2, l1, inverted)


def test_swap_symmetry():
    rng = random.Random(55)
    from helpers import random_sentence

    for k in range(200):
        l2 = random_sentence(rng, f"x{k}.l2", n_frames=rng.randint(0, 2), side="L2")
        l1 = random_sentence(rng, f"x{k}.l1", n_frames=rng.randint(0, 2), side="L1")
        links = {
            (rng.randint(0, len(l2.tokens) - 1), rng.randint(0, len(l1.tokens) - 1))
            for _ in range(rng.randint(0, 8))
        }
        pair = SentencePair(l2, l1, Alignment(l2.pair_id, frozenset(links)))
        forward = recall_pair(pair)
        backward = recall_pair(_swap(pair))
        assert forward.l2_recall == backward.l1_recall
        assert forward.l1_recall == backward.l2_recall
        assert forward.eligible == backward.eligible


def test_selection_threshold_strictly_greater():
    config = SelectionConfig(p=0.9)
    assert is_selected(PairRecall(100, 100, 95, 92), config)
    assert not is_selected(PairRecall(10, 10, 9, 9), config)  # exactly 0.9
    assert not is_selected(PairRecall(0, 10, 0, 10), config)  # ineligible


def test_selection_needs_each_side_above_the_threshold():
    config = SelectionConfig(p=0.5)
    assert is_selected(PairRecall(10, 10, 6, 6), config)
    assert not is_selected(PairRecall(10, 10, 5, 6), config)  # L2 recall exactly p
    assert not is_selected(PairRecall(10, 10, 6, 5), config)  # L1 recall exactly p


def test_selection_order_and_monotonicity():
    recalls = [
        PairRecall(10, 10, 10, 10),
        PairRecall(10, 10, 9, 9),
        PairRecall(10, 10, 10, 9),
        PairRecall(10, 10, 10, 10),
    ]
    items = list(zip("abcd", recalls))
    chosen = select(items, SelectionConfig(p=0.95))
    assert [name for name, _ in chosen] == ["a", "d"]
    # raising p never grows the selection
    lower = {n for n, _ in select(items, SelectionConfig(p=0.5))}
    higher = {n for n, _ in select(items, SelectionConfig(p=0.95))}
    assert higher <= lower
    # p = 1.0 selects nothing under the strict comparison
    assert select(items, SelectionConfig(p=1.0)) == []


def test_selection_config_bounds():
    with pytest.raises(ValueError):
        SelectionConfig(p=1.5)


def test_selection_tsv_shape():
    pair = worked_pair()
    recall = recall_pair(pair)
    text = selection_tsv([pair], [recall], SelectionConfig(p=0.9))
    lines = text.strip().split("\n")
    assert lines[0].split("\t")[0] == "pair_id"
    cells = lines[1].split("\t")
    assert cells[0] == "w"
    assert cells[5] == "1.0000" and cells[6] == "0.6667"
    assert cells[7] == "0"  # 2/3 < 0.9


def test_heuristic_align_identity():
    pair = identity_pair("p", ["a", "b", "c"], [frame(1)])
    got = heuristic_align(pair.l2, pair.l1)
    assert got.links == frozenset({(0, 0), (1, 1), (2, 2)})


def test_heuristic_align_insertion():
    l2 = sent("p.l2", ["we", "eat", "rice"], [], side="L2", pair="p")
    l1 = sent("p.l1", ["we", "often", "eat", "rice"], [], side="L1", pair="p")
    got = heuristic_align(l2, l1)
    assert got.links == frozenset({(0, 0), (1, 2), (2, 3)})


def test_heuristic_align_never_links_different_forms():
    l2 = sent("p.l2", ["aa", "bb"], [], side="L2", pair="p")
    l1 = sent("p.l1", ["cc", "dd"], [], side="L1", pair="p")
    assert heuristic_align(l2, l1).links == frozenset()


def test_heuristic_align_repeated_forms_nearest_position():
    l2 = sent("p.l2", ["x", "y", "x"], [], side="L2", pair="p")
    l1 = sent("p.l1", ["x", "z", "x"], [], side="L1", pair="p")
    got = heuristic_align(l2, l1)
    assert (0, 0) in got.links and (2, 2) in got.links


def test_heuristic_align_matches_reference():
    rng = random.Random(17)
    for trial in range(6000):
        l2 = sent("p.l2", rng.choices("xyz", k=rng.randint(0, 9)), [], side="L2", pair="p")
        l1 = sent("p.l1", rng.choices("xyz", k=rng.randint(0, 9)), [], side="L1", pair="p")
        assert heuristic_align(l2, l1) == reference_align(l2, l1), trial


def _align_case(l2_forms, l1_forms):
    l2 = sent("p.l2", l2_forms, [], side="L2", pair="p")
    l1 = sent("p.l1", l1_forms, [], side="L1", pair="p")
    return l2, l1


@pytest.mark.parametrize("alphabet", ["x", "xy", "wxyz"])
def test_heuristic_align_matches_reference_on_long_sentences(alphabet):
    # 60-150 tokens take the bit vectors past the 64- and 128-bit marks and
    # over several of CPython's 30-bit integer digits.
    rng = random.Random(len(alphabet))
    lengths = [(63, 64), (64, 65), (127, 128), (129, 128), (150, 60)]
    lengths += [(rng.randint(60, 150), rng.randint(60, 150)) for _ in range(10)]
    for n, m in lengths:
        l2, l1 = _align_case(rng.choices(alphabet, k=n), rng.choices(alphabet, k=m))
        assert heuristic_align(l2, l1) == reference_align(l2, l1), (n, m)


def test_heuristic_align_matches_reference_on_tied_and_edge_cases():
    rng = random.Random(23)
    cases = [((), ()), (("x",), ()), ((), ("x", "y"))]
    for alphabet in ("x", "xy"):  # most steps of the traceback tie
        for _ in range(300):
            cases.append((rng.choices(alphabet, k=rng.randint(0, 12)),
                           rng.choices(alphabet, k=rng.randint(0, 12))))
    for _ in range(100):  # L1 is L2 reversed
        forms = rng.choices("xyz", k=rng.randint(0, 40))
        cases.append((forms, forms[::-1]))
    for l2_forms, l1_forms in cases:
        l2, l1 = _align_case(l2_forms, l1_forms)
        assert heuristic_align(l2, l1) == reference_align(l2, l1), (l2_forms, l1_forms)


def test_heuristic_align_links_identical_forms_one_to_one():
    rng = random.Random(29)
    for trial in range(2000):
        l2, l1 = _align_case(rng.choices("wxyz", k=rng.randint(0, 30)),
                             rng.choices("wxyz", k=rng.randint(0, 30)))
        links = heuristic_align(l2, l1).links
        assert all(l2.forms[i] == l1.forms[j] for i, j in links), trial
        assert len({i for i, _ in links}) == len({j for _, j in links}) == len(links), trial
