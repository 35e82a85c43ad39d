"""Tag/span conversion and its grammar."""

import random
import re

import pytest

from helpers import frame
from l2srl.errors import IllFormedTagSequence, InvalidFrame
from l2srl.model import (
    Frame,
    Span,
    coarse_label,
    is_position_tag,
    is_role_label,
    spans_from_tags,
    tags_from_spans,
)

LABELS = ("A0", "A1", "A2", "AM", "AM-TMP")


def test_decode_mixed_single_and_run():
    decoded = spans_from_tags(["O", "S-A0", "rel", "B-A1", "E-A1"])
    assert decoded == frame(3, (2, 2, "A0"), (4, 5, "A1"))


def test_decode_requires_exactly_one_rel():
    with pytest.raises(IllFormedTagSequence):
        spans_from_tags(["O", "O", "O"])
    with pytest.raises(IllFormedTagSequence):
        spans_from_tags(["rel", "O", "rel"])


def test_decode_run_then_singleton():
    decoded = spans_from_tags(["B-A0", "I-A0", "E-A0", "rel", "S-AM"])
    assert decoded == frame(4, (1, 3, "A0"), (5, 5, "AM"))


@pytest.mark.parametrize(
    "tags",
    [
        ["B-A0", "rel"],  # unterminated B
        ["I-A0", "rel"],  # orphan I
        ["E-A0", "rel"],  # orphan E
        ["B-A0", "I-A1", "E-A0", "rel"],  # label disagreement inside run
        ["B-A0", "E-A1", "rel"],  # E label mismatch
        ["B-A0", "B-A0", "E-A0", "rel"],  # B reopens an open run
        ["B-A0", "S-A1", "rel"],  # S inside an open run
        ["rel", "B-A0"],  # run open at sequence end
        ["rel", "X-A0"],  # unknown tag
    ],
)
def test_decode_strict_rejects(tags):
    with pytest.raises(IllFormedTagSequence):
        spans_from_tags(tags)


def test_encode_examples():
    assert tags_from_spans(frame(3, (2, 2, "A0"), (4, 5, "A1")), 5) == [
        "O", "S-A0", "rel", "B-A1", "E-A1",
    ]
    assert tags_from_spans(frame(1), 2) == ["rel", "O"]


def test_encode_rejects_overlap_and_bounds():
    with pytest.raises(InvalidFrame):
        tags_from_spans(frame(2, (1, 1, "A0"), (1, 1, "A1")), 3)
    with pytest.raises(InvalidFrame):
        tags_from_spans(frame(1, (2, 7, "A0")), 5)
    with pytest.raises(InvalidFrame):
        tags_from_spans(frame(2, (1, 3, "A0")), 4)  # covers the predicate
    with pytest.raises(InvalidFrame):
        tags_from_spans(frame(9), 5)  # predicate out of bounds
    with pytest.raises(InvalidFrame):
        tags_from_spans(frame(1, (2, 2, "A9")), 3)  # not a role label


def _random_valid_frame(rng, n):
    predicate = rng.randint(1, n)
    spans = []
    i = 1
    while i <= n:
        if i == predicate:
            i += 1
            continue
        if rng.random() < 0.5:
            end = min(i + rng.randint(0, 3), n)
            if i <= predicate <= end:
                end = predicate - 1
            if end >= i:
                spans.append(Span(i, end, rng.choice(LABELS)))
                i = end + 1
                continue
        i += 1
    return Frame(predicate, tuple(spans))


def test_round_trip_random_frames():
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randint(1, 12)
        original = _random_valid_frame(rng, n)
        assert spans_from_tags(tags_from_spans(original, n)) == original


def _grammar_regex(tags):
    """Independent recognizer: encode tags as letters, match with a regex."""
    codes = {"A0": "a", "A1": "b", "A2": "c", "AM": "d", "AM-TMP": "e"}
    encoded = []
    for tag in tags:
        if tag == "O":
            encoded.append("o.")
        elif tag == "rel":
            encoded.append("r.")
        else:
            encoded.append(tag[0].lower() + codes[tag[2:]])
    text = "".join(encoded)
    unit = r"(?:o\.|r\.|s[a-e]|b([a-e])(?:i\1)*e\1)"
    return re.fullmatch(f"{unit}*", text) is not None and text.count("r.") == 1


def test_strict_decode_agrees_with_grammar():
    rng = random.Random(99)
    alphabet = ["O", "rel"]
    for lab in LABELS:
        alphabet += [f"S-{lab}", f"B-{lab}", f"I-{lab}", f"E-{lab}"]
    accepted = rejected = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        tags = [rng.choice(alphabet) for _ in range(n)]
        should_accept = _grammar_regex(tags)
        try:
            decoded = spans_from_tags(tags)
            ok = True
        except IllFormedTagSequence:
            ok = False
        assert ok == should_accept, tags
        if ok:
            accepted += 1
            # successful decodes never produce overlapping spans
            spans = sorted(decoded.spans)
            for a, b in zip(spans, spans[1:]):
                assert a.end < b.start
        else:
            rejected += 1
    assert accepted > 20 and rejected > 20  # both branches exercised


def test_label_helpers():
    assert is_role_label("A0") and is_role_label("AM") and is_role_label("AM-TMP")
    assert not is_role_label("A5") and not is_role_label("rel") and not is_role_label("AM-")
    assert coarse_label("AM-TMP") == "AM"
    assert coarse_label("A1") == "A1"
    assert is_position_tag("B-AM-TMP") and not is_position_tag("Q-A0")
