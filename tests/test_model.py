"""Tag/span conversion and its grammar."""

import copy
import dataclasses
import pickle
import random
import re
import sys

import pytest

from helpers import frame
from l2srl.corpus import Corpus, parse_corpus, render_corpus
from l2srl.errors import IllFormedTagSequence, InvalidFrame, ParseError
from l2srl.model import (
    AnnotatedSentence,
    Frame,
    Span,
    Token,
    checked_tag,
    coarse_label,
    is_position_tag,
    is_role_label,
    make_tag,
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
    assert type(decoded) is Frame
    assert [type(s) for s in decoded.spans] == [Span, Span]
    assert [s.label for s in decoded.spans] == ["A0", "AM"]


STRICT_REJECTS = [
    (["B-A0", "rel"], "position 2: run B-A0 not closed before 'rel'"),
    (["I-A0", "rel"], "position 1: I tag outside a run"),
    (["E-A0", "rel"], "position 1: E tag outside a run"),
    (["B-A0", "I-A1", "E-A0", "rel"], "position 2: label A1 disagrees with open run B-A0"),
    (["B-A0", "E-A1", "rel"], "position 2: label A1 disagrees with open run B-A0"),
    (["B-A0", "B-A0", "E-A0", "rel"], "position 2: run B-A0 not closed before 'B-A0'"),
    (["B-A0", "S-A1", "rel"], "position 2: run B-A0 not closed before 'S-A1'"),
    (["rel", "B-A0"], "position 2: run B-A0 never closed"),
    (["rel", "X-A0"], "position 2: unknown tag 'X-A0'"),
    (["B-A0", "O", "E-A0", "rel"], "position 2: run B-A0 not closed before 'O'"),
    (["rel", "B-A0", "O"], "position 3: run B-A0 not closed before 'O'"),
]


@pytest.mark.parametrize(
    "tags, message", STRICT_REJECTS, ids=[f"tags{k}" for k in range(len(STRICT_REJECTS))]
)
def test_decode_strict_rejects(tags, message):
    with pytest.raises(IllFormedTagSequence) as err:
        spans_from_tags(tags)
    assert str(err.value) == message


def _valid_sequences(labels):
    """One valid sequence per label: ``S-x rel B-x I-x E-x``."""
    return [[f"S-{lab}", "rel", f"B-{lab}", f"I-{lab}", f"E-{lab}"] for lab in labels]


def test_shared_tag_table_keeps_every_rejection_message():
    """Tags that valid sequences put in the shared cache (I-A0, B-A1, ...)
    are still rejected where the grammar forbids them, with the same
    message."""
    checked_tag.cache_clear()
    for tags, _ in STRICT_REJECTS:
        with pytest.raises(IllFormedTagSequence):
            spans_from_tags(tags)
    for tags in _valid_sequences(("A0", "A1", "AM-TMP")):
        spans_from_tags(tags)
    misses = checked_tag.cache_info().misses
    for tag in ("I-A0", "E-A0", "B-A0", "S-A1", "I-A1"):
        checked_tag(tag)
    assert checked_tag.cache_info().misses == misses  # all five are cached
    for tags, message in STRICT_REJECTS:
        with pytest.raises(IllFormedTagSequence) as err:
            spans_from_tags(tags)
        assert str(err.value) == message


def test_shared_tag_table_leaves_parse_errors_unchanged():
    head = "# id = s1\n# lang = ENG\n# side = L2\n# pair = p1\n"
    bad = {
        "1\tthe\t_\tX-A0\n2\tcat\tY\trel\n\n": (
            "line 5: undecodable tag 'X-A0' in frame column 1", 5),
        "1\tthe\t_\tI-A0\n2\tcat\tY\trel\n\n": (
            "line 5: undecodable tag column 1: position 1: I tag outside a run", 5),
        "1\tthe\t_\tB-A1\n2\tcat\tY\trel\n\n": (
            "line 5: undecodable tag column 1: "
            "position 2: run B-A1 not closed before 'rel'", 5),
    }

    def errors():
        found = []
        for body in bad:
            with pytest.raises(ParseError) as err:
                parse_corpus((head + body).encode())
            found.append((str(err.value), err.value.line))
        return found

    checked_tag.cache_clear()
    before = errors()
    for tags in _valid_sequences(("A0", "A1")):
        spans_from_tags(tags)
    assert errors() == before == list(bad.values())


def test_shared_tag_table_never_grows_past_its_limit():
    """Distinct valid AM subtypes do not grow the shared cache past 1024
    tags, in one long sequence as across many short ones and in a parsed
    corpus, and decodes and parses stay exact."""
    checked_tag.cache_clear()
    subtypes = [f"AM-X{k}" for k in range(3 * 1024)]
    long = ["rel"] + [f"S-{lab}" for lab in subtypes]
    expected = frame(1, *[(k, k, lab) for k, lab in enumerate(subtypes, start=2)])
    assert spans_from_tags(long) == expected
    assert 0 < checked_tag.cache_info().currsize <= 1024
    for tags in _valid_sequences(subtypes[:800]):
        spans_from_tags(tags)
        assert checked_tag.cache_info().currsize <= 1024

    def sentence(sid, n, f):
        return AnnotatedSentence(sid, "ENG", "L2", sid, ["w"] * n, [f])

    # The parser checks its tags through the same cache: the long frame,
    # then S-x B-x I-x E-x of every subtype, then a tag never decoded above.
    data = render_corpus(Corpus([
        sentence("long", len(long), expected),
        *(sentence(lab, 5, frame(2, (1, 1, lab), (3, 5, lab))) for lab in subtypes),
        sentence("new", 2, frame(1, (2, 2, "AM-NEW"))),
    ]))
    assert render_corpus(parse_corpus(data)) == data
    assert 0 < checked_tag.cache_info().currsize <= 1024
    hits = checked_tag.cache_info().hits
    assert checked_tag("S-AM-NEW") == ("S", "AM-NEW")
    assert checked_tag.cache_info().hits == hits + 1  # the parser cached it


def test_encode_examples():
    assert tags_from_spans(frame(3, (2, 2, "A0"), (4, 5, "A1")), 5) == [
        "O", "S-A0", "rel", "B-A1", "E-A1",
    ]
    assert tags_from_spans(frame(1), 2) == ["rel", "O"]


def test_encode_rejects_overlap_and_bounds():
    # The messages embed the Span repr, so they pin it as well.
    cases = [
        (frame(2, (1, 1, "A0"), (1, 1, "A1")), 3,
         "span Span(start=1, end=1, label='A1') overlaps another span"),
        (frame(1, (2, 7, "A0")), 5,
         "span Span(start=2, end=7, label='A0') outside 1..5"),
        (frame(2, (1, 3, "A0")), 4,
         "span Span(start=1, end=3, label='A0') covers the predicate token"),
        (frame(9), 5, "predicate index 9 outside 1..5"),
        (frame(1, (2, 2, "A9")), 3,
         "span Span(start=2, end=2, label='A9') has invalid label 'A9'"),
    ]
    for f, length, message in cases:
        with pytest.raises(InvalidFrame) as excinfo:
            tags_from_spans(f, length)
        assert str(excinfo.value) == message


def test_token_and_span_value_semantics():
    span, token = Span(1, 2, "A0"), Token(3, "rice")
    assert repr(span) == str(span) == "Span(start=1, end=2, label='A0')"
    assert repr(token) == str(token) == "Token(index=3, form='rice')"
    for value, name in ((span, "start"), (span, "label"), (token, "form")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert span == (1, 2, "A0") and hash(span) == hash((1, 2, "A0"))
    rng = random.Random(5)
    spans = [Span(rng.randint(1, 4), rng.randint(1, 4), rng.choice(LABELS))
             for _ in range(200)]
    assert sorted(spans) == sorted(spans, key=lambda s: (s.start, s.end, s.label))


def test_frame_dedups_and_sorts_spans():
    a, b, c = Span(1, 1, "A1"), Span(1, 1, "A0"), Span(4, 5, "AM")
    assert Frame(2, (c, a, b, a, c)).spans == (b, a, c)
    assert Frame(2, (c, a, b)) == Frame(2, (b, c, a))


def test_frame_value_semantics():
    a, b, c = Span(1, 1, "A1"), Span(1, 1, "A0"), Span(4, 5, "AM")
    f = Frame(2, (c, a, b, a, c))
    assert f == (2, (b, a, c)) and hash(f) == hash((2, (b, a, c)))
    assert Frame(2, ()) == Frame(2) == (2, ())
    assert repr(f) == str(f) == (
        "Frame(predicate_index=2, spans=(Span(start=1, end=1, label='A0'), "
        "Span(start=1, end=1, label='A1'), Span(start=4, end=5, label='AM')))"
    )
    assert repr(Frame(3)) == "Frame(predicate_index=3, spans=())"
    with pytest.raises(AttributeError):
        f.spans = ()
    assert not hasattr(f, "__dict__")
    # Every way of building a Frame from another sorts and deduplicates.
    copies = [
        f._replace(spans=(c, a, b, c)),
        Frame._make((2, [c, b, a, b])),
        pickle.loads(pickle.dumps(f)),
        copy.deepcopy(f),
        copy.copy(f),
    ]
    if sys.version_info >= (3, 13):
        copies.append(copy.replace(f, spans=(c, b, a, b)))
    for other in copies:
        assert type(other) is Frame and other.spans == (b, a, c) and other == f
    assert f._replace(predicate_index=5) == (5, (b, a, c))
    with pytest.raises(TypeError):
        dataclasses.replace(f, spans=())


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


@pytest.mark.parametrize("position, label", [("X", "A0"), ("", "A0"), ("B", "rel"), ("S", "A9")])
def test_make_tag_rejects_a_bad_position_or_label(position, label):
    with pytest.raises(ValueError, match=f"bad position tag: {position}-{label}$"):
        make_tag(position, label)
