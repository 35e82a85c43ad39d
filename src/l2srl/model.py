"""Core data model for role-labeled sentences.

Sentences are sequences of 1-based tokens; each predicate occurrence carries a
frame of role-labeled argument spans.  Role labels follow the CPB-style
inventory: core arguments ``A0``..``A4`` and adjuncts ``AM``, optionally
subtyped (``AM-TMP``).  A frame can equivalently be viewed as a sequence of
position tags over the sentence: ``O`` outside any argument, ``rel`` on the
predicate token, and ``S-``/``B-``/``I-``/``E-`` prefixed labels marking
single-token, begin, inside, and end positions of argument spans.

All types are immutable values; the operations here are pure functions.
"""

import re
from dataclasses import dataclass
from operator import attrgetter

from l2srl.errors import IllFormedTagSequence, InvalidFrame

LANGS = ("ENG", "JPN", "RUS", "ARA", "OTHER")
SIDES = ("L2", "L1")
CORE_LABELS = ("A0", "A1", "A2", "A3", "A4")

O_TAG = "O"
REL_TAG = "rel"
POSITIONS = ("S", "B", "I", "E")

_ROLE_RE = re.compile(r"(A[0-4]|AM(-[A-Za-z0-9]+)?)")


def is_role_label(text: str) -> bool:
    """True for a valid argument/adjunct label: A0..A4, AM, or AM-<subtype>."""
    return bool(_ROLE_RE.fullmatch(text))


def is_adjunct_label(text: str) -> bool:
    return text == "AM" or text.startswith("AM-")


def coarse_label(text: str) -> str:
    """Collapse adjunct subtypes: AM-TMP -> AM; core labels pass through."""
    return "AM" if is_adjunct_label(text) else text


def make_tag(position: str, label: str) -> str:
    if position not in POSITIONS or not is_role_label(label):
        raise ValueError(f"bad position tag: {position}-{label}")
    return f"{position}-{label}"


def split_tag(tag: str) -> tuple[str | None, str | None]:
    """Return (position, label) for an argument tag, (None, None) for O/rel."""
    if tag in (O_TAG, REL_TAG):
        return None, None
    return tag[0], tag[2:]


def is_position_tag(tag: str) -> bool:
    if tag in (O_TAG, REL_TAG):
        return True
    return (
        len(tag) > 2
        and tag[0] in POSITIONS
        and tag[1] == "-"
        and is_role_label(tag[2:])
    )


@dataclass(frozen=True)
class Token:
    """One gold-segmented word; ``index`` is its 1-based sentence position."""

    index: int
    form: str


@dataclass(frozen=True, order=True)
class Span:
    """A role-labeled argument span, 1-based and end-inclusive."""

    start: int
    end: int
    label: str

    def covers(self, index: int) -> bool:
        return self.start <= index <= self.end


# Span's dataclass order, read at C level.
_SPAN_ORDER = attrgetter("start", "end", "label")


def spans_overlap(a: Span, b: Span) -> bool:
    return a.start <= b.end and b.start <= a.end


@dataclass(frozen=True)
class Frame:
    """All argument spans of one predicate occurrence.

    The predicate token itself is never inside a span.  Spans behave as a
    set: construction sorts and deduplicates them.  Construction is
    permissive; ``corpus.parse_corpus`` is where frames are checked.
    """

    predicate_index: int
    spans: tuple[Span, ...] = ()

    def __post_init__(self):
        normalized = tuple(sorted(set(self.spans), key=_SPAN_ORDER))
        object.__setattr__(self, "spans", normalized)


@dataclass(frozen=True)
class AnnotatedSentence:
    id: str
    lang: str
    side: str
    pair_id: str
    tokens: tuple[Token, ...]
    frames: tuple[Frame, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "frames", tuple(self.frames))

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def forms(self) -> tuple[str, ...]:
        return tuple(t.form for t in self.tokens)


@dataclass(frozen=True)
class Alignment:
    """Word alignment between the L2 and L1 sides of a pair.

    Links are 0-based (i, j) pairs, i indexing L2 tokens and j indexing L1
    tokens; many-to-many links are permitted.
    """

    pair_id: str
    links: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "links", frozenset(self.links))


def spans_from_tags(tags) -> Frame:
    """Decode a position-tag sequence into a Frame.

    Accepts exactly the tag grammar: one ``rel``, and arguments written as
    ``S-x`` singletons or ``B-x I-x* E-x`` runs with a uniform label;
    anything else raises IllFormedTagSequence.
    """
    return _decode_tags(tags, {})


def _decode_tags(tags, parts: dict) -> Frame:
    """spans_from_tags, given ``parts``: a table of the tags already known
    to be valid, each mapped to its ``split_tag``.  Tags missing from the
    table are checked and added to it."""
    spans: list[Span] = []
    predicate = None
    run_label: str | None = None
    run_start = 0

    def fail(pos, why):
        raise IllFormedTagSequence(f"position {pos}: {why}")

    for pos, tag in enumerate(tags, start=1):
        split = parts.get(tag)
        if split is None:
            if not is_position_tag(tag):
                fail(pos, f"unknown tag {tag!r}")
            split = parts[tag] = split_tag(tag)
        position, label = split
        if run_label is not None and position in (None, "S", "B"):
            fail(pos, f"run B-{run_label} not closed before {tag!r}")
        if position is None:
            if tag == REL_TAG:
                if predicate is not None:
                    fail(pos, "more than one 'rel' tag")
                predicate = pos
            continue
        if position == "S":
            spans.append(Span(pos, pos, label))
        elif position == "B":
            run_label, run_start = label, pos
        elif run_label is None:
            fail(pos, f"{position} tag outside a run")
        elif run_label != label:
            fail(pos, f"label {label} disagrees with open run B-{run_label}")
        elif position == "E":
            spans.append(Span(run_start, pos, run_label))
            run_label = None
    if run_label is not None:
        fail(len(tags), f"run B-{run_label} never closed")
    if predicate is None:
        raise IllFormedTagSequence("no 'rel' tag in sequence")
    return Frame(predicate, tuple(spans))


def tags_from_spans(frame: Frame, length: int) -> list[str]:
    """Encode a frame as a position-tag sequence of the given length.

    Inverse of spans_from_tags; raises InvalidFrame when the frame does not
    fit (out-of-bounds indices, overlapping spans, or a span covering the
    predicate token).
    """
    if not 1 <= frame.predicate_index <= length:
        raise InvalidFrame(
            f"predicate index {frame.predicate_index} outside 1..{length}"
        )
    tags = [O_TAG] * length
    tags[frame.predicate_index - 1] = REL_TAG
    for span in frame.spans:
        if not 1 <= span.start <= span.end <= length:
            raise InvalidFrame(f"span {span} outside 1..{length}")
        if not is_role_label(span.label):
            raise InvalidFrame(f"span {span} has invalid label {span.label!r}")
        for i in range(span.start, span.end + 1):
            if tags[i - 1] != O_TAG:
                if i == frame.predicate_index:
                    raise InvalidFrame(f"span {span} covers the predicate token")
                raise InvalidFrame(f"span {span} overlaps another span")
        if span.start == span.end:
            tags[span.start - 1] = make_tag("S", span.label)
        else:
            tags[span.start - 1] = make_tag("B", span.label)
            for i in range(span.start + 1, span.end):
                tags[i - 1] = make_tag("I", span.label)
            tags[span.end - 1] = make_tag("E", span.label)
    return tags
