"""Core data model for role-labeled sentences.

A sentence stores its word forms; ``tokens`` is a derived view of 1-based
Tokens.  Each predicate occurrence carries a frame of role-labeled argument
spans.  Role labels follow the CPB-style inventory: core arguments
``A0``..``A4`` and adjuncts ``AM``, optionally subtyped (``AM-TMP``).  A
frame is also a sequence of position tags over the sentence: ``O`` outside
any argument, ``rel`` on the predicate token, and ``S-``/``B-``/``I-``/``E-``
prefixed labels for single-token, begin, inside and end span positions.

All types are immutable values; the operations here are pure functions.
"""

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


class Token(NamedTuple):
    """One gold-segmented word; ``index`` is its 1-based sentence position."""

    index: int
    form: str


class Span(NamedTuple):
    """A role-labeled argument span, 1-based and end-inclusive.

    A Span is its own ``(start, end, label)`` triple: it hashes, compares
    and sorts as that plain tuple.
    """

    start: int
    end: int
    label: str

    def covers(self, index: int) -> bool:
        return self.start <= index <= self.end


def spans_overlap(a: Span, b: Span) -> bool:
    return a.start <= b.end and b.start <= a.end


class _FrameFields(NamedTuple):
    predicate_index: int
    spans: tuple[Span, ...]


class Frame(_FrameFields):
    """All argument spans of one predicate occurrence.

    The predicate token itself is never inside a span.  Spans behave as a
    set: construction sorts and deduplicates them, and so do ``_make`` and
    ``_replace``.  Construction is permissive; ``corpus.parse_corpus`` is
    where frames are checked.  A Frame is its own ``(predicate_index,
    spans)`` pair: it hashes, compares and sorts as that plain tuple.
    """

    __slots__ = ()

    def __new__(cls, predicate_index: int, spans=()):
        return tuple.__new__(cls, (predicate_index, tuple(sorted(set(spans)))))

    @classmethod
    def _make(cls, iterable):
        # The inherited _make, which _replace and copy.replace call, would
        # skip the normalising __new__.
        return cls(*iterable)


@dataclass(frozen=True)
class AnnotatedSentence:
    id: str
    lang: str
    side: str
    pair_id: str
    forms: tuple[str, ...]
    frames: tuple[Frame, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        object.__setattr__(self, "frames", tuple(self.frames))

    def __len__(self) -> int:
        return len(self.forms)

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The forms as 1-based Tokens, built on each read."""
        return tuple(Token(i, form) for i, form in enumerate(self.forms, start=1))


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


@lru_cache(maxsize=1024)
def checked_tag(tag: str) -> tuple | None:
    """``split_tag(tag)`` for a valid position tag, else None."""
    return split_tag(tag) if is_position_tag(tag) else None


def spans_from_tags(tags) -> Frame:
    """Decode a position-tag sequence into a Frame.

    Accepts exactly the tag grammar: one ``rel``, and arguments written as
    ``S-x`` singletons or ``B-x I-x* E-x`` runs with a uniform label;
    anything else raises IllFormedTagSequence.
    """
    spans: list[Span] = []
    predicate = None
    run_label: str | None = None
    run_start = 0

    def fail(pos, why):
        raise IllFormedTagSequence(f"position {pos}: {why}")

    for pos, tag in enumerate(tags, start=1):
        # An O costs one comparison: it is an error only inside a run.
        if tag == O_TAG:
            if run_label is not None:
                fail(pos, f"run B-{run_label} not closed before {tag!r}")
            continue
        split = checked_tag(tag)
        if split is None:
            fail(pos, f"unknown tag {tag!r}")
        position, label = split
        if run_label is None:
            if position == "B":
                run_label, run_start = label, pos
            elif position == "S":
                spans.append(tuple.__new__(Span, (pos, pos, label)))
            elif position is None:  # rel, as O is handled above
                if predicate is not None:
                    fail(pos, "more than one 'rel' tag")
                predicate = pos
            else:
                fail(pos, f"{position} tag outside a run")
        elif position == "I" or position == "E":
            if label != run_label:
                fail(pos, f"label {label} disagrees with open run B-{run_label}")
            if position == "E":
                spans.append(tuple.__new__(Span, (run_start, pos, run_label)))
                run_label = None
        else:
            fail(pos, f"run B-{run_label} not closed before {tag!r}")
    if run_label is not None:
        fail(len(tags), f"run B-{run_label} never closed")
    if predicate is None:
        raise IllFormedTagSequence("no 'rel' tag in sequence")
    # Spans come left to right without overlap: already sorted and distinct.
    return tuple.__new__(Frame, (predicate, tuple(spans)))


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
        start, end, label = span
        if not 1 <= start <= end <= length:
            raise InvalidFrame(f"span {span} outside 1..{length}")
        if not is_role_label(label):
            raise InvalidFrame(f"span {span} has invalid label {label!r}")
        if tags[start - 1:end].count(O_TAG) <= end - start:
            taken = next(i for i in range(start, end + 1) if tags[i - 1] != O_TAG)
            if taken == frame.predicate_index:
                raise InvalidFrame(f"span {span} covers the predicate token")
            raise InvalidFrame(f"span {span} overlaps another span")
        # The label is checked above, so the tags are written directly.
        if start == end:
            tags[start - 1] = f"S-{label}"
        else:
            tags[start - 1] = f"B-{label}"
            tags[start:end - 1] = [f"I-{label}"] * (end - start - 1)
            tags[end - 1] = f"E-{label}"
    return tags
