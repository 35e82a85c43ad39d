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
    permissive; ``validate_sentence`` reports invariant violations.
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


@dataclass(frozen=True)
class Violation:
    """One broken invariant found by validate_sentence."""

    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


def spans_from_tags(tags, lenient: bool = False) -> Frame:
    """Decode a position-tag sequence into a Frame.

    Strict mode (the default) accepts exactly the tag grammar: one ``rel``,
    and arguments written as ``S-x`` singletons or ``B-x I-x* E-x`` runs
    with a uniform label; anything else raises IllFormedTagSequence.

    Lenient mode repairs broken sequences instead: an orphan I starts a new
    run (as if B), an orphan E becomes a singleton (as if S), an
    unterminated run is closed at its last contiguous same-label token, and
    ``rel`` tags after the first are ignored.  A sequence with no ``rel``
    is unrepairable and raises in both modes.
    """
    return _decode_tags(tags, lenient, {})


def _decode_tags(tags, lenient: bool, parts: dict) -> Frame:
    """spans_from_tags, given ``parts``: a table of the tags already known
    to be valid, each mapped to its ``split_tag``.  Tags missing from the
    table are checked and added to it."""
    spans: list[Span] = []
    predicate = None
    run_label: str | None = None
    run_start = 0

    def fail(pos, why):
        raise IllFormedTagSequence(f"position {pos}: {why}")

    def close_run(end):
        nonlocal run_label
        spans.append(Span(run_start, end, run_label))
        run_label = None

    for pos, tag in enumerate(tags, start=1):
        split = parts.get(tag)
        if split is None:
            if not is_position_tag(tag):
                fail(pos, f"unknown tag {tag!r}")
            split = parts[tag] = split_tag(tag)
        position, label = split
        if run_label is not None and position in (None, "S", "B"):
            if not lenient:
                fail(pos, f"run B-{run_label} not closed before {tag!r}")
            close_run(pos - 1)
        if position is None:
            if tag == REL_TAG:
                if predicate is None:
                    predicate = pos
                elif not lenient:
                    fail(pos, "more than one 'rel' tag")
            continue
        if position == "S":
            spans.append(Span(pos, pos, label))
        elif position == "B":
            run_label, run_start = label, pos
        elif position == "I":
            if run_label is None:
                if not lenient:
                    fail(pos, "I tag outside a run")
                run_label, run_start = label, pos
            elif run_label != label:
                if not lenient:
                    fail(pos, f"label {label} disagrees with open run B-{run_label}")
                close_run(pos - 1)
                run_label, run_start = label, pos
        else:  # E
            if run_label is None:
                if not lenient:
                    fail(pos, "E tag outside a run")
                spans.append(Span(pos, pos, label))
            elif run_label != label:
                if not lenient:
                    fail(pos, f"label {label} disagrees with open run B-{run_label}")
                close_run(pos - 1)
                spans.append(Span(pos, pos, label))
            else:
                close_run(pos)
    if run_label is not None:
        if not lenient:
            fail(len(tags), f"run B-{run_label} never closed")
        close_run(len(tags))
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


def validate_sentence(sentence: AnnotatedSentence) -> list[Violation]:
    """Check every type invariant; an empty list means the sentence is valid.

    Violations are data, not failures: each one names the offending
    frame/span and the rule it breaks.
    """
    out: list[Violation] = []
    if not sentence.id:
        out.append(Violation("BadMetadata", "empty sentence id"))
    if sentence.lang not in LANGS:
        out.append(Violation("BadMetadata", f"unknown lang {sentence.lang!r}"))
    if sentence.side not in SIDES:
        out.append(Violation("BadMetadata", f"unknown side {sentence.side!r}"))
    n = len(sentence.tokens)
    for i, token in enumerate(sentence.tokens, start=1):
        if token.index != i:
            out.append(
                Violation("BadToken", f"token {i} has index {token.index}")
            )
        if not token.form or any(c.isspace() for c in token.form):
            out.append(
                Violation("BadToken", f"token {i} form {token.form!r} is empty or has whitespace")
            )
    last_predicate = 0
    for k, frame in enumerate(sentence.frames, start=1):
        where = f"frame {k} (predicate {frame.predicate_index})"
        if not 1 <= frame.predicate_index <= n:
            out.append(Violation("OutOfBounds", f"{where}: predicate outside 1..{n}"))
        if frame.predicate_index <= last_predicate:
            out.append(_frame_order_violation(k, frame.predicate_index, last_predicate))
        last_predicate = frame.predicate_index
        widest: Span | None = None  # earlier span with the furthest end
        for span in frame.spans:
            at = f"{where}: span ({span.start},{span.end},{span.label})"
            if not 1 <= span.start <= span.end <= n:
                out.append(Violation("OutOfBounds", f"{at} outside 1..{n}"))
            if not is_role_label(span.label):
                out.append(Violation("BadLabel", f"{at} has invalid label"))
            if span.covers(frame.predicate_index):
                out.append(Violation("CoversPredicate", f"{at} covers the predicate token"))
            if widest is not None and spans_overlap(widest, span):
                out.append(Violation("Overlap", f"{at} overlaps ({widest.start},{widest.end},{widest.label})"))
            if widest is None or span.end > widest.end:
                widest = span
    return out


def _frame_order_violation(k: int, predicate: int, last_predicate: int) -> Violation:
    """The violation of frame ``k`` whose predicate does not follow the
    previous frame's: the same token, or an earlier one."""
    where = f"frame {k} (predicate {predicate})"
    if predicate == last_predicate:
        return Violation("DuplicatePredicate", f"{where}: same predicate as previous frame")
    return Violation("UnorderedFrames", f"{where}: predicate indices not increasing")
