"""File formats and dataset handling: corpora, alignments, splits, pairing.

Corpus file (UTF-8, LF endings only).  One sentence block per sentence::

    # id = s17
    # lang = ENG
    # side = L2
    # pair = p17
    1<TAB>he<TAB>_<TAB>S-A0
    2<TAB>eats<TAB>Y<TAB>rel
    3<TAB>rice<TAB>_<TAB>S-A1
    <blank line>

Headers appear in exactly that order with ``# key = value`` spacing.  Token
lines carry the 1-based index, the form, ``Y`` if the token is a predicate of
some frame else ``_``, then one tag column per frame in predicate order; tag
cells hold ``O``, ``rel``, or ``<S|B|I|E>-<label>``.

Alignment file: one line per pair, ``pair_id<TAB>i-j i-j ...`` with 0-based
space-separated links (the link list may be empty).

Writers emit a canonical form: reading a canonical file and writing it back
is byte-identical, and write-then-read is value-identical.  Every file the
package writes goes through ``write_atomic``.
"""

import os
import random
from dataclasses import dataclass

from l2srl.errors import (
    IllFormedTagSequence,
    InsufficientData,
    PairingError,
    ParseError,
)
from l2srl.model import (
    Alignment,
    AnnotatedSentence,
    LANGS,
    SIDES,
    Token,
    _decode_tags,
    is_position_tag,
    split_tag,
    tags_from_spans,
)

_HEADER_KEYS = ("id", "lang", "side", "pair")


@dataclass(frozen=True)
class Corpus:
    """Sentences in file order; ids are unique within a corpus."""

    sentences: tuple[AnnotatedSentence, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        seen = set()
        for s in self.sentences:
            if s.id in seen:
                raise ValueError(f"duplicate sentence id {s.id!r}")
            seen.add(s.id)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def by_id(self) -> dict[str, AnnotatedSentence]:
        return {s.id: s for s in self.sentences}


@dataclass(frozen=True)
class SentencePair:
    """An L2 sentence, its L1 correction, and the word alignment between them."""

    l2: AnnotatedSentence
    l1: AnnotatedSentence
    alignment: Alignment


@dataclass(frozen=True)
class SplitSpec:
    dev_pairs_per_lang: int = 50

    def __post_init__(self):
        if self.dev_pairs_per_lang < 0:
            raise ValueError("dev_pairs_per_lang must be >= 0")


@dataclass(frozen=True)
class SplitResult:
    dev: tuple[SentencePair, ...]
    test_l2: tuple[AnnotatedSentence, ...]
    test_l1: tuple[AnnotatedSentence, ...]


def text_lines(data: bytes) -> list[str]:
    """The lines of UTF-8 text with LF line endings and a final newline,
    else ParseError."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from None
    if "\r" in text:
        line = text[: text.index("\r")].count("\n") + 1
        raise ParseError("CR/CRLF line endings are not supported (LF required)", line)
    if text == "":
        return []
    if not text.endswith("\n"):
        raise ParseError("missing final newline", text.count("\n") + 1)
    return text.split("\n")[:-1]


def _is_ascii_digits(text: str) -> bool:
    """True for a non-empty run of 0-9 only; ``int()`` would also take
    signs, surrounding spaces and non-ASCII digits."""
    return text.isascii() and text.isdigit()


def parse_corpus(data: bytes) -> Corpus:
    """Parse corpus bytes; raises ParseError with a line number on bad input."""
    lines = text_lines(data)
    sentences = []
    ids: set[str] = set()
    tags: dict[str, tuple] = {}  # each distinct valid tag -> split_tag(tag)
    i = 0
    while i < len(lines):
        sentence, i = _parse_block(lines, i, ids, tags)
        sentences.append(sentence)
    return Corpus(tuple(sentences))


def _parse_block(lines, i, ids, tags):
    header_line = i + 1
    values = {}
    for key in _HEADER_KEYS:
        if i >= len(lines):
            raise ParseError(f"missing header '# {key} = ...'", len(lines))
        line = lines[i]
        prefix = f"# {key} = "
        if not line.startswith(prefix):
            raise ParseError(f"expected header '# {key} = ...', got {line!r}", i + 1)
        value = line[len(prefix):]
        if not value or value != value.strip() or "\t" in value:
            raise ParseError(f"bad {key} header value {value!r}", i + 1)
        values[key] = value
        i += 1
    if values["id"] in ids:
        raise ParseError(f"duplicate sentence id {values['id']!r}", header_line)
    ids.add(values["id"])
    if values["lang"] not in LANGS:
        raise ParseError(f"unknown lang {values['lang']!r}", header_line + 1)
    if values["side"] not in SIDES:
        raise ParseError(f"unknown side {values['side']!r}", header_line + 2)

    first_token_line = i + 1
    tokens: list[Token] = []
    marked: list[bool] = []
    columns: list[list[str]] = []
    n_frames = None
    while i < len(lines) and lines[i] != "":
        cells = lines[i].split("\t")
        if len(cells) < 3:
            raise ParseError(
                f"token line needs at least 3 columns, got {len(cells)}", i + 1
            )
        if n_frames is None:
            n_frames = len(cells) - 3
            columns = [[] for _ in range(n_frames)]
        elif len(cells) != 3 + n_frames:
            raise ParseError(
                f"bad column count: expected {3 + n_frames}, got {len(cells)}", i + 1
            )
        index = len(tokens) + 1
        # The canonical spelling only, so a leading zero is an error too.
        if cells[0] != str(index):
            if not _is_ascii_digits(cells[0]):
                raise ParseError(f"non-integer token index {cells[0]!r}", i + 1)
            raise ParseError(
                f"token index {cells[0]} out of sequence (expected {index})", i + 1
            )
        form = cells[1]
        # Also rejects an empty form; split() breaks on exactly str.isspace.
        if form.split() != [form]:
            raise ParseError(f"bad token form {form!r}", i + 1)
        if cells[2] not in ("Y", "_"):
            raise ParseError(f"predicate marker must be Y or _, got {cells[2]!r}", i + 1)
        for k, cell in enumerate(cells[3:]):
            if cell not in tags:
                if not is_position_tag(cell):
                    raise ParseError(f"undecodable tag {cell!r} in frame column {k + 1}", i + 1)
                tags[cell] = split_tag(cell)
            columns[k].append(cell)
        tokens.append(Token(index, form))
        marked.append(cells[2] == "Y")
        i += 1
    if not tokens:
        raise ParseError("sentence block has no token lines", first_token_line)
    if i >= len(lines) or lines[i] != "":
        raise ParseError("expected blank line after sentence block", i + 1)
    i += 1

    frames = []
    for k, column in enumerate(columns):
        try:
            frames.append(_decode_tags(column, tags))
        except IllFormedTagSequence as exc:
            raise ParseError(
                f"undecodable tag column {k + 1}: {exc}", first_token_line
            ) from None
    predicates = {f.predicate_index for f in frames}
    for j, flag in enumerate(marked, start=1):
        if flag != (j in predicates):
            raise ParseError(
                f"predicate marker disagrees with frame columns at token {j}",
                first_token_line + j - 1,
            )
    # The checks above cover every rule of a sentence parse_corpus accepts
    # but one: predicate indices strictly increase from frame to frame.
    last = 0
    for k, f in enumerate(frames, start=1):
        if f.predicate_index <= last:
            if f.predicate_index == last:
                rule, why = "DuplicatePredicate", "same predicate as previous frame"
            else:
                rule, why = "UnorderedFrames", "predicate indices not increasing"
            raise ParseError(
                f"invalid sentence {values['id']!r}: {rule}: "
                f"frame {k} (predicate {f.predicate_index}): {why}",
                header_line,
            )
        last = f.predicate_index
    sentence = AnnotatedSentence(
        id=values["id"],
        lang=values["lang"],
        side=values["side"],
        pair_id=values["pair"],
        tokens=tuple(tokens),
        frames=tuple(frames),
    )
    return sentence, i


def render_corpus(corpus: Corpus) -> bytes:
    """Serialize a corpus in canonical form."""
    out = []
    for s in corpus.sentences:
        out.append(f"# id = {s.id}")
        out.append(f"# lang = {s.lang}")
        out.append(f"# side = {s.side}")
        out.append(f"# pair = {s.pair_id}")
        columns = [tags_from_spans(f, len(s.tokens)) for f in s.frames]
        predicates = {f.predicate_index for f in s.frames}
        for t in s.tokens:
            marker = "Y" if t.index in predicates else "_"
            cells = [str(t.index), t.form, marker]
            cells.extend(column[t.index - 1] for column in columns)
            out.append("\t".join(cells))
        out.append("")
    if not out:
        return b""
    return ("\n".join(out) + "\n").encode("utf-8")


def parse_alignments(data: bytes) -> dict[str, Alignment]:
    """Parse Pharaoh-style alignment lines into a pair_id -> Alignment map."""
    result: dict[str, Alignment] = {}
    for n, line in enumerate(text_lines(data), start=1):
        cells = line.split("\t")
        if len(cells) != 2:
            raise ParseError("expected 'pair_id<TAB>links'", n)
        pair_id, rest = cells
        if not pair_id:
            raise ParseError("empty pair id", n)
        if pair_id in result:
            raise ParseError(f"duplicate pair id {pair_id!r}", n)
        links = set()
        if rest:
            for item in rest.split(" "):
                left, sep, right = item.partition("-")
                if not sep or not _is_ascii_digits(left) or not _is_ascii_digits(right):
                    raise ParseError(f"malformed link {item!r}", n)
                links.add((int(left), int(right)))
        result[pair_id] = Alignment(pair_id, frozenset(links))
    return result


def render_alignments(alignments: dict[str, Alignment]) -> bytes:
    out = []
    for pair_id in sorted(alignments):
        links = sorted(alignments[pair_id].links)
        out.append(pair_id + "\t" + " ".join(f"{i}-{j}" for i, j in links))
    if not out:
        return b""
    return ("\n".join(out) + "\n").encode("utf-8")


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then ``os.replace`` it,
    so ``path`` holds either its old bytes or all of ``data``."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_corpus(path) -> Corpus:
    with open(path, "rb") as f:
        return parse_corpus(f.read())


def save_corpus(corpus: Corpus, path) -> None:
    write_atomic(path, render_corpus(corpus))


def load_alignments(path) -> dict[str, Alignment]:
    with open(path, "rb") as f:
        return parse_alignments(f.read())


def save_alignments(alignments: dict[str, Alignment], path) -> None:
    write_atomic(path, render_alignments(alignments))


def pair_corpora(
    l2: Corpus, l1: Corpus, alignments: dict[str, Alignment]
) -> list[SentencePair]:
    """Match L2 and L1 sentences on pair_id and attach their alignments.

    Nothing is dropped silently: any unmatched sentence, missing alignment,
    wrong side, or out-of-range link raises PairingError.  The error carries
    the matched subset so callers may report and proceed with it.
    """
    problems: list[str] = []
    l2_by_pair: dict[str, AnnotatedSentence] = {}
    l1_by_pair: dict[str, AnnotatedSentence] = {}
    for corpus, expected_side, index in ((l2, "L2", l2_by_pair), (l1, "L1", l1_by_pair)):
        for s in corpus.sentences:
            if s.side != expected_side:
                problems.append(f"sentence {s.id!r} has side {s.side}, expected {expected_side}")
                continue
            if s.pair_id in index:
                problems.append(f"duplicate pair id {s.pair_id!r} on side {expected_side}")
                continue
            index[s.pair_id] = s
    pairs: list[SentencePair] = []
    for pair_id, s2 in l2_by_pair.items():
        s1 = l1_by_pair.get(pair_id)
        if s1 is None:
            problems.append(f"L2 sentence {s2.id!r} (pair {pair_id!r}) has no L1 counterpart")
            continue
        alignment = alignments.get(pair_id)
        if alignment is None:
            problems.append(f"pair {pair_id!r} has no alignment")
            continue
        bad = [
            (i, j)
            for i, j in alignment.links
            if not (0 <= i < len(s2.tokens) and 0 <= j < len(s1.tokens))
        ]
        if bad:
            problems.append(f"pair {pair_id!r} alignment link {min(bad)} out of range")
            continue
        pairs.append(SentencePair(s2, s1, alignment))
    for pair_id, s1 in l1_by_pair.items():
        if pair_id not in l2_by_pair:
            problems.append(f"L1 sentence {s1.id!r} (pair {pair_id!r}) has no L2 counterpart")
    if problems:
        raise PairingError(problems, pairs)
    return pairs


def split_dataset(pairs, spec: SplitSpec, seed: int) -> SplitResult:
    """Deterministically split pairs into dev pairs and per-side test sets.

    Takes spec.dev_pairs_per_lang pairs from each language (seeded random
    choice); every remaining pair contributes its L2 side to test_l2 and its
    L1 side to test_l1.  Input order is preserved within every split.
    """
    by_lang: dict[str, list[int]] = {}
    for idx, pair in enumerate(pairs):
        by_lang.setdefault(pair.l2.lang, []).append(idx)
    rng = random.Random(seed)
    dev_indices: set[int] = set()
    for lang in sorted(by_lang):
        indices = by_lang[lang]
        if len(indices) < spec.dev_pairs_per_lang:
            raise InsufficientData(lang, spec.dev_pairs_per_lang, len(indices))
        shuffled = indices[:]
        rng.shuffle(shuffled)
        dev_indices.update(shuffled[: spec.dev_pairs_per_lang])
    dev = tuple(p for i, p in enumerate(pairs) if i in dev_indices)
    rest = [p for i, p in enumerate(pairs) if i not in dev_indices]
    return SplitResult(
        dev=dev,
        test_l2=tuple(p.l2 for p in rest),
        test_l1=tuple(p.l1 for p in rest),
    )
