"""Seeded mutation fuzz over the canonical file formats.

Every mutant of a canonical corpus, alignment or model file either parses
or fails with ``ParseError`` (or ``VersionMismatch`` for a model header);
nothing else may escape a parser.  The corpus reader is strict, so a corpus
mutant that parses must also be canonical; the alignment and model readers
are lenient by design (any line order, any weight spelling ``float()``
reads).
"""

import random

import pytest

import l2srl.corpus
from helpers import VOCAB, random_frame, sent
from l2srl.corpus import Corpus, parse_alignments, parse_corpus, render_alignments, render_corpus
from l2srl.errors import ParseError, VersionMismatch
from l2srl.model import Alignment
from l2srl.tagger import TaggerModel, build_label_set, parse_model, render_model

# Bytes that are meaningful to at least one format, plus broken UTF-8,
# non-ASCII digits and non-finite numbers.
PIECES = (
    b"\t", b"\n", b"\r", b" ", b"-", b"#", b" = ", b"0", b"7", b"10", b"Y", b"_",
    b"O", b"rel", b"S-", b"B-A0", b"E-", b"AM-TMP", b"E", b"T", b"nan", b"inf",
    b"-1e999", b"\xc2\xb2", b"\xd9\xa1", b"\xff", b"+", b"# id = x", b"v2",
)


def _mutate(rng, data):
    for _ in range(rng.randint(1, 3)):
        lines = data.split(b"\n")
        kind = rng.randrange(6)
        at = rng.randrange(len(data) + 1)
        if kind == 0:
            data = data[:at] + rng.choice(PIECES) + data[at + 1:]
        elif kind == 1:
            data = data[:at] + data[at + rng.randint(1, 4):]
        elif kind == 2:
            data = data[:at] + rng.choice(PIECES) + data[at:]
        elif kind == 3:
            k = rng.randrange(len(lines))
            data = b"\n".join(lines[:k] + [lines[k]] + lines[k:])
        elif kind == 4:
            k = rng.randrange(len(lines))
            data = b"\n".join(lines[:k] + lines[k + 1:])
        else:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
    return data


# Each block may bring roles the blocks before it did not use, so the
# parser meets tags that are new to its table after the first block.
BLOCK_ROLES = (
    ("A0",), ("A0", "A1"), ("AM-TMP", "A1"), ("A2", "AM"), ("A3", "AM-LOC"), ("A4",),
)


def _corpus_bytes():
    rng = random.Random(5)
    sentences = []
    for k, roles in enumerate(BLOCK_ROLES):
        n = rng.randint(3, 7)
        predicates = sorted(rng.sample(range(1, n + 1), 2))
        frames = [random_frame(rng, n, p, roles) for p in predicates]
        sentences.append(sent(f"s{k}", [rng.choice(VOCAB) for _ in range(n)], frames))
    return render_corpus(Corpus(tuple(sentences)))


def _alignment_bytes():
    return render_alignments({
        "p1": Alignment("p1", frozenset({(0, 0), (1, 2), (2, 1)})),
        "p2": Alignment("p2", frozenset()),
        "p10": Alignment("p10", frozenset({(3, 12)})),
    })


def _model_bytes():
    model = TaggerModel(labels=build_label_set(["A0", "AM-TMP"]))
    model.emissions.update({
        ("w=eats", "rel"): 2.5, ("w=he", "S-A0"): 1.0, ("w-1=<s>", "B-AM-TMP"): -0.125,
    })
    model.transitions.update({("O", "S-A0"): 0.5, ("B-AM-TMP", "E-AM-TMP"): -3.0})
    return render_model(model)


@pytest.mark.parametrize("parse, canonical, mutants, render", [
    (parse_corpus, _corpus_bytes, 2000, render_corpus),
    (parse_alignments, _alignment_bytes, 500, None),
    (parse_model, _model_bytes, 700, None),
], ids=["corpus", "alignments", "model"])
def test_mutants_parse_or_raise_parse_errors(parse, canonical, mutants, render):
    data = canonical()
    parse(data)
    rng = random.Random(20)
    for _ in range(mutants):
        mutant = _mutate(rng, data)
        try:
            parsed = parse(mutant)
        except (ParseError, VersionMismatch):
            continue
        except Exception as exc:  # any other escape is a parser bug
            pytest.fail(f"{type(exc).__name__}: {exc} on {mutant!r}")
        if render is not None:
            assert render(parsed) == mutant, mutant


def _parse_outcome(data):
    try:
        return parse_corpus(data)
    except ParseError as exc:
        return exc.args


def test_corpus_mutants_parse_alike_with_and_without_the_block_check(monkeypatch):
    # The column-wise check may only accept: turned off, the per-line checks
    # must give the same Corpus or the same ParseError message and line.
    accept = l2srl.corpus._accept_token_lines
    accepted = []

    def counted(*args):
        block = accept(*args)
        accepted.append(block is not None)
        return block

    data = _corpus_bytes()
    rng = random.Random(20)
    outcomes = []
    for _ in range(800):
        mutant = _mutate(rng, data)
        monkeypatch.setattr(l2srl.corpus, "_accept_token_lines", counted)
        fast = _parse_outcome(mutant)
        monkeypatch.setattr(l2srl.corpus, "_accept_token_lines", lambda *args: None)
        assert _parse_outcome(mutant) == fast, mutant
        outcomes.append(isinstance(fast, Corpus))
    # Both paths are exercised: blocks accepted and refused, files parsed
    # and rejected.
    assert 0 < sum(accepted) < len(accepted)
    assert 0 < sum(outcomes) < len(outcomes)
