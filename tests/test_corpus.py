"""Corpus and alignment file formats, pairing, and dataset splitting."""

import os
import random
import sys

import pytest

from helpers import corpus, frame, identity_pair, sent
import l2srl.corpus
from l2srl.corpus import (
    Corpus,
    SplitSpec,
    pair_corpora,
    parse_alignments,
    parse_corpus,
    render_alignments,
    render_corpus,
    save_corpus,
    split_dataset,
    write_atomic,
)
from l2srl.errors import InsufficientData, PairingError, ParseError
from l2srl.model import Alignment, AnnotatedSentence, Token
from l2srl.pipeline import pool_pairs

MINIMAL = (
    b"# id = s1\n"
    b"# lang = ENG\n"
    b"# side = L2\n"
    b"# pair = p1\n"
    b"1\the\t_\tS-A0\n"
    b"2\teats\tY\trel\n"
    b"3\tred\t_\tB-A1\n"
    b"4\tbean\t_\tI-A1\n"
    b"5\trice\t_\tE-A1\n"
    b"\n"
)


def test_parse_minimal_file():
    c = parse_corpus(MINIMAL)
    assert len(c) == 1
    s = c.sentences[0]
    assert s.id == "s1" and s.lang == "ENG" and s.side == "L2" and s.pair_id == "p1"
    assert s.forms == ("he", "eats", "red", "bean", "rice")
    assert s.frames == (frame(2, (1, 1, "A0"), (3, 5, "A1")),)


def test_write_read_round_trip_value_identity():
    built = AnnotatedSentence(
        "s4", "RUS", "L1", "p4", forms=["q", "r", "s"], frames=[frame(3, (1, 2, "A1"))]
    )
    c = corpus(
        sent("s1", ["a", "b", "c"], [frame(2, (1, 1, "A0"), (3, 3, "A1"))]),
        sent("s2", ["x", "y"], [frame(1), frame(2, (1, 1, "AM-TMP"))], lang="JPN", side="L1"),
        sent("s3", ["solo"], []),
        built,
    )
    assert parse_corpus(render_corpus(c)) == c
    assert built.tokens == (Token(1, "q"), Token(2, "r"), Token(3, "s"))


def test_read_write_byte_identity_on_canonical():
    assert render_corpus(parse_corpus(MINIMAL)) == MINIMAL


def test_two_blocks_and_column_layout():
    c = corpus(
        sent("s1", ["a", "b", "c"], [frame(1), frame(3)]),
        sent("s2", ["d"], []),
    )
    data = render_corpus(c)
    lines = data.decode().split("\n")
    token_line = lines[4]
    assert token_line.count("\t") == 4  # index, form, marker + 2 frame columns
    assert parse_corpus(data) == c


def test_empty_corpus_is_empty_file():
    assert render_corpus(Corpus(())) == b""
    assert parse_corpus(b"") == Corpus(())


def test_crlf_rejected_with_line_number():
    data = MINIMAL.replace(b"\n", b"\r\n")
    with pytest.raises(ParseError) as err:
        parse_corpus(data)
    assert "LF" in str(err.value)
    assert err.value.line == 1


def test_parse_error_names_its_line_only_when_it_has_one():
    assert str(ParseError("bad value", 3)) == "line 3: bad value"
    err = ParseError("bad value")
    assert (str(err), err.line) == ("bad value", None)


def test_parse_error_line_numbers():
    bad_index = MINIMAL.replace(b"2\teats", b"x\teats")
    with pytest.raises(ParseError) as err:
        parse_corpus(bad_index)
    assert err.value.line == 6

    bad_columns = MINIMAL.replace(b"3\tred\t_\tB-A1", b"3\tred\t_")
    with pytest.raises(ParseError) as err:
        parse_corpus(bad_columns)
    assert err.value.line == 7

    bad_tag = MINIMAL.replace(b"B-A1", b"B-A9")
    with pytest.raises(ParseError) as err:
        parse_corpus(bad_tag)
    assert err.value.line == 7

    # decodable cells, undecodable column (run never closed)
    bad_column = MINIMAL.replace(b"E-A1", b"I-A1")
    with pytest.raises(ParseError) as err:
        parse_corpus(bad_column)
    assert "column" in str(err.value)

    duplicate = MINIMAL + MINIMAL
    with pytest.raises(ParseError) as err:
        parse_corpus(duplicate)
    assert "duplicate" in str(err.value)

    bad_lang = MINIMAL.replace(b"# lang = ENG", b"# lang = XXX")
    with pytest.raises(ParseError) as err:
        parse_corpus(bad_lang)
    assert err.value.line == 2

    bad_side = MINIMAL.replace(b"# side = L2", b"# side = L3")
    with pytest.raises(ParseError) as err:
        parse_corpus(bad_side)
    assert err.value.line == 3


def test_frame_order_errors_are_pinned():
    header = b"# id = s1\n# lang = ENG\n# side = L2\n# pair = p1\n"
    same_token = header + b"1\the\t_\tS-A0\tO\n2\teats\tY\trel\trel\n3\trice\t_\tS-A1\tS-A0\n\n"
    with pytest.raises(ParseError) as err:
        parse_corpus(same_token)
    assert err.value.args == (
        "line 1: invalid sentence 's1': DuplicatePredicate: "
        "frame 2 (predicate 2): same predicate as previous frame",
    )
    assert err.value.line == 1

    before = b"# id = s0\n# lang = ENG\n# side = L2\n# pair = p0\n1\tx\t_\n\n"
    decreasing = before + header + (
        b"1\the\tY\tS-A0\trel\n2\teats\tY\trel\tO\n3\trice\t_\tS-A1\tS-A0\n\n"
    )
    with pytest.raises(ParseError) as err:
        parse_corpus(decreasing)
    assert err.value.args == (
        "line 7: invalid sentence 's1': UnorderedFrames: "
        "frame 2 (predicate 1): predicate indices not increasing",
    )
    assert err.value.line == 7


def test_form_split_rejects_exactly_isspace():
    # The parser rejects a form unless form.split() == [form].
    for cp in range(sys.maxunicode + 1):
        form = f"x{chr(cp)}y"
        assert (form.split() != [form]) == chr(cp).isspace(), hex(cp)


@pytest.mark.parametrize("char", ["\x1c", "\x85", "\u3000"])
def test_form_with_unicode_whitespace_rejected(char):
    for form in (char, f"re{char}d", f"red{char}"):
        data = MINIMAL.replace(b"\tred\t", f"\t{form}\t".encode())
        with pytest.raises(ParseError) as err:
            parse_corpus(data)
        assert err.value.args == (f"line 7: bad token form {form!r}",)


@pytest.mark.parametrize("index", ["²", "١", " 2", "+2", "02"])
def test_token_index_must_be_ascii_digits(index):
    data = MINIMAL.replace(b"2\teats", index.encode() + b"\teats")
    with pytest.raises(ParseError) as err:
        parse_corpus(data)
    assert err.value.line == 6


def test_header_order_and_spacing_enforced():
    swapped = MINIMAL.replace(
        b"# id = s1\n# lang = ENG\n", b"# lang = ENG\n# id = s1\n"
    )
    with pytest.raises(ParseError):
        parse_corpus(swapped)
    tight = MINIMAL.replace(b"# id = s1", b"# id=s1")
    with pytest.raises(ParseError):
        parse_corpus(tight)


@pytest.mark.parametrize("old, new, line, message", [
    (b"3\tred\t_", b"3\tred\tX", 7, "predicate marker must be Y or _, got 'X'"),
    (b"# id = s1", b"# ix = s1", 1, "expected header '# id = ...', got '# ix = s1'"),
    (b"# id = s1", b"# id = s1 ", 1, "bad id header value 's1 '"),
    (b"1\the\t_\tS-A0", b"1\the", 5, "token line needs at least 3 columns, got 2"),
    (b"2\teats", b"x\teats", 6, "non-integer token index 'x'"),
], ids=["marker", "header-key", "header-value", "two-columns", "index"])
def test_malformed_header_or_token_line_names_its_rule_and_line(old, new, line, message):
    # Without its rule, an X marker on a non-predicate token, a header key of
    # the right length or the id 's1 ' would load, a two-column line would
    # raise IndexError, and a non-integer index would be blamed on the order.
    with pytest.raises(ParseError) as err:
        parse_corpus(MINIMAL.replace(old, new))
    assert err.value.line == line
    assert message in str(err.value)


def test_predicate_marker_consistency():
    # A predicate without its Y, and a Y on a token that is no predicate.
    cases = [(b"2\teats\tY", b"2\teats\t_", 2), (b"4\tbean\t_", b"4\tbean\tY", 4)]
    for old, new, token in cases:
        with pytest.raises(ParseError) as err:
            parse_corpus(MINIMAL.replace(old, new))
        assert err.value.line == 4 + token
        assert f"predicate marker disagrees with frame columns at token {token}" in str(err.value)


def test_missing_trailing_blank_line():
    with pytest.raises(ParseError):
        parse_corpus(MINIMAL[:-1])


@pytest.mark.parametrize("tail,line,message", [
    (b"# id = s2\n# lang = ENG\n# side = L2\n# pair = p2\n\n", 15,
     "sentence block has no token lines"),
    (b"# id = s2\n# lang = ENG\n", 12, "missing header '# side = ...'"),
], ids=["no-token-lines", "headers-cut-off"])
def test_truncated_second_block_names_its_line(tail, line, message):
    with pytest.raises(ParseError) as err:
        parse_corpus(MINIMAL + tail)
    assert err.value.args == (f"line {line}: {message}",)


def test_alignment_parse_examples():
    got = parse_alignments(b"p1\t0-0 1-2\n")
    assert got == {"p1": Alignment("p1", frozenset({(0, 0), (1, 2)}))}
    assert parse_alignments(b"p1\t\n") == {"p1": Alignment("p1", frozenset())}
    with pytest.raises(ParseError) as err:
        parse_alignments(b"p1\t0-x\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_alignments(b"p1\t0-0\np1\t1-1\n")


def test_alignment_rejects_an_empty_pair_id():
    with pytest.raises(ParseError) as err:
        parse_alignments(b"p1\t0-0\n\t1-1\n")
    assert err.value.line == 2
    assert "empty pair id" in str(err.value)


@pytest.mark.parametrize("index", ["²", "١", " 2", "+2", "01", "00"])
def test_alignment_indices_must_be_ascii_digits(index):
    for link in (f"0-{index}", f"{index}-0"):
        data = f"p0\t0-0\np1\t1-1 {link}\n".encode()
        with pytest.raises(ParseError) as err:
            parse_alignments(data)
        assert err.value.line == 2


def test_alignment_duplicate_links_collapse():
    got = parse_alignments(b"p1\t0-0 0-0 1-2\n")
    assert got["p1"].links == frozenset({(0, 0), (1, 2)})


def test_alignment_round_trips():
    canonical = b"p1\t0-0 1-2\np2\t\n"
    assert render_alignments(parse_alignments(canonical)) == canonical
    table = {"z": Alignment("z", frozenset({(2, 1), (0, 0)}))}
    assert parse_alignments(render_alignments(table)) == table
    assert render_alignments({}) == b"" and parse_alignments(b"") == {}


@pytest.mark.parametrize("build, message", [
    (lambda: corpus(sent("s1", ["a"]), sent("s1", ["b"])), "duplicate sentence id 's1'"),
    (lambda: SplitSpec(dev_pairs_per_lang=-1), "dev_pairs_per_lang must be >= 0"),
])
def test_corpus_types_reject_bad_values(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _pairable(n, langs=("ENG",)):
    l2, l1, aligns = [], [], {}
    for k in range(n):
        pid = f"p{k}"
        lang = langs[k % len(langs)]
        pair = identity_pair(pid, ["a", "b", "c"], [frame(2, (1, 1, "A0"))], lang=lang)
        l2.append(pair.l2)
        l1.append(pair.l1)
        aligns[pid] = pair.alignment
    return Corpus(tuple(l2)), Corpus(tuple(l1)), aligns


def test_pair_corpora_full_match():
    l2, l1, aligns = _pairable(2)
    pairs = pair_corpora(l2, l1, aligns)
    assert len(pairs) == 2
    assert all(p.l2.side == "L2" and p.l1.side == "L1" for p in pairs)
    assert all(p.l2.pair_id == p.l1.pair_id == p.alignment.pair_id for p in pairs)


def test_pair_corpora_reports_unmatched():
    l2, l1, aligns = _pairable(2)
    short_l1 = Corpus(l1.sentences[:1])
    with pytest.raises(PairingError) as err:
        pair_corpora(l2, short_l1, aligns)
    assert len(err.value.pairs) == 1  # matched subset still available
    assert any("p1" in p for p in err.value.problems)


def test_pair_corpora_reports_an_l1_sentence_without_an_l2_counterpart():
    l2, l1, aligns = _pairable(2)
    with pytest.raises(PairingError) as err:
        pair_corpora(Corpus(l2.sentences[:1]), l1, aligns)
    assert err.value.problems == ["L1 sentence 'p1.l1' (pair 'p1') has no L2 counterpart"]
    assert [pair.l2.pair_id for pair in err.value.pairs] == ["p0"]


def test_pair_corpora_checks_alignment_bounds():
    l2, l1, aligns = _pairable(1)
    aligns["p0"] = Alignment("p0", frozenset({(0, 0), (9, 9)}))
    with pytest.raises(PairingError) as err:
        pair_corpora(l2, l1, aligns)
    assert any("out of range" in p for p in err.value.problems)


def test_pair_corpora_checks_each_link_side_against_its_own_sentence():
    """L2 indices run below len(L2) and L1 indices below len(L1); a link
    just past either end fails alone, with the other index in range."""
    l2 = sent("a", ["x", "y", "z"], side="L2", pair="p")
    l1 = sent("b", ["u", "v", "w", "q", "r"], side="L1", pair="p")

    def pairing(*links):
        return pair_corpora(corpus(l2), corpus(l1), {"p": Alignment("p", frozenset(links))})

    assert len(pairing((0, 0), (2, 4))) == 1
    for link in ((len(l2), 0), (0, len(l1)), (-1, 0), (0, -1)):
        with pytest.raises(PairingError) as err:
            pairing(link)
        assert err.value.problems == [f"pair 'p' alignment link {link} out of range"]


def test_pair_corpora_missing_alignment():
    l2, l1, aligns = _pairable(2)
    del aligns["p0"]
    with pytest.raises(PairingError) as err:
        pair_corpora(l2, l1, aligns)
    assert any("no alignment" in p for p in err.value.problems)


@pytest.mark.parametrize(
    "l2_sentences, l1_sentences, problem",
    [
        # The later L2 sentence is longer than the one paired.
        (
            [("a", "L2", ["x", "y"]), ("b", "L2", ["u", "v", "w", "z"])],
            [("c", "L1", ["u", "v", "w", "z"])],
            "duplicate pair id 'p' on side L2",
        ),
        # The later L2 sentence's links would join u to q.
        (
            [("a", "L2", ["u", "q"]), ("b", "L2", ["q", "v"])],
            [("c", "L1", ["q", "v"])],
            "duplicate pair id 'p' on side L2",
        ),
        (
            [("a", "L2", ["q", "v"])],
            [("c", "L1", ["q", "v"]), ("d", "L1", ["v", "q"])],
            "duplicate pair id 'p' on side L1",
        ),
        # A sentence on the wrong side is not the one paired.
        (
            [("a", "L1", ["u", "q"]), ("b", "L2", ["q", "v"])],
            [("c", "L1", ["q", "v"])],
            "sentence 'a' has side L1, expected L2",
        ),
    ],
    ids=["later-l2-longer", "later-l2-other-forms", "later-l1", "wrong-side-first"],
)
def test_heuristic_alignments_align_the_sentences_that_are_paired(
    l2_sentences, l1_sentences, problem
):
    def side(sentences):
        return corpus(*(sent(sid, forms, side=s, pair="p") for sid, s, forms in sentences))

    l2, l1 = side(l2_sentences), side(l1_sentences)
    with pytest.raises(PairingError) as err:
        pool_pairs(l2, l1, "heuristic")
    assert err.value.problems == [problem]
    [pair] = err.value.pairs
    assert all(pair.l2.forms[i] == pair.l1.forms[j] for i, j in pair.alignment.links)


def _pairs_for_split(per_lang=150, langs=("ENG", "JPN", "RUS", "ARA")):
    pairs = []
    for lang in langs:
        for k in range(per_lang):
            pid = f"{lang.lower()}{k}"
            pairs.append(
                identity_pair(pid, ["a", "b"], [frame(1)], lang=lang)
            )
    return pairs


def test_split_paper_sizes():
    pairs = _pairs_for_split()
    result = split_dataset(pairs, SplitSpec(dev_pairs_per_lang=50), seed=7)
    assert len(result.dev) == 200
    assert len(result.test_l2) == 400
    assert len(result.test_l1) == 400


def test_split_zero_dev():
    pairs = _pairs_for_split(per_lang=3, langs=("ENG",))
    result = split_dataset(pairs, SplitSpec(dev_pairs_per_lang=0), seed=1)
    assert result.dev == ()
    assert len(result.test_l2) == len(result.test_l1) == 3


def test_split_deterministic_and_partition():
    pairs = _pairs_for_split(per_lang=10, langs=("ENG", "JPN"))
    a = split_dataset(pairs, SplitSpec(dev_pairs_per_lang=4), seed=3)
    b = split_dataset(pairs, SplitSpec(dev_pairs_per_lang=4), seed=3)
    assert a == b
    c = split_dataset(pairs, SplitSpec(dev_pairs_per_lang=4), seed=4)
    assert a != c  # different seed, different draw
    ids = [p.l2.id for p in a.dev] + [s.id for s in a.test_l2]
    ids += [p.l1.id for p in a.dev] + [s.id for s in a.test_l1]
    assert sorted(ids) == sorted(
        [p.l2.id for p in pairs] + [p.l1.id for p in pairs]
    )


def test_split_insufficient_data_names_language():
    pairs = _pairs_for_split(per_lang=3, langs=("ENG", "JPN"))
    with pytest.raises(InsufficientData) as err:
        split_dataset(pairs, SplitSpec(dev_pairs_per_lang=5), seed=1)
    assert err.value.lang in ("ENG", "JPN")


def test_random_corpora_round_trip():
    from helpers import random_sentence, reference_render_corpus

    rng = random.Random(5)
    corpora = [
        Corpus(tuple(
            random_sentence(rng, f"r{trial}.{k}", n_frames=rng.randint(0, 2))
            for k in range(rng.randint(1, 4))
        ))
        for trial in range(30)
    ]
    # One sentence longer than any other here, past 256 tokens.
    n = 300
    corpora.append(Corpus((random_sentence(rng, "long", n_frames=3, length=n),)))
    for c in corpora:
        data = reference_render_corpus(c)
        assert parse_corpus(data) == c
        assert render_corpus(c) == data


def test_write_atomic_replaces_the_whole_file(tmp_path):
    target = tmp_path / "c.tsv"
    target.write_bytes(b"old contents\n")
    save_corpus(parse_corpus(MINIMAL), target)
    assert target.read_bytes() == MINIMAL
    assert os.listdir(tmp_path) == ["c.tsv"]


def test_failed_render_or_write_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "c.tsv"
    target.write_bytes(b"old\n")

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(l2srl.corpus, "render_corpus", fail)
    with pytest.raises(OSError):
        save_corpus(parse_corpus(MINIMAL), target)  # render fails
    with pytest.raises(TypeError):
        write_atomic(target, "not bytes")  # write fails on the temp file
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        write_atomic(target, MINIMAL)  # rename fails
    assert target.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["c.tsv"]
