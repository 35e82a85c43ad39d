"""Feature extraction, constrained decoding vs exhaustive search, perceptron
training, and model persistence."""

import hashlib
import random

import pytest

from helpers import (
    corpus,
    frame,
    random_pred_gold_corpora,
    reference_train,
    reference_viterbi,
    sent,
    toy_separable_corpus,
)
from l2srl.corpus import render_corpus
from l2srl.errors import (
    EmptyCorpus,
    InvalidPredicateIndex,
    NoValidPath,
    ParseError,
    VersionMismatch,
)
from l2srl.model import spans_from_tags
from l2srl.scoring import score
from l2srl.tagger import (
    TaggerModel,
    TrainConfig,
    _can_end,
    _can_follow,
    _can_start,
    build_label_set,
    compile_grammar,
    extract_features,
    load_model,
    parse_model,
    render_model,
    save_model,
    tag,
    tag_corpus,
    train,
    viterbi_decode,
)


def test_features_at_predicate():
    s = sent("s1", ["he", "eats", "rice"])
    feats = extract_features(s, 2, 2)
    assert "dist=0" in feats and "is_pred" in feats
    assert "w0=eats" in feats and "pw=eats" in feats


def test_features_padding_on_single_token():
    s = sent("s1", ["solo"])
    feats = extract_features(s, 1, 1)
    assert "w-1=<s>" in feats and "w+1=</s>" in feats
    assert "pw-1=<s>" in feats and "pw+1=</s>" in feats


def test_features_deterministic_and_sided():
    s = sent("s1", ["a", "b", "c", "d"])
    assert extract_features(s, 3, 1) == extract_features(s, 3, 1)
    assert "side=left" in extract_features(s, 3, 1)
    assert "side=right" in extract_features(s, 3, 4)
    assert "dist=-2" in extract_features(s, 3, 1)


def test_distance_buckets():
    s = sent("s1", [f"w{i}" for i in range(1, 13)])
    assert "dist=+3-5" in extract_features(s, 1, 5)
    assert "dist=+>5" in extract_features(s, 1, 12)
    assert "dist=-3-5" in extract_features(s, 12, 8)
    assert "dist=->5" in extract_features(s, 12, 1)


def test_zero_model_decodes_all_o_with_forced_rel():
    model = TaggerModel(build_label_set(("A0", "A1")))
    s = sent("s1", ["a", "b", "c", "d"])
    assert viterbi_decode(model, s, 3) == ["O", "O", "rel", "O"]


def test_crafted_weights_dominate():
    model = TaggerModel(build_label_set(("A0",)))
    s = sent("s1", ["a", "b", "c"])
    model.emissions[("w0=a", "B-A0")] = 5.0
    model.emissions[("w0=b", "E-A0")] = 5.0
    tags = viterbi_decode(model, s, 3)
    assert tags == ["B-A0", "E-A0", "rel"]
    assert spans_from_tags(tags) == frame(3, (1, 2, "A0"))


def test_grammar_never_allows_orphan_inside():
    # reward I-A0 after O heavily; the grammar must still forbid it
    model = TaggerModel(build_label_set(("A0",)))
    s = sent("s1", ["a", "b", "c"])
    model.emissions[("w0=b", "I-A0")] = 100.0
    tags = viterbi_decode(model, s, 3)
    assert spans_from_tags(tags)  # decodes strictly
    assert tags[1] != "I-A0" or tags[0] == "B-A0"


def _enumerate_valid(labels, n, pred_pos):
    """All grammar-valid sequences with rel forced at pred_pos."""
    from l2srl.tagger import _can_end, _can_follow, _can_start

    out = []

    def extend(seq):
        t = len(seq)
        if t == n:
            if _can_end(seq[-1]):
                out.append(list(seq))
            return
        for lab in labels:
            if (lab == "rel") != (t == pred_pos):
                continue
            if t == 0 and not _can_start(lab):
                continue
            if t > 0 and not _can_follow(seq[-1], lab):
                continue
            seq.append(lab)
            extend(seq)
            seq.pop()

    extend([])
    return out


def _sequence_score(model, feats, seq):
    total = 0.0
    for f in feats[0]:
        total += model.emissions.get((f, seq[0]), 0)
    for t in range(1, len(seq)):
        total += model.transitions.get((seq[t - 1], seq[t]), 0)
        for f in feats[t]:
            total += model.emissions.get((f, seq[t]), 0)
    return total


def test_viterbi_matches_exhaustive_search():
    rng = random.Random(1234)
    for trial in range(100):
        roles = ["A0"] if trial % 2 else ["A0", "AM"]
        labels = build_label_set(roles)
        n = rng.randint(1, 7)
        pred = rng.randint(1, n)
        s = sent("s1", [rng.choice("abcdef") for _ in range(n)])
        model = TaggerModel(labels=labels)
        feats = [extract_features(s, pred, i) for i in range(1, n + 1)]
        for t in range(n):
            for f in feats[t]:
                for lab in labels:
                    if rng.random() < 0.3:
                        model.emissions[(f, lab)] = rng.randint(-9, 9)
        for a in labels:
            for b in labels:
                if rng.random() < 0.3:
                    model.transitions[(a, b)] = rng.randint(-9, 9)
        decoded = viterbi_decode(model, s, pred)
        candidates = _enumerate_valid(labels, n, pred - 1)
        assert decoded in candidates  # grammar-valid with forced rel
        best = max(_sequence_score(model, feats, c) for c in candidates)
        assert _sequence_score(model, feats, decoded) == best
        spans_from_tags(decoded)  # strict-decodable


TEN_ROLES = ("A0", "A1", "A2", "A3", "A4", "AM", "AM-ADV", "AM-LOC", "AM-MNR", "AM-TMP")


def test_compiled_grammar_matches_reference_predicates():
    labels = build_label_set(TEN_ROLES)
    grammar = compile_grammar(tuple(labels))
    assert labels[grammar.rel] == "rel"
    for j, lab in enumerate(labels):
        assert grammar.predecessors[j] == tuple(
            k for k, prev in enumerate(labels) if _can_follow(prev, lab)
        )
        assert grammar.ends[j] == _can_end(lab)
    assert grammar.starts == tuple(j for j, lab in enumerate(labels) if _can_start(lab))


def test_decoder_matches_reference_decoder_on_random_models():
    """Identical tag lists, tie-breaks included, on 240 seeded random models."""
    rng = random.Random(2024)
    float_pool = (0.1, 0.2, 0.3, -0.7, 1e16, -1e16, 2.5)
    for trial in range(240):
        roles = rng.sample(TEN_ROLES, rng.randint(1, 10))
        labels = build_label_set(roles)
        model = TaggerModel(labels=labels)
        n = rng.randint(1, 12)
        s = sent("s1", [rng.choice("abcdefgh") for _ in range(n)])
        pred = rng.randint(1, n)
        feats = [extract_features(s, pred, i) for i in range(1, n + 1)]
        kind = trial % 3  # small ints (dense ties), uniform floats, order-sensitive floats
        def weight():
            if kind == 0:
                return rng.randint(-1, 1)
            if kind == 1:
                return rng.uniform(-5, 5)
            return rng.choice(float_pool)
        density = rng.choice((0.0, 0.1, 0.5))
        for f in sorted({f for fs in feats for f in fs}):
            for lab in labels:
                if rng.random() < density:
                    model.emissions[(f, lab)] = weight()
        for a in labels:
            for b in labels:
                if rng.random() < density:
                    model.transitions[(a, b)] = weight()
        expected = reference_viterbi(
            labels, model.emissions, model.transitions, feats, pred - 1
        )
        assert viterbi_decode(model, s, pred) == expected, trial


def test_tag_matches_reference_decoder_on_multi_frame_sentences():
    """``tag`` shares one scorer across a sentence's frames; each frame must
    still be exactly the reference decode, tie-breaks and zero signs included."""
    rng = random.Random(4051)
    pools = (
        (0.1, 0.2, 0.3, -0.7, 1e16, -1e16, 2.5),
        (-0.0, -0.0, 0.0, 0, 0.1, -0.1, 1e16, -1e16),
    )
    for trial in range(160):
        labels = build_label_set(rng.sample(TEN_ROLES, rng.randint(1, 6)))
        model = TaggerModel(labels=labels)
        n = rng.randint(2, 12)
        s = sent("s1", [rng.choice("abcdefgh") for _ in range(n)])
        predicates = rng.sample(range(1, n + 1), rng.randint(2, min(4, n)))
        feats = {
            p: [extract_features(s, p, i) for i in range(1, n + 1)] for p in predicates
        }
        kind = trial % 4  # small ints, uniform floats, order-sensitive, signed zeros
        def weight():
            if kind == 0:
                return rng.randint(-1, 1)
            if kind == 1:
                return rng.uniform(-5, 5)
            return rng.choice(pools[kind - 2])
        density = rng.choice((0.0, 0.1, 0.5))
        for f in sorted({f for fs in feats.values() for t in fs for f in t}):
            for lab in labels:
                if rng.random() < density:
                    model.emissions[(f, lab)] = weight()
        for a in labels:
            for b in labels:
                if rng.random() < density:
                    model.transitions[(a, b)] = weight()
        expected = tuple(
            spans_from_tags(
                reference_viterbi(labels, model.emissions, model.transitions, feats[p], p - 1)
            )
            for p in sorted(predicates)
        )
        assert tag(model, s, predicates).frames == expected, trial


class _CountingDict(dict):
    """A dict that counts the lookups made through ``get`` and ``[]``."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)


def test_tag_looks_up_each_feature_once_per_call():
    model = train(toy_separable_corpus(), TrainConfig(epochs=3, seed=1))
    model.emissions = _CountingDict(model.emissions)
    s = sent("s1", ["kip", "runsa", "lem", "soon", "bron", "dell", "zun"])
    predicates = [2, 4, 6]
    distinct = {
        f for p in predicates for i in range(1, 8) for f in extract_features(s, p, i)
    }
    per_frame = sum(
        len({f for i in range(1, 8) for f in extract_features(s, p, i)}) for p in predicates
    )
    assert len(distinct) < per_frame  # the frames share predicate-free features
    tagged = tag(model, s, predicates)
    assert model.emissions.probes <= len(model.labels) * len(distinct)
    assert tagged.frames == tuple(
        spans_from_tags(viterbi_decode(model, s, p)) for p in predicates
    )


def test_tag_sees_weights_changed_between_calls():
    model = TaggerModel(build_label_set(("A0",)))
    s = sent("s1", ["a", "b", "c"])
    assert tag(model, s, [2]).frames == (frame(2),)
    model.emissions[("w0=a", "S-A0")] = 1.0
    assert tag(model, s, [2]).frames == (frame(2, (1, 1, "A0")),)
    model.transitions[("rel", "S-A0")] = 2.0
    assert tag(model, s, [2]).frames == (frame(2, (1, 1, "A0"), (3, 3, "A0")),)


def test_decoder_raises_when_no_valid_path():
    model = TaggerModel(build_label_set(("A0",)))
    for a in model.labels:
        for b in model.labels:
            model.transitions[(a, b)] = float("nan")
    s = sent("s1", ["a", "b", "c"])
    with pytest.raises(NoValidPath):
        viterbi_decode(model, s, 3)


def test_toy_model_and_decodes_pinned():
    toy = toy_separable_corpus()
    model = train(toy, TrainConfig(epochs=10, seed=1))
    assert hashlib.sha256(render_model(model)).hexdigest() == (
        "dc044842b550cdd92ab82dbb04a0827d0a6213d4c44ecc23904a03433efa3ff0"
    )
    assert hashlib.sha256(render_corpus(tag_corpus(model, toy))).hexdigest() == (
        "dff0021374eab51f8f0939566d5ec72db8979e22a2fae00cd19840bd8160eca3"
    )


def test_train_matches_reference_averaged_perceptron():
    """Byte-identical models to a dense-averaging, string-keyed perceptron."""
    toy = toy_separable_corpus()
    cases = [(toy, TrainConfig(epochs=10, seed=1)), (toy, TrainConfig(epochs=3, seed=5))]
    for seed in range(4):
        rng = random.Random(seed)
        _, gold = random_pred_gold_corpora(
            rng, 12, labels=("A0", "A1", "AM", "AM-LOC", "AM-TMP")
        )
        cases.append((gold, TrainConfig(epochs=rng.randint(1, 4), seed=seed)))
    for c, config in cases:
        model, expected = train(c, config), reference_train(c, config)
        assert model.emissions == expected.emissions
        assert model.transitions == expected.transitions
        assert render_model(model) == render_model(expected)


def test_train_converges_on_separable_toy_corpus():
    toy = toy_separable_corpus()
    model = train(toy, TrainConfig(epochs=10, seed=1))
    tagged = tag_corpus(model, toy)
    assert score(tagged, toy).f1 == 100.0


def test_train_deterministic_same_seed():
    toy = toy_separable_corpus()
    a = render_model(train(toy, TrainConfig(epochs=3, seed=5)))
    b = render_model(train(toy, TrainConfig(epochs=3, seed=5)))
    assert a == b
    c = render_model(train(toy, TrainConfig(epochs=3, seed=6)))
    assert a != c


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_train_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        train(corpus(sent("s1", ["a", "b"], [])))


def test_tag_empty_predicate_list():
    model = TaggerModel(build_label_set(("A0",)))
    s = sent("s1", ["a", "b"])
    tagged = tag(model, s, [])
    assert tagged.frames == ()


def test_tag_validates_predicates():
    model = TaggerModel(build_label_set(()))
    s = sent("s1", ["a", "b"])
    with pytest.raises(InvalidPredicateIndex):
        tag(model, s, [3])
    with pytest.raises(InvalidPredicateIndex):
        tag(model, s, [1, 1])


def test_tag_reproduces_gold_on_toy_corpus():
    toy = toy_separable_corpus()
    model = train(toy, TrainConfig(epochs=10, seed=1))
    for sentence in toy.sentences:
        stripped = sent(sentence.id, [t.form for t in sentence.tokens], [],
                        lang=sentence.lang, side=sentence.side, pair=sentence.pair_id)
        predicted = tag(model, stripped, [f.predicate_index for f in sentence.frames])
        assert predicted.frames == sentence.frames


def test_decodes_always_strict_valid_random_models():
    rng = random.Random(77)
    for _ in range(100):
        roles = rng.sample(["A0", "A1", "A2", "AM"], rng.randint(1, 3))
        labels = build_label_set(roles)
        model = TaggerModel(labels=labels)
        n = rng.randint(1, 9)
        s = sent("s1", [rng.choice("abcd") for _ in range(n)])
        pred = rng.randint(1, n)
        for _ in range(30):
            f = rng.choice(extract_features(s, pred, rng.randint(1, n)))
            model.emissions[(f, rng.choice(labels))] = rng.uniform(-5, 5)
        for _ in range(10):
            model.transitions[(rng.choice(labels), rng.choice(labels))] = rng.uniform(-5, 5)
        decoded = viterbi_decode(model, s, pred)
        decoded_frame = spans_from_tags(decoded)  # raises if ill-formed
        assert decoded_frame.predicate_index == pred


def test_model_round_trip_preserves_decodes():
    toy = toy_separable_corpus()
    model = train(toy, TrainConfig(epochs=4, seed=2))
    reloaded = parse_model(render_model(model))
    for sentence in list(toy.sentences)[:10]:
        for f in sentence.frames:
            assert viterbi_decode(model, sentence, f.predicate_index) == viterbi_decode(
                reloaded, sentence, f.predicate_index
            )
    assert render_model(reloaded) == render_model(model)


def test_model_file_errors():
    with pytest.raises(ParseError):
        parse_model(b"")
    with pytest.raises(ParseError):
        parse_model(b"SRLMODEL v1\n")  # truncated: no label line
    with pytest.raises(ParseError):
        parse_model(b"not a model\nO\trel\n")
    with pytest.raises(VersionMismatch):
        parse_model(b"SRLMODEL v2\nO\trel\n")
    with pytest.raises(ParseError):
        parse_model(b"SRLMODEL v1\nO\trel\tS-A0\n")  # not closed under grammar
    with pytest.raises(ParseError):
        parse_model(b"SRLMODEL v1\nO\trel\nE\tw0=a\n")  # short row
    model = train(toy_separable_corpus(), TrainConfig(epochs=1, seed=1))
    data = render_model(model)
    with pytest.raises(ParseError):
        parse_model(data[: len(data) // 2])  # truncated mid-file


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_model_rejects_non_finite_weights(raw):
    data = f"SRLMODEL v1\nO\trel\nT\tO\tO\t1.0\nE\tw0=a\tO\t{raw}\n".encode()
    with pytest.raises(ParseError, match="non-finite") as info:
        parse_model(data)
    assert info.value.line == 4


@pytest.mark.parametrize("rows", [
    "E\tw0=a\tO\t1.0\nE\tw0=a\tO\t2.0\n",
    "T\tO\trel\t1.0\nT\tO\trel\t1.0\n",
])
def test_model_rejects_duplicate_rows(rows):
    with pytest.raises(ParseError, match="duplicate") as info:
        parse_model(f"SRLMODEL v1\nO\trel\n{rows}".encode())
    assert info.value.line == 4


def test_save_load_files(tmp_path):
    model = train(toy_separable_corpus(), TrainConfig(epochs=2, seed=1))
    path = tmp_path / "model.txt"
    save_model(model, path)
    reloaded = load_model(path)
    assert render_model(reloaded) == render_model(model)


def test_empty_model_file_round_trip():
    model = TaggerModel(build_label_set(("A0",)))
    data = render_model(model)
    reloaded = parse_model(data)
    assert reloaded.labels == model.labels
    assert reloaded.emissions == {} and reloaded.transitions == {}


def test_multi_predicate_sentences_train():
    c = corpus(
        sent("s1", ["kip", "runsa", "lem", "offa", "taket", "galt"],
             [frame(2, (1, 1, "A0"), (3, 3, "A1")), frame(5, (6, 6, "A1"))]),
    )
    model = train(c, TrainConfig(epochs=5, seed=1))
    tagged = tag_corpus(model, c)
    assert len(tagged.sentences[0].frames) == 2
