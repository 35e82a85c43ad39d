"""Feature extraction, constrained decoding vs exhaustive search, perceptron
training, and model persistence."""

import hashlib
import math
import random
import weakref
from dataclasses import replace
from operator import mul

import pytest

import helpers
from helpers import (
    corpus,
    frame,
    random_pred_gold_corpora,
    reference_features,
    reference_render_model,
    reference_train,
    reference_viterbi,
    sent,
    toy_separable_corpus,
)
from l2srl import tagger
from l2srl.corpus import render_corpus
from l2srl.errors import (
    EmptyCorpus,
    InvalidPredicateIndex,
    NoValidPath,
    ParseError,
    VersionMismatch,
)
from l2srl.model import Frame, Span, spans_from_tags, tags_from_spans
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


def test_features_equal_the_reference_at_every_position_and_predicate():
    """The same list as the closure-based reference, padding and the far
    distance buckets included, on or past either end of the sentence."""
    for n in range(5):
        s = sent("s1", [f"w{i}" for i in range(1, n + 1)])
        for predicate in range(-1, n + 3):
            for position in range(-2, n + 4):
                expected = reference_features(s, predicate, position)
                assert extract_features(s, predicate, position) == expected


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


def _assert_start_and_end_sets(labels):
    """The decoder starts on ``rel`` or an opening label and ends on a closed
    one; those must be exactly the labels the reference predicates allow."""
    grammar = compile_grammar(tuple(labels))
    assert grammar.closed == tuple(j for j, lab in enumerate(labels) if _can_end(lab))
    assert sorted((grammar.rel, *grammar.opening)) == [
        j for j, lab in enumerate(labels) if _can_start(lab)
    ]


def test_compiled_grammar_matches_reference_predicates():
    labels = build_label_set(TEN_ROLES)
    grammar = compile_grammar(tuple(labels))
    assert labels[grammar.rel] == "rel"
    for j, lab in enumerate(labels):
        assert grammar.predecessors[j] == tuple(
            k for k, prev in enumerate(labels) if _can_follow(prev, lab)
        )
    _assert_start_and_end_sets(labels)
    closed = [lab for lab in labels if not lab.startswith(("B-", "I-"))]
    assert [labels[k] for k in grammar.closed] == closed
    assert len(closed) == 22 and len(grammar.opening) == 21  # rel is apart
    for j, lab in enumerate(labels):
        inner = lab.startswith(("I-", "E-"))
        assert (j in grammar.inner) == inner
        assert (j in grammar.opening) == (not inner and lab != "rel")


def _decode_outcome(model, feats, s, pred):
    """``viterbi_decode`` and ``reference_viterbi`` on one frame: each one's
    tags, or NoValidPath where it raised that."""

    def outcome(decode, *args):
        try:
            return decode(*args)
        except NoValidPath:
            return NoValidPath

    return (
        outcome(viterbi_decode, model, s, pred),
        outcome(
            reference_viterbi, model.labels, model.emissions, model.transitions, feats, pred - 1
        ),
    )


def _random_weights(rng, model, feats, density, weight):
    """Set, each with probability ``density``, every emission of the
    features in ``feats`` and every transition to ``weight()``."""
    for f in sorted({f for fs in feats for f in fs}):
        for lab in model.labels:
            if rng.random() < density:
                model.emissions[(f, lab)] = weight()
    for a in model.labels:
        for b in model.labels:
            if rng.random() < density:
                model.transitions[(a, b)] = weight()


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
        _random_weights(rng, model, feats, rng.choice((0.0, 0.1, 0.5)), weight)
        expected = reference_viterbi(
            labels, model.emissions, model.transitions, feats, pred - 1
        )
        assert viterbi_decode(model, s, pred) == expected, trial


def test_pruned_decoder_matches_reference_on_the_ten_role_grammar():
    """All 42 labels: the closed-label scan stops early yet ties break as a
    full scan's, with small ints (dense ties) and with 1e16-scale floats,
    whose sums round."""
    rng = random.Random(1010)
    labels = build_label_set(TEN_ROLES)
    huge = (1e16, -1e16, 3e16, 2.0, -2.0, 1.0, 0.5, -0.5)
    for trial in range(60):
        model = TaggerModel(labels=list(labels))
        n = rng.randint(1, 10)
        s = sent("s1", [rng.choice("abcdefgh") for _ in range(n)])
        pred = rng.randint(1, n)
        feats = [extract_features(s, pred, i) for i in range(1, n + 1)]
        if trial % 2:
            weight = lambda: rng.choice(huge)
        else:
            weight = lambda: rng.randint(-2, 2)
        _random_weights(rng, model, feats, rng.choice((0.2, 0.6, 0.9)), weight)
        fast, expected = _decode_outcome(model, feats, s, pred)
        assert fast == expected, trial


def test_pruned_decoder_matches_reference_with_non_finite_weights():
    """NaN scores are dead, as in the reference (sorting by them would leave
    the scan out of order), and infinite ones break neither the scan's order
    nor its stopping bound."""
    rng = random.Random(77)
    nan, inf = float("nan"), float("inf")
    pool = (nan, nan, nan, inf, -inf)
    outcomes = set()
    for trial in range(200):
        labels = build_label_set(rng.sample(TEN_ROLES, rng.randint(5, 10)))
        model = TaggerModel(labels=labels)
        n = rng.randint(3, 8)
        s = sent("s1", [rng.choice("abcdefgh") for _ in range(n)])
        pred = rng.randint(1, n)
        feats = [extract_features(s, pred, i) for i in range(1, n + 1)]
        for t in range(n):  # dense finite weights, so many closed labels live
            for lab in labels:
                model.emissions[(feats[t][0], lab)] = rng.uniform(-3, 3)
        for a in labels:
            for b in labels:
                model.transitions[(a, b)] = rng.uniform(-3, 3)
        for _ in range(rng.randint(2, 10)):  # then a few non-finite cells
            weight = rng.choice(pool)
            if rng.random() < 0.9:
                model.emissions[(rng.choice(feats)[0], rng.choice(labels))] = weight
            else:
                model.transitions[(rng.choice(labels), rng.choice(labels))] = weight
        fast, expected = _decode_outcome(model, feats, s, pred)
        assert fast == expected, trial
        outcomes.add(fast is NoValidPath)
    assert outcomes == {True, False}  # both decodes and dead lattices were seen


def test_pruned_decoder_matches_reference_on_parsed_models_with_any_label_order():
    """The closed labels come from the grammar, not from where ``O`` sits."""
    rng = random.Random(31)
    for trial in range(40):
        labels = build_label_set(rng.sample(TEN_ROLES, rng.randint(1, 10)))
        rng.shuffle(labels)
        if labels[0] == "O":
            labels.append(labels.pop(0))
        model = TaggerModel(labels=labels)
        n = rng.randint(1, 9)
        s = sent("s1", [rng.choice("abcdefgh") for _ in range(n)])
        pred = rng.randint(1, n)
        feats = [extract_features(s, pred, i) for i in range(1, n + 1)]
        _random_weights(rng, model, feats, 0.5, lambda: rng.choice((-1.5, -1, 0.25, 1, 3)))
        parsed = parse_model(render_model(model))
        assert parsed.labels == labels and parsed.labels[0] != "O"
        fast, expected = _decode_outcome(parsed, feats, s, pred)
        assert fast == expected, trial


def test_inner_labels_outlive_a_token_whose_closed_labels_are_all_dead():
    """At token ``t`` every closed label (O, rel, S-x, E-x) has a -inf or NaN
    emission, so at ``t + 1`` no closed predecessor is live: the opening
    labels are dead there, but an I-x or E-x label still continues a B-x run."""
    rng = random.Random(5150)
    nan, inf = float("nan"), float("inf")
    carried = 0
    for trial in range(150):
        labels = build_label_set(rng.sample(TEN_ROLES, rng.randint(1, 4)))
        model = TaggerModel(labels=labels)
        n = rng.randint(3, 9)
        s = sent("s1", [f"w{i}" for i in range(1, n + 1)])  # w0= is one token's
        pred = rng.randint(1, n)
        feats = [extract_features(s, pred, i) for i in range(1, n + 1)]
        _random_weights(rng, model, feats, 0.5, lambda: rng.randint(-2, 2))
        spots = [t for t in range(n - 1) if pred - 1 not in (t, t + 1)]
        if not spots:
            continue
        t = rng.choice(spots)
        for lab in labels:
            if not lab.startswith(("B-", "I-")):
                model.emissions[(feats[t][0], lab)] = rng.choice((-inf, nan))
        fast, expected = _decode_outcome(model, feats, s, pred)
        assert fast == expected, trial
        if fast is not NoValidPath:
            assert fast[t + 1].startswith(("I-", "E-")), trial
            carried += 1
    assert carried >= 50


def test_opening_label_passes_over_a_nan_sum_from_the_best_closed_label():
    """O -> O weighs NaN, so the best-ranked closed predecessor gives ``O`` a
    dead sum at the last token; like a full scan, it takes the next one."""
    model = TaggerModel(build_label_set(("A0",)))
    s = sent("s1", ["a", "b", "c"])
    model.emissions[("w0=b", "O")] = 10.0
    model.emissions[("w0=c", "O")] = 100.0
    model.transitions[("O", "O")] = float("nan")
    feats = [extract_features(s, 1, i) for i in range(1, 4)]
    expected = reference_viterbi(model.labels, model.emissions, model.transitions, feats, 0)
    assert viterbi_decode(model, s, 1) == expected == ["rel", "S-A0", "O"]


def _partial_label_list(rng, roles):
    """A shuffled label list that ``build_label_set`` never makes: per role,
    B-x, I-x, both or neither is left out, so its I-x and E-x labels have 0,
    1 or 2 predecessors.  Also returns each role's longest span the list can
    still tag (None for no limit)."""
    labels, longest = ["O", "rel"], {}
    for role in roles:
        dropped = rng.choice(("", "B", "I", "BI"))
        labels.extend(f"{p}-{role}" for p in "SBIE" if p not in dropped)
        longest[role] = 1 if "B" in dropped else 2 if "I" in dropped else None
    rng.shuffle(labels)
    return labels, longest


def test_decoder_matches_reference_on_label_lists_not_closed_under_the_grammar():
    """Inner labels with 0, 1 or 2 predecessors, in any label order, under
    finite floats, tied small ints, and weights that mix in -inf, inf and NaN."""
    rng = random.Random(2718)
    nan, inf = float("nan"), float("inf")
    pools = ((-1, 0, 1), (-1, 0, 1, 2, nan, inf, -inf))
    counts = set()
    for trial in range(240):
        labels, _ = _partial_label_list(rng, rng.sample(TEN_ROLES, rng.randint(1, 5)))
        grammar = compile_grammar(tuple(labels))
        counts.update(len(grammar.predecessors[j]) for j in grammar.inner)
        model = TaggerModel(labels=labels)
        n = rng.randint(1, 9)
        s = sent("s1", [rng.choice("abcdefgh") for _ in range(n)])
        pred = rng.randint(1, n)
        feats = [extract_features(s, pred, i) for i in range(1, n + 1)]
        kind = trial % 3
        if kind == 0:
            weight = lambda: rng.uniform(-3, 3)
        else:
            weight = lambda pool=pools[kind - 1]: rng.choice(pool)
        _random_weights(rng, model, feats, rng.choice((0.2, 0.5, 0.9)), weight)
        fast, expected = _decode_outcome(model, feats, s, pred)
        assert fast == expected, trial
    assert counts == {0, 1, 2}


def test_start_and_end_sets_match_reference_predicates_on_random_label_lists():
    """Shuffled lists holding rel and any other labels, odd strings and lists
    not closed under the grammar included."""
    rng = random.Random(3141)
    pool = ["O", "X", "B", "I-", "E-", "Q-A0", "B-A0x", "S-A0-", "IA0"]
    pool += [f"{p}-{role}" for p in "SBIE" for role in ("A0", "A1", "AM", "AM-TMP")]
    for _ in range(2000):
        labels = ["rel", *rng.sample(pool, rng.randint(0, 12))]
        rng.shuffle(labels)
        _assert_start_and_end_sets(labels)


def test_decoder_rejects_a_label_list_that_repeats_a_label():
    """A repeated B-x would give I-x three predecessors, more than its two
    slots; the grammar rejects the list before any lattice is built."""
    model = TaggerModel(["O", "rel", "S-A0", "B-A0", "B-A0", "I-A0", "E-A0"])
    with pytest.raises(ValueError):
        viterbi_decode(model, sent("s1", ["a", "b"]), 1)


def test_grammar_rejects_a_repeated_label_or_a_missing_rel():
    """A code-built model that repeats any label, rel, O and S-x included,
    fails with a plain message before it decodes, not with an ill-formed
    decode later; so does one without rel."""
    for labels in (
        ["O", "rel", "rel", "S-A0", "B-A0", "I-A0", "E-A0"],
        ["O", "O", "rel", "S-A0", "B-A0", "I-A0", "E-A0"],
        ["O", "rel", "S-A0", "B-A0", "I-A0", "E-A0", "S-A0"],
    ):
        with pytest.raises(ValueError, match="^label list repeats "):
            compile_grammar(tuple(labels))
        model = TaggerModel(labels)
        with pytest.raises(ValueError, match="^label list repeats "):
            viterbi_decode(model, sent("s1", ["a", "b", "c"]), 1)
        with pytest.raises(ValueError, match="^label list repeats "):
            tag(model, sent("s1", ["a", "b", "c"]), [2])
    with pytest.raises(ValueError, match="^label list has no 'rel' label$"):
        compile_grammar(("O", "S-A0", "B-A0", "I-A0", "E-A0"))


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
        _random_weights(rng, model, [t for fs in feats.values() for t in fs], density, weight)

        def expected():
            return tuple(
                spans_from_tags(
                    reference_viterbi(labels, model.emissions, model.transitions, feats[p], p - 1)
                )
                for p in sorted(predicates)
            )

        assert tag(model, s, predicates).frames == expected(), trial
        # The same model through a mix of transition edits and tag calls:
        # each call reuses or rebuilds the cached lattice, never a stale one.
        for step in range(4):
            for _ in range(rng.choice((0, 0, 1, 3))):
                key = (rng.choice(labels), rng.choice(labels))
                if key in model.transitions and rng.random() < 0.25:
                    del model.transitions[key]
                else:
                    model.transitions[key] = rng.choice(rng.choice(pools))
            assert tag(model, s, predicates).frames == expected(), (trial, step)


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
    model.rows = _CountingDict(model.rows)
    s = sent("s1", ["kip", "runsa", "lem", "soon", "bron", "dell", "zun"])
    predicates = [2, 4, 6]
    occurrences = sum(
        len(extract_features(s, p, i)) for p in predicates for i in range(1, 8)
    )
    assert occurrences == 3 * 7 * 12
    tagged = tag(model, s, predicates)
    assert model.rows.probes == occurrences  # whatever the size of the label set
    assert tagged.frames == tuple(
        spans_from_tags(viterbi_decode(model, s, p)) for p in predicates
    )


def test_emissions_view_writes_through_to_rows():
    model = TaggerModel(build_label_set(("A0",)))
    j = model.labels.index("B-A0")
    view = model.emissions
    view[("w0=a", "B-A0")] = 2.5
    view[("w0=a", "O")] = -1.0
    assert model.rows["w0=a"][j] == 2.5 and model.rows["w0=a"][0] == -1.0
    assert model.rows["w0=a"].count(0) == len(model.labels) - 2
    assert len(view) == 2 and len(model.rows) == 1
    assert view == {("w0=a", "B-A0"): 2.5, ("w0=a", "O"): -1.0}
    assert model.emissions == view
    model.rows["w0=b"] = [0] * len(model.labels)
    model.rows["w0=b"][j] = 4.0
    assert view[("w0=b", "B-A0")] == 4.0 and len(view) == 3
    del view[("w0=a", "O")]
    assert view == {("w0=a", "B-A0"): 2.5, ("w0=b", "B-A0"): 4.0}
    with pytest.raises(KeyError):
        del view[("w0=a", "O")]
    view[("w0=a", "B-A0")] = 0  # writing a zero deletes the cell
    assert "w0=a" not in model.rows  # and drops a row left all zero
    assert view == {("w0=b", "B-A0"): 4.0}


def test_emissions_view_treats_zero_as_absent():
    model = TaggerModel(build_label_set(("A0",)))
    model.rows["w0=a"] = [0] * len(model.labels)
    model.rows["w0=a"][1] = 0.0
    model.rows["w0=a"][2] = 3.0
    view = model.emissions
    assert ("w0=a", "O") not in view and ("w0=a", "rel") not in view
    assert view.get(("w0=a", "O"), "absent") == "absent"
    with pytest.raises(KeyError):
        view[("w0=a", "O")]
    assert len(view) == 1 and list(view) == [("w0=a", model.labels[2])]
    view[("w0=c", "O")] = 0.0
    assert "w0=c" not in model.rows and len(view) == 1


def test_emissions_view_rejects_unknown_labels():
    model = TaggerModel(build_label_set(("A0",)))
    with pytest.raises(KeyError):
        model.emissions[("w0=a", "S-A1")] = 1.0
    with pytest.raises(KeyError):
        model.emissions[("w0=a", "S-A1")] = 0
    assert model.rows == {} and ("w0=a", "S-A1") not in model.emissions


def test_emissions_view_reads_replaced_rows_and_labels():
    model = TaggerModel(build_label_set(("A0",)))
    view = model.emissions
    view[("w0=a", "O")] = 1.0
    assert model.emissions == {("w0=a", "O"): 1.0}
    model.rows = {"w0=b": [2.0] + [0] * (len(model.labels) - 1)}
    assert model.emissions == {("w0=b", "O"): 2.0}
    view = model.emissions
    model.labels = ["rel", "O"] + model.labels[2:]
    assert model.emissions == {("w0=b", "rel"): 2.0}
    alive = weakref.ref(model)
    del model, view
    assert alive() is None  # freed by reference counting: no model-view cycle


def test_emissions_view_finds_lanes_in_labels_edited_in_place():
    model = TaggerModel(build_label_set(("A0",)))
    held = model.emissions
    labels = model.labels
    labels[0], labels[2] = labels[2], labels[0]  # O and S-A0 trade lanes
    held[("w0=a", "S-A0")] = 5.0
    model.emissions[("w0=c", "S-A0")] = 5.0
    for view in (held, model.emissions):
        for f in ("w0=a", "w0=c"):
            assert model.rows[f][labels.index("S-A0")] == 5.0 and model.rows[f].count(0) == 5
            assert view.get((f, "S-A0")) == 5.0 and view.get((f, "O")) is None
        assert dict(view) == {("w0=a", "S-A0"): 5.0, ("w0=c", "S-A0"): 5.0}
    s = sent("s1", ["a", "b", "c"])
    assert tag(model, s, [2]).frames == (frame(2, (1, 1, "A0"), (3, 3, "A0")),)


def test_tag_rejects_rows_left_short_by_a_label_added_in_place():
    model = TaggerModel(build_label_set(("A0",)))
    model.emissions[("w0=a", "O")] = 1.0
    s = sent("s", ["a", "b"])
    assert tag(model, s, [1]).frames == (frame(1),)
    model.labels.append("S-A1")
    with pytest.raises(ValueError, match="one weight per label"):
        tag(model, s, [1])


def test_emissions_view_rejects_rows_left_short_by_a_label_added_in_place():
    """The view raises _scorer's ValueError, not a bare IndexError, and an
    unknown label still reads the default and refuses a write."""
    model = TaggerModel(build_label_set(("A0",)))
    model.emissions[("w0=a", "O")] = 1.0
    model.labels.append("S-A1")
    view = model.emissions
    with pytest.raises(ValueError, match="one weight per label \\(7\\)$"):
        view.get(("w0=a", "S-A1"))
    with pytest.raises(ValueError, match="one weight per label \\(7\\)$"):
        view[("w0=a", "O")]
    with pytest.raises(ValueError, match="one weight per label \\(7\\)$"):
        view[("w0=a", "S-A1")] = 2.0
    assert model.rows == {"w0=a": [1.0, 0, 0, 0, 0, 0]}
    assert view.get(("w0=a", "S-A2"), "absent") == "absent"
    assert view.get(("w0=b", "S-A1")) is None
    with pytest.raises(KeyError):
        view[("w0=a", "S-A2")] = 1.0
    view[("w0=b", "S-A1")] = 3.0
    assert model.rows["w0=b"] == [0, 0, 0, 0, 0, 0, 3.0]


def test_tag_sees_weights_changed_between_calls():
    model = TaggerModel(build_label_set(("A0",)))
    s = sent("s1", ["a", "b", "c"])
    assert tag(model, s, [2]).frames == (frame(2),)
    model.emissions[("w0=a", "S-A0")] = 1.0
    assert tag(model, s, [2]).frames == (frame(2, (1, 1, "A0")),)
    model.transitions[("rel", "S-A0")] = 2.0
    assert tag(model, s, [2]).frames == (frame(2, (1, 1, "A0"), (3, 3, "A0")),)


def _count_scorer_builds(monkeypatch):
    """Wrap ``tagger._scorer`` to log each model whose ``_scorer_cache`` entry
    a call replaces, that is each decode state built; return the log."""
    builds = []
    scorer = tagger._scorer

    def counting(model):
        cached = model.__dict__.get("_scorer_cache")
        pair = scorer(model)
        if model.__dict__.get("_scorer_cache") is not cached:
            builds.append(model)
        return pair

    monkeypatch.setattr(tagger, "_scorer", counting)
    return builds


def test_tag_and_tag_corpus_build_one_scorer_per_unchanged_model(monkeypatch):
    builds = _count_scorer_builds(monkeypatch)
    gold = toy_separable_corpus()
    model = train(gold, TrainConfig(epochs=3, seed=1))
    tagged = tag_corpus(model, gold)
    assert [id(m) for m in builds] == [id(model)]
    for s, expected in zip(gold.sentences, tagged.sentences):
        assert tag(model, s, [f.predicate_index for f in s.frames]) == expected
        assert viterbi_decode(model, s, 2) == tags_from_spans(expected.frames[0], len(s))
    assert tag_corpus(model, gold) == tagged
    assert tag(model, gold.sentences[0], []).frames == ()
    assert [id(m) for m in builds] == [id(model)]
    other = parse_model(render_model(model))  # an equal model has its own
    assert tag_corpus(other, gold) == tagged and tag_corpus(model, gold) == tagged
    assert [id(m) for m in builds] == [id(model), id(other)]


def test_scorer_is_rebuilt_after_each_transition_or_label_edit(monkeypatch):
    """Every edit below builds the scorer once more, and the decode is the
    reference one; the next call reuses it.  Weights are told apart by
    identity: ``10**16`` and ``1e16``, ``0.0`` and ``-0.0``, two NaNs."""
    builds = _count_scorer_builds(monkeypatch)
    model = TaggerModel(build_label_set(("A0", "A1")))
    s = sent("s1", ["a", "b", "c", "d"])
    predicates = [1, 4]
    model.emissions[("w0=b", "O")] = 1
    model.emissions[("w0=c", "B-A1")] = 0.5
    model.transitions[("rel", "S-A0")] = 10**16 + 1
    model.transitions[("O", "S-A1")] = 0.25
    model.transitions[("S-A0", "S-A1")] = -0.5
    frames = []

    def check(name):
        before = len(builds)
        got = tag(model, s, predicates).frames
        assert len(builds) == before + 1, name
        assert tag(model, s, predicates).frames == got and len(builds) == before + 1, name
        # A fresh model object, so the reference reads a fresh emissions view.
        fresh = TaggerModel(list(model.labels), model.rows, model.transitions)
        feats = {p: [extract_features(s, p, i) for i in range(1, 5)] for p in predicates}
        assert got == tuple(
            spans_from_tags(reference_viterbi(
                fresh.labels, fresh.emissions, fresh.transitions, feats[p], p - 1))
            for p in predicates
        ), name
        frames.append(got)

    check("first call")
    model.transitions[("O", "S-A1")] = 3.0
    check("weight edited in place")
    model.transitions[("S-A1", "B-A0")] = 2.0
    check("key added")
    del model.transitions[("S-A0", "S-A1")]
    check("key removed")
    model.transitions[("S-A1", "S-A0")] = model.transitions.pop(("S-A1", "B-A0"))
    check("key renamed, same weight")
    model.transitions = {key: -w for key, w in model.transitions.items()}
    check("transitions replaced")
    model.transitions[("rel", "S-A0")] = 10**16 + 1
    key = ("rel", "O")
    for old, new in ((1, 1.0), (10**16, 1e16), (0.0, -0.0), (float("nan"), float("nan"))):
        model.transitions[key] = old
        check(f"{old!r} set")
        model.transitions[key] = new
        check(f"{old!r} -> {new!r}")
    # rel -> O at 10**16 plus O's emission 1 ties rel -> S-A0 at 10**16 + 1,
    # and O wins the tie; 1e16 + 1 rounds to 1e16, so S-A0 wins
    assert frames[-5] != frames[-6]
    model.transitions[key] = 10**16
    check("10**16 again")
    model.labels = ["rel", "O"] + model.labels[2:]  # the O weights now weigh rel
    check("labels replaced")
    model.labels[0], model.labels[1] = model.labels[1], model.labels[0]
    check("labels edited in place")
    assert frames[-2] != frames[-1] == frames[-3]


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
    # Ten roles, 42 labels: train patches the lattice entry of every label
    # whose incoming transitions a step changed, over many steps.
    for seed in range(2):
        rng = random.Random(100 + seed)
        _, gold = random_pred_gold_corpora(rng, 16, labels=TEN_ROLES)
        cases.append((gold, TrainConfig(epochs=3, seed=seed)))
    for c, config in cases:
        model, expected = train(c, config), reference_train(c, config)
        assert model.emissions == expected.emissions
        assert model.transitions == expected.transitions
        assert render_model(model) == render_model(expected)


def test_train_matches_reference_on_label_lists_not_closed_under_the_grammar(monkeypatch):
    """Both trainers take the same partial, shuffled label list; gold spans
    are cut to what that list can tag."""
    for seed in range(6):
        rng = random.Random(300 + seed)
        roles = ("A0", "A1", "AM", "AM-TMP")
        labels, longest = _partial_label_list(rng, roles)
        _, gold = random_pred_gold_corpora(rng, 14, labels=roles)
        sentences = []
        for s in gold.sentences:
            frames = []
            for f in s.frames:
                spans = []
                for sp in f.spans:
                    limit = longest[sp.label]
                    end = sp.end if limit is None else min(sp.end, sp.start + limit - 1)
                    spans.append(Span(sp.start, end, sp.label))
                frames.append(Frame(f.predicate_index, tuple(spans)))
            sentences.append(replace(s, frames=tuple(frames)))
        c = corpus(*sentences)
        for module in (tagger, helpers):
            monkeypatch.setattr(module, "build_label_set", lambda _, ls=labels: list(ls))
        config = TrainConfig(epochs=rng.randint(1, 3), seed=seed)
        model, expected = train(c, config), reference_train(c, config)
        assert model.labels == labels
        assert model.transitions == expected.transitions
        assert render_model(model) == render_model(expected)


@pytest.mark.parametrize("size", [18, 42])
def test_lanes_round_trip_signed_rows(size):
    lane, unpack = tagger._lanes(size)
    top, bottom = 2**63 - 1, -(2**63)
    rows = [
        [0] * size,
        [(-1) ** j * (j + 1) * 997 for j in range(size)],
        [bottom, top] * (size // 2),
        [top, bottom] * (size // 2),
        [-1, 1] + [0] * (size - 2),  # a negative lane below a positive one
        [0] * (size - 2) + [-5, 3],
        [bottom] * size,
        [top] * size,
    ]
    for row in rows:
        assert list(unpack(sum(map(mul, row, lane)))) == row
    # Packed rows add and scale lane by lane while no lane leaves the range.
    a, b = rows[1], rows[4]
    packed = 3 * sum(map(mul, a, lane)) - sum(map(mul, b, lane))
    assert list(unpack(packed)) == [3 * x - y for x, y in zip(a, b)]


def test_train_refuses_lane_overflow_before_the_first_step(monkeypatch):
    class FirstStep(Exception):
        pass

    def first_step(*args):
        raise FirstStep

    monkeypatch.setattr(tagger, "_viterbi", first_step)
    toy = toy_separable_corpus()  # 20 sequences of at most 4 tokens
    # The bound is 2 * S * S * 4 for S = 20 * epochs steps; it first reaches
    # 2**63 at S = 2**30, between 20 * 53_687_091 and 20 * 53_687_092.
    with pytest.raises(FirstStep):
        train(toy, TrainConfig(epochs=53_687_091))
    with pytest.raises(ValueError, match="overflow a weight lane"):
        train(toy, TrainConfig(epochs=53_687_092))


def test_render_model_formats_equal_weights_alike():
    """A weight's text depends only on its value, so ``1`` and ``1.0`` in one
    model both render as ``1.0``, as in a per-cell renderer."""
    model = TaggerModel(build_label_set(("A0", "A1")))
    size = len(model.labels)
    model.rows["w0=a"] = [1, 0, 1.0, -0.0, 2.5, 0.1 + 0.2] + [0] * (size - 6)
    model.rows["w0=b"] = [0] * (size - 3) + [1.0, -1, 10**16 + 1]
    model.rows["w0=c"] = [1e16, 10**16] + [0] * (size - 2)
    model.transitions[("O", "B-A0")] = 1
    model.transitions[("B-A0", "E-A0")] = 1.0
    model.transitions[("O", "O")] = 0
    model.transitions[("rel", "O")] = 2.5
    data = render_model(model)
    assert data == reference_render_model(model)
    assert b"E\tw0=a\tO\t1.0\n" in data and b"E\tw0=a\tS-A0\t1.0\n" in data
    assert b"T\tO\tB-A0\t1.0\n" in data and b"T\tB-A0\tE-A0\t1.0\n" in data
    trained = train(toy_separable_corpus(), TrainConfig(epochs=3, seed=1))
    assert render_model(trained) == reference_render_model(trained)


def test_render_model_formats_nan_inf_and_split_equal_weights_alike():
    """Weights that no trained model holds still render as in a per-cell
    renderer: two distinct NaN objects (unequal to each other and to
    themselves), +inf and -inf, and an equal int/float pair in two rows."""
    model = TaggerModel(build_label_set(("A0",)))
    size = len(model.labels)
    nan_a, nan_b = float("nan"), float("nan")
    assert nan_a is not nan_b
    model.rows["w0=a"] = [nan_a, math.inf, 3] + [0] * (size - 3)
    model.rows["w0=b"] = [0, -math.inf, nan_b, 3.0] + [0] * (size - 4)
    data = render_model(model)
    assert data == reference_render_model(model)
    assert data.count(b"\tnan\n") == 2 and data.count(b"\t3.0\n") == 2
    assert b"\tinf\n" in data and b"\t-inf\n" in data


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
    # Of several indices out of range, the first in decode order is named.
    for indices in ([4, 1, 0], [0, 4], [4, 0]):
        with pytest.raises(InvalidPredicateIndex, match=r"^predicate index 0 outside 1\.\.2$"):
            tag(model, s, indices)


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
    with pytest.raises(ParseError) as info:
        parse_model(b"SRLMODEL v1\nO\trel\tO\n")
    assert info.value.args == ("line 2: duplicate labels in label set",)
    with pytest.raises(ParseError):
        parse_model(b"SRLMODEL v1\nO\trel\nE\tw0=a\n")  # short row
    model = train(toy_separable_corpus(), TrainConfig(epochs=1, seed=1))
    data = render_model(model)
    with pytest.raises(ParseError):
        parse_model(data[: len(data) // 2])  # truncated mid-file


@pytest.mark.parametrize("labels", [
    "rel\tS-A0\tB-A0\tI-A0\tE-A0", "O\tS-A0\tB-A0\tI-A0\tE-A0",
], ids=["no-O", "no-rel"])
def test_model_rejects_a_label_set_without_o_or_rel(labels):
    with pytest.raises(ParseError) as info:
        parse_model(f"SRLMODEL v1\n{labels}\n".encode())
    assert info.value.line == 2
    assert "label set must include O and rel" in str(info.value)


@pytest.mark.parametrize("row, message", [
    ("X\tw0=a\tO\t1.0", "line 4: unknown row kind 'X'"),
    ("T\tB-A9\tO\t1.0", "line 4: unknown label in transition 'B-A9' -> 'O'"),
    ("T\tO\tB-A9\t1.0", "line 4: unknown label in transition 'O' -> 'B-A9'"),
    ("E\tw0=a\tB-A9\t1.0", "line 4: unknown label 'B-A9'"),
], ids=["kind", "transition-from", "transition-to", "emission"])
def test_model_rejects_rows_of_unknown_kind_or_label(row, message):
    data = f"SRLMODEL v1\nO\trel\nT\tO\tO\t1.0\n{row}\n".encode()
    with pytest.raises(ParseError) as info:
        parse_model(data)
    assert info.value.args == (message,)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_model_rejects_non_finite_weights(raw):
    data = f"SRLMODEL v1\nO\trel\nT\tO\tO\t1.0\nE\tw0=a\tO\t{raw}\n".encode()
    with pytest.raises(ParseError, match="non-finite") as info:
        parse_model(data)
    assert info.value.line == 4


@pytest.mark.parametrize("raw", ["1_0", " 1.5", "1.5 ", "\u0661.5"])
def test_model_rejects_badly_spelled_weights(raw):
    data = f"SRLMODEL v1\nO\trel\nT\tO\tO\t1.0\nE\tw0=a\tO\t{raw}\n".encode()
    with pytest.raises(ParseError, match="bad weight") as info:
        parse_model(data)
    assert info.value.line == 4


@pytest.mark.parametrize("rows", [
    "E\tw0=a\tO\t1.0\nE\tw0=a\tO\t2.0\n",
    "T\tO\trel\t1.0\nT\tO\trel\t1.0\n",
    "E\tw0=a\tO\t0.0\nE\tw0=a\tO\t2.0\n",
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
