"""Seeded synthetic SRL data for the benchmark workloads.

Sentences are plain tuples, written to the canonical corpus format by this
module's own writer.  The library only ever receives the generated bytes, and
nothing here imports the library or the test helpers, so a change to either
cannot shift the workloads.
"""

import random
from typing import NamedTuple

LANGS = ("ENG", "JPN", "RUS", "ARA")
SPAN_ERRORS = ("drop", "relabel", "shift", "split", "merge")
SPAN_RATE = 0.45  # chance that a span starts at a free token
MAX_SPAN = 3  # longest generated span, in tokens


class Sentence(NamedTuple):
    id: str
    lang: str
    side: str
    pair: str
    forms: tuple
    frames: tuple  # ((predicate, ((start, end, label), ...)), ...), 1-based


def spread_lengths(rng, count, lo, hi):
    """``count`` lengths spread evenly over lo..hi, in seeded order.

    The multiset of lengths does not depend on the seed, so the work of a
    pass (decode cost grows with length) is the same for every seed.
    """
    lengths = [lo + (i * (hi - lo + 1)) // count for i in range(count)]
    rng.shuffle(lengths)
    return lengths


class Generator:
    """Random sentences over a ``w<k>`` vocabulary with random role spans.

    The first spans generated cycle through every role once, so each
    corpus of more than ``len(roles)`` spans carries the full label set.
    """

    def __init__(self, seed, roles, vocab):
        self.rng = random.Random(seed)
        self.roles = tuple(roles)
        self.vocab = vocab
        self._spans_made = 0

    def word(self):
        return f"w{self.rng.randrange(self.vocab)}"

    def label(self):
        k = self._spans_made
        self._spans_made += 1
        return self.roles[k] if k < len(self.roles) else self.rng.choice(self.roles)

    def frame(self, n, predicate):
        rng = self.rng
        spans = []
        i = 1
        while i <= n:
            if i != predicate and rng.random() < SPAN_RATE:
                end = min(i + rng.randrange(MAX_SPAN), n)
                if i < predicate <= end:
                    end = predicate - 1
                spans.append((i, end, self.label()))
                i = end + 1 + (rng.random() < 0.5)
            else:
                i += 1
        return (predicate, tuple(spans))

    def sentence(self, sid, n, frames, side="L2", pair=None):
        forms = tuple(self.word() for _ in range(n))
        predicates = sorted(self.rng.sample(range(1, n + 1), min(frames, n)))
        return Sentence(
            id=sid,
            lang=self.rng.choice(LANGS),
            side=side,
            pair=pair or sid,
            forms=forms,
            frames=tuple(self.frame(n, p) for p in predicates),
        )

    def corpus(self, prefix, count, length, frames, side="L2"):
        lo, hi = length
        return [
            self.sentence(f"{prefix}{k}", n, frames, side)
            for k, n in enumerate(spread_lengths(self.rng, count, lo, hi))
        ]

    def counterpart(self, s, sid, edit_rate):
        """The L1 side of pair ``s.pair``: a copy, or an edited copy.

        With ``edit_rate`` 0 the copy has identical forms and frames.
        Otherwise each non-predicate form is replaced and each span
        relabelled with that probability, and half the edited copies gain a
        leading token that shifts every index by one.
        """
        rng = self.rng
        forms, frames = list(s.forms), s.frames
        if edit_rate:
            predicates = {p for p, _ in frames}
            forms = [
                self.word() if i not in predicates and rng.random() < edit_rate else f
                for i, f in enumerate(forms, start=1)
            ]
            frames = tuple(
                (p, tuple(
                    (a, b, rng.choice(self.roles) if rng.random() < edit_rate else lab)
                    for a, b, lab in spans
                ))
                for p, spans in frames
            )
            if rng.random() < 0.5:
                forms.insert(0, self.word())
                frames = tuple(
                    (p + 1, tuple((a + 1, b + 1, lab) for a, b, lab in spans))
                    for p, spans in frames
                )
        return s._replace(id=sid, side="L1", forms=tuple(forms), frames=frames)

    def pairs(self, prefix, identical, edited, length, frames, edit_rate):
        """Parallel L2/L1 lists; returns (l2, l1, ids of identical pairs).

        Which pairs are the planted identical ones is seeded; how many is not.
        """
        kinds = [True] * identical + [False] * edited
        self.rng.shuffle(kinds)
        lo, hi = length
        l2, l1, planted = [], [], []
        for k, (same, n) in enumerate(
            zip(kinds, spread_lengths(self.rng, len(kinds), lo, hi))
        ):
            pair = f"{prefix}{k}"
            s = self.sentence(f"{pair}.l2", n, frames, "L2", pair)
            l2.append(s)
            l1.append(self.counterpart(s, f"{pair}.l1", 0.0 if same else edit_rate))
            if same:
                planted.append(pair)
        return l2, l1, planted

    def perturb(self, s, rates):
        """A system-output copy of ``s`` with injected span errors.

        Per gold span: drop, relabel, shift one boundary, split in two, or
        merge with the next span across a gap of at most one token; per
        frame: drop the frame or add a spurious span.  Changes that would
        overlap a kept span or cover the predicate are skipped.
        """
        rng = self.rng
        n = len(s.forms)
        actions = ("keep",) + SPAN_ERRORS
        weights = [1.0 - sum(rates[x] for x in SPAN_ERRORS)]
        weights += [rates[x] for x in SPAN_ERRORS]
        frames = []
        for predicate, gold in s.frames:
            if rng.random() < rates["drop_frame"]:
                continue
            out = []
            last = 0  # end of the last accepted span

            def accept(a, b, lab):
                nonlocal last
                if last < a <= b <= n and not a <= predicate <= b:
                    out.append((a, b, lab))
                    last = b
                    return True
                return False

            k = 0
            while k < len(gold):
                orig = a, b, lab = gold[k]
                k += 1
                action = rng.choices(actions, weights)[0]
                if action == "drop":
                    continue
                if action == "relabel":
                    lab = rng.choice([x for x in self.roles if x != lab])
                elif action == "shift":
                    if rng.random() < 0.5:
                        a += rng.choice((-1, 1))
                    else:
                        b += rng.choice((-1, 1))
                elif action == "split" and b > a:
                    m = rng.randrange(a, b)
                    if accept(a, m, lab):
                        accept(m + 1, b, rng.choice(self.roles))
                    continue
                elif action == "merge" and k < len(gold) and gold[k][0] - b <= 2:
                    b = gold[k][1]
                    k += 1
                if not accept(a, b, lab):
                    accept(*orig)
            if rng.random() < rates["spurious"]:
                a = rng.randint(1, n)
                accept(a, a, rng.choice(self.roles))
            frames.append((predicate, tuple(out)))
        return s._replace(frames=tuple(frames))


def _tags(n, predicate, spans):
    tags = ["O"] * n
    tags[predicate - 1] = "rel"
    for a, b, lab in spans:
        if a == b:
            tags[a - 1] = f"S-{lab}"
            continue
        tags[a - 1] = f"B-{lab}"
        for i in range(a, b - 1):
            tags[i] = f"I-{lab}"
        tags[b - 1] = f"E-{lab}"
    return tags


def render(sentences):
    """Canonical corpus bytes, written independently of the library."""
    lines = []
    for s in sentences:
        lines += [f"# id = {s.id}", f"# lang = {s.lang}", f"# side = {s.side}",
                  f"# pair = {s.pair}"]
        n = len(s.forms)
        columns = [_tags(n, p, spans) for p, spans in s.frames]
        predicates = {p for p, _ in s.frames}
        for i, form in enumerate(s.forms, start=1):
            cells = [str(i), form, "Y" if i in predicates else "_"]
            cells += [column[i - 1] for column in columns]
            lines.append("\t".join(cells))
        lines.append("")
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
