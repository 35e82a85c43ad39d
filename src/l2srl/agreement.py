"""Agreement-based consistency between a learner sentence and its correction.

Each side of a pair is reduced to word-level role tuples (predicate token,
argument token, role); a tuple is matched when the other side has a tuple
with the same role whose predicate and argument tokens are both linked by the
word alignment.  The two per-side recalls (matched/total) drive selection:
a pair is kept when both recalls strictly exceed the threshold.

Adjunct subtypes are collapsed (AM-TMP == AM) during matching by default;
pass am_coarse=False for subtype-exact matching.
"""

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from l2srl.corpus import SentencePair
from l2srl.model import Alignment, AnnotatedSentence, coarse_label


class RoleTuple(NamedTuple):
    """One (predicate word, argument word, role) triple; indices are 1-based."""

    predicate: int
    argument: int
    role: str


@dataclass(frozen=True)
class PairRecall:
    """Per-side tuple counts and recalls for one sentence pair.

    A pair is eligible only when both sides carry at least one tuple;
    ineligible pairs report recalls of 0.
    """

    total_l2: int
    total_l1: int
    shared_l2: int
    shared_l1: int

    @property
    def eligible(self) -> bool:
        return self.total_l2 > 0 and self.total_l1 > 0

    @property
    def l2_recall(self) -> float:
        return self.shared_l2 / self.total_l2 if self.total_l2 else 0.0

    @property
    def l1_recall(self) -> float:
        return self.shared_l1 / self.total_l1 if self.total_l1 else 0.0


@dataclass(frozen=True)
class SelectionConfig:
    """Selection threshold; comparison is strictly-greater on both recalls."""

    p: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"threshold p must be in [0, 1], got {self.p}")


def _role_triples(sentence: AnnotatedSentence) -> set[tuple[int, int, str]]:
    """extract_tuples' tuples as plain (predicate, argument, role) triples."""
    return {
        (predicate, argument, label)
        for predicate, spans in sentence.frames
        for start, end, label in spans
        for argument in range(start, end + 1)
    }


def extract_tuples(sentence: AnnotatedSentence) -> set[RoleTuple]:
    """One tuple per (frame, span, covered token), carrying the span label."""
    return set(map(RoleTuple._make, _role_triples(sentence)))


def match_tuples(
    links, l2_tuples, l1_tuples, am_coarse: bool = True
) -> tuple[set[RoleTuple], set[RoleTuple]]:
    """Matched subsets of each side's tuples under the alignment links.

    An L2 tuple (p, a, r) is matched when some L1 tuple (p', a', r') has the
    same role (coarse-AM by default) with (p-1, p'-1) and (a-1, a'-1) both in
    the 0-based link set; L1 matching is symmetric.  Counting per side keeps
    both recalls well-defined under many-to-many alignments.

    A hash join: the L1 tuples are indexed by (predicate, argument, role
    key), each L2 position is mapped to its linked L1 positions, and each
    L2 tuple probes the index only at its linked (predicate, argument)
    position pairs.  The role key is computed once per distinct role.
    Fields are read by index, so RoleTuples and plain triples both work.
    """
    roles = {t[2] for t in l1_tuples}
    roles.update(t[2] for t in l2_tuples)
    key = {r: coarse_label(r) if am_coarse else r for r in roles}
    linked: dict[int, list[int]] = {}  # 1-based L2 position -> L1 positions
    for i, j in links:
        linked.setdefault(i + 1, []).append(j + 1)
    index: dict[tuple, list] = {}
    for u in l1_tuples:
        index.setdefault((u[0], u[1], key[u[2]]), []).append(u)
    matched_l2, matched_l1 = set(), set()
    for t in l2_tuples:
        role = key[t[2]]
        for p in linked.get(t[0], ()):
            for a in linked.get(t[1], ()):
                hit = index.get((p, a, role))
                if hit:
                    matched_l2.add(t)
                    matched_l1.update(hit)
    return matched_l2, matched_l1


def recall_pair(pair: SentencePair, am_coarse: bool = True) -> PairRecall:
    """Tuple recalls of one pair; pairs with an empty side are ineligible."""
    l2_tuples = _role_triples(pair.l2)
    l1_tuples = _role_triples(pair.l1)
    matched_l2, matched_l1 = match_tuples(pair.alignment.links, l2_tuples, l1_tuples, am_coarse)
    return PairRecall(
        total_l2=len(l2_tuples),
        total_l1=len(l1_tuples),
        shared_l2=len(matched_l2),
        shared_l1=len(matched_l1),
    )


def is_selected(recall: PairRecall, config: SelectionConfig) -> bool:
    return (
        recall.eligible
        and recall.l2_recall > config.p
        and recall.l1_recall > config.p
    )


def select(scored, config: SelectionConfig):
    """Filter (item, PairRecall) records, preserving input order."""
    return [(item, recall) for item, recall in scored if is_selected(recall, config)]


def selection_tsv(pairs, recalls, config: SelectionConfig) -> str:
    """Selection report rows: one line per pair, recalls with 4 decimals."""
    header = (
        "pair_id\ttotal_l2\ttotal_l1\tshared_l2\tshared_l1\t"
        "l2_recall\tl1_recall\tselected"
    )
    lines = [header]
    for pair, recall in zip(pairs, recalls):
        lines.append(
            "\t".join(
                (
                    pair.l2.pair_id,
                    str(recall.total_l2),
                    str(recall.total_l1),
                    str(recall.shared_l2),
                    str(recall.shared_l1),
                    f"{recall.l2_recall:.4f}",
                    f"{recall.l1_recall:.4f}",
                    "1" if is_selected(recall, config) else "0",
                )
            )
        )
    return "\n".join(lines) + "\n"


def heuristic_align(l2: AnnotatedSentence, l1: AnnotatedSentence) -> Alignment:
    """Deterministic fallback aligner over identical token forms.

    Longest-common-subsequence links first, then a greedy nearest-position
    pass over the remaining identical forms.  Tokens with different forms are
    never linked.

    The suffix LCS lengths come from the bit-parallel LCS of Allison and Dix
    (1986) in the form of Hyyro (2004, "Bit-parallel LCS-length computation
    revisited"): one integer per L2 suffix instead of a table row.  The
    traceback links equal forms first and, when the forms differ, skips the
    L2 token on a tie (``>=``), exactly as over the full table.
    """
    a, b = l2.forms, l1.forms
    n, m = len(a), len(b)
    # Both sentences are read reversed, so bit p stands for L1 position
    # m - 1 - p.  rows[i] is the bit vector after the forms a[i:] (rows[n]
    # has every bit set), and LCS(a[i:], b[j:]) is the number of zero bits
    # among its low m - j bits.
    masks: dict[str, int] = {}  # form -> bits of its L1 positions
    for p, form in enumerate(reversed(b)):
        masks[form] = masks.get(form, 0) | 1 << p
    full = (1 << m) - 1
    row = full
    rows = [row]
    for form in reversed(a):
        match = row & masks.get(form, 0)
        row = ((row + match) | (row - match)) & full
        rows.append(row)
    rows.reverse()
    links = set()
    unlinked = []  # L2 positions left for the greedy pass, ascending
    free: dict[str, list[int]] = {}  # form -> unlinked L1 positions, ascending
    i = j = 0
    low = full  # the low m - j bits
    while i < n and j < m:
        if a[i] == b[j]:
            links.add((i, j))
            i += 1
            j += 1
            low >>= 1
        # LCS(a[i + 1:], b[j:]) >= LCS(a[i:], b[j + 1:]), each read as its
        # width minus its set bits.
        elif (rows[i] & low >> 1).bit_count() + 1 >= (rows[i + 1] & low).bit_count():
            unlinked.append(i)
            i += 1
        else:
            free.setdefault(b[j], []).append(j)
            j += 1
            low >>= 1
    unlinked.extend(range(i, n))
    for j in range(j, m):
        free.setdefault(b[j], []).append(j)
    for i in unlinked:
        positions = free.get(a[i])
        if not positions:
            continue
        # The nearest free position; on a tie, the earlier one.
        k = bisect_left(positions, i)
        if k == len(positions) or (k and i - positions[k - 1] <= positions[k] - i):
            k -= 1
        links.add((i, positions.pop(k)))
    return Alignment(l2.pair_id, frozenset(links))
