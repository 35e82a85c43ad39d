"""Span-level scoring: micro P/R/F, per-role and grouped breakdowns with
F-score deltas, inter-annotator agreement, and confusion matrices.

A predicted span counts as matched when the gold frame for the same predicate
contains a span with identical (start, end, label); each gold span matches at
most one prediction.  The predicate marker itself is never scored.  Scores
are kept in full precision and rendered half-up to two decimals.
"""

import json
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

from l2srl.corpus import Corpus
from l2srl.errors import MismatchedCorpora, MissingMetadata
from l2srl.model import AnnotatedSentence, Frame, coarse_label

GROUPINGS = {
    "lang": ("lang",),
    "side": ("side",),
    "lang,side": ("lang", "side"),
}


def round2(x: float) -> float:
    """Round half-up to 2 decimals on the shortest decimal form of x."""
    return float(Decimal(repr(float(x))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def fmt2(x: float) -> str:
    return f"{round2(x):.2f}"


@dataclass
class ScoreReport:
    """Micro-averaged counts with derived P/R/F percentages.

    ``per_role`` breaks the same counts down by label; ``groups`` (when
    grouped scoring ran) maps group keys like ``ENG/L2`` to sub-reports;
    ``delta_f`` on an L2 group is F(L2) - F(L1) for its language.
    """

    matched: int = 0
    predicted: int = 0
    gold: int = 0
    per_role: dict = field(default_factory=dict)
    groups: dict | None = None
    delta_f: float | None = None

    @property
    def precision(self) -> float:
        return 100.0 * self.matched / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.matched / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0

    def to_dict(self) -> dict:
        d = {
            "matched": self.matched,
            "predicted": self.predicted,
            "gold": self.gold,
            "precision": round2(self.precision),
            "recall": round2(self.recall),
            "f1": round2(self.f1),
            "per_role": {k: self.per_role[k].to_dict() for k in sorted(self.per_role)},
        }
        if self.groups is not None:
            d["groups"] = {k: self.groups[k].to_dict() for k in sorted(self.groups)}
        if self.delta_f is not None:
            d["delta_f"] = round2(self.delta_f)
        return d


@dataclass
class ConfusionMatrix:
    """Label confusions counted under three exclusive cases.

    (1) predicted and gold boundaries match exactly: (gold label, predicted
    label); (2) a predicted span overlaps no gold span: (O, predicted label);
    (3) a gold span overlaps no predicted span: (gold label, O).  A span pair
    that overlaps without matching boundaries is not counted at all.
    """

    counts: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def labels(self) -> list[str]:
        seen = {lab for pair in self.counts for lab in pair}
        seen.discard("O")
        return sorted(seen) + ["O"]


def _aligned(pred: Corpus, gold: Corpus) -> list[tuple[AnnotatedSentence, AnnotatedSentence]]:
    pred_by_id = pred.by_id()
    gold_by_id = gold.by_id()
    if set(pred_by_id) != set(gold_by_id):
        only_pred = sorted(set(pred_by_id) - set(gold_by_id))
        only_gold = sorted(set(gold_by_id) - set(pred_by_id))
        raise MismatchedCorpora(
            f"sentence ids differ (only in predicted: {only_pred}, only in gold: {only_gold})"
        )
    out = []
    for gold_sentence in gold.sentences:
        pred_sentence = pred_by_id[gold_sentence.id]
        if len(pred_sentence) != len(gold_sentence):
            raise MismatchedCorpora(
                f"token counts differ for sentence {gold_sentence.id!r}"
            )
        out.append((pred_sentence, gold_sentence))
    return out


def _frame_pairs(sentence_pairs):
    """One (predicted frame, gold frame) per predicate on either side of each
    aligned sentence pair; a missing side is an empty frame, and of two frames
    on one predicate the last wins."""
    for pred_s, gold_s in sentence_pairs:
        golds = {f.predicate_index: f for f in gold_s.frames}
        for p, frame in {f.predicate_index: f for f in pred_s.frames}.items():
            yield frame, golds.pop(p, None) or Frame(p)
        for p, frame in golds.items():
            yield Frame(p), frame


def _frame_triples(frame: Frame, am_coarse: bool) -> set:
    """One frame's span triples, adjunct subtypes collapsed under am_coarse."""
    if not am_coarse:
        return set(frame.spans)
    return {(s.start, s.end, coarse_label(s.label)) for s in frame.spans}


def _counts(frame_pairs, am_coarse: bool) -> tuple[Counter, Counter, Counter]:
    """Per-label gold, predicted and matched triple counts over frame pairs."""
    golds, predicted, matched = [], [], []
    for pred, gold in frame_pairs:
        pt = _frame_triples(pred, am_coarse)
        gt = _frame_triples(gold, am_coarse)
        golds += [t[2] for t in gt]
        predicted += [t[2] for t in pt]
        matched += [t[2] for t in pt & gt]
    return Counter(golds), Counter(predicted), Counter(matched)


def _report(golds: Counter, predicted: Counter, matched: Counter) -> ScoreReport:
    """The report of per-label counts: one sub-report per label with a triple."""
    per_role = {
        label: ScoreReport(matched[label], predicted[label], golds[label])
        for label in sorted(golds.keys() | predicted.keys())
        if predicted[label] or golds[label]
    }
    return ScoreReport(sum(matched.values()), sum(predicted.values()),
                       sum(golds.values()), per_role)


def score(pred: Corpus, gold: Corpus, am_coarse: bool = False) -> ScoreReport:
    """Micro P/R/F of predicted spans against gold, with per-role counts.

    Frames are matched by predicate index; a frame present on only one side
    contributes its spans as all-spurious or all-missed.
    """
    return _report(*_counts(_frame_pairs(_aligned(pred, gold)), am_coarse))


def f_delta(l2_report: ScoreReport, l1_report: ScoreReport) -> float:
    """Signed robustness drop: F(L2) - F(L1), negative when L2 is worse."""
    return l2_report.f1 - l1_report.f1


def score_grouped(
    pred: Corpus, gold: Corpus, group_by: str, am_coarse: bool = False
) -> ScoreReport:
    """Overall score plus per-group sub-reports keyed by the grouping.

    group_by is one of "lang", "side", "lang,side".  Whenever a grouping
    includes the side, each L2 group whose L1 twin exists gets delta_f =
    F(L2) - F(L1).
    """
    parts = GROUPINGS.get(group_by)
    if parts is None:
        raise ValueError(f"unknown grouping {group_by!r} (use lang, side, or lang,side)")
    keyed: dict[tuple, list] = {}
    for pair in _aligned(pred, gold):
        key = []
        for part in parts:
            value = getattr(pair[1], part)
            if not value:
                raise MissingMetadata(f"sentence {pair[1].id!r} has no {part}")
            key.append(value)
        keyed.setdefault(tuple(key), []).append(pair)
    totals = Counter(), Counter(), Counter()
    groups = {}
    for key, pairs in keyed.items():
        counts = _counts(_frame_pairs(pairs), am_coarse)
        for total, part in zip(totals, counts):
            total.update(part)
        groups[key] = _report(*counts)
    if "side" in parts:
        axis = parts.index("side")
        for key, group in groups.items():
            if key[axis] != "L2":
                continue
            twin = key[:axis] + ("L1",) + key[axis + 1 :]
            if twin in groups:
                group.delta_f = f_delta(group, groups[twin])
    overall = _report(*totals)
    overall.groups = {"/".join(key): rep for key, rep in sorted(groups.items())}
    return overall


def iaa(annotator_a: Corpus, annotator_b: Corpus, am_coarse: bool = False) -> ScoreReport:
    """Agreement between two annotators: score(a as predicted, b as gold).

    F is symmetric under swapping the annotators; P and R swap roles.
    """
    return score(annotator_a, annotator_b, am_coarse)


def confusion_matrix(pred: Corpus, gold: Corpus, am_coarse: bool = False) -> ConfusionMatrix:
    """Count label confusions under the three boundary-based cases.

    Gold frames must be valid, as ``parse_corpus`` guarantees: with one gold
    span per extent, no count depends on the order spans are visited in.
    """
    matrix = ConfusionMatrix()
    counts = matrix.counts
    for pred_frame, gold_frame in _frame_pairs(_aligned(pred, gold)):
        pt = _frame_triples(pred_frame, am_coarse)
        gt = _frame_triples(gold_frame, am_coarse)
        gold_bounds = {(s, e): lab for s, e, lab in gt}
        for s, e, lab in pt:
            truth = gold_bounds.get((s, e))
            if truth is None:
                for gs, ge, _ in gt:
                    if s <= ge and gs <= e:
                        break  # overlaps a gold span: not counted
                else:
                    truth = "O"
            if truth is not None:
                key = truth, lab
                counts[key] = counts.get(key, 0) + 1
        # A gold span whose bounds a predicted span shares overlaps it, so
        # it counts once: as the boundary match above.
        for s, e, lab in gt:
            for ps, pe, _ in pt:
                if s <= pe and ps <= e:
                    break
            else:
                key = lab, "O"
                counts[key] = counts.get(key, 0) + 1
    return matrix


def report_to_text(report: ScoreReport, title: str = "score") -> str:
    lines = [f"== {title} =="]

    def block(name: str, rep: ScoreReport, indent: str = "") -> None:
        delta = f"  dF {fmt2(rep.delta_f)}" if rep.delta_f is not None else ""
        lines.append(
            f"{indent}{name:<12} P {fmt2(rep.precision):>6}  R {fmt2(rep.recall):>6}  "
            f"F {fmt2(rep.f1):>6}  (matched {rep.matched} / predicted {rep.predicted} "
            f"/ gold {rep.gold}){delta}"
        )
        for label in sorted(rep.per_role):
            role = rep.per_role[label]
            lines.append(
                f"{indent}  {label:<10} P {fmt2(role.precision):>6}  "
                f"R {fmt2(role.recall):>6}  F {fmt2(role.f1):>6}"
            )

    block("ALL", report)
    if report.groups:
        for key in sorted(report.groups):
            block(key, report.groups[key])
    return "\n".join(lines) + "\n"


def report_to_tsv(report: ScoreReport) -> str:
    """Machine-readable rows: metric<TAB>group<TAB>value."""
    rows = []

    def block(name: str, rep: ScoreReport) -> None:
        rows.append(("matched", name, str(rep.matched)))
        rows.append(("predicted", name, str(rep.predicted)))
        rows.append(("gold", name, str(rep.gold)))
        rows.append(("precision", name, fmt2(rep.precision)))
        rows.append(("recall", name, fmt2(rep.recall)))
        rows.append(("f1", name, fmt2(rep.f1)))
        for label in sorted(rep.per_role):
            role = rep.per_role[label]
            rows.append(("precision", f"{name}:{label}", fmt2(role.precision)))
            rows.append(("recall", f"{name}:{label}", fmt2(role.recall)))
            rows.append(("f1", f"{name}:{label}", fmt2(role.f1)))

    block("ALL", report)
    if report.groups:
        for key in sorted(report.groups):
            block(key, report.groups[key])
        for key in sorted(report.groups):
            rep = report.groups[key]
            if rep.delta_f is not None:
                scope = key[: -len("/L2")] if key.endswith("/L2") else "ALL"
                rows.append(("delta_f", scope, fmt2(rep.delta_f)))
    return "\n".join("\t".join(row) for row in rows) + "\n"


def report_to_json(report) -> str:
    """Sorted, indented JSON of any report with a ``to_dict`` method."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def confusion_to_tsv(matrix: ConfusionMatrix) -> str:
    """Matrix as TSV: gold labels down, predicted labels across, O last."""
    labels = matrix.labels()
    lines = ["\t" + "\t".join(labels)]
    for gold_label in labels:
        cells = [str(matrix.counts.get((gold_label, p), 0)) for p in labels]
        lines.append(gold_label + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"


def oracle_to_text(baseline: ScoreReport, stages) -> str:
    lines = [f"baseline      F {fmt2(baseline.f1):>6}"]
    for stage in stages:
        lines.append(f"{stage.kind:<12}  F {fmt2(stage.report.f1):>6}"
                     f"   gap closed {fmt2(stage.relative_improvement):>6}%")
    return "\n".join(lines) + "\n"


def oracle_to_tsv(baseline: ScoreReport, stages) -> str:
    rows = [("f1", "baseline", fmt2(baseline.f1))]
    for stage in stages:
        rows.append(("f1", stage.kind, fmt2(stage.report.f1)))
        rows.append(("gap_closed", stage.kind, fmt2(stage.relative_improvement)))
    return "\n".join("\t".join(row) for row in rows) + "\n"


def oracle_to_json(baseline: ScoreReport, stages) -> str:
    rows = [{"kind": stage.kind, "f1": round2(stage.report.f1),
             "gap_closed": round2(stage.relative_improvement)} for stage in stages]
    return json.dumps({"baseline": round2(baseline.f1), "stages": rows}, indent=2) + "\n"
