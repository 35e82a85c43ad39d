"""The selection-and-retraining loop over an annotated pool of sentence pairs.

Stages: pair the pool's L2 and L1 sides; train a baseline tagger on the base
corpus; annotate the pool's sides with it (or keep annotations imported from
an external system); run agreement-based selection at threshold p; extend the
training corpus with the selected pairs' L1-side sentences (configurable to
l2/both); retrain; and evaluate both models on the dev and test corpora.
Every stage writes its artifacts under a stage-named directory so aborted
runs can be inspected.  Given one config the whole loop is deterministic.
"""

import os
from collections import Counter
from dataclasses import dataclass, fields, replace

from l2srl.agreement import (
    SelectionConfig,
    heuristic_align,
    is_selected,
    recall_pair,
    selection_tsv,
)
from l2srl.corpus import (
    Corpus,
    load_alignments,
    load_corpus,
    pair_corpora,
    save_corpus,
    write_atomic,
)
from l2srl.errors import ParseError
from l2srl.scoring import (
    ScoreReport,
    fmt2,
    round2,
    score,
)
from l2srl.tagger import TrainConfig, save_model, tag_corpus, train

EVAL_SPLITS = ("dev", "test_l2", "test_l1")
_PATH_KEYS = ("train", "pool_l2", "pool_l1", *EVAL_SPLITS, "out")


@dataclass
class PipelineConfig:
    """Flat key=value configuration for the retrain loop."""

    train: str = ""
    pool_l2: str = ""
    pool_l1: str = ""
    dev: str = ""
    test_l2: str = ""
    test_l1: str = ""
    out: str = ""
    alignments: str = "heuristic"
    p: float = 0.9
    epochs: int = 10
    seed: int = 1
    extend_with: str = "l1"
    tag_pool: bool = True
    am_coarse: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ParseError(f"threshold p must be in [0, 1], got {self.p}")
        if self.extend_with not in ("l1", "l2", "both"):
            raise ParseError(f"extend_with must be l1, l2, or both, got {self.extend_with!r}")
        if self.epochs < 1:
            raise ParseError(f"epochs must be >= 1, got {self.epochs}")
        for name in _PATH_KEYS:
            if not getattr(self, name):
                raise ParseError(f"config key {name!r} is required")
        paths = [getattr(self, name) for name in _PATH_KEYS if name != "out"]
        if self.alignments != "heuristic":
            paths.append(self.alignments)
        for path in paths:
            if not os.path.exists(path):
                raise ParseError(f"path does not exist: {path}")


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def parse_config(text: str, base_dir: str = ".") -> PipelineConfig:
    """Parse flat key=value lines; unknown keys are rejected.

    Relative paths resolve against base_dir (the config file's directory).
    Blank lines and # comments are skipped.
    """
    spec = {f.name: f.type for f in fields(PipelineConfig)}
    values = {}
    for n, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ParseError(f"expected 'key = value', got {raw!r}", n)
        if key not in spec:
            raise ParseError(f"unknown config key {key!r}", n)
        if key in values:
            raise ParseError(f"duplicate config key {key!r}", n)
        kind = spec[key]
        try:
            if kind is bool:
                parsed = _BOOL_VALUES[value.lower()]
            elif kind is int:
                parsed = int(value)
            elif kind is float:
                parsed = float(value)
            else:
                parsed = value
        except (KeyError, ValueError):
            raise ParseError(f"bad value {value!r} for config key {key!r}", n) from None
        if key in _PATH_KEYS or (key == "alignments" and parsed != "heuristic"):
            parsed = os.path.normpath(os.path.join(base_dir, parsed))
        values[key] = parsed
    config = PipelineConfig(**values)
    config.validate()
    return config


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return parse_config(text, os.path.dirname(os.path.abspath(path)))


@dataclass
class RetrainReport:
    """Baseline vs retrained evaluation plus selection statistics."""

    baseline: dict  # split name -> ScoreReport
    retrained: dict
    pool_size: int
    eligible: int
    selected: int
    threshold: float

    def deltas(self) -> dict:
        out = {}
        for split in self.baseline:
            base, new = self.baseline[split], self.retrained[split]
            roles = sorted(set(base.per_role) | set(new.per_role))
            out[split] = {
                "f1": new.f1 - base.f1,
                "per_role": {
                    r: new.per_role.get(r, ScoreReport()).f1
                    - base.per_role.get(r, ScoreReport()).f1
                    for r in roles
                },
            }
        return out

    def to_dict(self) -> dict:
        deltas = self.deltas()
        return {
            "selection": {
                "pool": self.pool_size,
                "eligible": self.eligible,
                "selected": self.selected,
                "ratio": round(self.selected / self.pool_size, 4) if self.pool_size else 0.0,
                "threshold": self.threshold,
            },
            "baseline": {k: v.to_dict() for k, v in self.baseline.items()},
            "retrained": {k: v.to_dict() for k, v in self.retrained.items()},
            "deltas": {
                split: {
                    "f1": round2(d["f1"]),
                    "per_role": {r: round2(x) for r, x in d["per_role"].items()},
                }
                for split, d in deltas.items()
            },
        }

    def to_text(self) -> str:
        lines = [
            f"pool {self.pool_size}  eligible {self.eligible}  "
            f"selected {self.selected}  (p > {self.threshold})"
        ]
        deltas = self.deltas()
        for split in EVAL_SPLITS:
            if split not in self.baseline:
                continue
            base, new = self.baseline[split], self.retrained[split]
            lines.append(
                f"{split:<8} baseline F {fmt2(base.f1):>6}   retrained F {fmt2(new.f1):>6}"
                f"   delta {fmt2(deltas[split]['f1']):>6}"
            )
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        rows = [
            ("pool", "", str(self.pool_size)),
            ("eligible", "", str(self.eligible)),
            ("selected", "", str(self.selected)),
        ]
        deltas = self.deltas()
        for split in self.baseline:
            rows.append(("f1_baseline", split, fmt2(self.baseline[split].f1)))
            rows.append(("f1_retrained", split, fmt2(self.retrained[split].f1)))
            rows.append(("f1_delta", split, fmt2(deltas[split]["f1"])))
        return "\n".join("\t".join(r) for r in rows) + "\n"


def heuristic_alignments(l2: Corpus, l1: Corpus) -> dict:
    """Heuristic alignment of every L2 sentence that has an L1 sentence with
    the same pair id, keyed by pair id."""
    l1_by_pair = {s.pair_id: s for s in l1.sentences}
    out = {}
    for s2 in l2.sentences:
        s1 = l1_by_pair.get(s2.pair_id)
        if s1 is not None:
            out[s2.pair_id] = heuristic_align(s2, s1)
    return out


def select_pairs(pairs, p: float, am_coarse: bool, outdir):
    """Agreement selection at threshold ``p``: writes ``selection.tsv`` and the
    chosen pairs' ``selected_l2.tsv`` and ``selected_l1.tsv`` under ``outdir``
    and returns ``(recalls, chosen)``."""
    config = SelectionConfig(p=p)
    recalls = [recall_pair(pair, am_coarse) for pair in pairs]
    chosen = [pair for pair, recall in zip(pairs, recalls) if is_selected(recall, config)]
    os.makedirs(outdir, exist_ok=True)
    write_atomic(
        os.path.join(outdir, "selection.tsv"),
        selection_tsv(pairs, recalls, config).encode("utf-8"),
    )
    save_corpus(Corpus(tuple(c.l2 for c in chosen)), os.path.join(outdir, "selected_l2.tsv"))
    save_corpus(Corpus(tuple(c.l1 for c in chosen)), os.path.join(outdir, "selected_l1.tsv"))
    return recalls, chosen


def _evaluate(model, corpus: Corpus, am_coarse: bool) -> ScoreReport:
    return score(tag_corpus(model, corpus), corpus, am_coarse)


def _check_ids(base: Corpus, candidates) -> None:
    """Reject candidate extension sentences, selected or not, whose id is in
    ``base`` or on another candidate."""
    counts = Counter(s.id for s in (*base.sentences, *candidates))
    clash = [sid for sid, n in counts.items() if n > 1]
    if clash:
        raise ValueError(
            f"{len(clash)} pool sentence ids collide with the training corpus or "
            f"the other pool side: {', '.join(clash[:10])}"
        )


def run_retrain(config: PipelineConfig) -> RetrainReport:
    config.validate()
    train_config = TrainConfig(epochs=config.epochs, seed=config.seed)
    out = config.out

    # Parse and check every input before training, so bad input fails fast.
    base_corpus = load_corpus(config.train)
    pool_l2 = load_corpus(config.pool_l2)
    pool_l1 = load_corpus(config.pool_l1)
    alignments = None
    if config.alignments != "heuristic":
        alignments = load_alignments(config.alignments)
    eval_corpora = {split: load_corpus(getattr(config, split)) for split in EVAL_SPLITS}
    sides = [side for side in ("l1", "l2") if config.extend_with in (side, "both")]
    pool = {"l1": pool_l1, "l2": pool_l2}
    _check_ids(base_corpus, [s for side in sides for s in pool[side]])
    # Alignment and pairing read only ids, sides and forms, which tagging keeps.
    if alignments is None:
        alignments = heuristic_alignments(pool_l2, pool_l1)
    pairs = pair_corpora(pool_l2, pool_l1, alignments)

    baseline_dir = os.path.join(out, "baseline")
    os.makedirs(baseline_dir, exist_ok=True)
    baseline_model = train(base_corpus, train_config)
    save_model(baseline_model, os.path.join(baseline_dir, "model.txt"))

    pool_dir = os.path.join(out, "pool")
    os.makedirs(pool_dir, exist_ok=True)
    if config.tag_pool:
        pool_l2 = tag_corpus(baseline_model, pool_l2)
        pool_l1 = tag_corpus(baseline_model, pool_l1)
        save_corpus(pool_l2, os.path.join(pool_dir, "pool_l2_tagged.tsv"))
        save_corpus(pool_l1, os.path.join(pool_dir, "pool_l1_tagged.tsv"))
        l2_by_pair = {s.pair_id: s for s in pool_l2.sentences}
        l1_by_pair = {s.pair_id: s for s in pool_l1.sentences}
        pairs = [
            replace(pair, l2=l2_by_pair[pair.l2.pair_id], l1=l1_by_pair[pair.l1.pair_id])
            for pair in pairs
        ]

    recalls, chosen = select_pairs(
        pairs, config.p, config.am_coarse, os.path.join(out, "selection")
    )

    retrain_dir = os.path.join(out, "retrained")
    os.makedirs(retrain_dir, exist_ok=True)
    extra = tuple(getattr(pair, side) for side in sides for pair in chosen)
    extended = Corpus(base_corpus.sentences + extra)
    save_corpus(extended, os.path.join(retrain_dir, "train_extended.tsv"))
    retrained_model = train(extended, train_config)
    save_model(retrained_model, os.path.join(retrain_dir, "model.txt"))

    baseline_scores = {}
    retrained_scores = {}
    for split, eval_corpus in eval_corpora.items():
        baseline_scores[split] = _evaluate(baseline_model, eval_corpus, config.am_coarse)
        retrained_scores[split] = _evaluate(retrained_model, eval_corpus, config.am_coarse)
    return RetrainReport(
        baseline=baseline_scores,
        retrained=retrained_scores,
        pool_size=len(pairs),
        eligible=sum(1 for r in recalls if r.eligible),
        selected=len(chosen),
        threshold=config.p,
    )
