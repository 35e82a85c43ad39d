"""The three benchmark workloads: tag, retrain and analyze.

Each workload builds its inputs from the seed in ``setup``, does one timed
unit of work in ``run_pass`` and checks that work's outputs, outside the
timed region, in ``check``.  The library is imported from the checkout's
``src`` directory by ``run.py`` before this module loads.
"""

import contextlib
import hashlib
import io
import os
import shutil
from time import perf_counter
from types import SimpleNamespace

from l2srl import agreement, cli, corpus, oracle, pipeline, scoring, tagger
from l2srl.corpus import Corpus

from gen import Generator, render
from tracing import NULL


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Counts checked operations and the ones that failed.

    ``digests`` compares output digests with the first pass of the run and,
    where given, with the digests recorded for this seed.
    """

    def __init__(self, recorded=None):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.recorded = recorded
        self.reference = None

    def op(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{name}: {detail}" if detail else name)

    def digests(self, name, found):
        if self.reference is None:
            self.reference = found
            if self.recorded is not None:
                self.op(f"{name} digests match the recorded ones", found == self.recorded,
                        _diff(self.recorded, found))
                return
        self.op(f"{name} digests repeat", found == self.reference,
                _diff(self.reference, found))


def _diff(expected, found):
    return ", ".join(sorted(k for k in expected.keys() | found.keys()
                            if expected.get(k) != found.get(k)))


def _round_trips(data):
    return corpus.render_corpus(corpus.parse_corpus(data)) == data


def _tokens(sentences):
    return sum(len(s.forms) for s in sentences)


def install_wrappers(tracer):
    """Wrap the names ``cli``, ``pipeline`` and ``tagger`` look up internally."""
    def frames(c):
        return sum(len(s.frames) for s in c.sentences)

    size = os.path.getsize
    tracer.wrap(pipeline, "run_retrain", "pipeline.retrain", lambda a, r: {
        "agreement.selected": r.selected, "agreement.pool": r.pool_size})
    tracer.wrap(pipeline, "train", "tagger.train", lambda a, r: {
        "tagger.train_steps": frames(a[0]) * a[1].epochs})
    tracer.wrap(pipeline, "tag_corpus", "tagger.tag_corpus")
    tracer.wrap(pipeline, "score", "scoring.score", lambda a, r: {
        "scoring.spans": r.predicted + r.gold})
    tracer.wrap(pipeline, "save_model", "tagger.save_model", lambda a, r: {
        "tagger.model_bytes": size(a[1]),
        "tagger.model_rows": len(a[0].emissions) + len(a[0].transitions)})
    tracer.wrap(pipeline, "save_corpus", "corpus.render", lambda a, r: {
        "corpus.render_bytes": size(a[1])})
    tracer.wrap(pipeline, "load_corpus", "corpus.parse", lambda a, r: {
        "corpus.parse_bytes": size(a[0])})
    tracer.wrap(pipeline, "pair_corpora", "corpus.pair")
    tracer.wrap(pipeline, "recall_pair", "agreement.recall", lambda a, r: {
        "agreement.tuples": r.total_l2 + r.total_l1})
    tracer.wrap(pipeline, "heuristic_align", "agreement.align", lambda a, r: {
        "agreement.align_cells": len(a[0].tokens) * len(a[1].tokens)})
    tracer.wrap(tagger, "viterbi_decode", "tagger.decode", lambda a, r: {
        "tagger.decode_tokens": len(r),
        "tagger.lattice_cells": len(r) * len(a[0].labels) ** 2})
    tracer.wrap(tagger, "extract_features", "tagger.features")
    tracer.wrap(tagger, "spans_from_tags", "model.spans_from_tags")


class Workload:
    tokens_per_pass = 0  # input tokens one pass reads
    latencies = ()  # per-sentence seconds of the last pass, where measured
    sentences_per_pass = 0  # input sentences one pass reads, where they are not

    def __init__(self, params, seed, workdir):
        self.p = params
        self.seed = seed
        self.workdir = workdir
        self.tr = NULL

    def check_setup(self, ck):
        pass

    def counts(self, out):
        """Counts for the traced run from what a pass returned."""
        return {}


class Tag(Workload):
    """Decode only: ``tagger.tag`` per sentence with a model trained in set-up."""

    def setup(self):
        p = self.p
        g = Generator(self.seed, p["roles"], p["vocab"])
        train = g.corpus("t", p["train_sentences"], p["train_length"], p["frames"])
        test = g.corpus("s", p["sentences"], p["length"], p["frames"])
        train_bytes, test_bytes = render(train), render(test)
        with self.tr.span("corpus.parse"):
            train_corpus = corpus.parse_corpus(train_bytes)
            self.gold = corpus.parse_corpus(test_bytes)
        with self.tr.span("tagger.train"):
            self.model = tagger.train(train_corpus, tagger.TrainConfig(p["epochs"], seed=1))
        self.tr.add({
            "corpus.parse_bytes": len(train_bytes) + len(test_bytes),
            "tagger.train_steps": sum(len(s.frames) for s in train_corpus) * p["epochs"],
        })
        self.tokens_per_pass = _tokens(test)

    def check_setup(self, ck):
        ck.op("model label set", len(self.model.labels) == 2 + 4 * len(self.p["roles"]),
              f"{len(self.model.labels)} labels")
        self.model_digest = sha256(tagger.render_model(self.model))
        ck.op("score(gold, gold) is 100", scoring.score(self.gold, self.gold).f1 == 100.0)

    def run_pass(self):
        model, tag = self.model, tagger.tag
        latencies = self.latencies = []
        tagged = []
        for sentence in self.gold.sentences:
            predicates = [f.predicate_index for f in sentence.frames]
            start = perf_counter()
            try:
                out = tag(model, sentence, predicates)
            except Exception as exc:  # counted as a failed operation in check
                out = exc
            latencies.append(perf_counter() - start)
            tagged.append(out)
        report = None
        if not any(isinstance(t, Exception) for t in tagged):
            with self.tr.span("scoring.score"):
                report = scoring.score(Corpus(tuple(tagged)), self.gold)
        return tagged, report

    def counts(self, out):
        report = out[1]
        return {"scoring.spans": report.predicted + report.gold} if report else {}

    def check(self, out, ck):
        tagged, report = out
        for gold, got in zip(self.gold.sentences, tagged):
            if isinstance(got, Exception):
                ck.op(f"tag {gold.id}", False, repr(got))
                continue
            same = [f.predicate_index for f in got.frames] == [
                f.predicate_index for f in gold.frames]
            ck.op(f"tag {gold.id}", same, "frames not at the gold predicates")
        if report is None:
            return
        body = corpus.render_corpus(Corpus(tuple(tagged)))
        ck.op("tagged corpus round-trips", _round_trips(body))
        ck.digests("tag", {"model.txt": self.model_digest, "tagged.tsv": sha256(body)})


RETRAIN_CONFIG = """\
train = train.tsv
pool_l2 = pool_l2.tsv
pool_l1 = pool_l1.tsv
dev = dev.tsv
test_l2 = test_l2.tsv
test_l1 = test_l1.tsv
alignments = heuristic
p = 0.9
epochs = {epochs}
seed = 1
extend_with = l1
tag_pool = true
am_coarse = true
out = run
"""

TAGGED_POOL = ("pool/pool_l2_tagged.tsv", "pool/pool_l1_tagged.tsv")
RETRAIN_OUTPUTS = ("baseline/model.txt", "retrained/model.txt", *TAGGED_POOL,
                   "report.txt", "report.tsv", "report.json")


class Retrain(Workload):
    """The paper's loop: in-process ``l2srl retrain`` on generated files."""

    def setup(self):
        p = self.p
        g = Generator(self.seed, p["roles"], p["vocab"])
        length, frames = p["length"], p["frames"]
        l2, l1, self.planted = g.pairs(
            "p", p["identical_pairs"], p["edited_pairs"], length, frames, p["edit_rate"])
        corpora = {
            "train.tsv": g.corpus("t", p["train_sentences"], length, frames, "L1"),
            "pool_l2.tsv": l2,
            "pool_l1.tsv": l1,
            "dev.tsv": g.corpus("d", p["eval_sentences"], length, frames),
            "test_l2.tsv": g.corpus("e", p["eval_sentences"], length, frames, "L2"),
            "test_l1.tsv": g.corpus("f", p["eval_sentences"], length, frames, "L1"),
        }
        os.makedirs(self.workdir, exist_ok=True)
        for name, sentences in corpora.items():
            with open(os.path.join(self.workdir, name), "wb") as f:
                f.write(render(sentences))
        self.config = os.path.join(self.workdir, "retrain.cfg")
        with open(self.config, "w", encoding="utf-8") as f:
            f.write(RETRAIN_CONFIG.format(epochs=p["epochs"]))
        self.out = os.path.join(self.workdir, "run")
        shutil.rmtree(self.out, ignore_errors=True)
        self.sentences_per_pass = sum(len(c) for c in corpora.values())
        self.tokens_per_pass = sum(_tokens(c) for c in corpora.values())

    def run_pass(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with self.tr.span("cli.main"):
                code = cli.main(["retrain", "--config", self.config])
        return code, stderr.getvalue()

    def check(self, out, ck):
        code, stderr = out
        ck.op("retrain exits 0", code == 0, f"exit {code}: {stderr.strip()}")
        if code != 0:
            return
        data = {}
        for name in RETRAIN_OUTPUTS:
            with open(os.path.join(self.out, name), "rb") as f:
                data[name] = f.read()
        ck.digests("retrain", {name: sha256(body) for name, body in data.items()})
        ck.op("tagged pool round-trips", all(_round_trips(data[name]) for name in TAGGED_POOL))
        with open(os.path.join(self.out, "selection", "selection.tsv"), encoding="utf-8") as f:
            rows = [line.split("\t") for line in f.read().splitlines()[1:]]
        _check_planted(ck, self.planted, {
            r[0]: (int(r[1]) > 0 and int(r[2]) > 0, r[7] == "1") for r in rows})
        shutil.rmtree(self.out)


def _check_planted(ck, planted, outcome):
    """Every planted identical pair with tuples on both sides is selected."""
    missed = [pid for pid in planted if outcome.get(pid, (True, False)) == (True, False)]
    ck.op("planted identical pairs selected", not missed, f"not selected: {missed[:5]}")


class Analyze(Workload):
    """No tagger: parse, score, oracle and selection over given corpora."""

    def setup(self):
        p = self.p
        g = Generator(self.seed, p["roles"], p["vocab"])
        gold, l1, self.planted = g.pairs(
            "p", p["identical_pairs"], p["edited_pairs"], p["length"], p["frames"],
            p["edit_rate"])
        system = [g.perturb(s, p["errors"]) for s in gold]
        self.inputs = {"gold": render(gold), "system": render(system), "l1": render(l1)}
        self.tokens_per_pass = _tokens(gold) + _tokens(system) + _tokens(l1)

    def check_setup(self, ck):
        ck.op("inputs round-trip", all(_round_trips(b) for b in self.inputs.values()))
        gold = corpus.parse_corpus(self.inputs["gold"])
        ck.op("score(gold, gold) is 100", scoring.score(gold, gold).f1 == 100.0)

    def run_pass(self):
        tr = self.tr
        with tr.span("corpus.parse"):
            gold, system, l1 = (corpus.parse_corpus(self.inputs[k])
                                for k in ("gold", "system", "l1"))
        with tr.span("scoring.score"):
            grouped = scoring.score_grouped(system, gold, "lang,side")
            agreed = scoring.iaa(system, gold)
        with tr.span("scoring.confusion"):
            matrix = scoring.confusion_matrix(system, gold)
        with tr.span("oracle.sequence"):
            _, stages = oracle.oracle_sequence(system, gold)
        # Per-pair latency of alignment plus recall; pair_corpora keeps the
        # gold order, so latencies[k] and pairs[k] are the same pair.
        latencies = self.latencies = []
        align, recall_pair = agreement.heuristic_align, agreement.recall_pair
        with tr.span("agreement.align"):
            l1_by_pair = {s.pair_id: s for s in l1.sentences}
            alignments = {}
            for s in gold.sentences:
                start = perf_counter()
                alignments[s.pair_id] = align(s, l1_by_pair[s.pair_id])
                latencies.append(perf_counter() - start)
        with tr.span("corpus.pair"):
            pairs = corpus.pair_corpora(gold, l1, alignments)
        config = agreement.SelectionConfig()
        with tr.span("agreement.recall"):
            recalls = []
            for k, pair in enumerate(pairs):
                start = perf_counter()
                recalls.append(recall_pair(pair))
                latencies[k] += perf_counter() - start
            chosen = agreement.select(zip(pairs, recalls), config)
        with tr.span("scoring.report_render"):
            reports = {
                "score.txt": scoring.report_to_text(grouped).encode(),
                "score.tsv": scoring.report_to_tsv(grouped).encode(),
                "score.json": scoring.report_to_json(grouped).encode(),
                "iaa.txt": scoring.report_to_text(agreed, "iaa").encode(),
                "confusion.tsv": scoring.confusion_to_tsv(matrix).encode(),
                "oracle.tsv": "".join(
                    f"{s.kind}\t{scoring.fmt2(s.report.f1)}\t"
                    f"{scoring.fmt2(s.relative_improvement)}\n" for s in stages).encode(),
                "selection.tsv": agreement.selection_tsv(pairs, recalls, config).encode(),
            }
        with tr.span("corpus.render"):
            reports["selected_l2.tsv"] = corpus.render_corpus(
                Corpus(tuple(pair.l2 for pair, _ in chosen)))
            reports["selected_l1.tsv"] = corpus.render_corpus(
                Corpus(tuple(pair.l1 for pair, _ in chosen)))
        return SimpleNamespace(gold=gold, grouped=grouped, stages=stages, pairs=pairs,
                               recalls=recalls, chosen=chosen, reports=reports)

    def counts(self, out):
        reports = out.reports
        return {
            "corpus.parse_bytes": sum(len(b) for b in self.inputs.values()),
            "corpus.render_bytes": len(reports["selected_l2.tsv"])
            + len(reports["selected_l1.tsv"]),
            "scoring.spans": 2 * (out.grouped.predicted + out.grouped.gold),
            "oracle.frames": sum(len(s.frames) for s in out.gold.sentences),
            "agreement.align_cells": sum(len(p.l2) * len(p.l1) for p in out.pairs),
            "agreement.tuples": sum(r.total_l2 + r.total_l1 for r in out.recalls),
            "agreement.selected": len(out.chosen),
            "agreement.pool": len(out.pairs),
        }

    def check(self, out, ck):
        final = out.stages[-1].report.f1
        ck.digests("analyze", {name: sha256(body) for name, body in out.reports.items()})
        ck.op("final oracle stage scores 100", final == 100.0, f"F {final}")
        selected = {pair.l2.pair_id for pair, _ in out.chosen}
        _check_planted(ck, self.planted, {
            pair.l2.pair_id: (r.eligible, pair.l2.pair_id in selected)
            for pair, r in zip(out.pairs, out.recalls)})


WORKLOADS = {"tag": Tag, "retrain": Retrain, "analyze": Analyze}
