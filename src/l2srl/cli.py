"""Command-line surface: score, iaa, oracle, tuples, align, select, train,
tag, retrain.

Exit codes: 0 ok, 2 file parse error, 3 corpus mismatch, 4 pairing error,
5 model version mismatch, 1 anything else.
"""

import argparse
import os
import sys

from l2srl import agreement, oracle, pipeline, scoring, tagger
from l2srl.corpus import (
    load_alignments,
    load_corpus,
    pair_corpora,
    save_alignments,
    save_corpus,
    write_atomic,
)
from l2srl.errors import (
    MismatchedCorpora,
    MissingMetadata,
    PairingError,
    ParseError,
    VersionMismatch,
)

EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_PAIRING = 4
EXIT_VERSION = 5

FORMATS = ("text", "tsv", "json")

# Options shared by several subcommands; each subcommand takes only the ones
# it reads, so argparse rejects the rest.
_FLAGS = {
    "--am-coarse": dict(action="store_true", default=None,
                        help="collapse adjunct subtypes (AM-TMP == AM)"),
    "--seed": dict(type=int, default=None, help="random seed"),
    "--out": dict(default=None, help="directory for output files"),
    "--format": dict(choices=FORMATS, default="text", help="report format printed to stdout"),
}


def _flags(sub, *names):
    for name in names:
        sub.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2srl",
        description="SRL toolkit for L2-L1 parallel corpora",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("score", help="score predicted annotations against gold")
    p.add_argument("pred")
    p.add_argument("gold")
    p.add_argument("--group-by", choices=tuple(scoring.GROUPINGS), default=None)
    _flags(p, "--am-coarse", "--out", "--format")
    p.set_defaults(func=cmd_score)

    p = subs.add_parser("iaa", help="inter-annotator agreement between two annotation files")
    p.add_argument("annotator_a")
    p.add_argument("annotator_b")
    _flags(p, "--am-coarse", "--out", "--format")
    p.set_defaults(func=cmd_iaa)

    p = subs.add_parser("oracle", help="sequential oracle-transform analysis")
    p.add_argument("pred")
    p.add_argument("gold")
    _flags(p, "--am-coarse", "--out", "--format")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("tuples", help="extract word-level role tuples")
    p.add_argument("corpus")
    _flags(p, "--out")
    p.set_defaults(func=cmd_tuples)

    p = subs.add_parser("align", help="heuristic word alignment for paired corpora")
    p.add_argument("l2")
    p.add_argument("l1")
    p.add_argument("output", help="alignment file to write")
    p.set_defaults(func=cmd_align)

    p = subs.add_parser("select", help="agreement-based selection of consistent pairs")
    p.add_argument("l2")
    p.add_argument("l1")
    p.add_argument("--align", default="heuristic",
                   help="alignment file, or 'heuristic' (default)")
    p.add_argument("-p", "--threshold", type=float, default=0.9,
                   help="selection threshold (strictly-greater comparison)")
    _flags(p, "--out")
    p.set_defaults(func=cmd_select)

    p = subs.add_parser("train", help="train the linear-chain tagger")
    p.add_argument("corpus")
    p.add_argument("model", help="model file to write")
    p.add_argument("--epochs", type=int, default=10)
    _flags(p, "--seed")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("tag", help="tag a corpus at its gold predicate positions")
    p.add_argument("model")
    p.add_argument("corpus")
    p.add_argument("output", help="corpus file to write")
    p.set_defaults(func=cmd_tag)

    p = subs.add_parser("retrain", help="full selection-and-retraining loop")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--extend-with", choices=("l1", "l2", "both"), default=None,
                   help="which side of selected pairs extends the training set")
    _flags(p, "--am-coarse", "--seed", "--out", "--format")
    p.set_defaults(func=cmd_retrain)
    return parser


def _write(outdir, name, body: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    write_atomic(os.path.join(outdir, name), body.encode("utf-8"))


def _emit_report(stem, bodies, outdir, fmt) -> None:
    """Write the text, TSV and JSON ``bodies`` as ``stem.{txt,tsv,json}``
    under ``outdir`` when one is given, and print the one ``fmt`` names."""
    if outdir:
        for suffix, body in zip(("txt", "tsv", "json"), bodies):
            _write(outdir, f"{stem}.{suffix}", body)
    print(bodies[FORMATS.index(fmt)], end="")


def _score_bodies(report, title):
    return (
        scoring.report_to_text(report, title),
        scoring.report_to_tsv(report),
        scoring.report_to_json(report),
    )


def cmd_score(args) -> int:
    pred = load_corpus(args.pred)
    gold = load_corpus(args.gold)
    am_coarse = bool(args.am_coarse)
    if args.group_by:
        report = scoring.score_grouped(pred, gold, args.group_by, am_coarse)
    else:
        report = scoring.score(pred, gold, am_coarse)
    bodies = _score_bodies(report, "score")
    if args.out:
        matrix = scoring.confusion_matrix(pred, gold, am_coarse)
        _write(args.out, "confusion.tsv", scoring.confusion_to_tsv(matrix))
    _emit_report("score", bodies, args.out, args.format)
    return 0


def cmd_iaa(args) -> int:
    a = load_corpus(args.annotator_a)
    b = load_corpus(args.annotator_b)
    report = scoring.score_grouped(a, b, "lang,side", bool(args.am_coarse))
    _emit_report("iaa", _score_bodies(report, "iaa"), args.out, args.format)
    return 0


def cmd_oracle(args) -> int:
    pred = load_corpus(args.pred)
    gold = load_corpus(args.gold)
    baseline, stages = oracle.oracle_sequence(pred, gold, bool(args.am_coarse))
    bodies = (
        scoring.oracle_to_text(baseline, stages),
        scoring.oracle_to_tsv(baseline, stages),
        scoring.oracle_to_json(baseline, stages),
    )
    _emit_report("oracle", bodies, args.out, args.format)
    return 0


def cmd_tuples(args) -> int:
    corpus = load_corpus(args.corpus)
    lines = ["sentence_id\tpredicate\targument\trole"]
    for sentence in corpus.sentences:
        for t in sorted(agreement.extract_tuples(sentence)):
            lines.append(f"{sentence.id}\t{t.predicate}\t{t.argument}\t{t.role}")
    body = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, "tuples.tsv", body)
    print(body, end="")
    return 0


def cmd_align(args) -> int:
    l2 = load_corpus(args.l2)
    l1 = load_corpus(args.l1)
    pairs = pair_corpora(l2, l1, pipeline.heuristic_alignments(l2, l1))
    save_alignments({p.alignment.pair_id: p.alignment for p in pairs}, args.output)
    print(f"wrote {len(pairs)} alignments to {args.output}")
    return 0


def cmd_select(args) -> int:
    l2 = load_corpus(args.l2)
    l1 = load_corpus(args.l1)
    if args.align == "heuristic":
        alignments = pipeline.heuristic_alignments(l2, l1)
    else:
        alignments = load_alignments(args.align)
    pairs = pair_corpora(l2, l1, alignments)
    # tuple matching is always coarse here (AM-TMP == AM)
    _, chosen = pipeline.select_pairs(pairs, args.threshold, True, args.out or ".")
    ratio = len(chosen) / len(pairs) if pairs else 0.0
    print(f"pool {len(pairs)}  selected {len(chosen)}  ratio {ratio:.4f}  (p > {args.threshold})")
    return 0


def cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    config = tagger.TrainConfig(
        epochs=args.epochs, seed=1 if args.seed is None else args.seed
    )
    model = tagger.train(corpus, config)
    tagger.save_model(model, args.model)
    print(
        f"trained on {len(corpus)} sentences: {len(model.emissions)} emission and "
        f"{len(model.transitions)} transition weights -> {args.model}"
    )
    return 0


def cmd_tag(args) -> int:
    model = tagger.load_model(args.model)
    corpus = load_corpus(args.corpus)
    tagged = tagger.tag_corpus(model, corpus)
    save_corpus(tagged, args.output)
    print(f"tagged {len(tagged)} sentences -> {args.output}")
    return 0


def cmd_retrain(args) -> int:
    config = pipeline.load_config(args.config)
    for key in ("am_coarse", "seed", "out", "extend_with"):
        if getattr(args, key) is not None:
            setattr(config, key, getattr(args, key))
    report = pipeline.run_retrain(config)
    bodies = (report.to_text(), report.to_tsv(), scoring.report_to_json(report))
    _emit_report("report", bodies, config.out, args.format)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"l2srl: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (MismatchedCorpora, MissingMetadata) as exc:
        print(f"l2srl: corpus mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except PairingError as exc:
        print(f"l2srl: {exc}", file=sys.stderr)
        return EXIT_PAIRING
    except VersionMismatch as exc:
        print(f"l2srl: {exc}", file=sys.stderr)
        return EXIT_VERSION
    except (ValueError, OSError) as exc:
        print(f"l2srl: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
