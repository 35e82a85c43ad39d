"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json

import pytest

from helpers import (
    build_retrain_fixture,
    corpus,
    frame,
    sent,
    toy_separable_corpus,
)
from l2srl import pipeline
from l2srl.cli import main
from l2srl.corpus import Corpus, load_corpus, parse_corpus, render_corpus
from l2srl.scoring import score
from l2srl.tagger import TaggerModel, render_model


def write(path, c):
    path.write_bytes(render_corpus(c))
    return str(path)


@pytest.fixture
def gold_file(tmp_path):
    c = corpus(
        sent("e1", ["he", "eats", "rice"], [frame(2, (1, 1, "A0"), (3, 3, "A1"))],
             lang="ENG", side="L2", pair="p1"),
        sent("e2", ["he", "eats", "rice"], [frame(2, (1, 1, "A0"), (3, 3, "A1"))],
             lang="ENG", side="L1", pair="p1"),
        sent("j1", ["we", "go", "home"], [frame(2, (1, 1, "A0"), (3, 3, "AM"))],
             lang="JPN", side="L2", pair="p2"),
        sent("j2", ["we", "go", "home"], [frame(2, (1, 1, "A0"), (3, 3, "AM"))],
             lang="JPN", side="L1", pair="p2"),
    )
    return write(tmp_path / "gold.tsv", c)


def test_score_identity(gold_file, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["score", gold_file, gold_file, "--out", str(out)])
    assert code == 0
    assert "100.00" in capsys.readouterr().out
    for suffix in ("txt", "tsv", "json"):
        assert (out / f"score.{suffix}").exists()


def test_score_writes_confusion_matrix(gold_file, tmp_path):
    out = tmp_path / "reports"
    assert main(["score", gold_file, gold_file, "--out", str(out)]) == 0
    table = (out / "confusion.tsv").read_text().strip().split("\n")
    assert table[0].split("\t")[-1] == "O"


def test_select_with_alignment_file(tmp_path, capsys):
    l2_file, l1_file = _pair_files(tmp_path)
    align_file = tmp_path / "alignments.tsv"
    assert main(["align", l2_file, l1_file, str(align_file)]) == 0
    capsys.readouterr()
    out = tmp_path / "sel2"
    assert main(["select", l2_file, l1_file, "--align", str(align_file),
                 "--out", str(out)]) == 0
    assert "selected 4" in capsys.readouterr().out


def test_score_grouped_rows(gold_file, capsys):
    code = main(["score", gold_file, gold_file, "--group-by", "lang,side",
                 "--format", "tsv"])
    assert code == 0
    out = capsys.readouterr().out
    groups = {line.split("\t")[1] for line in out.strip().split("\n")
              if line.startswith("f1\t") and ":" not in line}
    assert groups == {"ALL", "ENG/L1", "ENG/L2", "JPN/L1", "JPN/L2"}
    deltas = [line for line in out.strip().split("\n") if line.startswith("delta_f\t")]
    assert len(deltas) == 2  # one per language


def test_score_mismatch_exit_3(gold_file, tmp_path):
    other = write(tmp_path / "other.tsv", corpus(sent("zz", ["a"], [])))
    assert main(["score", other, gold_file]) == 3


def test_score_parse_error_exit_2(gold_file, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"# id = x\r\n")
    assert main(["score", str(bad), gold_file]) == 2


def test_iaa_identity_and_mismatch(gold_file, tmp_path, capsys):
    assert main(["iaa", gold_file, gold_file]) == 0
    assert "100.00" in capsys.readouterr().out
    missing = write(
        tmp_path / "partial.tsv",
        corpus(sent("e1", ["he", "eats", "rice"],
                    [frame(2, (1, 1, "A0"), (3, 3, "A1"))], pair="p1")),
    )
    assert main(["iaa", missing, gold_file]) == 3


def test_oracle_rows_end_at_100(gold_file, tmp_path, capsys):
    pred = corpus(
        sent("e1", ["he", "eats", "rice"], [frame(2, (1, 1, "A1"))],
             lang="ENG", side="L2", pair="p1"),
        sent("e2", ["he", "eats", "rice"], [frame(2)],
             lang="ENG", side="L1", pair="p1"),
        sent("j1", ["we", "go", "home"], [frame(2, (1, 1, "A1"), (3, 3, "AM"))],
             lang="JPN", side="L2", pair="p2"),
        sent("j2", ["we", "go", "home"], [frame(2, (1, 1, "A0"), (3, 3, "AM"))],
             lang="JPN", side="L1", pair="p2"),
    )
    pred_file = write(tmp_path / "pred.tsv", pred)
    code = main(["oracle", pred_file, gold_file, "--format", "tsv"])
    assert code == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.strip().split("\n")]
    f1_rows = [r for r in rows if r[0] == "f1" and r[1] != "baseline"]
    assert len(f1_rows) == 7
    assert f1_rows[-1][1] == "add" and f1_rows[-1][2] == "100.00"
    values = [float(r[2]) for r in f1_rows]
    assert values == sorted(values)


def test_tuples_output(gold_file, capsys):
    assert main(["tuples", gold_file]) == 0
    out = capsys.readouterr().out
    assert "e1\t2\t1\tA0" in out


def _pair_files(tmp_path, n=4, identical=True):
    l2, l1 = [], []
    for k in range(n):
        pid = f"p{k}"
        forms = ["kip", "runsa", "lem"]
        frames_l2 = [frame(2, (1, 1, "A0"), (3, 3, "A1"))]
        frames_l1 = (
            frames_l2 if identical else [frame(2, (1, 1, "A1"), (3, 3, "A0"))]
        )
        l2.append(sent(f"s{k}.l2", forms, frames_l2, side="L2", pair=pid))
        l1.append(sent(f"s{k}.l1", forms, frames_l1, side="L1", pair=pid))
    return (
        write(tmp_path / "l2.tsv", Corpus(tuple(l2))),
        write(tmp_path / "l1.tsv", Corpus(tuple(l1))),
    )


def test_align_writes_file(tmp_path, capsys):
    l2_file, l1_file = _pair_files(tmp_path)
    out = tmp_path / "alignments.tsv"
    assert main(["align", l2_file, l1_file, str(out)]) == 0
    body = out.read_bytes()
    assert b"p0\t0-0 1-1 2-2\n" in body


def test_select_identical_pairs_all_selected(tmp_path, capsys):
    l2_file, l1_file = _pair_files(tmp_path)
    out = tmp_path / "sel"
    assert main(["select", l2_file, l1_file, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "selected 4" in stdout
    selected_l2 = load_corpus(out / "selected_l2.tsv")  # re-reads strictly
    assert len(selected_l2) == 4
    table = (out / "selection.tsv").read_text().strip().split("\n")
    assert len(table) == 5 and table[1].endswith("\t1")


def test_select_threshold_one_selects_nothing(tmp_path, capsys):
    l2_file, l1_file = _pair_files(tmp_path)
    out = tmp_path / "sel"
    assert main(["select", l2_file, l1_file, "-p", "1.0", "--out", str(out)]) == 0
    assert "selected 0" in capsys.readouterr().out
    assert len(load_corpus(out / "selected_l2.tsv")) == 0


def test_select_pairing_error_exit_4(tmp_path):
    l2_file, l1_file = _pair_files(tmp_path)
    lonely = write(
        tmp_path / "extra.tsv",
        Corpus((sent("x.l2", ["kip"], [], side="L2", pair="zz"),)),
    )
    assert main(["select", lonely, l1_file]) == 4


def test_train_tag_round_trip(tmp_path, capsys):
    toy_file = write(tmp_path / "toy.tsv", toy_separable_corpus())
    model_file = tmp_path / "model.txt"
    assert main(["train", toy_file, str(model_file), "--epochs", "10"]) == 0
    tagged_file = tmp_path / "tagged.tsv"
    assert main(["tag", str(model_file), toy_file, str(tagged_file)]) == 0
    tagged = load_corpus(tagged_file)
    assert score(tagged, toy_separable_corpus()).f1 == 100.0


def test_train_deterministic_byte_identical(tmp_path):
    toy_file = write(tmp_path / "toy.tsv", toy_separable_corpus())
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["train", toy_file, str(a), "--seed", "3"]) == 0
    assert main(["train", toy_file, str(b), "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tag_with_empty_model_is_all_o(tmp_path):
    toy_file = write(tmp_path / "toy.tsv", toy_separable_corpus())
    model_file = tmp_path / "empty.txt"
    model_file.write_bytes(render_model(TaggerModel.empty(())))
    out_file = tmp_path / "tagged.tsv"
    assert main(["tag", str(model_file), toy_file, str(out_file)]) == 0
    tagged = load_corpus(out_file)  # strict parse proves well-formedness
    assert all(not s.frames or all(not f.spans for f in s.frames)
               for s in tagged.sentences)


def test_tag_version_mismatch_exit_5(tmp_path):
    toy_file = write(tmp_path / "toy.tsv", toy_separable_corpus())
    model_file = tmp_path / "future.txt"
    model_file.write_bytes(b"SRLMODEL v9\nO\trel\n")
    assert main(["tag", str(model_file), toy_file, str(tmp_path / "out.tsv")]) == 5


def test_tag_non_finite_model_exit_2(tmp_path):
    toy_file = write(tmp_path / "toy.tsv", toy_separable_corpus())
    model_file = tmp_path / "nan.txt"
    model_file.write_bytes(b"SRLMODEL v1\nO\trel\nT\tO\tO\tnan\n")
    assert main(["tag", str(model_file), toy_file, str(tmp_path / "out.tsv")]) == 2


def test_retrain_end_to_end(tmp_path, capsys):
    config = build_retrain_fixture(tmp_path / "fix", pool_pairs=20, good_pairs=5)
    assert main(["retrain", "--config", str(config)]) == 0
    run = tmp_path / "fix" / "run"
    report = json.loads((run / "report.json").read_text())
    assert report["selection"]["selected"] == 5
    assert report["retrained"]["test_l2"]["f1"] >= report["baseline"]["test_l2"]["f1"]
    for artifact in (
        "baseline/model.txt",
        "selection/selection.tsv",
        "selection/selected_l1.tsv",
        "retrained/model.txt",
        "retrained/train_extended.tsv",
        "report.txt",
        "report.tsv",
    ):
        assert (run / artifact).exists()
    # every emitted corpus re-reads in strict mode
    load_corpus(run / "selection" / "selected_l1.tsv")
    load_corpus(run / "retrained" / "train_extended.tsv")


def test_retrain_extend_with_both(tmp_path):
    config = build_retrain_fixture(tmp_path / "fix", pool_pairs=8, good_pairs=3)
    assert main(["retrain", "--config", str(config), "--extend-with", "both"]) == 0
    extended = load_corpus(tmp_path / "fix" / "run" / "retrained" / "train_extended.tsv")
    assert len(extended) == 20 + 2 * 3  # base corpus + both sides of 3 pairs


def test_retrain_unknown_config_key_exit_2(tmp_path):
    config = build_retrain_fixture(tmp_path / "fix", pool_pairs=4, good_pairs=1)
    config.write_text(config.read_text() + "mystery = 1\n")
    assert main(["retrain", "--config", str(config)]) == 2


def test_emitted_corpora_reparse(tmp_path):
    l2_file, l1_file = _pair_files(tmp_path)
    out = tmp_path / "sel"
    main(["select", l2_file, l1_file, "--out", str(out)])
    for name in ("selected_l2.tsv", "selected_l1.tsv"):
        data = (out / name).read_bytes()
        assert render_corpus(parse_corpus(data)) == data


def test_retrain_rejects_bad_eval_file_before_training(tmp_path, monkeypatch, capsys):
    config = build_retrain_fixture(tmp_path / "fix", pool_pairs=4, good_pairs=1)
    test_l1 = tmp_path / "fix" / "test_l1.tsv"
    lines = test_l1.read_bytes().count(b"\n")
    test_l1.write_bytes(test_l1.read_bytes() + b"garbage\n")
    calls = []

    def counting_train(*args, **kwargs):
        calls.append(args)
        return original_train(*args, **kwargs)

    original_train = pipeline.train
    monkeypatch.setattr(pipeline, "train", counting_train)
    assert main(["retrain", "--config", str(config)]) == 2
    assert f"line {lines + 1}" in capsys.readouterr().err
    assert calls == []
