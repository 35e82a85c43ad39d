"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import hashlib
import json
import os
import random
from dataclasses import replace

import pytest

from helpers import (
    build_retrain_fixture,
    corpus,
    frame,
    random_pred_gold_corpora,
    sent,
    toy_separable_corpus,
)
from l2srl import pipeline, scoring
from l2srl.cli import build_parser, main
from l2srl.corpus import Corpus, load_corpus, parse_corpus, render_corpus
from l2srl.scoring import score
from l2srl.tagger import TaggerModel, build_label_set, render_model


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
    model_file.write_bytes(render_model(TaggerModel(build_label_set(()))))
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


def test_retrain_selects_from_the_tagged_pool(tmp_path):
    config = build_retrain_fixture(tmp_path / "fix", pool_pairs=6, good_pairs=2)
    config.write_text(config.read_text().replace("tag_pool = false", "tag_pool = true"))
    assert main(["retrain", "--config", str(config)]) == 0
    run = tmp_path / "fix" / "run"
    for side in ("l2", "l1"):
        tagged = {s.id: s for s in load_corpus(run / "pool" / f"pool_{side}_tagged.tsv")}
        selected = load_corpus(run / "selection" / f"selected_{side}.tsv")
        assert len(selected) > 0
        assert all(s == tagged[s.id] for s in selected)


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
    calls = _count_train_calls(monkeypatch)
    assert main(["retrain", "--config", str(config)]) == 2
    assert f"line {lines + 1}" in capsys.readouterr().err
    assert calls == []


# sha256 over each case's stdout and every file it writes (relative path and
# bytes, in sorted path order), recorded before the CLI had one report
# emitter and per-command flags; a change here means changed output bytes.
PINNED_OUTPUTS = {
    "score": "2f4fb566fa1c86eee54d67dd356be26e87ec5752c146b81e172cc554ab32d66b",
    "score_out_json": "be34d0bc382ea5ca646bdb69bcb49cef73e17c5ed18020fd91a5d3da26e44cf9",
    "score_grouped": "81d34a6ad2d1ad91ed008e5636eb1fc3d7593455a761ba0847704d3ecfd83adb",
    "score_grouped_coarse": "66800cea49dc6c905e5ea47292b4dde3e4f2cf8b68aedf4534e7e334735db038",
    "iaa": "9286e38cd71b7dc7042e3810b62f98fe66fe89719c5e73c75d1ce14652c8817d",
    "iaa_coarse_json": "e60b0840dfecc3b2f44bc3f7bee29aabb25ac572cf688e683c62fd43e2962768",
    "oracle_text": "8d9f77e2ab6549e55be895b4ca1aacdde17268ba3149a1bbb09267d903174371",
    "oracle_tsv": "4a9a5f6b047c8235ccccc644ed6b0104377aaa087b67d2e8637df04c0bb65f22",
    "oracle_json_coarse": "6999b44fb0e2ebae7688c88c10e19ab6e80a1a2690c8a214f03228aa2273ac22",
    "tuples": "9f61a0fdbcdd2c148ed2502e6c72156aaf6d252e2ab1de37f511aa5cb51a4cfd",
    "select": "00b50edecb19fb28d05d7c5704d3f7563f9774ee443058885f9e18f863beab36",
    "select_align_file": "5cd6475912474f047f7db2177772a8dbfc561372a7dc09b074d73ab25348a0a6",
    "select_subtypes": "d4e675d91163babbc05a531d5f5d679f7a341639bb6653786bab1cf879d00fd9",
    "retrain_json": "76fdec3b5d7d408dd896e1d63723c01a87ae1af004fa7ba019945c0aa0b97f26",
    "retrain_overrides": "b16307b859fa703d6679faf0d94a2c4b2da28ec0f56b70114748f65615a28fe3",
}


def _pinned_cases(root):
    pred, gold = random_pred_gold_corpora(
        random.Random(11), 40, labels=("A0", "A1", "AM", "AM-TMP", "AM-LOC"))
    pred_file = write(root / "pred.tsv", pred)
    gold_file = write(root / "gold.tsv", gold)
    fixture = build_retrain_fixture(root / "fix", pool_pairs=6, good_pairs=3).parent
    l2_file, l1_file = str(fixture / "pool_l2.tsv"), str(fixture / "pool_l1.tsv")
    align_file = str(root / "alignments.tsv")
    assert main(["align", l2_file, l1_file, align_file]) == 0
    # adjunct subtypes agree on even pairs only: coarse matching selects all
    forms, l2, l1 = ["kip", "runsa", "soon"], [], []
    for k in range(4):
        l2.append(sent(f"a{k}.l2", forms, [frame(2, (1, 1, "A0"), (3, 3, "AM-TMP"))],
                       side="L2", pair=f"a{k}"))
        l1.append(sent(f"a{k}.l1", forms, [frame(2, (1, 1, "A0"), (3, 3, "AM-LOC" if k % 2
                       else "AM-TMP"))], side="L1", pair=f"a{k}"))
    am_l2, am_l1 = write(root / "am_l2.tsv", corpus(*l2)), write(root / "am_l1.tsv", corpus(*l1))
    return {
        "score": ["score", pred_file, gold_file],
        "score_out_json": ["score", pred_file, gold_file, "--out", "{out}",
                           "--format", "json"],
        "score_grouped": ["score", pred_file, gold_file, "--group-by", "lang,side",
                          "--out", "{out}", "--format", "tsv"],
        "score_grouped_coarse": ["score", pred_file, gold_file, "--group-by", "lang",
                                 "--am-coarse", "--out", "{out}"],
        "iaa": ["iaa", pred_file, gold_file, "--out", "{out}"],
        "iaa_coarse_json": ["iaa", pred_file, gold_file, "--am-coarse",
                            "--format", "json"],
        "oracle_text": ["oracle", pred_file, gold_file, "--out", "{out}"],
        "oracle_tsv": ["oracle", pred_file, gold_file, "--out", "{out}",
                       "--format", "tsv"],
        "oracle_json_coarse": ["oracle", pred_file, gold_file, "--am-coarse",
                               "--out", "{out}", "--format", "json"],
        "tuples": ["tuples", gold_file, "--out", "{out}"],
        "select": ["select", l2_file, l1_file, "--out", "{out}"],
        "select_align_file": ["select", l2_file, l1_file, "--align", align_file,
                              "-p", "0.5", "--out", "{out}"],
        "select_subtypes": ["select", am_l2, am_l1, "--out", "{out}"],
        "retrain_json": ["retrain", "--config", str(fixture / "retrain.cfg"),
                         "--out", "{out}", "--format", "json"],
        "retrain_overrides": ["retrain", "--config", str(fixture / "retrain.cfg"),
                              "--seed", "2", "--am-coarse", "--extend-with", "both",
                              "--out", "{out}", "--format", "tsv"],
    }


def _output_digest(stdout, out):
    digest = hashlib.sha256(stdout.encode("utf-8"))
    files = []
    for directory, _, names in os.walk(out):
        files.extend(os.path.join(directory, name) for name in names)
    for path in sorted(files):
        with open(path, "rb") as f:
            digest.update(b"\0" + os.path.relpath(path, out).encode() + b"\0" + f.read())
    return digest.hexdigest()


def test_outputs_are_pinned(tmp_path, capsys):
    cases = _pinned_cases(tmp_path)
    capsys.readouterr()
    found = {}
    for name, argv in cases.items():
        out = tmp_path / "out" / name
        assert main([str(out) if a == "{out}" else a for a in argv]) == 0, name
        captured = capsys.readouterr()
        assert captured.err == "", name
        found[name] = _output_digest(captured.out, out)
    assert found == PINNED_OUTPUTS


# Options each subcommand takes; anything else is an argparse error (exit 2).
REJECTED_FLAGS = {
    "score": (["score", "p.tsv", "g.tsv"], ["--seed", "1"]),
    "iaa": (["iaa", "a.tsv", "b.tsv"], ["--seed", "1"]),
    "oracle": (["oracle", "p.tsv", "g.tsv"], ["--seed", "1"]),
    "tuples": (["tuples", "c.tsv"], ["--am-coarse"], ["--seed", "1"],
               ["--format", "tsv"]),
    "align": (["align", "l2.tsv", "l1.tsv", "a.tsv"], ["--am-coarse"], ["--seed", "1"],
              ["--out", "d"], ["--format", "tsv"]),
    "select": (["select", "l2.tsv", "l1.tsv"], ["--am-coarse"], ["--seed", "1"],
               ["--format", "tsv"]),
    "train": (["train", "c.tsv", "m.txt"], ["--am-coarse"], ["--out", "d"],
              ["--format", "tsv"]),
    "tag": (["tag", "m.txt", "c.tsv", "o.tsv"], ["--am-coarse"], ["--seed", "1"],
            ["--out", "d"], ["--format", "tsv"]),
}


@pytest.mark.parametrize("command", sorted(REJECTED_FLAGS))
def test_subcommand_rejects_flags_it_does_not_read(command, capsys):
    argv, *flags = REJECTED_FLAGS[command]
    build_parser().parse_args(argv)  # the positionals alone are accepted
    for flag in flags:
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err


def _rename_pool_l1(root, new_id):
    path = root / "pool_l1.tsv"
    pool = load_corpus(path)
    write(path, Corpus(tuple(replace(s, id=new_id(k)) for k, s in enumerate(pool))))


def _count_train_calls(monkeypatch):
    calls = []
    original_train = pipeline.train

    def counting_train(*args, **kwargs):
        calls.append(args)
        return original_train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train", counting_train)
    return calls


def test_retrain_rejects_id_collision_before_training(tmp_path, monkeypatch, capsys):
    config = build_retrain_fixture(tmp_path / "fix", pool_pairs=4, good_pairs=1)
    _rename_pool_l1(tmp_path / "fix", lambda k: f"toy{k}")  # ids of train.tsv
    calls = _count_train_calls(monkeypatch)
    assert main(["retrain", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "toy0, toy1, toy2, toy3" in err
    assert calls == []


def test_retrain_both_rejects_ids_shared_by_the_pool_sides(tmp_path, monkeypatch, capsys):
    config = build_retrain_fixture(tmp_path / "fix", pool_pairs=4, good_pairs=1)
    _rename_pool_l1(tmp_path / "fix", lambda k: f"pool{k}.l2")  # the L2 side's ids
    calls = _count_train_calls(monkeypatch)
    assert main(["retrain", "--config", str(config), "--extend-with", "both"]) == 1
    assert "pool0.l2" in capsys.readouterr().err
    assert calls == []
    # extending with one side only, the shared ids never meet
    assert main(["retrain", "--config", str(config), "--extend-with", "l1"]) == 0
    assert len(calls) == 2


def test_retrain_rejects_unpaired_pool_before_training(tmp_path, monkeypatch, capsys):
    config = build_retrain_fixture(tmp_path / "fix", pool_pairs=4, good_pairs=1)
    path = tmp_path / "fix" / "pool_l1.tsv"
    write(path, Corpus(load_corpus(path).sentences[:-1]))
    calls = _count_train_calls(monkeypatch)
    assert main(["retrain", "--config", str(config)]) == 4
    assert "pool3" in capsys.readouterr().err
    assert calls == []


def test_failed_render_leaves_report_files_unchanged(gold_file, tmp_path, monkeypatch):
    out = tmp_path / "reports"
    assert main(["score", gold_file, gold_file, "--out", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}

    def failing_render(report):
        raise ValueError("render failed")

    monkeypatch.setattr(scoring, "report_to_json", failing_render)
    assert main(["score", gold_file, gold_file, "--group-by", "lang", "--out", str(out)]) == 1
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
