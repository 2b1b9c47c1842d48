import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

import tweetcorpus
from tweetcorpus.cli import build_parser
from tweetcorpus.pipeline import (
    CONFIG_KEYS,
    PIPELINE,
    STAGES,
    build_config,
    stage_clean,
    stage_ingest,
    stage_langid_train,
    stage_segment,
    stage_vocab,
)
from tweetcorpus.vocab import STRUCTURAL_TOKENS

from conftest import EN_WORDS, RO_WORDS, make_text


# the package under test, importable from any working directory
SRC = str(Path(tweetcorpus.__file__).resolve().parents[1])


def run_cli(*argv, check=False, timeout=None, cwd=None):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "tweetcorpus.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_print_config_lists_defaults():
    proc = run_cli("--print-config", check=True)
    lines = dict(line.split(" = ") for line in proc.stdout.strip().splitlines())
    assert lines["filter.min_words"] == "5"
    assert lines["filter.max_words"] == "256"
    assert lines["pretrain.dupe_factor"] == "10"
    assert lines["pretrain.masked_lm_prob"] == "0.15"
    assert lines["vocab.emoji_fraction"] == "0.25"


def run_cli_feeding(fifo, data, *argv):
    """``run_cli(*argv)`` while a thread writes ``data`` into the new FIFO ``fifo`` and closes it."""
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        # a second open of the FIFO would block forever; the timeout kills it
        proc = run_cli(*argv, timeout=60)
    finally:
        if writer.is_alive():  # the CLI never opened the FIFO: let the writer go
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    return proc


def test_ingest_reads_a_fifo_once_and_records_the_digest_of_what_it_read(tmp_path):
    fifo = tmp_path / "archive.jsonl"
    data = '{"id":1,"text":"Azi plouă la munte"}\n\n{"id":2,"text":"Mâine e soare"}'.encode()
    proc = run_cli_feeding(fifo, data, "ingest", "--input", str(fifo),
                           "--output-dir", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "out" / "ingest" / "manifest-ingest.json").read_text())
    assert manifest["inputs"] == {str(fifo): hashlib.sha256(data).hexdigest()}
    assert manifest["counts"]["emitted"] == 2


def test_langid_train_reads_a_fifo_corpus_once_and_records_the_digest_of_what_it_read(tmp_path):
    fifo = tmp_path / "langid.tsv"
    data = "ro\tazi plouă la munte\n\nen\tit rains in the hills\nro\tmâine e soare".encode()
    out = tmp_path / "models"
    proc = run_cli_feeding(fifo, data, "langid-train", "--corpus", str(fifo),
                           "--output-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    # both models and the manifest, and no partial file
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest-langid-train.json", "model-a.rlid", "model-b.rlid"]
    manifest = json.loads((out / "manifest-langid-train.json").read_text())
    assert manifest["inputs"] == {str(fifo): hashlib.sha256(data).hexdigest()}
    assert manifest["counts"] == {"samples": 3}


def test_a_fifo_corpus_that_is_not_utf8_is_an_error_naming_its_line(tmp_path):
    fifo = tmp_path / "langid.tsv"
    out = tmp_path / "models"
    proc = run_cli_feeding(fifo, _NOT_UTF8, "langid-train", "--corpus", str(fifo),
                           "--output-dir", str(out))
    assert proc.returncode == 2
    assert f"error: stage langid-train: {fifo}:3: not UTF-8 (byte 0xff)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()  # the corpus is read before anything is written


def test_usage_error_exits_1():
    proc = run_cli("--no-such-flag")
    assert proc.returncode == 1
    proc = run_cli()  # missing subcommand
    assert proc.returncode == 1


@pytest.mark.parametrize("argv", [
    ("ingest", "--input", "{archive}", "--output-dir", "{out}", "--workers", "2"),
    ("vocab", "--base-vocab", "{base}", "--output-dir", "{out}", "--seed", "1"),
    ("segment", "--output-dir", "{out}", "--shards", "2"),
    ("--workers", "2", "pipeline", "--input", "{archive}", "--base-vocab", "{base}",
     "--output-dir", "{out}"),
    ("task-prep", "--task", "red_v2", "--input", "{archive}", "--output", "{out}/prep.jsonl",
     "--seed", "1"),
], ids=["ingest-workers", "vocab-seed", "segment-shards", "workers-before-pipeline",
        "task-prep-seed"])
def test_a_flag_of_a_key_the_command_does_not_read_is_a_usage_error(tmp_path, valid_inputs,
                                                                    argv):
    out = tmp_path / "out"
    proc = run_cli(*(arg.format(**valid_inputs, out=out) for arg in argv))
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: tweetcorpus")  # argparse's, before any stage runs
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("flag, value, takers", [
    ("--workers", "2", "clean, pretrain-data, pipeline"),
    ("--seed", "1", "pretrain-data, pipeline"),
    ("--model-a", "{archive}", "clean, pipeline"),
])
def test_a_subcommand_flag_before_the_subcommand_is_named_as_misplaced(tmp_path, valid_inputs,
                                                                       flag, value, takers):
    out = tmp_path / "out"
    for given in ([flag, value.format(**valid_inputs)], [f"{flag}={value.format(**valid_inputs)}"]):
        proc = run_cli(*given, "pipeline", "--input", str(valid_inputs["archive"]),
                       "--base-vocab", str(valid_inputs["base"]), "--output-dir", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: tweetcorpus")
        assert (f"error: {flag} is a flag of the subcommand ({takers}): "
                "give it after the subcommand name") in proc.stderr
        assert "invalid choice" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("task-prep", "--task", "red_v2", "--input", "{gold}", "--output", "{tmp}/prep.jsonl"),
    ("eval", "--task", "red_v2", "--gold", "{gold}", "--pred", "{gold}", "--averaging", "micro",
     "--output", "{tmp}/report.json"),
], ids=["task-prep", "eval"])
def test_config_before_a_command_that_reads_no_config_is_a_usage_error(tmp_path, argv):
    gold = tmp_path / "gold.tsv"
    gold.write_text("unu\t1\t0\t0\t0\t0\t0\t0\n", encoding="utf-8")
    conf = tmp_path / "run.conf"
    conf.write_text("seed = 1\n", encoding="utf-8")
    argv = [arg.format(gold=gold, tmp=tmp_path) for arg in argv]
    proc = run_cli("--config", str(conf), *argv)
    assert proc.returncode == 1
    assert f"{argv[0]} reads no config: --config is not allowed" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.tsv", "run.conf"]
    proc = run_cli(*argv, "--config", str(conf))  # nor after it
    assert proc.returncode == 1
    assert "unrecognized arguments: --config" in proc.stderr


def test_config_error_exits_1(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("typo.key = 1\n", encoding="utf-8")
    proc = run_cli("--config", str(conf), "--print-config")
    assert proc.returncode == 1
    assert "unknown" in proc.stderr


def test_missing_input_exits_3(tmp_path):
    proc = run_cli("ingest", "--input", str(tmp_path / "absent.jsonl"),
                   "--output-dir", str(tmp_path / "out"))
    assert proc.returncode == 3
    assert proc.stderr.count("stage ingest") == 1


def test_data_error_exits_2(tmp_path):
    gold = tmp_path / "gold.tsv"
    gold.write_text("text\t0\t0\t0\t0\t0\t0\t1\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("0\t0\t0\t0\t0\t0\t1\n0\t0\t0\t0\t0\t0\t1\n", encoding="utf-8")
    proc = run_cli("eval", "--task", "red_v2", "--gold", str(gold),
                   "--pred", str(pred), "--averaging", "macro")
    assert proc.returncode == 2


def test_ingest_and_stats_roundtrip(tmp_path):
    archive = tmp_path / "raw.jsonl"
    rows = [json.dumps({"id": i, "text": f"un text {i} bun"}) for i in range(5)]
    rows.append(rows[0])  # duplicate id
    archive.write_text("\n".join(rows) + "\n", encoding="utf-8")
    proc = run_cli("ingest", "--input", str(archive),
                   "--output-dir", str(tmp_path / "ing"), check=True)
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counts["read"] == 6
    assert counts["emitted"] == 5
    assert counts["duplicates_id"] == 1

    proc = run_cli("stats", "--input", str(archive),
                   "--output-dir", str(tmp_path / "st"), check=True)
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counts["read"] == 6
    assert counts["words"] > 0


@pytest.mark.parametrize("by_flag", [True, False], ids=["flag", "config-file"])
def test_a_stage_writes_into_io_output_dir_however_it_is_set(tmp_path, by_flag):
    archive = tmp_path / "raw.jsonl"
    archive.write_text('{"id": 1, "text": "un text bun"}\n', encoding="utf-8")
    out = tmp_path / "out"
    conf = tmp_path / "run.conf"
    conf.write_text("" if by_flag else f"io.output_dir = {out}\n", encoding="utf-8")
    flags = ("--output-dir", str(out)) if by_flag else ()
    run_cli("--config", str(conf), "ingest", "--input", str(archive), *flags, check=True)
    assert sorted(tree(out)) == ["ingest", "ingest/manifest-ingest.json",
                                 "ingest/tweets-00000.jsonl"]


def test_ingest_counts_a_lone_surrogate_as_malformed(tmp_path):
    # "\ud800" and "\udc00" are JSON escapes: the lines are valid UTF-8
    # and valid JSON, but no UTF-8 shard can hold the values they decode to
    archive = tmp_path / "raw.jsonl"
    archive.write_text(
        '{"id":1,"text":"Azi plouă mult la munte \\ud800 e frig"}\n'
        '{"id":2,"text":"Mâine e soare","lang":"r\\udc00"}\n'
        '{"id":3,"text":"Un zâmbet \\ud83d\\ude00 și gata","lang":"ro"}\n', encoding="utf-8")
    proc = run_cli("ingest", "--input", str(archive), "--output-dir", str(tmp_path / "ing"))
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (counts["read"], counts["malformed"], counts["emitted"]) == (3, 2, 1)
    shard = (tmp_path / "ing" / "ingest" / "tweets-00000.jsonl").read_text(encoding="utf-8")
    assert json.loads(shard)["text"] == "Un zâmbet 😀 și gata"


def test_stats_empty_input_exits_zero(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    proc = run_cli("stats", "--input", str(empty),
                   "--output-dir", str(tmp_path / "out"))
    assert proc.returncode == 0
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counts["read"] == 0


def test_eval_red_v2_classification(tmp_path):
    gold = tmp_path / "gold.tsv"
    gold.write_text(
        "unu\t1\t0\t0\t0\t0\t0\t0\n"
        "doi\t0\t1\t0\t0\t0\t0\t0\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("1\t0\t0\t0\t0\t0\t0\n0\t0\t1\t0\t0\t0\t0\n", encoding="utf-8")
    proc = run_cli("eval", "--task", "red_v2", "--gold", str(gold),
                   "--pred", str(pred), "--averaging", "micro", check=True)
    report = json.loads(proc.stdout)
    assert report["metrics"]["accuracy"] == 0.5
    assert report["metrics"]["hamming_loss"] == pytest.approx(2 / 14)


def test_eval_red_v2_regression_threshold(tmp_path):
    gold = tmp_path / "gold.tsv"
    gold.write_text("unu\t1\t0\t0\t0\t0\t0\t0\t1.0\t0\t0\t0\t0\t0\t0\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("0.9\t0.1\t0.2\t0.3\t0.1\t0.2\t0.4\n", encoding="utf-8")
    proc = run_cli("eval", "--task", "red_v2", "--gold", str(gold), "--pred", str(pred),
                   "--averaging", "macro", "--regression", "--mse-scale", "100",
                   check=True)
    report = json.loads(proc.stdout)
    assert report["metrics"]["accuracy"] == 1.0
    assert report["metrics"]["mse"] == pytest.approx(
        100 * (0.1**2 + 0.1**2 + 0.2**2 + 0.3**2 + 0.1**2 + 0.2**2 + 0.4**2) / 7)


def test_eval_coroseof_binary_and_threeway(tmp_path):
    gold = tmp_path / "gold.tsv"
    gold.write_text(
        "a\tsexist direct\n"
        "b\tnon-sexist offensive\n"
        "c\tsexist reporting\n", encoding="utf-8")
    pred_bin = tmp_path / "pred-bin.txt"
    pred_bin.write_text("sexist\nnon-sexist\nnon-sexist\n", encoding="utf-8")
    proc = run_cli("eval", "--task", "coroseof", "--gold", str(gold),
                   "--pred", str(pred_bin), "--averaging", "macro", check=True)
    report = json.loads(proc.stdout)
    assert report["per_class"]["sexist"]["recall"] == 0.5

    pred_3 = tmp_path / "pred-3.txt"
    pred_3.write_text("direct\nreporting\n", encoding="utf-8")
    proc = run_cli("eval", "--task", "coroseof", "--subtask", "threeway",
                   "--gold", str(gold), "--pred", str(pred_3),
                   "--averaging", "micro", check=True)
    report = json.loads(proc.stdout)
    assert report["metrics"]["f1"] == 1.0


@pytest.mark.parametrize("averaging", ["micro", "macro", "weighted"])
def test_eval_coroseof_on_an_empty_gold_file_scores_zero(tmp_path, averaging):
    gold = tmp_path / "gold.tsv"
    gold.write_text("", encoding="utf-8")
    pred = tmp_path / "pred.txt"
    pred.write_text("", encoding="utf-8")
    proc = run_cli("eval", "--task", "coroseof", "--gold", str(gold),
                   "--pred", str(pred), "--averaging", averaging)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)["metrics"]
    assert metrics == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    assert all(type(v) is float for v in metrics.values())


@pytest.mark.parametrize("flags", [(), ("--regression",)], ids=["labels", "regression"])
@pytest.mark.parametrize("averaging", ["micro", "macro", "weighted"])
def test_eval_red_v2_on_an_empty_gold_file_scores_zero(tmp_path, averaging, flags):
    gold = tmp_path / "gold.tsv"
    gold.write_text("", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("", encoding="utf-8")
    proc = run_cli("eval", "--task", "red_v2", "--gold", str(gold), "--pred", str(pred),
                   "--averaging", averaging, *flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # no RuntimeWarning from a mean over nothing
    metrics = json.loads(proc.stdout)["metrics"]
    assert metrics == {"hamming_loss": 0.0, "accuracy": 0.0, "f1": 0.0, "mse": 0.0}
    assert all(type(v) is float for v in metrics.values())


@pytest.mark.parametrize("cell, flags", [("2", ()), ("nan", ("--regression",))],
                         ids=["label-2", "score-nan"])
def test_eval_rejects_a_bad_prediction_cell(tmp_path, cell, flags):
    gold = tmp_path / "gold.tsv"
    gold.write_text("unu\t1\t0\t0\t0\t0\t0\t0\ndoi\t0\t1\t0\t0\t0\t0\t0\n",
                    encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text(f"1\t0\t0\t0\t0\t0\t0\n0\t{cell}\t0\t0\t0\t0\t0\n", encoding="utf-8")
    proc = run_cli("eval", "--task", "red_v2", "--gold", str(gold), "--pred", str(pred),
                   "--averaging", "macro", *flags)
    assert proc.returncode == 2, proc.stdout
    assert f"{pred}:2:" in proc.stderr


@pytest.mark.parametrize("flag, value", [
    ("--mse-scale", "nan"), ("--mse-scale", "inf"), ("--mse-scale", "0"), ("--mse-scale", "-1"),
    ("--decision-threshold", "nan"), ("--decision-threshold", "-inf"),
])
def test_eval_rejects_a_scale_or_threshold_that_is_not_finite(tmp_path, flag, value):
    gold = tmp_path / "gold.tsv"
    gold.write_text("unu\t1\t0\t0\t0\t0\t0\t0\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("0.9\t0.1\t0.2\t0.3\t0.1\t0.2\t0.4\n", encoding="utf-8")
    proc = run_cli("eval", "--task", "red_v2", "--gold", str(gold), "--pred", str(pred),
                   "--averaging", "macro", "--regression", f"{flag}={value}")
    assert proc.returncode == 1
    assert f"config error: {flag} must be finite" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_eval_ner(tmp_path):
    gold = tmp_path / "gold.txt"
    gold.write_text("Ion B-PER\nPopescu I-PER\nmerge O\n\nazi B-TM\n", encoding="utf-8")
    pred = tmp_path / "pred.txt"
    pred.write_text("Ion B-PER\nPopescu I-PER\nmerge O\n\nazi O\n", encoding="utf-8")
    proc = run_cli("eval", "--task", "ner", "--gold", str(gold),
                   "--pred", str(pred), check=True)
    report = json.loads(proc.stdout)
    assert report["per_class"]["PER"]["f1"] == 1.0
    assert report["per_class"]["TM"]["recall"] == 0.0
    assert report["metrics"]["precision"] == 1.0
    assert report["metrics"]["recall"] == 0.5


def test_task_prep_ner_writes_alignment(tmp_path):
    vocab_path = tmp_path / "vocab.txt"
    from tweetcorpus.vocab import STRUCTURAL_TOKENS
    vocab_path.write_text("\n".join(list(STRUCTURAL_TOKENS) + ["Ion", "merge"]) + "\n",
                          encoding="utf-8")
    data = tmp_path / "ner.txt"
    data.write_text("Ion B-PER\nmerge O\n", encoding="utf-8")
    out = tmp_path / "ner.jsonl"
    run_cli("task-prep", "--task", "ner", "--input", str(data),
            "--output", str(out), "--vocab", str(vocab_path), check=True)
    row = json.loads(out.read_text().splitlines()[0])
    assert row["words"] == ["Ion", "merge"]
    assert row["first_subword_index"] == [1, 2]


def test_task_prep_ner_without_vocab_is_a_config_error(tmp_path):
    data = tmp_path / "ner.txt"
    data.write_text("Ion B-PER\nmerge O\n", encoding="utf-8")
    out = tmp_path / "ner.jsonl"
    proc = run_cli("task-prep", "--task", "ner", "--input", str(data), "--output", str(out))
    assert proc.returncode == 1
    assert "config error: --vocab is required for ner" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_eval_ner_checks_tags_as_task_prep_does(tmp_path):
    valid = tmp_path / "valid.txt"
    valid.write_text("Ion O\nPopescu O\n\nazi O\n", encoding="utf-8")
    orphan = tmp_path / "orphan.txt"
    orphan.write_text("Ion O\nPopescu I-PER\n\nazi B-TM\n", encoding="utf-8")
    unknown = tmp_path / "unknown.txt"
    unknown.write_text("Ion O\nPopescu B-PER\n\nazi B-FOO\n", encoding="utf-8")
    for gold, pred, bad, message in [
        (orphan, valid, orphan, "sentence ending at line 3: position 1: orphan 'I-PER'"),
        (unknown, valid, unknown, "sentence ending at line 4: unknown entity type in 'B-FOO'"),
        (valid, unknown, unknown, "sentence ending at line 4: unknown entity type in 'B-FOO'"),
    ]:
        proc = run_cli("eval", "--task", "ner", "--gold", str(gold), "--pred", str(pred))
        assert proc.returncode == 2
        assert f"error: {bad}: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
    # --repair-bio reaches both reads
    for gold, pred in ((orphan, valid), (valid, orphan)):
        run_cli("eval", "--task", "ner", "--gold", str(gold), "--pred", str(pred),
                "--repair-bio", check=True)


def test_end_to_end_pipeline_subcommand(tmp_path):
    rng = random.Random(123)
    archive = tmp_path / "raw.jsonl"
    with open(archive, "w", encoding="utf-8") as fh:
        for i in range(40):
            text = (make_text(rng, RO_WORDS, 6).capitalize() + ". " +
                    make_text(rng, RO_WORDS, 5).capitalize() + ".")
            fh.write(json.dumps({"id": i, "text": text}, ensure_ascii=False) + "\n")
    corpus = tmp_path / "langid.tsv"
    with open(corpus, "w", encoding="utf-8") as fh:
        for i in range(100):
            words, code = (RO_WORDS, "ro") if i % 2 == 0 else (EN_WORDS, "en")
            fh.write(f"{code}\t{make_text(rng, words, 8)}\n")
    base_vocab = tmp_path / "base.txt"
    from tweetcorpus.vocab import STRUCTURAL_TOKENS
    base_vocab.write_text(
        "\n".join(list(STRUCTURAL_TOKENS) + sorted(set(RO_WORDS + EN_WORDS))) + "\n",
        encoding="utf-8")

    run_cli("langid-train", "--corpus", str(corpus),
            "--output-dir", str(tmp_path / "models"), check=True)
    proc = run_cli(
        "pipeline",
        "--input", str(archive),
        "--output-dir", str(tmp_path / "out"),
        "--base-vocab", str(base_vocab),
        "--model-a", str(tmp_path / "models" / "model-a.rlid"),
        "--model-b", str(tmp_path / "models" / "model-b.rlid"),
        "--seed", "3", "--dupe-factor", "2", "--max-seq-length", "32",
        check=True)
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counts["ingest"]["emitted"] == 40
    assert counts["clean"]["emitted"] > 0
    assert counts["pretrain-data"]["instances"] > 0
    assert (tmp_path / "out" / "manifest-pipeline.json").exists()
    assert (tmp_path / "out" / "pretrain" / "pretrain-00000.rbtw").exists()


def test_pipeline_keeps_a_created_at_before_the_year_1000(tmp_path):
    # a year below 1000 must come out zero-padded (strftime("%Y") does
    # not pad it on glibc), or the next stage cannot parse it back; an
    # offset that moves the instant past 9999 makes the line malformed
    rng = random.Random(9)
    stamps = ["0999-06-01T12:00:00Z", "9999-12-31T23:59:59-01:00", None, None]
    archive = tmp_path / "raw.jsonl"
    with open(archive, "w", encoding="utf-8") as fh:
        for i, stamp in enumerate(stamps):
            text = ". ".join(make_text(rng, RO_WORDS, 6).capitalize() for _ in range(2)) + "."
            fh.write(json.dumps({"id": i, "text": text, "created_at": stamp}) + "\n")
    base_vocab = tmp_path / "base.txt"
    base_vocab.write_text("\n".join(list(STRUCTURAL_TOKENS) + sorted(set(RO_WORDS))) + "\n",
                          encoding="utf-8")
    proc = run_cli("pipeline", "--input", str(archive), "--output-dir", str(tmp_path / "out"),
                   "--base-vocab", str(base_vocab), "--max-seq-length", "32")
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (counts["ingest"]["malformed"], counts["clean"]["emitted"]) == (1, 3)
    cleaned = (tmp_path / "out" / "clean" / "clean-00000.jsonl").read_text(encoding="utf-8")
    assert json.loads(cleaned.splitlines()[0])["created_at"] == "0999-06-01T12:00:00Z"


def test_a_tweet_of_unmapped_emoji_only_is_too_short_not_an_empty_document(tmp_path):
    # with max_emojis >= min_words a tweet can pass every filter on emoji
    # alone; translation drops each unmapped one and leaves no word
    archive = tmp_path / "raw.jsonl"
    archive.write_text(json.dumps({"id": 99, "text": "\U0001F9A9 " * 4 + "\U0001F9A9"}) + "\n",
                       encoding="utf-8")
    base_vocab = tmp_path / "base.txt"
    base_vocab.write_text("\n".join(STRUCTURAL_TOKENS) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    proc = run_cli("pipeline", "--input", str(archive), "--output-dir", str(out),
                   "--base-vocab", str(base_vocab), "--max-emojis", "5")
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counts["clean"]["read"] == counts["clean"]["rejected"]["too_short"] == 1
    assert counts["clean"]["emitted"] == counts["segment"]["documents"] == 0
    assert (out / "clean" / "clean-00000.jsonl").read_bytes() == b""


def test_filter_flags_override(tmp_path):
    archive = tmp_path / "raw.jsonl"
    archive.write_text(json.dumps({"id": 1, "text": "doar trei cuvinte"}) + "\n",
                       encoding="utf-8")
    out = str(tmp_path / "out")
    run_cli("ingest", "--input", str(archive), "--output-dir", out, check=True)
    # default min_words=5 rejects; --min-words 2 accepts
    proc = run_cli("clean", "--output-dir", out, check=True)
    assert json.loads(proc.stdout.splitlines()[-1])["emitted"] == 0
    proc = run_cli("clean", "--output-dir", out, "--min-words", "2", check=True)
    assert json.loads(proc.stdout.splitlines()[-1])["emitted"] == 1


def copy_layout(source, out, *directories):
    """``out``, holding a copy of the stage ``directories`` of the layout at ``source``."""
    for directory in directories:
        shutil.copytree(source / directory, out / directory)
    return out


def tree(root):
    """Every path under ``root``, relative: a file's bytes, or None for a directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """An archive with emoji, a layout holding its ingest shards, a base
    vocabulary, and trained language models: every stage below would run on them."""
    root = tmp_path_factory.mktemp("inputs")
    rng = random.Random(5)
    archive = root / "raw.jsonl"
    with open(archive, "w", encoding="utf-8") as fh:
        for i in range(12):
            text = make_text(rng, RO_WORDS, 7).capitalize() + ". \U0001F600"
            fh.write(json.dumps({"id": i, "text": text}, ensure_ascii=False) + "\n")
    corpus = root / "langid.tsv"
    with open(corpus, "w", encoding="utf-8") as fh:
        for i in range(60):
            words, code = (RO_WORDS, "ro") if i % 2 == 0 else (EN_WORDS, "en")
            fh.write(f"{code}\t{make_text(rng, words, 8)}\n")
    base_vocab = root / "base.txt"
    base_vocab.write_text("\n".join(list(STRUCTURAL_TOKENS) + sorted(set(RO_WORDS))) + "\n",
                          encoding="utf-8")
    stage_ingest(build_config(overrides={"io.input": str(archive), "io.output_dir": str(root)}))
    stage_langid_train(build_config(), corpus, root / "models")
    return {"archive": archive, "corpus": corpus, "base": base_vocab,
            "layout": root, "a": root / "models" / "model-a.rlid",
            "b": root / "models" / "model-b.rlid"}


# the arguments besides --output-dir that run each stage on ``valid_inputs``
_STAGE_ARGS = {
    "ingest": ("--input", "{archive}"),
    "vocab": ("--base-vocab", "{base}"),
    "langid-train": ("--corpus", "{corpus}"),
    "clean": ("--model-a", "{a}", "--model-b", "{b}"),
    "stats": ("--input", "{archive}"),
    "pipeline": ("--input", "{archive}", "--base-vocab", "{base}",
                 "--model-a", "{a}", "--model-b", "{b}"),
}


_OUT_OF_RANGE = {
    "vocab-emoji-fraction-1.5": ("vocab", ("--emoji-fraction", "1.5"), ""),
    "langid-train-alpha-0": ("langid-train", ("--alpha", "0"), ""),
    "langid-train-ngrams-b-4-2": ("langid-train", (),
                                  "langid.ngram_min_b = 4\nlangid.ngram_max_b = 2\n"),
    "clean-threshold-1": ("clean", ("--threshold", "1.0"), ""),
    "pipeline-threshold-1": ("pipeline", ("--threshold", "1.0"), ""),
    "pipeline-threshold-0": ("pipeline", ("--threshold", "0"), ""),
    "pipeline-emoji-fraction-0": ("pipeline", (), "vocab.emoji_fraction = 0\n"),
    "pipeline-emoji-fraction-1.5": ("pipeline", (), "vocab.emoji_fraction = 1.5\n"),
    "pipeline-alpha-negative": ("pipeline", (), "langid.alpha = -1\n"),
    "langid-train-alpha-inf": ("langid-train", ("--alpha", "inf"), ""),
    "pipeline-mask-frac-nan": ("pipeline", (), "pretrain.mask_token_frac = nan\n"),
    "pipeline-fractions-outside-0-1": ("pipeline", (), "pretrain.mask_token_frac = 1.2\n"
                                       "pretrain.keep_frac = -0.3\npretrain.random_frac = 0.1\n"),
    "pipeline-ngram-min-a-0": ("pipeline", (), "langid.ngram_min_a = 0\n"),
    "pipeline-ngram-max-b-6": ("pipeline", (), "langid.ngram_max_b = 6\n"),
}


@pytest.mark.parametrize("command, flags, config_text", _OUT_OF_RANGE.values(),
                         ids=_OUT_OF_RANGE.keys())
def test_out_of_range_config_fails_before_any_stage(tmp_path, valid_inputs, command,
                                                    flags, config_text):
    conf = tmp_path / "run.conf"
    conf.write_text(config_text, encoding="utf-8")
    out = copy_layout(valid_inputs["layout"], tmp_path / "out", "ingest")
    before = tree(out)
    args = [arg.format(**valid_inputs) for arg in _STAGE_ARGS[command]]
    proc = run_cli("--config", str(conf), command, *args, *flags, "--output-dir", str(out))
    assert proc.returncode == 1
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert tree(out) == before


@pytest.mark.parametrize("command", STAGES)
def test_an_unset_output_dir_is_a_config_error_for_every_stage(tmp_path, valid_inputs, command):
    args = [arg.format(**valid_inputs) for arg in _STAGE_ARGS.get(command, ())]
    proc = run_cli(command, *args, cwd=tmp_path)
    assert proc.returncode == 1
    assert f"config error: stage {command}: io.output_dir is not set" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []  # nothing written under the working directory


@pytest.mark.parametrize("models", [("--model-a", "{a}"), ("--model-b", "{b}")],
                         ids=["model-a-only", "model-b-only"])
def test_one_language_model_fails_before_any_stage(tmp_path, valid_inputs, models):
    out = tmp_path / "out"
    proc = run_cli("pipeline", "--input", str(valid_inputs["archive"]),
                   "--base-vocab", str(valid_inputs["base"]),
                   *(arg.format(**valid_inputs) for arg in models), "--output-dir", str(out))
    assert proc.returncode == 1
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("absent", ["--model-b", "--emoji-map"])
def test_missing_clean_input_is_a_failed_stage(tmp_path, valid_inputs, absent):
    models = {"--model-a": str(valid_inputs["a"]), "--model-b": str(valid_inputs["b"])}
    models[absent] = str(tmp_path / "absent")
    out = tmp_path / "out"
    proc = run_cli("pipeline", "--input", str(valid_inputs["archive"]),
                   "--base-vocab", str(valid_inputs["base"]),
                   *(arg for pair in models.items() for arg in pair), "--output-dir", str(out))
    assert proc.returncode == 3
    assert f"stage clean: missing input: {tmp_path / 'absent'}" in proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads((out / "manifest-pipeline.json").read_text(encoding="utf-8"))
    assert payload["counts"]["failed_stage"] == "clean"
    assert not (out / "clean").exists()



def test_an_unknown_target_language_exits_with_a_config_error(tmp_path, valid_inputs):
    out = copy_layout(valid_inputs["layout"], tmp_path / "out", "ingest")
    proc = run_cli("clean", "--output-dir", str(out),
                   "--model-a", str(valid_inputs["a"]), "--model-b", str(valid_inputs["b"]),
                   "--target", "de")
    assert proc.returncode == 1
    assert "config error" in proc.stderr and "'de'" in proc.stderr
    assert "Traceback" not in proc.stderr
    clean = out / "clean"
    assert not list(clean.glob("*.jsonl")) and not (clean / "manifest-clean.json").exists()


def test_a_clean_with_a_missing_emoji_map_keeps_the_previous_outputs(tmp_path, valid_inputs):
    out = copy_layout(valid_inputs["layout"], tmp_path / "out", "ingest")
    clean = out / "clean"
    models = ("--model-a", str(valid_inputs["a"]), "--model-b", str(valid_inputs["b"]))
    run_cli("clean", "--output-dir", str(out), *models, check=True)
    before = {p.name: p.read_bytes() for p in clean.iterdir()}
    assert "manifest-clean.json" in before and len(before) > 1
    absent = tmp_path / "absent.tsv"
    proc = run_cli("clean", "--output-dir", str(out), *models, "--emoji-map", str(absent))
    assert proc.returncode == 3
    assert f"stage clean: missing input: {absent}" in proc.stderr
    assert {p.name: p.read_bytes() for p in clean.iterdir()} == before
    # a directory is no emoji map either
    proc = run_cli("clean", "--output-dir", str(out), *models, "--emoji-map", str(tmp_path))
    assert proc.returncode == 3
    assert f"stage clean: input is a directory: {tmp_path}" in proc.stderr
    assert {p.name: p.read_bytes() for p in clean.iterdir()} == before


def test_missing_abbreviations_names_the_segment_stage(tmp_path, valid_inputs):
    out = copy_layout(valid_inputs["layout"], tmp_path / "out", "ingest")
    stage_clean(build_config(overrides={"io.output_dir": str(out),
                                        "langid.model_a": str(valid_inputs["a"]),
                                        "langid.model_b": str(valid_inputs["b"])}))
    absent = tmp_path / "absent.txt"
    proc = run_cli("segment", "--abbreviations", str(absent), "--output-dir", str(out))
    assert proc.returncode == 3
    assert f"stage segment: missing input: {absent}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_pipeline_checks_the_abbreviations_before_any_stage(tmp_path, valid_inputs):
    absent = tmp_path / "absent.txt"
    args = [arg.format(**valid_inputs) for arg in _STAGE_ARGS["pipeline"]]
    proc = run_cli("pipeline", *args, "--abbreviations", str(absent),
                   "--output-dir", str(tmp_path / "out"))
    assert proc.returncode == 3
    assert f"stage segment: missing input: {absent}" in proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads((tmp_path / "out" / "manifest-pipeline.json").read_text())
    assert payload["counts"]["failed_stage"] == "segment"
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest-pipeline.json"]


def test_pipeline_without_base_vocab_fails_before_ingest(tmp_path, valid_inputs):
    out = tmp_path / "nb"
    proc = run_cli("pipeline", "--input", str(valid_inputs["archive"]),
                   "--output-dir", str(out))
    assert proc.returncode == 1
    assert proc.stderr.count("vocab.base is not set") == 1
    assert "config error: stage vocab: vocab.base is not set" in proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads((out / "manifest-pipeline.json").read_text(encoding="utf-8"))
    assert payload["counts"]["failed_stage"] == "vocab"
    assert not (out / "ingest").exists()


# Line 3 holds a byte that is not UTF-8; "\r\n" and a lone "\r" end lines 1 and 2.
_NOT_UTF8 = b"first\r\nsecond\rth\xffird\n"


# the stage directories of a layout that pretrain-data would run on
FINISHED = ("ingest", "vocab", "clean", "segment")


@pytest.fixture(scope="module")
def finished_stages(tmp_path_factory, valid_inputs):
    """A layout of ``FINISHED`` stages run over ``valid_inputs``, beside bad outside files."""
    root = copy_layout(valid_inputs["layout"], tmp_path_factory.mktemp("finished"), "ingest")
    layout = {"io.output_dir": str(root)}
    models = {"langid.model_a": str(valid_inputs["a"]), "langid.model_b": str(valid_inputs["b"])}
    stage_vocab(build_config(overrides={**layout, "vocab.base": str(valid_inputs["base"])}))
    stage_clean(build_config(overrides={**layout, **models}))
    stage_segment(build_config(overrides=layout))
    (root / "not-utf8.txt").write_bytes(_NOT_UTF8)
    model = valid_inputs["a"].read_bytes()  # its first language code starts at offset 20
    (root / "not-utf8.rlid").write_bytes(model[:20] + b"\xff" + model[21:])
    (root / "no-cls.txt").write_text("[PAD]\n[UNK]\n[SEP]\n[MASK]\nsalut\n", encoding="utf-8")
    return root


# stage, its arguments, the bad outside input, exit code, message
_BAD_OUTSIDE = {
    "clean-target-de": ("clean", ("--model-a", "{a}", "--model-b", "{b}"), ("--target", "de"),
                        1, "langid.target 'de' is not a language of both models"),
    "clean-emoji-map-not-utf8": ("clean", ("--model-a", "{a}", "--model-b", "{b}"),
                                 ("--emoji-map", "{root}/not-utf8.txt"), 2,
                                 "{root}/not-utf8.txt:3: not UTF-8 (byte 0xff)"),
    "clean-model-a-not-utf8": ("clean", ("--model-a", "{a}", "--model-b", "{b}"),
                               ("--model-a", "{root}/not-utf8.rlid"), 2,
                               "{root}/not-utf8.rlid: byte 0xff at offset 20 is not UTF-8"),
    "segment-abbreviations-not-utf8": ("segment", (),
                                       ("--abbreviations", "{root}/not-utf8.txt"), 2,
                                       "{root}/not-utf8.txt:3: not UTF-8 (byte 0xff)"),
    "vocab-base-without-cls": ("vocab", (), ("--base-vocab", "{root}/no-cls.txt"), 2,
                               "vocabulary is missing [CLS]"),
}


@pytest.mark.parametrize("stage, args, bad, code, message", _BAD_OUTSIDE.values(),
                         ids=_BAD_OUTSIDE.keys())
def test_a_bad_outside_input_keeps_the_previous_outputs(tmp_path, valid_inputs, finished_stages,
                                                        stage, args, bad, code, message):
    names = {**valid_inputs, "root": finished_stages}
    out = copy_layout(finished_stages, tmp_path / "out", *FINISHED)
    before = tree(out)
    assert f"{stage}/manifest-{stage}.json" in before
    proc = run_cli(stage, *(arg.format(**names) for arg in (*args, *bad)),
                   "--output-dir", str(out))
    assert proc.returncode == code
    assert f"stage {stage}: {message.format(**names)}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert tree(out) == before


@pytest.fixture
def unix_socket():
    """The path of a bound UNIX socket, which open() refuses with errno 6
    (ENXIO). ``sun_path`` holds only 108 bytes, so it lives in a short
    temporary directory, not under ``tmp_path``."""
    with tempfile.TemporaryDirectory() as short, socket.socket(socket.AF_UNIX) as sock:
        sock.bind(os.path.join(short, "s"))
        yield os.path.join(short, "s")


@pytest.mark.parametrize("bad, code, message", [
    (("--target", "de"), 1, "langid.target 'de' is not a language of both models"),
    (("--emoji-map", "{root}/not-utf8.txt"), 2, "{root}/not-utf8.txt:3: not UTF-8 (byte 0xff)"),
    (("--emoji-map", "{socket}"), 3, "[Errno 6] No such device or address: '{socket}'"),
], ids=["target-de", "emoji-map-not-utf8", "emoji-map-socket"])
def test_pipeline_reads_the_clean_inputs_before_ingest(tmp_path, valid_inputs, finished_stages,
                                                       unix_socket, bad, code, message):
    names = {**valid_inputs, "root": finished_stages, "socket": unix_socket}
    out = tmp_path / "out"
    args = [arg.format(**names) for arg in (*_STAGE_ARGS["pipeline"], *bad)]
    proc = run_cli("pipeline", *args, "--output-dir", str(out))
    assert proc.returncode == code
    assert f"stage clean: {message.format(**names)}" in proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads((out / "manifest-pipeline.json").read_text(encoding="utf-8"))
    assert payload["counts"]["failed_stage"] == "clean"
    assert [p.name for p in out.iterdir()] == ["manifest-pipeline.json"]


def test_an_os_error_inside_a_pipeline_stage_is_a_failed_stage(tmp_path, valid_inputs):
    out = tmp_path / "out"
    out.mkdir()
    (out / "clean").write_text("a file where the clean directory goes\n", encoding="utf-8")
    args = [arg.format(**valid_inputs) for arg in _STAGE_ARGS["pipeline"]]
    proc = run_cli("pipeline", *args, "--output-dir", str(out))
    assert proc.returncode == 3
    assert f"error: stage clean: [Errno 17] File exists: '{out / 'clean'}'" in proc.stderr
    assert "i/o error" not in proc.stderr and "Traceback" not in proc.stderr
    payload = json.loads((out / "manifest-pipeline.json").read_text(encoding="utf-8"))
    assert payload["counts"]["failed_stage"] == "clean"
    assert "vocab" in payload["counts"] and "clean" not in payload["counts"]


# Each outside text file, given as ``{bad}``: exit code, and the text
# the error carries before ``path:line``.
_TEXT_FILES = {
    "config": (("--config", "{bad}", "stats", "--input", "{archive}", "--output-dir", "{out}"),
               1, "config error: "),
    "langid-corpus": (("langid-train", "--corpus", "{bad}", "--output-dir", "{out}"), 2,
                      "error: stage langid-train: "),
    "emoji-map": (("clean", "--emoji-map", "{bad}", "--output-dir", "{out}"), 2,
                  "error: stage clean: "),
    "abbreviations": (("segment", "--abbreviations", "{bad}", "--output-dir", "{out}"), 2,
                      "error: stage segment: "),
    "base-vocab": (("vocab", "--base-vocab", "{bad}", "--output-dir", "{out}"), 2,
                   "error: stage vocab: "),
    # {bad} is the layout's vocab/vocab.txt, which pretrain-data reads
    "pretrain-vocab": (("pretrain-data", "--output-dir", "{out}"), 2,
                       "error: stage pretrain-data: "),
    "eval-gold": (("eval", "--task", "coroseof", "--averaging", "micro", "--gold", "{bad}",
                   "--pred", "{bad}"), 2, "error: "),
    "eval-ner-gold": (("eval", "--task", "ner", "--gold", "{bad}", "--pred", "{bad}"), 2,
                      "error: "),
    "task-prep-input": (("task-prep", "--task", "red_v2", "--input", "{bad}", "--output",
                         "{out}/prep.jsonl"), 2, "error: "),
}


@pytest.mark.parametrize("argv, code, prefix", _TEXT_FILES.values(), ids=_TEXT_FILES.keys())
def test_a_non_utf8_text_file_is_an_error_naming_its_line(tmp_path, valid_inputs,
                                                          finished_stages, argv, code, prefix):
    out = copy_layout(finished_stages, tmp_path, *FINISHED)
    bad = out / "vocab" / "vocab.txt"
    bad.write_bytes(_NOT_UTF8)
    names = {**valid_inputs, "bad": bad, "out": out}
    proc = run_cli(*(arg.format(**names) for arg in argv))
    assert proc.returncode == code
    assert f"{prefix}{bad}:3: not UTF-8 (byte 0xff)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_pretrain_data_names_a_corpus_file_that_is_not_utf8(tmp_path, finished_stages):
    out = copy_layout(finished_stages, tmp_path / "out", "vocab", "segment")
    corpus = out / "segment" / "corpus-00000.txt"
    corpus.write_bytes(_NOT_UTF8)
    proc = run_cli("pretrain-data", "--output-dir", str(out))
    assert proc.returncode == 2
    assert f"error: stage pretrain-data: {corpus}:3: not UTF-8 (byte 0xff)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_every_config_flag_names_its_key_in_help():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {spec.flag: spec for spec in CONFIG_KEYS.values() if spec.flag}
    seen = set()
    for command, sub in (("", parser), *subparsers.choices.items()):
        for action in sub._actions:
            spec = flags.get(action.option_strings[0] if action.option_strings else None)
            if spec is None:
                continue
            # a key's flag where the key is read; elsewhere (task-prep's --input) another option
            named = f"[{spec.key}, default " in (action.help or "")
            assert named == (command in spec.commands), (command, spec.flag)
            if named:
                seen.add(spec.flag)
    assert seen == set(flags)  # every flagged key is reachable from some subcommand


def test_stage_subcommands_write_what_the_pipeline_writes(tmp_path, valid_inputs):
    out = tmp_path / "out"
    conf = tmp_path / "run.conf"
    conf.write_text(f"""\
io.input = {valid_inputs["archive"]}
io.output_dir = {out}
io.shards = 2
seed = 7
langid.model_a = {valid_inputs["a"]}
langid.model_b = {valid_inputs["b"]}
vocab.base = {valid_inputs["base"]}
vocab.emoji_fraction = 0.5
pretrain.dupe_factor = 2
pretrain.max_seq_length = 32
""", encoding="utf-8")
    run_cli("--config", str(conf), "pipeline", check=True)
    piped = tree(out)
    manifest = json.loads(piped.pop("manifest-pipeline.json"))
    assert manifest["config"]["vocab.emoji_fraction"] == 0.5
    shutil.rmtree(out)
    for command in PIPELINE:
        run_cli("--config", str(conf), command, check=True)
    assert tree(out) == piped
    run_cli("--config", str(conf), "pretrain-data", "--debug-jsonl", check=True)
    assert (out / "pretrain" / "pretrain-00000.jsonl").exists()
