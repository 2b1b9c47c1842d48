import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import threading

import pytest

from tweetcorpus.cli import build_parser
from tweetcorpus.pipeline import (
    CONFIG_KEYS,
    build_config,
    stage_clean,
    stage_ingest,
    stage_langid_train,
)
from tweetcorpus.vocab import STRUCTURAL_TOKENS

from conftest import EN_WORDS, RO_WORDS, make_text


def run_cli(*argv, check=False, timeout=None):
    proc = subprocess.run([sys.executable, "-m", "tweetcorpus.cli", *argv],
                          capture_output=True, text=True, timeout=timeout)
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


def test_ingest_reads_a_fifo_once_and_records_the_digest_of_what_it_read(tmp_path):
    fifo = tmp_path / "archive.jsonl"
    os.mkfifo(fifo)
    data = '{"id":1,"text":"Azi plouă la munte"}\n\n{"id":2,"text":"Mâine e soare"}'.encode()

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        # a second open of the FIFO would block forever; the timeout kills it
        proc = run_cli("ingest", "--input", str(fifo), "--output-dir", str(tmp_path / "out"),
                       timeout=60)
    finally:
        if writer.is_alive():  # the CLI never opened the FIFO: let the writer go
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "out" / "manifest-ingest.json").read_text())
    assert manifest["inputs"] == {str(fifo): hashlib.sha256(data).hexdigest()}
    assert manifest["counts"]["emitted"] == 2


def test_usage_error_exits_1():
    proc = run_cli("--no-such-flag")
    assert proc.returncode == 1
    proc = run_cli()  # missing subcommand
    assert proc.returncode == 1


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
    shard = (tmp_path / "ing" / "tweets-00000.jsonl").read_text(encoding="utf-8")
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


def test_filter_flags_override(tmp_path):
    archive = tmp_path / "raw.jsonl"
    archive.write_text(json.dumps({"id": 1, "text": "doar trei cuvinte"}) + "\n",
                       encoding="utf-8")
    run_cli("ingest", "--input", str(archive),
            "--output-dir", str(tmp_path / "ing"), check=True)
    # default min_words=5 rejects; --min-words 2 accepts
    proc = run_cli("clean", "--input-dir", str(tmp_path / "ing"),
                   "--output-dir", str(tmp_path / "cl1"), check=True)
    assert json.loads(proc.stdout.splitlines()[-1])["emitted"] == 0
    proc = run_cli("clean", "--input-dir", str(tmp_path / "ing"),
                   "--output-dir", str(tmp_path / "cl2"), "--min-words", "2",
                   check=True)
    assert json.loads(proc.stdout.splitlines()[-1])["emitted"] == 1


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """An archive with emoji, its ingest shards, a base vocabulary, and
    trained language models: every stage below would run on them."""
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
    stage_ingest(build_config(overrides={"io.input": str(archive)}), root / "ingest")
    stage_langid_train(build_config(), corpus, root / "models")
    return {"archive": archive, "corpus": corpus, "base": base_vocab,
            "ingest": root / "ingest", "a": root / "models" / "model-a.rlid",
            "b": root / "models" / "model-b.rlid"}


_STAGE_ARGS = {
    "vocab": ("--input-dir", "{ingest}", "--base-vocab", "{base}"),
    "langid-train": ("--corpus", "{corpus}"),
    "clean": ("--input-dir", "{ingest}", "--model-a", "{a}", "--model-b", "{b}"),
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
    "pipeline-ngram-min-a-0": ("pipeline", (), "langid.ngram_min_a = 0\n"),
    "pipeline-ngram-max-b-6": ("pipeline", (), "langid.ngram_max_b = 6\n"),
}


@pytest.mark.parametrize("command, flags, config_text", _OUT_OF_RANGE.values(),
                         ids=_OUT_OF_RANGE.keys())
def test_out_of_range_config_fails_before_any_stage(tmp_path, valid_inputs, command,
                                                    flags, config_text):
    conf = tmp_path / "run.conf"
    conf.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out"
    args = [arg.format(**valid_inputs) for arg in _STAGE_ARGS[command]]
    proc = run_cli("--config", str(conf), command, *args, *flags, "--output-dir", str(out))
    assert proc.returncode == 1
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


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



def test_a_clean_with_a_missing_emoji_map_keeps_the_previous_outputs(tmp_path, valid_inputs):
    out = tmp_path / "clean"
    models = ("--model-a", str(valid_inputs["a"]), "--model-b", str(valid_inputs["b"]))
    run_cli("clean", "--input-dir", str(valid_inputs["ingest"]), "--output-dir", str(out),
            *models, check=True)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "manifest-clean.json" in before and len(before) > 1
    absent = tmp_path / "absent.tsv"
    proc = run_cli("clean", "--input-dir", str(valid_inputs["ingest"]), "--output-dir", str(out),
                   *models, "--emoji-map", str(absent))
    assert proc.returncode == 3
    assert f"stage clean: missing input: {absent}" in proc.stderr
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # a directory is no emoji map either
    proc = run_cli("clean", "--input-dir", str(valid_inputs["ingest"]), "--output-dir", str(out),
                   *models, "--emoji-map", str(tmp_path))
    assert proc.returncode == 3
    assert f"stage clean: input is a directory: {tmp_path}" in proc.stderr
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_missing_abbreviations_names_the_segment_stage(tmp_path, valid_inputs):
    cfg = build_config(overrides={"langid.model_a": str(valid_inputs["a"]),
                                  "langid.model_b": str(valid_inputs["b"])})
    stage_clean(cfg, valid_inputs["ingest"], tmp_path / "clean")
    absent = tmp_path / "absent.txt"
    proc = run_cli("segment", "--input-dir", str(tmp_path / "clean"),
                   "--abbreviations", str(absent), "--output-dir", str(tmp_path / "segment"))
    assert proc.returncode == 3
    assert f"stage segment: missing input: {absent}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_pipeline_checks_the_abbreviations_before_any_stage(tmp_path, valid_inputs):
    absent = tmp_path / "absent.txt"
    conf = tmp_path / "run.conf"
    conf.write_text(f"segment.abbreviations = {absent}\n", encoding="utf-8")
    out = tmp_path / "out"
    args = [arg.format(**valid_inputs) for arg in _STAGE_ARGS["pipeline"]]
    proc = run_cli("--config", str(conf), "pipeline", *args, "--output-dir", str(out))
    assert proc.returncode == 3
    assert f"stage segment: missing input: {absent}" in proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads((out / "manifest-pipeline.json").read_text(encoding="utf-8"))
    assert payload["counts"]["failed_stage"] == "segment"
    assert [p.name for p in out.iterdir()] == ["manifest-pipeline.json"]


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

def test_every_config_flag_names_its_key_in_help():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {spec.flag: spec.key for spec in CONFIG_KEYS.values() if spec.flag}
    seen = set()
    for sub in (parser, *subparsers.choices.values()):
        for action in sub._actions:
            flag = action.option_strings[0] if action.option_strings else None
            if flag in flags and sub.prog.split()[-1] not in ("task-prep", "eval"):
                assert f"[{flags[flag]}, default " in action.help, (sub.prog, flag)
                seen.add(flag)
    assert seen == set(flags)  # every flagged key is reachable from some subcommand


def test_stage_subcommands_write_what_the_pipeline_writes(tmp_path, valid_inputs):
    models = ("--model-a", str(valid_inputs["a"]), "--model-b", str(valid_inputs["b"]))
    common = ("--seed", "7", "--dupe-factor", "2", "--max-seq-length", "32")
    run_cli("pipeline", "--input", str(valid_inputs["archive"]), "--output-dir",
            str(tmp_path / "p"), "--base-vocab", str(valid_inputs["base"]), *models, *common,
            check=True)
    # the same stages one subcommand at a time, each into a directory of its own
    s = tmp_path / "s"
    run_cli("ingest", "--input", str(valid_inputs["archive"]), "--output-dir", str(s / "i"),
            check=True)
    run_cli("vocab", "--input-dir", str(s / "i"), "--output-dir", str(s / "v"),
            "--base-vocab", str(valid_inputs["base"]), check=True)
    run_cli("clean", "--input-dir", str(s / "i"), "--output-dir", str(s / "c"), *models,
            check=True)
    run_cli("segment", "--input-dir", str(s / "c"), "--output-dir", str(s / "g"), check=True)
    run_cli("pretrain-data", "--input-dir", str(s / "g"), "--output-dir", str(s / "r"),
            "--vocab", str(s / "v" / "vocab.txt"), "--debug-jsonl", *common, check=True)
    for piped, staged in (("ingest/tweets-00000.jsonl", "i/tweets-00000.jsonl"),
                          ("vocab/vocab.txt", "v/vocab.txt"),
                          ("clean/clean-00000.jsonl", "c/clean-00000.jsonl"),
                          ("segment/corpus-00000.txt", "g/corpus-00000.txt"),
                          ("pretrain/pretrain-00000.rbtw", "r/pretrain-00000.rbtw")):
        assert (tmp_path / "p" / piped).read_bytes() == (s / staged).read_bytes(), piped
    assert (s / "r" / "pretrain-00000.jsonl").exists()
