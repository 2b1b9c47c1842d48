import dataclasses
import json
import os
import random
from collections import Counter
from pathlib import Path

import pytest

from tweetcorpus import parallel, pipeline
from tweetcorpus.errors import (ConfigInvalid, DataError, InputMissing, TooFewDocuments,
                                TweetCorpusError)
from tweetcorpus.filtering import apply_filters
from tweetcorpus.ingest import parse_record, serialize_record
from tweetcorpus.langid import LangModel, agreement_filter
from tweetcorpus.normalize import (count_entities, default_emoji_map, normalize_entities,
                                   translate_emojis, unescape_basic_entities)
from tweetcorpus.pipeline import (
    PIPELINE,
    STAGES,
    _require_inputs,
    build_config,
    file_digest,
    parse_config_file,
    run_pipeline,
    stage_clean,
    stage_ingest,
    stage_langid_train,
    stage_pretrain_data,
    stage_segment,
    stage_stats,
    stage_vocab,
)
from tweetcorpus.vocab import STRUCTURAL_TOKENS

from conftest import EN_WORDS, HOSTILE_LINES, RO_WORDS, make_text


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# comment\n"
        "filter.min_words = 5\n"
        "pretrain.dupe_factor=2\n"
        "langid.target = ro\n",
        encoding="utf-8")
    values = parse_config_file(path)
    assert values["filter.min_words"] == "5"
    assert values["pretrain.dupe_factor"] == "2"


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("filter.min_wordz = 5\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        parse_config_file(path)


def test_defaults_are_paper_faithful():
    cfg = build_config()
    assert cfg.filters.min_words == 5
    assert cfg.filters.max_words == 256
    assert (cfg.filters.max_mentions == cfg.filters.max_hashtags
            == cfg.filters.max_urls == cfg.filters.max_emojis == 3)
    assert cfg.pretrain.masked_lm_prob == 0.15
    assert cfg.pretrain.mask_token_frac == 0.8
    assert cfg.pretrain.keep_frac == 0.1
    assert cfg.pretrain.random_frac == 0.1
    assert cfg.pretrain.dupe_factor == 10
    assert cfg.pretrain.nsp_random_prob == 0.5
    assert cfg.emoji_fraction == 0.25
    assert cfg.langid_threshold == 0.5


def test_flag_beats_file_beats_default(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("filter.min_words = 7\nfilter.max_words = 100\n", encoding="utf-8")
    file_values = parse_config_file(path)
    cfg = build_config(file_values, {"filter.min_words": 9})
    assert cfg.filters.min_words == 9      # flag wins
    assert cfg.filters.max_words == 100    # file wins
    assert cfg.filters.max_urls == 3       # default


def test_build_config_parses_strings_and_keeps_numbers():
    cfg = build_config({"io.shards": "2", "langid.threshold": "7e-1"},
                       {"vocab.emoji_fraction": 1, "pretrain.dupe_factor": 3})
    flat = cfg.flat()
    assert (flat["io.shards"], flat["langid.threshold"]) == (2, 0.7)
    # a number given as a number is recorded as given, so a manifest's
    # config snapshot shows what the caller passed
    assert repr(flat["vocab.emoji_fraction"]) == "1"
    assert flat["pretrain.dupe_factor"] == cfg.pretrain.dupe_factor == 3


def test_build_config_validates():
    with pytest.raises(ConfigInvalid):
        build_config(overrides={"io.workers": 0})
    with pytest.raises(ConfigInvalid):
        build_config(overrides={"filter.min_words": 0})
    with pytest.raises(ConfigInvalid):
        build_config(overrides={"pretrain.dupe_factor": "abc"})


def _write_archive(path, texts, start_id=1):
    with open(path, "w", encoding="utf-8") as fh:
        for i, text in enumerate(texts, start_id):
            fh.write(json.dumps({"id": i, "text": text}, ensure_ascii=False) + "\n")


def _write_langid_corpus(path, rng, n=120):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            if i % 2 == 0:
                fh.write("ro\t" + make_text(rng, RO_WORDS, 8) + "\n")
            else:
                fh.write("en\t" + make_text(rng, EN_WORDS, 8) + "\n")


def _write_base_vocab(path, extra=200):
    tokens = list(STRUCTURAL_TOKENS) + sorted(set(RO_WORDS + EN_WORDS))
    tokens += [f"tok{i:04}" for i in range(extra)]
    path.write_text("\n".join(tokens) + "\n", encoding="utf-8")


@pytest.fixture
def workspace(tmp_path):
    rng = random.Random(77)
    archive = tmp_path / "raw.jsonl"
    texts = []
    for i in range(60):
        sentences = [make_text(rng, RO_WORDS, rng.randint(5, 8)).capitalize() + "."
                     for _ in range(rng.randint(1, 3))]
        text = " ".join(sentences)
        if i % 7 == 0:
            text += " \U0001F600"
        texts.append(text)
    _write_archive(archive, texts)

    corpus = tmp_path / "langid.tsv"
    _write_langid_corpus(corpus, rng)
    base_vocab = tmp_path / "base-vocab.txt"
    _write_base_vocab(base_vocab)

    out = tmp_path / "out"
    cfg = build_config(overrides={
        "io.input": str(archive),
        "io.output_dir": str(out),
        "io.shards": 2,
        "seed": 5,
        "vocab.base": str(base_vocab),
        "pretrain.max_seq_length": 48,
        "pretrain.dupe_factor": 2,
    })
    models = stage_langid_train(cfg, corpus, tmp_path / "models")
    cfg.langid_model_a = str(tmp_path / "models" / "model-a.rlid")
    cfg.langid_model_b = str(tmp_path / "models" / "model-b.rlid")
    return cfg, tmp_path


def test_ingest_stage_counts_and_shards(workspace, tmp_path):
    cfg, root = workspace
    manifest = stage_ingest(cfg)
    assert manifest.counts["read"] == 60
    assert manifest.counts["emitted"] == manifest.counts["read"] - \
        manifest.counts["malformed"] - manifest.counts["duplicates_id"] - \
        manifest.counts["duplicates_text"]
    assert len(manifest.outputs) == 2
    assert (root / "out" / "ingest" / "manifest-ingest.json").exists()


def test_clean_stage_hand_fixture(tmp_path):
    """Four tweets with known verdicts: one foreign, one spam, one good,
    and one foreign spam, which the filters reject before the gate."""
    rng = random.Random(3)
    archive = tmp_path / "raw.jsonl"
    good = make_text(rng, RO_WORDS, 8)
    foreign = make_text(rng, EN_WORDS, 8)
    spam = "@a @b @c @d " + make_text(rng, RO_WORDS, 6)
    foreign_spam = "@a @b @c @d " + make_text(rng, EN_WORDS, 6)
    _write_archive(archive, [good, foreign, spam, foreign_spam])

    corpus = tmp_path / "langid.tsv"
    _write_langid_corpus(corpus, rng)
    out = tmp_path / "out"
    cfg = build_config(overrides={
        "io.input": str(archive), "io.output_dir": str(out), "seed": 1})
    stage_langid_train(cfg, corpus, tmp_path / "models")
    cfg.langid_model_a = str(tmp_path / "models" / "model-a.rlid")
    cfg.langid_model_b = str(tmp_path / "models" / "model-b.rlid")

    stage_ingest(cfg)
    manifest = stage_clean(cfg)
    assert manifest.counts["read"] == 4
    assert manifest.counts["emitted"] == 1
    assert manifest.counts["rejected"]["not_target_language"] == 1
    assert manifest.counts["rejected"]["too_many_mentions"] == 2


def test_clean_stage_releases_its_context(workspace, monkeypatch):
    """A one-worker clean keeps no reference to the loaded models."""
    import weakref

    loaded = []
    real_load = LangModel.load

    def load(cls, path):
        model = real_load(path)
        loaded.append(weakref.ref(model))
        return model

    monkeypatch.setattr(LangModel, "load", classmethod(load))
    cfg, _ = workspace
    stage_ingest(cfg)
    assert stage_clean(cfg).counts["emitted"] > 0
    assert len(loaded) == 2
    assert [ref() for ref in loaded] == [None, None]


def test_clean_conservation_identity(workspace):
    cfg, _ = workspace
    stage_ingest(cfg)
    manifest = stage_clean(cfg)
    total = manifest.counts["emitted"] + sum(manifest.counts["rejected"].values())
    assert manifest.counts["read"] == total


def _four_kinds_workspace(tmp_path):
    """An archive of good, foreign, spam, foreign-and-spam and digit-only
    (nothing the gate can classify) tweets, and two trained models."""
    rng = random.Random(11)
    spam_forms = (
        lambda words: "@a @b @c @d " + make_text(rng, words, 6),
        lambda words: make_text(rng, words, 6) + " #x #y #z #w",
        lambda words: make_text(rng, words, 6) + " http://a.ro http://b.ro "
                                                 "http://c.ro http://d.ro",
        lambda words: make_text(rng, words, 6) + " \U0001F600 \U0001F602 \U0001F525 ❤",
        lambda words: make_text(rng, words, 3),
        lambda words: make_text(rng, words, 300),
    )
    texts = []
    for i in range(90):
        kind = i % 5
        if kind == 0:
            texts.append(make_text(rng, RO_WORDS, rng.randint(6, 12)))
        elif kind == 1:
            texts.append(make_text(rng, EN_WORDS, rng.randint(6, 12)))
        elif kind == 2:
            texts.append(spam_forms[i // 5 % len(spam_forms)](RO_WORDS))
        elif kind == 3:
            texts.append(spam_forms[i // 5 % len(spam_forms)](EN_WORDS))
        else:  # 3 digit words fail min_words; 6 pass it, and the gate raises
            texts.append(" ".join(str(i * 7 + k) for k in range(3 if i % 2 else 6)))
    archive = tmp_path / "raw.jsonl"
    _write_archive(archive, texts)
    corpus = tmp_path / "langid.tsv"
    _write_langid_corpus(corpus, rng)
    cfg = build_config(overrides={"io.input": str(archive),
                                  "io.output_dir": str(tmp_path / "out"), "seed": 1})
    stage_langid_train(cfg, corpus, tmp_path / "models")
    cfg.langid_model_a = str(tmp_path / "models" / "model-a.rlid")
    cfg.langid_model_b = str(tmp_path / "models" / "model-b.rlid")
    stage_ingest(cfg)
    return cfg


def _language_first_clean(cfg, shard_file):
    """The clean stage composed from the public functions with the gate
    first: (shard text, reject tallies, reject reasons of the tweets that
    fail both the gate and a filter)."""
    model_a = LangModel.load(cfg.langid_model_a)
    model_b = LangModel.load(cfg.langid_model_b)
    lines, tallies, both = [], Counter(), Counter()
    for line in shard_file.read_bytes().splitlines():
        tweet = parse_record(line)
        text = unescape_basic_entities(tweet.text)
        try:
            language_ok = agreement_filter(text, model_a, model_b, cfg.langid_target,
                                           cfg.langid_threshold)
        except TweetCorpusError:
            language_ok = False
        normalized = normalize_entities(text)
        verdict = apply_filters(normalized, count_entities(text), cfg.filters)
        if not language_ok:
            tallies["not_target_language"] += 1
            if not verdict.accepted:
                both[verdict.reason.value] += 1
        elif not verdict.accepted:
            tallies[verdict.reason.value] += 1
        else:
            cleaned = translate_emojis(normalized, default_emoji_map())
            lines.append(serialize_record(dataclasses.replace(tweet, text=cleaned)) + "\n")
    return "".join(lines), tallies, both


@pytest.mark.parametrize("workers", [1, 2])
def test_clean_matches_a_language_first_oracle(tmp_path, monkeypatch, workers):
    """Running the gate last emits the same tweets as running it first;
    only a tweet that fails both is counted under its filter's reason."""
    cfg = _four_kinds_workspace(tmp_path)
    cfg.workers = workers
    monkeypatch.setattr(pipeline, "CLEAN_BATCH", 8)  # 2 workers start a pool
    pooled = []
    real_pool = parallel.multiprocessing.Pool

    def spy_pool(*args, **kwargs):
        pooled.append(kwargs["initargs"][0].__name__)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(parallel.multiprocessing, "Pool", spy_pool)
    manifest = stage_clean(cfg)
    assert pooled == (["_clean_batch"] if workers > 1 else [])

    shard = tmp_path / "out" / "ingest" / "tweets-00000.jsonl"
    oracle, old_tallies, both = _language_first_clean(cfg, shard)
    clean_shard = tmp_path / "out" / "clean" / "clean-00000.jsonl"
    assert clean_shard.read_text(encoding="utf-8") == oracle
    # each filter reason has tweets that fail the gate as well
    assert set(both) == {"too_short", "too_long", "too_many_mentions",
                         "too_many_hashtags", "too_many_urls", "too_many_emojis"}
    expected = {reason: old_tallies[reason] + both[reason]
                for reason in manifest.counts["rejected"]}
    expected["not_target_language"] = old_tallies["not_target_language"] - sum(both.values())
    assert manifest.counts["rejected"] == expected
    assert manifest.counts["emitted"] == oracle.count("\n") > 0


def test_clean_never_scores_a_filter_rejected_tweet(tmp_path, monkeypatch):
    cfg = _four_kinds_workspace(tmp_path)
    scored = []
    real_filter = pipeline.agreement_filter

    def spy(text, *args):
        scored.append(text)
        return real_filter(text, *args)

    monkeypatch.setattr(pipeline, "agreement_filter", spy)
    manifest = stage_clean(cfg)
    rejected = manifest.counts["rejected"]
    filtered = sum(rejected.values()) - rejected["not_target_language"]
    assert filtered > 0
    assert len(scored) == manifest.counts["read"] - filtered
    for text in scored:
        assert apply_filters(normalize_entities(text), count_entities(text),
                             cfg.filters).accepted


def test_full_pipeline_and_rerun_determinism(workspace, tmp_path):
    cfg, root = workspace
    manifest1 = run_pipeline(cfg)
    assert manifest1.counts["pretrain-data"]["instances"] > 0
    # emoji made it into the vocabulary
    vocab_text = (root / "out" / "vocab" / "vocab.txt").read_text(encoding="utf-8")
    assert "USER" in vocab_text.splitlines()

    cfg2 = build_config(overrides={**{k: v for k, v in cfg.flat().items()},
                                   "io.output_dir": str(root / "out2")})
    manifest2 = run_pipeline(cfg2)
    assert manifest1.outputs == manifest2.outputs
    assert manifest1.counts == manifest2.counts


def test_every_manifest_is_moved_into_place(workspace, monkeypatch):
    cfg, root = workspace
    targets = []
    real_replace = os.replace

    def replace(src, dst):
        targets.append(Path(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    run_pipeline(cfg)
    out = root / "out"
    assert out / "manifest-pipeline.json" in targets
    manifests = sorted(out.glob("**/manifest-*.json"))
    assert len(manifests) == 6
    assert set(manifests) <= set(targets)
    assert not list(out.glob("**/.*.partial"))


def test_pipeline_workers_do_not_change_digests(workspace, tmp_path):
    cfg, root = workspace
    manifest1 = run_pipeline(cfg)
    flat = cfg.flat()
    flat.update({"io.output_dir": str(root / "out-w4"), "io.workers": 4})
    manifest2 = run_pipeline(build_config(overrides=flat))
    assert manifest1.outputs == manifest2.outputs


def test_pipeline_all_spam_is_success_with_warning(tmp_path, capsys):
    rng = random.Random(9)
    archive = tmp_path / "raw.jsonl"
    _write_archive(archive, ["@a @b @c @d spam aici " + str(i) + " x y z"
                             for i in range(10)])
    base_vocab = tmp_path / "base.txt"
    _write_base_vocab(base_vocab)
    cfg = build_config(overrides={
        "io.input": str(archive),
        "io.output_dir": str(tmp_path / "out"),
        "vocab.base": str(base_vocab),
    })
    manifest = run_pipeline(cfg)
    assert manifest.counts["clean"]["emitted"] == 0
    assert manifest.counts["pretrain-data"]["instances"] == 0
    assert manifest.counts["pretrain-data"].get("skipped") is True


def test_pretrain_stage_rerun_identical_digest(workspace, tmp_path):
    cfg, root = workspace
    stage_ingest(cfg)
    stage_vocab(cfg)
    stage_clean(cfg)
    stage_segment(cfg)
    m1 = stage_pretrain_data(cfg)
    m2 = stage_pretrain_data(cfg, out_dir=root / "again")
    assert m1.outputs == m2.outputs


def test_stats_stage_zero_input(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    cfg = build_config(overrides={
        "io.input": str(empty), "io.output_dir": str(tmp_path / "out")})
    manifest = stage_stats(cfg)
    assert manifest.counts["read"] == 0
    assert manifest.counts["emitted"] == 0
    assert manifest.counts["words"] == 0


@pytest.mark.parametrize("name", sorted(HOSTILE_LINES))
def test_ingest_counts_a_hostile_line_as_malformed(tmp_path, name):
    archive = tmp_path / "raw.jsonl"
    _write_archive(archive, ["inainte de linie", "dupa linie"])
    with open(archive, "a", encoding="utf-8") as fh:
        fh.write(HOSTILE_LINES[name] + "\n")
    cfg = build_config(overrides={"io.input": str(archive), "io.output_dir": str(tmp_path)})
    counts = stage_ingest(cfg).counts
    assert (counts["read"], counts["malformed"], counts["emitted"]) == (3, 1, 2)


def test_archive_digests_are_taken_as_the_archives_are_read(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_archive(first, ["unu doi trei", "patru cinci"])
    second.write_bytes(b'\n  {"id":9,"text":"fara newline la final"}  ')
    cfg = build_config(overrides={"io.input": f"{first},{second},{first}",
                                  "io.output_dir": str(tmp_path / "out")})
    expected = {str(p): file_digest(p) for p in (first, second)}
    assert stage_ingest(cfg).inputs == expected
    assert stage_stats(cfg).inputs == expected


def test_missing_input_raises(tmp_path):
    cfg = build_config(overrides={
        "io.input": str(tmp_path / "nu-exista.jsonl"),
        "io.output_dir": str(tmp_path / "out")})
    with pytest.raises(InputMissing):
        stage_ingest(cfg)


def test_vocab_stage_requires_base(workspace):
    cfg, _ = workspace
    stage_ingest(cfg)
    cfg.base_vocab_path = ""
    with pytest.raises(ConfigInvalid):
        stage_vocab(cfg)


def test_one_language_model_is_rejected_by_config_and_stage(workspace):
    cfg, root = workspace
    with pytest.raises(ConfigInvalid, match="both"):
        build_config(overrides={"langid.model_a": cfg.langid_model_a})
    stage_ingest(cfg)
    cfg.langid_model_b = ""  # the paths are set after build_config
    with pytest.raises(ConfigInvalid, match="both"):
        stage_clean(cfg)


def test_manifest_is_deterministic_json(workspace, tmp_path):
    cfg, root = workspace
    stage_ingest(cfg)
    text1 = (root / "out" / "ingest" / "manifest-ingest.json").read_text()
    payload = json.loads(text1)
    assert payload["tool"] == "tweetcorpus"
    assert payload["stage"] == "ingest"
    assert "seed" in payload and "config" in payload
    digest1 = file_digest(root / "out" / "ingest" / "tweets-00000.jsonl")
    assert payload["outputs"]["tweets-00000.jsonl"] == digest1


def test_run_stage_dispatch_names(workspace):
    from tweetcorpus.pipeline import run_stage
    cfg, _ = workspace
    manifest = run_stage("ingest", cfg)
    assert manifest.stage == "ingest"
    with pytest.raises(ConfigInvalid):
        run_stage("nu-exista", cfg)


def test_run_stage_attaches_stage_name(tmp_path):
    from tweetcorpus.pipeline import run_stage
    cfg = build_config(overrides={
        "io.input": str(tmp_path / "absent.jsonl"),
        "io.output_dir": str(tmp_path / "out")})
    with pytest.raises(InputMissing) as err:
        run_stage("ingest", cfg)
    assert str(err.value).count("stage ingest") == 1

    # the pipeline names the stage that failed inside it, and only that one
    _write_archive(tmp_path / "raw.jsonl", ["un text destul de lung aici"])
    cfg.input = str(tmp_path / "raw.jsonl")
    cfg.base_vocab_path = str(tmp_path / "no-base.txt")
    with pytest.raises(InputMissing) as err:
        run_stage("pipeline", cfg)
    assert str(err.value).count("stage vocab") == 1
    assert "stage pipeline: stage" not in str(err.value)


def test_pipeline_failure_writes_partial_manifest(tmp_path):
    archive = tmp_path / "raw.jsonl"
    _write_archive(archive, ["un text destul de lung aici"])
    cfg = build_config(overrides={
        "io.input": str(archive),
        "io.output_dir": str(tmp_path / "out"),
        "vocab.base": str(tmp_path / "no-base.txt"),  # vocab stage will fail
    })
    with pytest.raises(InputMissing):
        run_pipeline(cfg)
    payload = json.loads((tmp_path / "out" / "manifest-pipeline.json").read_text())
    assert payload["counts"]["failed_stage"] == "vocab"
    assert not (tmp_path / "out" / "ingest").exists()


def test_pipeline_records_a_failed_pretrain_data_stage(tmp_path):
    archive = tmp_path / "raw.jsonl"
    _write_archive(archive, [f"Propozitia numarul {n} are destule cuvinte aici."
                             for n in ("unu", "doi", "trei")])
    base_vocab = tmp_path / "base-vocab.txt"
    _write_base_vocab(base_vocab)
    overrides = {"io.input": str(archive), "io.output_dir": str(tmp_path / "out"),
                 "vocab.base": str(base_vocab), "pretrain.dupe_factor": 1}
    run_pipeline(build_config(overrides=overrides))  # one shard of 3 documents
    # three shards of one document each: pretrain-data cannot pair sentences
    with pytest.raises(TooFewDocuments) as err:
        run_pipeline(build_config(overrides={**overrides, "io.shards": 3}))
    assert str(err.value).count("stage pretrain-data") == 1
    payload = json.loads((tmp_path / "out" / "manifest-pipeline.json").read_text())
    assert payload["counts"]["failed_stage"] == "pretrain-data"
    assert payload["counts"]["segment"]["documents"] == 3
    assert payload["config"]["io.shards"] == 3
    assert payload["outputs"] == {}


def test_pretrain_stage_debug_jsonl(workspace, tmp_path):
    cfg, root = workspace
    stage_ingest(cfg)
    stage_vocab(cfg)
    stage_clean(cfg)
    stage_segment(cfg)
    manifest = stage_pretrain_data(cfg, debug_jsonl=True)
    jsonl = [name for name in manifest.outputs if name.endswith(".jsonl")]
    assert len(jsonl) == 2
    lines = (root / "out" / "pretrain" / jsonl[0]).read_text().splitlines()
    assert json.loads(lines[0])["max_seq_length"] == cfg.pretrain.max_seq_length
    row = json.loads(lines[1])
    assert set(row) == {"token_ids", "segment_ids", "is_random_next",
                        "masked_positions", "masked_label_ids"}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pretrain_stage_writes_the_records_of_its_instances(workspace, workers,
                                                            monkeypatch):
    import io

    import tweetcorpus.pretrain
    from tweetcorpus.pretrain import build_instances, write_records
    from tweetcorpus.segment import read_document_file
    from tweetcorpus.vocab import Vocabulary

    cfg, root = workspace
    stage_ingest(cfg)
    stage_vocab(cfg)
    stage_clean(cfg)
    stage_segment(cfg)
    vocab = Vocabulary.load(root / "out" / "vocab" / "vocab.txt")
    want = {}
    for shard in ("00000", "00001"):
        docs = read_document_file(root / "out" / "segment" / f"corpus-{shard}.txt")
        buf = io.BytesIO()
        write_records(build_instances(docs, vocab, cfg.pretrain), buf, cfg.pretrain)
        want[f"pretrain-{shard}.rbtw"] = buf.getvalue()

    cfg.workers = workers
    monkeypatch.setattr(tweetcorpus.pretrain, "CHUNK_PAIRS", 7)
    stage_pretrain_data(cfg)
    assert {name: (root / "out" / "pretrain" / name).read_bytes() for name in want} == want


def test_record_count_matches_manifest_accounting(workspace, tmp_path):
    from tweetcorpus.pretrain import read_records
    cfg, root = workspace
    stage_ingest(cfg)
    stage_vocab(cfg)
    stage_clean(cfg)
    stage_segment(cfg)
    manifest = stage_pretrain_data(cfg)
    on_disk = 0
    for name in manifest.outputs:
        on_disk += sum(1 for _ in read_records(root / "out" / "pretrain" / name))
    assert on_disk == manifest.counts["instances"]


def test_rerun_with_fewer_shards_leaves_no_stale_files(workspace, tmp_path):
    cfg, root = workspace
    run_pipeline(build_config(overrides={**cfg.flat(), "io.shards": 4,
                                         "pretrain.dupe_factor": 1}))
    cfg2 = build_config(overrides={**cfg.flat(), "io.shards": 2})
    ingest = stage_ingest(cfg2)
    clean = stage_clean(cfg2)
    assert clean.counts["read"] == ingest.counts["emitted"]
    segment = stage_segment(cfg2)
    pretrain = stage_pretrain_data(cfg2)
    out = root / "out"
    for stage, manifest in (("ingest", ingest), ("clean", clean),
                            ("segment", segment), ("pretrain", pretrain)):
        names = {p.name for p in (out / stage).iterdir()
                 if not p.name.startswith("manifest-")}
        assert names == set(manifest.outputs), stage


def test_failed_rerun_leaves_no_outputs_of_either_run(workspace):
    cfg, root = workspace
    run_pipeline(cfg)
    rng = random.Random(4)
    small = root / "small.jsonl"
    _write_archive(small, [make_text(rng, RO_WORDS, 8).capitalize() + "." for _ in range(3)])
    # two documents in shard 0, one in shard 1: pretrain-data fails on shard 1
    with pytest.raises(TooFewDocuments):
        run_pipeline(build_config(overrides={**cfg.flat(), "io.input": str(small)}))
    assert sorted(p.name for p in (root / "out" / "pretrain").iterdir()) == []


def test_a_shard_no_manifest_lists_is_not_read(workspace):
    cfg, root = workspace
    ingest = stage_ingest(cfg)
    stray = root / "out" / "ingest" / "tweets-00009.jsonl"
    stray.write_text((root / "out" / "ingest" / "tweets-00000.jsonl").read_text())
    assert stage_clean(cfg).counts["read"] == ingest.counts["emitted"]


def test_a_write_that_fails_half_way_leaves_no_output(workspace, monkeypatch):
    import tweetcorpus.pipeline

    cfg, root = workspace
    first = stage_ingest(cfg)
    calls = []

    def failing(tweet):
        calls.append(tweet)
        if len(calls) == 10:
            raise OSError("no space left on device")
        return serialize_record(tweet)

    monkeypatch.setattr(tweetcorpus.pipeline, "serialize_record", failing)
    with pytest.raises(OSError):
        stage_ingest(cfg)
    assert sorted(p.name for p in (root / "out" / "ingest").iterdir()) == []
    monkeypatch.undo()
    assert stage_ingest(cfg).outputs == first.outputs


def test_a_missing_upstream_manifest_is_input_missing(workspace):
    cfg, root = workspace
    stage_ingest(cfg)
    (root / "out" / "ingest" / "manifest-ingest.json").unlink()
    with pytest.raises(InputMissing, match="manifest-ingest.json"):
        stage_clean(cfg)


@pytest.mark.parametrize("manifest", ["ingest/manifest-ingest.json",
                                      "clean/manifest-clean.json"])
def test_a_manifest_listing_a_path_outside_its_directory_is_rejected(workspace, manifest):
    cfg, root = workspace
    stage_ingest(cfg)
    stage_clean(cfg)
    victim = root / "out" / "victim.jsonl"
    victim.write_text("{}\n")
    path = root / "out" / manifest
    payload = json.loads(path.read_text())
    payload["outputs"]["../victim.jsonl"] = file_digest(victim)
    path.write_text(json.dumps(payload))
    # the upstream manifest is read for input; the clean one for deletion
    with pytest.raises(DataError, match="victim"):
        stage_clean(cfg)
    assert victim.exists()


def test_every_stage_input_carries_its_upstream_output_digest(workspace):
    cfg, root = workspace
    run_pipeline(cfg)
    out = root / "out"
    dirs = {"ingest": "ingest", "vocab": "vocab", "clean": "clean", "segment": "segment",
            "pretrain-data": "pretrain"}
    manifests = {stage: json.loads((out / d / f"manifest-{stage}.json").read_text())
                 for stage, d in dirs.items()}
    listed = {str(out / dirs[stage] / name): digest
              for stage, manifest in manifests.items()
              for name, digest in manifest["outputs"].items()}
    checked = 0
    for stage in ("vocab", "clean", "segment", "pretrain-data"):
        for path, digest in manifests[stage]["inputs"].items():
            if Path(path).parent.parent == out:  # in a stage directory
                assert listed[path] == digest, (stage, path)
                checked += 1
    # two shards into each of vocab, clean and segment; pretrain-data adds vocab.txt
    assert checked == 2 + 2 + 2 + 3


def test_the_stage_table_matches_the_benchmark_copy(monkeypatch):
    # bench/harness.py keeps its own copy on purpose: drift fails here first
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import harness

    assert tuple((name, STAGES[name].runner) for name in PIPELINE) == harness.STAGES
    assert {name: STAGES[name].directory for name in PIPELINE} == harness.MANIFEST_DIRS


def _write_outside_files(root):
    emoji_map = root / "emoji.tsv"
    emoji_map.write_text("\U0001F600\tfata zambitoare\n", encoding="utf-8")
    abbreviations = root / "abbreviations.txt"
    abbreviations.write_text("dl\nnr\n", encoding="utf-8")
    return emoji_map, abbreviations


def test_every_manifest_lists_every_file_its_stage_read(workspace):
    cfg, root = workspace
    emoji_map, abbreviations = _write_outside_files(root)
    cfg.emoji_map_path, cfg.abbreviations_path = str(emoji_map), str(abbreviations)
    run_pipeline(cfg)
    out = root / "out"
    manifests = {stage: json.loads((out / d / f"manifest-{stage}.json").read_text())
                 for stage, d in (("ingest", "ingest"), ("vocab", "vocab"), ("clean", "clean"),
                                  ("segment", "segment"), ("pretrain-data", "pretrain"))}

    def outputs(stage, d):
        return [str(out / d / name) for name in manifests[stage]["outputs"]]

    expected = {
        "ingest": [cfg.input],
        "vocab": outputs("ingest", "ingest") + [cfg.base_vocab_path],
        "clean": outputs("ingest", "ingest") + [cfg.langid_model_a, cfg.langid_model_b,
                                                 str(emoji_map)],
        "segment": outputs("clean", "clean") + [str(abbreviations)],
        "pretrain-data": outputs("segment", "segment") + [str(out / "vocab" / "vocab.txt")],
    }
    for stage, paths in expected.items():
        assert sorted(manifests[stage]["inputs"]) == sorted(paths), stage
        for path in paths:
            assert manifests[stage]["inputs"][path] == file_digest(path), (stage, path)


def test_unset_outside_files_are_not_listed(workspace):
    cfg, root = workspace
    cfg.langid_model_a = cfg.langid_model_b = ""
    ingest = stage_ingest(cfg)
    clean = stage_clean(cfg)
    segment = stage_segment(cfg)
    out = root / "out"
    assert sorted(clean.inputs) == sorted(str(out / "ingest" / name) for name in ingest.outputs)
    assert sorted(segment.inputs) == sorted(str(out / "clean" / name) for name in clean.outputs)


def test_editing_the_emoji_map_in_place_changes_the_clean_manifest_inputs(workspace):
    cfg, root = workspace
    emoji_map, _ = _write_outside_files(root)
    cfg.emoji_map_path = str(emoji_map)
    stage_ingest(cfg)
    before = stage_clean(cfg)
    emoji_map.write_text("\U0001F600\tzambet\n", encoding="utf-8")
    after = stage_clean(cfg)
    assert after.config == before.config
    assert after.inputs[str(emoji_map)] != before.inputs[str(emoji_map)]
    assert after.inputs[str(emoji_map)] == file_digest(emoji_map)
    assert after.outputs != before.outputs


def test_a_directory_is_no_input_but_a_fifo_is(tmp_path):
    fifo = tmp_path / "archive.jsonl"
    os.mkfifo(fifo)
    assert _require_inputs([fifo]) == [fifo]
    with pytest.raises(InputMissing, match=f"^input is a directory: {tmp_path}$"):
        _require_inputs([fifo, tmp_path])
