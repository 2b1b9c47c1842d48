import dataclasses
import hashlib
import json
import os
import random
import re
import shutil
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tweetcorpus import ingest, parallel, pipeline
from tweetcorpus.errors import (ConfigInvalid, DataError, InputMissing, IOFailure,
                               MalformedRecord, TweetCorpusError)
from tweetcorpus.filtering import apply_filters
from tweetcorpus.ingest import RawTweet, parse_record, serialize_record
from tweetcorpus.langid import LangModel, agreement_filter
from tweetcorpus.normalize import (EmojiMap, count_entities, default_emoji_map,
                                   normalize_entities, translate_emojis, unescape_basic_entities)
from tweetcorpus.pipeline import (
    CONFIG_KEYS,
    PIPELINE,
    PipelineConfig,
    STAGES,
    _require_inputs,
    build_config,
    file_digest,
    parse_config_file,
    run_pipeline,
    run_stage,
    stage_clean,
    stage_ingest,
    stage_langid_train,
    stage_pretrain_data,
    stage_segment,
    stage_stats,
    stage_vocab,
)
from tweetcorpus.pretrain import PretrainConfig
from tweetcorpus.segment import split_sentences
from tweetcorpus.vocab import STRUCTURAL_TOKENS, Vocabulary

from conftest import EN_WORDS, HOSTILE_LINES, RO_WORDS, make_text
from test_cli import run_cli


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
    with pytest.raises(ConfigInvalid, match=f"{path}:1: unknown key 'filter.min_wordz'"):
        parse_config_file(path)


def test_parse_config_rejects_a_line_without_equals_sign(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("# a comment\nfilter.min_words 5\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid, match=f"{path}:2: expected key=value"):
        parse_config_file(path)


def test_parse_config_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("io.shards = 2\n# again\nio.shards = 3\n", encoding="utf-8")
    with pytest.raises(ConfigInvalid,
                       match=f"{path}:3: duplicate key 'io.shards', first at {path}:1"):
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
    with pytest.raises(ConfigInvalid, match="unknown config key 'filter.min_wordz'"):
        build_config(overrides={"filter.min_wordz": 5})


OUT_OF_RANGE = {
    "alpha-inf": ({"langid.alpha": "inf"}, "langid.alpha must be finite and > 0"),
    "alpha-nan": ({"langid.alpha": "nan"}, "langid.alpha must be finite and > 0"),
    "mask-frac-nan": ({"pretrain.mask_token_frac": "nan"}, "fractions must each be in"),
    # they sum to 1, yet every masked position would become [MASK]
    "fractions-outside-0-1": ({"pretrain.mask_token_frac": 1.2, "pretrain.keep_frac": -0.3,
                               "pretrain.random_frac": 0.1}, "fractions must each be in"),
    "shards-0": ({"io.shards": 0}, "io.shards must be >= 1"),
    "workers-0": ({"io.workers": 0}, "io.workers must be >= 1"),
    "threshold-1": ({"langid.threshold": 1}, r"langid.threshold must be in \(0, 1\)"),
    "ngram-max-6": ({"langid.ngram_max_b": 6}, "langid.ngram_min_b and langid.ngram_max_b"),
    "emoji-fraction-0": ({"vocab.emoji_fraction": 0}, "vocab.emoji_fraction"),
    "one-model": ({"langid.model_a": "model-a.rlid"}, "needs both"),
    "min-words-0": ({"filter.min_words": 0}, "min_words must be >= 1"),
    "max-seq-length-4": ({"pretrain.max_seq_length": 4}, "max_seq_length must be >= 5"),
}
WRONG_TYPE = {
    "float-for-int": ({"io.shards": 2.5}, "io.shards: 2.5 is not int"),
    "float-dupe-factor": ({"pretrain.dupe_factor": 1.5}, "pretrain.dupe_factor: 1.5 is not int"),
    "bool-for-int": ({"io.shards": True}, "io.shards: True is not int"),
    "bool-for-float": ({"langid.threshold": False}, "langid.threshold: False is not float"),
    "int-for-str": ({"langid.target": 7}, "langid.target: 7 is not str"),
    "list-for-int": ({"io.workers": [2]}, r"io.workers: \[2\] is not int"),
    "int-for-input": ({"io.input": 5}, "io.input: 5 is not str"),
    "bool-min-words": ({"filter.min_words": True}, "filter.min_words: True is not int"),
    "float-for-seed": ({"seed": 1.0}, "seed: 1.0 is not int"),
}


@pytest.mark.parametrize("values, message", [*OUT_OF_RANGE.values(), *WRONG_TYPE.values()],
                         ids=[*OUT_OF_RANGE, *WRONG_TYPE])
def test_build_config_rejects_non_finite_and_out_of_range_values(values, message):
    with pytest.raises(ConfigInvalid, match=message):
        build_config(overrides=values)


@pytest.mark.parametrize("values, message", [*OUT_OF_RANGE.values(), *WRONG_TYPE.values()],
                         ids=[*OUT_OF_RANGE, *WRONG_TYPE])
def test_replace_rejects_out_of_range_values(values, message):
    """A config is checked whenever it is built: by dataclasses.replace and
    by direct construction too. A value that is not a string reaches it as
    it is."""
    cfg = build_config()
    changes, sections = {}, {}
    for key, raw in values.items():
        spec = CONFIG_KEYS[key]
        into = sections.setdefault(spec.section, {}) if spec.section else changes
        into[spec.name] = spec.coerce(raw) if isinstance(raw, str) else raw
        if spec.section:  # a sub-config names its field, not the key
            message = message.replace(key, spec.name)
    with pytest.raises(ConfigInvalid, match=message):
        for section, fields in sections.items():
            changes[section] = dataclasses.replace(getattr(cfg, section), **fields)
        dataclasses.replace(cfg, **changes)
    with pytest.raises(ConfigInvalid, match=message):
        for section, fields in sections.items():
            changes[section] = type(getattr(cfg, section))(**fields)
        PipelineConfig(**changes)


@pytest.mark.parametrize("fields, message", [
    ({"filters": None}, "filters: None is not FilterConfig"),
    ({"pretrain": {}}, r"pretrain: \{\} is not PretrainConfig"),
], ids=["none-for-filters", "dict-for-pretrain"])
def test_a_config_holds_checked_sub_configs(fields, message):
    with pytest.raises(ConfigInvalid, match=f"bad value for {message}"):
        PipelineConfig(**fields)


def test_a_config_is_frozen():
    cfg = build_config()
    for obj, name, value in ((cfg, "seed", 9), (cfg, "shards", 0),
                             (cfg.filters, "min_words", 1), (cfg.pretrain, "seed", 9)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)


def test_the_record_seed_is_the_global_seed():
    assert PipelineConfig(seed=3).pretrain.seed == 3
    assert PipelineConfig(seed=3, pretrain=PretrainConfig(seed=7)).pretrain.seed == 3
    assert dataclasses.replace(build_config(overrides={"seed": 5}), seed=9).pretrain.seed == 9


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
    cfg = dataclasses.replace(cfg, langid_model_a=str(tmp_path / "models" / "model-a.rlid"),
                              langid_model_b=str(tmp_path / "models" / "model-b.rlid"))
    return cfg, tmp_path


def test_a_replaced_seed_is_the_seed_of_the_records_and_manifests(workspace):
    cfg, root = workspace
    replaced = dataclasses.replace(cfg, seed=9, output_dir=str(root / "replaced"))
    built = build_config(overrides={**cfg.flat(), "seed": 9,
                                    "io.output_dir": str(root / "built")})
    run_pipeline(replaced)
    run_pipeline(built)
    records = sorted((root / "built" / "pretrain").glob("*.rbtw"))
    assert len(records) == 2
    for path in records:
        assert (root / "replaced" / "pretrain" / path.name).read_bytes() == path.read_bytes()
    manifests = sorted((root / "replaced").glob("**/manifest-*.json"))
    assert len(manifests) == 6
    assert {json.loads(path.read_text())["seed"] for path in manifests} == {9}


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
    cfg = dataclasses.replace(cfg, langid_model_a=str(tmp_path / "models" / "model-a.rlid"),
                              langid_model_b=str(tmp_path / "models" / "model-b.rlid"))

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

    def load(cls, path, *source):
        model = real_load(path, *source)
        loaded.append(weakref.ref(model))
        return model

    monkeypatch.setattr(LangModel, "load", classmethod(load))
    cfg, _ = workspace
    stage_ingest(cfg)
    assert stage_clean(cfg).counts["emitted"] > 0
    assert len(loaded) == 2
    assert [ref() for ref in loaded] == [None, None]


def test_the_pipeline_frees_the_clean_context_before_pretrain_data(workspace, monkeypatch):
    """The language models are loaded before ingest, and dead once clean has run."""
    import gc
    import weakref

    loaded, alive = [], []
    real_load = LangModel.load
    real_stage = pipeline.stage_pretrain_data

    def load(cls, path, *source):
        model = real_load(path, *source)
        loaded.append(weakref.ref(model))
        return model

    def stage(cfg, **kwargs):
        gc.collect()
        alive.extend(ref() is not None for ref in loaded)
        return real_stage(cfg, **kwargs)

    monkeypatch.setattr(LangModel, "load", classmethod(load))
    monkeypatch.setattr(pipeline, "stage_pretrain_data", stage)
    cfg, _ = workspace
    run_pipeline(cfg)
    assert alive == [False, False]


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
    cfg = dataclasses.replace(cfg, langid_model_a=str(tmp_path / "models" / "model-a.rlid"),
                              langid_model_b=str(tmp_path / "models" / "model-b.rlid"))
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
    cfg = dataclasses.replace(_four_kinds_workspace(tmp_path), workers=workers)
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
    real_gate = pipeline.agreement_batch

    def spy(texts, *args):
        scored.extend(texts)
        return real_gate(texts, *args)

    monkeypatch.setattr(pipeline, "agreement_batch", spy)
    manifest = stage_clean(cfg)
    rejected = manifest.counts["rejected"]
    filtered = sum(rejected.values()) - rejected["not_target_language"]
    assert filtered > 0
    assert len(scored) == manifest.counts["read"] - filtered
    for text in scored:
        assert apply_filters(normalize_entities(text), count_entities(text),
                             cfg.filters).accepted


def test_clean_rewrites_only_the_tweets_it_keeps(tmp_path, monkeypatch):
    cfg = dataclasses.replace(_four_kinds_workspace(tmp_path), workers=1)
    calls = {"agreement_batch": [], "normalize_entities": [], "translate_emojis": []}
    for name, log in calls.items():
        def spy(text, *args, real=getattr(pipeline, name), log=log,
                batch=name == "agreement_batch"):
            result = real(text, *args)
            log.extend(zip(text, result) if batch else [(text, result)])
            return result

        monkeypatch.setattr(pipeline, name, spy)
    manifest = stage_clean(cfg)
    emitted = manifest.counts["emitted"]
    rejected = manifest.counts["rejected"]
    assert emitted > 0 and rejected["not_target_language"] > 0
    assert sum(rejected.values()) - rejected["not_target_language"] > 0
    normalized = calls["normalize_entities"]
    assert len(normalized) == len(calls["translate_emojis"]) == emitted
    assert [text for text, _ in calls["translate_emojis"]] == [out for _, out in normalized]
    gate_rejected = {text for text, passed in calls["agreement_batch"] if not passed}
    for text, _ in normalized:
        assert apply_filters(text, count_entities(text), cfg.filters).accepted
        assert text not in gate_rejected


# emoji the default map translates and ones it drops, entities and their
# placeholders, and words, as clean meets them
_CLEAN_TOKENS = ("\U0001F9A9", "\U0001F600", "\U0001F1F7\U0001F1F4", "1\ufe0f\u20e3",
                 "\u2764\ufe0f", "\U0001F468\u200d\U0001F469\u200d\U0001F467",
                 "@ion", "#știri", "https://x.ro", "&amp;", "&lt;", "USER", "HTTPURL",
                 "azi", "Vezi.", "plouă!", "2023")
_CLEAN_TEXTS = st.lists(st.tuples(st.sampled_from(_CLEAN_TOKENS),
                                  st.sampled_from(("", " ", "  ", "\n", "\u00a0"))),
                        max_size=12).map(lambda parts: "".join(t + sep for t, sep in parts))


@settings(max_examples=300, deadline=None)
@given(_CLEAN_TEXTS, st.integers(1, 6), st.integers(0, 8))
@example("\U0001F9A9 \U0001F9A9", 2, 2)
def test_clean_keeps_only_a_text_that_segment_can_split(text, min_words, max_emojis):
    cfg = build_config(overrides={"filter.min_words": min_words,
                                  "filter.max_emojis": max_emojis})
    cleaned, reason = pipeline.clean_tweet_text(text, pipeline._load_clean_context(cfg, None))
    assert (cleaned is None) == (reason != "none")
    if cleaned is not None:
        assert split_sentences(cleaned)


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


def test_pipeline_all_spam_writes_an_empty_record_file(tmp_path, capsys):
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
    assert capsys.readouterr().err == ""
    assert manifest.counts["clean"]["emitted"] == 0
    empty = {"documents": 0, "degenerate_documents": 0, "instances": 0}
    assert manifest.counts["pretrain-data"] == empty
    stage = json.loads((tmp_path / "out" / "pretrain" / "manifest-pretrain-data.json")
                       .read_text())
    assert stage["counts"] == empty
    listed = json.loads((tmp_path / "out" / "manifest-pipeline.json").read_text())["outputs"]
    assert "pretrain-data/pretrain-00000.rbtw" in listed
    assert (tmp_path / "out" / "pretrain" / "pretrain-00000.rbtw").stat().st_size == 18


def _short_and_long_archive(path, shards, short_shards):
    """Two tweets per shard, round-robin; those of ``short_shards`` fail min_words."""
    texts = [f"scurt {k}" if k % shards in short_shards else
             f"Tweetul numarul {k} are destule cuvinte aici." for k in range(2 * shards)]
    _write_archive(path, texts)


def test_pipeline_with_all_rejected_shards_writes_header_only_records(tmp_path):
    from tweetcorpus.pretrain import read_records
    archive = tmp_path / "raw.jsonl"
    _short_and_long_archive(archive, 4, {2, 3})
    base_vocab = tmp_path / "base.txt"
    _write_base_vocab(base_vocab)
    out = tmp_path / "out"
    manifest = run_pipeline(build_config(overrides={
        "io.input": str(archive), "io.output_dir": str(out), "io.shards": 4,
        "vocab.base": str(base_vocab), "pretrain.dupe_factor": 1}))
    assert manifest.counts["clean"]["rejected"]["too_short"] == 4
    assert manifest.counts["pretrain-data"]["documents"] == 4
    assert manifest.counts["pretrain-data"]["instances"] > 0
    for shard in (2, 3):
        assert (out / "segment" / f"corpus-{shard:05}.txt").read_text() == ""
        records = out / "pretrain" / f"pretrain-{shard:05}.rbtw"
        assert records.stat().st_size == 18
        assert list(read_records(records)) == []
        assert f"pretrain-data/{records.name}" in manifest.outputs
    for shard in (0, 1):
        assert list(read_records(out / "pretrain" / f"pretrain-{shard:05}.rbtw"))


def test_pipeline_fails_on_a_shard_of_one_document(tmp_path):
    archive = tmp_path / "raw.jsonl"
    _write_archive(archive, ["Un singur tweet are destule cuvinte aici.", "prea scurt"])
    base_vocab = tmp_path / "base.txt"
    _write_base_vocab(base_vocab)
    out = tmp_path / "out"
    with pytest.raises(DataError, match="need at least 2 tokenizable documents, got 1"):
        run_pipeline(build_config(overrides={
            "io.input": str(archive), "io.output_dir": str(out),
            "vocab.base": str(base_vocab)}))
    payload = json.loads((out / "manifest-pipeline.json").read_text())
    assert payload["counts"]["failed_stage"] == "pretrain-data"
    assert payload["counts"]["segment"]["documents"] == 1
    assert "pretrain-data" not in payload["counts"]
    assert payload["outputs"] == {}


def test_pretrain_stage_rerun_identical_digest(workspace, tmp_path):
    cfg, root = workspace
    stage_ingest(cfg)
    stage_vocab(cfg)
    stage_clean(cfg)
    stage_segment(cfg)
    m1 = stage_pretrain_data(cfg)
    again = root / "again"
    for directory in ("vocab", "segment"):
        shutil.copytree(root / "out" / directory, again / directory)
    m2 = stage_pretrain_data(dataclasses.replace(cfg, output_dir=str(again)))
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
    with pytest.raises(InputMissing, match="no input files found"):
        stage_ingest(dataclasses.replace(cfg, input=","))
    with pytest.raises(ConfigInvalid, match="io.input is not set"):
        stage_ingest(dataclasses.replace(cfg, input=""))
    with pytest.raises(ConfigInvalid, match="io.output_dir is not set"):
        run_pipeline(dataclasses.replace(cfg, output_dir=""))


def test_vocab_stage_requires_base(workspace):
    cfg, _ = workspace
    stage_ingest(cfg)
    with pytest.raises(ConfigInvalid):
        stage_vocab(dataclasses.replace(cfg, base_vocab_path=""))


def test_one_language_model_is_rejected_by_config_and_stage(workspace):
    cfg, root = workspace
    with pytest.raises(ConfigInvalid, match="both"):
        build_config(overrides={"langid.model_a": cfg.langid_model_a})
    # a config is checked when built, so no stage can be given such a one
    with pytest.raises(ConfigInvalid, match="both"):
        dataclasses.replace(cfg, langid_model_b="")


def test_a_target_the_models_lack_is_a_config_error(workspace):
    # neither model can rank "de" first, so every tweet would be rejected
    cfg, root = workspace
    stage_ingest(cfg)
    with pytest.raises(ConfigInvalid, match=r"'de'.*\['en', 'ro'\].*\['en', 'ro'\]"):
        stage_clean(dataclasses.replace(cfg, langid_target="de"))
    assert not list((root / "out" / "clean").glob("*.jsonl"))
    assert not (root / "out" / "clean" / "manifest-clean.json").exists()


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
    cfg = dataclasses.replace(cfg, input=str(tmp_path / "raw.jsonl"),
                              base_vocab_path=str(tmp_path / "no-base.txt"))
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
    with pytest.raises(DataError, match="need at least 2 tokenizable documents") as err:
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

    monkeypatch.setattr(tweetcorpus.pretrain, "CHUNK_PAIRS", 7)
    stage_pretrain_data(dataclasses.replace(cfg, workers=workers))
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
    with pytest.raises(DataError, match="need at least 2 tokenizable documents"):
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


def test_run_stage_names_an_os_error_as_an_io_failure(workspace, monkeypatch):
    import tweetcorpus.pipeline

    cfg, root = workspace

    def failing(tweet):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tweetcorpus.pipeline, "serialize_record", failing)
    with pytest.raises(IOFailure) as err:
        run_stage("ingest", cfg)
    assert err.value.stage == "ingest"
    assert str(err.value) == "stage ingest: [Errno 28] No space left on device"
    assert isinstance(err.value.__cause__, OSError)
    assert sorted(p.name for p in (root / "out" / "ingest").iterdir()) == []


def test_a_missing_upstream_manifest_is_input_missing(workspace):
    cfg, root = workspace
    stage_ingest(cfg)
    (root / "out" / "ingest" / "manifest-ingest.json").unlink()
    with pytest.raises(InputMissing, match="manifest-ingest.json"):
        stage_clean(cfg)


def test_an_upstream_manifest_that_is_not_json_is_a_data_error(workspace):
    cfg, root = workspace
    stage_ingest(cfg)
    (root / "out" / "ingest" / "manifest-ingest.json").write_text("not json")
    with pytest.raises(DataError, match="manifest-ingest.json: not a stage manifest"):
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
    cfg = dataclasses.replace(cfg, emoji_map_path=str(emoji_map),
                              abbreviations_path=str(abbreviations))
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
    cfg = dataclasses.replace(cfg, langid_model_a="", langid_model_b="")
    ingest = stage_ingest(cfg)
    clean = stage_clean(cfg)
    segment = stage_segment(cfg)
    out = root / "out"
    assert sorted(clean.inputs) == sorted(str(out / "ingest" / name) for name in ingest.outputs)
    assert sorted(segment.inputs) == sorted(str(out / "clean" / name) for name in clean.outputs)


def test_editing_the_emoji_map_in_place_changes_the_clean_manifest_inputs(workspace):
    cfg, root = workspace
    emoji_map, _ = _write_outside_files(root)
    cfg = dataclasses.replace(cfg, emoji_map_path=str(emoji_map))
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


# --- checked upstream reads ----------------------------------------------------

# Characters the record codec must escape or pass through: a quote, a
# backslash, controls, a line separator and an astral emoji, among any
# others; a lone surrogate cannot be written as UTF-8, so no shard holds one.
RECORD_CHARS = st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001F600'),
                         st.characters(blacklist_categories=("Cs",)))
TWEETS = st.builds(
    RawTweet,
    id=st.integers(0, 2**64 - 1),
    text=st.text(RECORD_CHARS, min_size=1),
    created_at=st.one_of(st.just(0), st.integers(ingest._MIN_TS, ingest._MAX_TS),
                         st.sampled_from([-1, ingest._MIN_TS, ingest._MAX_TS])),
    declared_lang=st.one_of(st.none(), st.just(""), st.text(RECORD_CHARS, max_size=6)),
)


@settings(max_examples=300, deadline=None)
@given(TWEETS, st.text(RECORD_CHARS, min_size=1))
def test_clean_splices_its_text_into_a_record_as_serialize_record_writes_it(tweet, text):
    line = serialize_record(tweet).encode("utf-8") + b"\n"
    with mock.patch.object(pipeline, "_clean_texts", lambda texts, ctx: [(text, "none")]):
        [(record, reason)] = pipeline._clean_batch(None, (Path("shard.jsonl"), 1, [line]))
    assert record == serialize_record(dataclasses.replace(tweet, text=text))


def _edit_first_text(shard: Path) -> None:
    """Append a word to the first tweet's text: the line stays valid JSON."""
    first, rest = shard.read_bytes().split(b"\n", 1)
    record = json.loads(first)
    record["text"] += " schimbat"
    shard.write_bytes(json.dumps(record, ensure_ascii=False).encode("utf-8") + b"\n" + rest)


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _digest_error(path: Path, manifest: Path) -> str:
    listed = json.loads(manifest.read_text(encoding="utf-8"))["outputs"][path.name]
    return f"{path}: sha256 {file_digest(path)}, but {manifest} lists {listed}$"


@pytest.mark.parametrize("stage, workers", [("vocab", 1), ("clean", 1), ("clean", 2),
                                            ("segment", 1)])
def test_a_shard_edited_after_its_stage_fails_the_next_stage(workspace, monkeypatch,
                                                             stage, workers):
    cfg, root = workspace
    cfg = dataclasses.replace(cfg, workers=workers)
    monkeypatch.setattr(pipeline, "CLEAN_BATCH", 8)  # 2 workers start a pool
    stage_ingest(cfg)
    if stage == "segment":
        stage_clean(cfg)
    [source] = STAGES[stage].upstream
    upstream = root / "out" / STAGES[source].directory
    shard = sorted(upstream.glob("*.jsonl"))[1]
    _edit_first_text(shard)
    before = _tree(upstream)
    error = _digest_error(shard, upstream / f"manifest-{source}.json")
    with pytest.raises(DataError, match=f"^stage {stage}: {error}"):
        run_stage(stage, cfg)
    assert _tree(root / "out" / STAGES[stage].directory) == {}
    assert _tree(upstream) == before


def test_a_corpus_file_edited_after_segment_fails_pretrain_data(workspace):
    cfg, root = workspace
    for stage in ("ingest", "vocab", "clean", "segment"):
        run_stage(stage, cfg)
    segment = root / "out" / "segment"
    corpus = segment / "corpus-00000.txt"
    corpus.write_text(corpus.read_text(encoding="utf-8").replace("a", "o", 1), encoding="utf-8")
    before = _tree(segment)
    with pytest.raises(DataError,
                       match="^" + _digest_error(corpus, segment / "manifest-segment.json")):
        stage_pretrain_data(cfg)
    assert _tree(root / "out" / "pretrain") == {}
    assert _tree(segment) == before


def test_pretrain_data_reads_only_the_vocabulary_the_vocab_manifest_lists(workspace):
    cfg, root = workspace
    for stage in PIPELINE:
        run_stage(stage, cfg)
    vocab, pretrain = root / "out" / "vocab", root / "out" / "pretrain"
    vocab_file, manifest = vocab / "vocab.txt", vocab / "manifest-vocab.json"
    listed, finished = manifest.read_bytes(), _tree(pretrain)
    assert "manifest-pretrain-data.json" in finished
    # an unlisted vocabulary, or no vocab manifest, fails before anything is deleted
    payload = json.loads(listed)
    del payload["outputs"]["vocab.txt"]
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataError, match=f"^{vocab_file}: {manifest} lists no such file$"):
        stage_pretrain_data(cfg)
    assert _tree(pretrain) == finished
    manifest.unlink()
    with pytest.raises(InputMissing, match=f"^missing input: {manifest}$"):
        stage_pretrain_data(cfg)
    assert _tree(pretrain) == finished
    # an edited one is found as it is read, after the old outputs went
    manifest.write_bytes(listed)
    with open(vocab_file, "a", encoding="utf-8") as fh:
        fh.write("cuvantnou\n")
    with pytest.raises(DataError, match="^" + _digest_error(vocab_file, manifest)):
        stage_pretrain_data(cfg)
    assert _tree(pretrain) == {}


def _read_before_run(stages: dict, order: tuple) -> list[tuple[str, str]]:
    """Each (stage, upstream entry) of ``stages`` whose entry names a stage
    that ``order`` does not run before that stage."""
    return [(name, entry) for name, stage in stages.items() for entry in stage.upstream
            if entry.partition("/")[0] not in order[:order.index(name)]]


def test_the_pipeline_runs_every_stage_after_the_stages_it_reads():
    assert _read_before_run(STAGES, PIPELINE) == []


def test_the_order_check_finds_a_stage_run_before_a_stage_it_reads():
    # a table read in its own order, as PIPELINE reads STAGES
    stages = {name: STAGES[name] for name in ("ingest", "vocab", "pretrain-data", "clean",
                                                 "segment")}
    assert _read_before_run(stages, tuple(stages)) == [("pretrain-data", "segment")]


def test_a_shard_line_that_is_no_record_is_malformed_naming_its_line(workspace):
    # only a hand-made manifest lists such a file with its digest
    cfg, root = workspace
    stage_ingest(cfg)
    shard = root / "out" / "ingest" / "tweets-00000.jsonl"
    lines = shard.read_bytes().splitlines(keepends=True)
    shard.write_bytes(b"".join([lines[0], b'{"id": 7, "text": 7}\n', *lines[1:]]))
    manifest = shard.with_name("manifest-ingest.json")
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    payload["outputs"][shard.name] = file_digest(shard)
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    for stage in (stage_vocab, stage_clean):
        with pytest.raises(MalformedRecord, match=f"^{shard}:2: not a tweet record$"):
            stage(cfg)


@pytest.mark.parametrize("surrogate", [b"\\ud800", b"\xed\xa0\x80"], ids=["escape", "bytes"])
@pytest.mark.parametrize("stage", ["vocab", "clean", "segment"])
def test_a_shard_text_holding_a_lone_surrogate_is_malformed(workspace, stage, surrogate):
    """UTF-8 cannot encode a lone surrogate: the stage names the line, and
    the command exits 2, rather than failing as it writes."""
    cfg, root = workspace
    stage_ingest(cfg)
    if stage == "segment":
        stage_clean(cfg)
    [source] = STAGES[stage].upstream
    upstream = root / "out" / STAGES[source].directory
    shard = sorted(upstream.glob("*.jsonl"))[0]
    lines = shard.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"text": "', b'"text": "' + surrogate, 1)
    shard.write_bytes(b"".join(lines))
    manifest = upstream / f"manifest-{source}.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    payload["outputs"][shard.name] = file_digest(shard)  # as only a hand-made manifest lists it
    manifest.write_text(json.dumps(payload), encoding="utf-8")
    message = f"stage {stage}: {shard}:2: not a tweet record"
    with pytest.raises(MalformedRecord, match=f"^{message}$"):
        run_stage(stage, cfg)
    flags = {"vocab": ("--base-vocab", cfg.base_vocab_path),
             "clean": ("--model-a", cfg.langid_model_a, "--model-b", cfg.langid_model_b)}
    proc = run_cli(stage, "--output-dir", cfg.output_dir, *flags.get(stage, ()))
    assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")


def test_pretrain_data_names_a_corpus_line_that_is_not_utf8_from_one_read(workspace,
                                                                          monkeypatch):
    """The bad line is found in the bytes the stage read and hashed: the
    shard is opened once, by the stage's reader, and never read again."""
    cfg, root = workspace
    for stage in ("ingest", "clean", "segment", "vocab"):
        run_stage(stage, cfg)
    segmented = root / "out" / "segment"
    corpus = segmented / "corpus-00000.txt"
    first, rest = corpus.read_bytes().split(b"\n", 1)
    # text mode ends a line at "\r" too: the bad byte is on line 4
    corpus.write_bytes(first + b"\nUnu.\rDoi.\r\nCe\xff faci?\n" + rest)
    manifest = segmented / "manifest-segment.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    payload["outputs"][corpus.name] = file_digest(corpus)
    manifest.write_text(json.dumps(payload), encoding="utf-8")

    opened = []

    def spying(real):  # notes the path of each call: its first argument, or a method's self
        def spy(*args, **kwargs):
            opened.extend(Path(a) for a in args[:2] if isinstance(a, (str, Path)))
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(pipeline._Hashed, "__init__", spying(pipeline._Hashed.__init__))
    monkeypatch.setattr("builtins.open", spying(open))
    for name in ("open", "read_bytes", "read_text"):
        monkeypatch.setattr(Path, name, spying(getattr(Path, name)))
    message = f"stage pretrain-data: {corpus}:4: not UTF-8 (byte 0xff)"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        run_stage("pretrain-data", cfg)
    assert opened.count(corpus) == 1


@pytest.mark.parametrize("outputs", [
    {"tweets-00000.jsonl": "A" * 64}, {"tweets-00000.jsonl": "a" * 63},
    {"tweets-00000.jsonl": 7}, ["tweets-00000.jsonl"]], ids=["upper", "short", "int", "list"])
def test_a_manifest_listing_a_bad_digest_is_not_a_stage_manifest(workspace, outputs):
    cfg, root = workspace
    stage_ingest(cfg)
    manifest = root / "out" / "ingest" / "manifest-ingest.json"
    manifest.write_text(json.dumps({"outputs": outputs}), encoding="utf-8")
    with pytest.raises(DataError, match=f"^{manifest}: not a stage manifest"):
        stage_clean(cfg)


def test_commit_digests_no_chained_input(workspace, monkeypatch):
    cfg, root = workspace
    digested = []

    def spy(path):
        digested.append(Path(path))
        return file_digest(path)

    monkeypatch.setattr(pipeline, "file_digest", spy)
    run_pipeline(cfg)
    out = root / "out"
    upstream = [*(out / "ingest").glob("*.jsonl"), *(out / "clean").glob("*.jsonl"),
                *(out / "segment").glob("*.txt"), out / "vocab" / "vocab.txt"]
    assert len(upstream) == 7
    assert set(upstream).isdisjoint(digested)


def test_a_stage_that_reads_an_upstream_file_in_part_commits_nothing(workspace):
    cfg, root = workspace
    stage_ingest(cfg)
    with pipeline._Outputs("clean", cfg) as out:
        shard = next(iter(out.upstream))
        with pytest.raises(DataError, match=f"^{shard}: sha256 unknown .not read to its end."):
            with out.read(shard) as fh:
                fh.readline()
        with pytest.raises(KeyError):  # never read
            out.commit({})
    assert not (root / "out" / "clean" / "manifest-clean.json").exists()


def test_the_pipeline_reads_each_outside_file_once(workspace, monkeypatch):
    cfg, root = workspace
    emoji_map, abbreviations = _write_outside_files(root)
    cfg = dataclasses.replace(cfg, emoji_map_path=str(emoji_map),
                              abbreviations_path=str(abbreviations))
    loads = Counter()

    def spy(owner, name):
        original = getattr(owner, name)

        def load(path, *source):
            loads[str(path)] += 1
            return original(path, *source)

        monkeypatch.setattr(owner, name, load)

    for owner, name in ((Vocabulary, "load"), (LangModel, "load"), (EmojiMap, "load"),
                        (pipeline, "load_abbreviations")):
        spy(owner, name)
    run_pipeline(cfg)
    outside = (cfg.base_vocab_path, cfg.langid_model_a, cfg.langid_model_b, str(emoji_map),
               str(abbreviations))
    assert {path: loads[path] for path in outside} == dict.fromkeys(outside, 1)


def test_the_clean_manifest_records_the_emoji_map_clean_loaded(workspace, monkeypatch):
    cfg, root = workspace
    emoji_map, _ = _write_outside_files(root)
    cfg = dataclasses.replace(cfg, emoji_map_path=str(emoji_map))
    loaded = hashlib.sha256(emoji_map.read_bytes()).hexdigest()
    real_ingest = pipeline.stage_ingest

    def ingest_then_edit_the_map(cfg, **kwargs):  # the map was read before ingest
        emoji_map.write_text("\U0001F600\tzambet\n", encoding="utf-8")
        return real_ingest(cfg, **kwargs)

    monkeypatch.setattr(pipeline, "stage_ingest", ingest_then_edit_the_map)
    run_pipeline(cfg)
    clean = root / "out" / "clean"
    manifest = json.loads((clean / "manifest-clean.json").read_text(encoding="utf-8"))
    assert manifest["inputs"][str(emoji_map)] == loaded != file_digest(emoji_map)
    text = "".join(p.read_text(encoding="utf-8") for p in sorted(clean.glob("*.jsonl")))
    assert ":fata zambitoare:" in text and ":zambet:" not in text


def test_a_whole_file_read_holds_one_copy_and_digests_every_byte(tmp_path):
    path = tmp_path / "input.bin"
    size = 8 << 20
    path.write_bytes(bytes(range(256)) * (size // 256))
    out = pipeline._Outputs("langid-train", build_config(overrides={"io.output_dir": str(tmp_path)}))
    tracemalloc.start()
    try:
        with out.read(path) as fh:
            assert len(fh.read()) == size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * size
    assert out.digests == {path: hashlib.sha256(path.read_bytes()).hexdigest()}
