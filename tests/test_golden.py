"""Golden digests of a small seeded pipeline run.

The other tests compare one run against another, so a change to the
RNG protocol, the tokenizer or the record byte format would pass them
unnoticed. This fixture pins the sha256 of both language models, the
vocabulary, the corpus and the record file, and the clean stage's
reject tallies, at one and at two workers, and at two workers with
batches small enough that both parallel stages start a pool. A further
case pins the records of a shard with literal [CLS] and [SEP]
words, where masking scans each sequence for its candidates, and
another the ingest and clean shards, the bytes of the record codec.
"""

import dataclasses
import hashlib
import io
import json
import random
import shutil

import pytest

from tweetcorpus import parallel, pipeline, pretrain
from tweetcorpus.pipeline import (
    build_config,
    run_pipeline,
    stage_clean,
    stage_ingest,
    stage_langid_train,
    stage_pretrain_data,
)
from tweetcorpus.pretrain import BuildStats, PretrainConfig, build_records
from tweetcorpus.segment import Document
from tweetcorpus.vocab import STRUCTURAL_TOKENS, Vocabulary

from conftest import EN_WORDS, RO_WORDS, make_text

GOLDEN = {
    "vocab/vocab.txt":
        "dd0bae34b37476c97a2444e5725f94dbd958a49c94bc4b1f8bcfe406748a2646",
    "segment/corpus-00000.txt":
        "0074958729d3a7c4bcb11b60099c4b1cba754806526239bbccc7c8f59342bc96",
    "pretrain/pretrain-00000.rbtw":
        "260b04d5c72cfe6f68811418dc485dc223c2292bdb1ce6a2620311e742658025",
}

# The clean manifest's tallies pin the reject precedence: the filters run
# before the language gate, so the one tweet that is both too short and
# foreign counts as too_short, not as not_target_language.
GOLDEN_CLEAN_COUNTS = {
    "read": 150,
    "emitted": 129,
    "rejected": {"too_short": 2, "too_long": 0, "too_many_mentions": 0,
                 "too_many_hashtags": 0, "too_many_urls": 0, "too_many_emojis": 0,
                 "not_target_language": 19},
}

# The two language models ``stage_langid_train`` writes from the fixture's
# corpus: any change to training or to the ``.rlid`` format fails here.
GOLDEN_MODELS = {
    "model-a.rlid": "44d4fea5a0d384da64f2106f9fd7015a6e0bd8b61bfe1511423be31db30ce621",
    "model-b.rlid": "beab59a2532db46a702b1b0a3c5e7d4c5c86c8205df12edf77c575cd9b66268d",
}

# The debug twin of the record file (``stage_pretrain_data(debug_jsonl=True)``).
GOLDEN_JSONL = "a80e3f572057d12eec2c87e469c28069d36bdf4186bde486975264eaed9407c8"

EMOJI = ("\U0001F600", "\U0001F602", "❤️", "\U0001F44D\U0001F3FD",
         "\U0001F1F7\U0001F1F4", "\U0001F525")


def _tweet(rng: random.Random) -> str:
    words = EN_WORDS if rng.random() < 0.15 else RO_WORDS
    sentences = []
    for _ in range(rng.randint(1, 4)):
        sentence = make_text(rng, words, rng.randint(4, 12)).capitalize()
        if rng.random() < 0.2:
            sentence += " " + rng.choice(EMOJI)
        if rng.random() < 0.15:
            sentence = "@prieten " + sentence
        if rng.random() < 0.1:
            sentence += " https://exemplu.ro/" + str(rng.randint(1, 99))
        if rng.random() < 0.1:
            sentence += " țară" + rng.choice("!?")  # no piece covers "ț"
        sentences.append(sentence + rng.choice(".!?"))
    return " ".join(sentences)


def _base_vocab() -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    pieces = [c for c in letters + letters.upper() + ".!?/:0123456789"]
    pieces += ["##" + c for c in letters + ".!?/:0123456789"]
    pieces += ["##ul", "##are", "##ește", "##lor", "pri", "##eten"]
    return list(STRUCTURAL_TOKENS) + sorted(set(RO_WORDS + EN_WORDS)) + pieces


@pytest.fixture(scope="module")
def fixture_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    rng = random.Random(2024)
    archive = root / "raw.jsonl"
    with open(archive, "w", encoding="utf-8") as fh:
        for i in range(157):
            tweet_id = i if i % 23 else i - 1  # a few duplicate ids
            fh.write(json.dumps({"id": tweet_id, "text": _tweet(rng)},
                                ensure_ascii=False) + "\n")
    corpus = root / "langid.tsv"
    with open(corpus, "w", encoding="utf-8") as fh:
        for i in range(120):
            lang, words = ("ro", RO_WORDS) if i % 2 == 0 else ("en", EN_WORDS)
            fh.write(f"{lang}\t{make_text(rng, words, 8)}\n")
    base_vocab = root / "base-vocab.txt"
    base_vocab.write_text("\n".join(_base_vocab()) + "\n", encoding="utf-8")
    return root, archive, corpus, base_vocab


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_golden_run(fixture_inputs, name, workers):
    root, archive, corpus, base_vocab = fixture_inputs
    out = root / f"out-{name}"
    cfg = build_config(overrides={
        "io.input": str(archive),
        "io.output_dir": str(out),
        "io.workers": workers,
        "seed": 13,
        "vocab.base": str(base_vocab),
        "pretrain.max_seq_length": 48,
        "pretrain.max_predictions_per_seq": 6,
        "pretrain.dupe_factor": 5,
    })
    stage_langid_train(cfg, corpus, root / f"models-{name}")
    assert {model: _sha256(root / f"models-{name}" / model) for model in GOLDEN_MODELS} \
        == GOLDEN_MODELS
    cfg = dataclasses.replace(cfg, langid_model_a=str(root / f"models-{name}" / "model-a.rlid"),
                              langid_model_b=str(root / f"models-{name}" / "model-b.rlid"))
    run_pipeline(cfg)
    assert {path: _sha256(out / path) for path in GOLDEN} == GOLDEN
    clean = json.loads((out / "clean" / "manifest-clean.json").read_text(encoding="utf-8"))
    assert clean["counts"] == GOLDEN_CLEAN_COUNTS

    debug = root / f"debug-{name}"
    for directory in ("vocab", "segment"):
        shutil.copytree(out / directory, debug / directory)
    stage_pretrain_data(dataclasses.replace(cfg, output_dir=str(debug)), debug_jsonl=True)
    records = debug / "pretrain"
    assert _sha256(records / "pretrain-00000.rbtw") == GOLDEN["pretrain/pretrain-00000.rbtw"]
    assert _sha256(records / "pretrain-00000.jsonl") == GOLDEN_JSONL


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_digests(fixture_inputs, workers):
    _check_golden_run(fixture_inputs, str(workers), workers)


def test_golden_digests_through_a_pool(fixture_inputs, monkeypatch):
    # The fixture is one clean batch and two pretrain chunks, which
    # ``ordered_map`` runs in process even at 2 workers. Smaller batches
    # and chunks give each map enough items to start a pool.
    monkeypatch.setattr(pipeline, "CLEAN_BATCH", 16)
    monkeypatch.setattr(pretrain, "CHUNK_PAIRS", 64)
    pooled = []
    real_pool = parallel.multiprocessing.Pool

    def spy_pool(*args, **kwargs):
        pooled.append(kwargs["initargs"][0].__name__)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(parallel.multiprocessing, "Pool", spy_pool)
    _check_golden_run(fixture_inputs, "pooled", 2)
    assert {"_clean_batch", "_record_chunk"} <= set(pooled)


# ``build_records`` on a shard whose sentences hold the literal words
# [CLS] and [SEP]: they tokenize to the structural ids, so masking must
# find its candidates by scanning every token, not from the layout.
GOLDEN_STRUCTURAL_WORDS = (
    82, "7ff7e6044cb196de94903745aaa5861c785f0db3335cf8cdef55a3e27c8d4b06")


def test_golden_records_with_structural_words():
    rng = random.Random(31)
    vocab = Vocabulary(list(STRUCTURAL_TOKENS) + sorted(set(RO_WORDS)))
    docs = []
    for d in range(12):
        sentences = []
        for s in range(rng.randint(1, 5)):
            words = [rng.choice(RO_WORDS) for _ in range(rng.randint(1, 9))]
            if (d + s) % 3 == 0:
                words.insert(rng.randint(0, len(words)), rng.choice(("[CLS]", "[SEP]")))
            if d == 4 and s == 0:
                words = ["[SEP]", words[0], "[CLS]", "[SEP]"]
            sentences.append(" ".join(words))
        docs.append(Document(tuple(sentences)))
    cfg = PretrainConfig(max_seq_length=24, max_predictions_per_seq=4,
                         dupe_factor=5, seed=8)
    for workers in (1, 2):
        buf = io.BytesIO()
        stats = BuildStats()
        count = build_records(docs, vocab, cfg, buf, workers=workers, stats=stats)
        assert count == stats.instances
        assert (count, hashlib.sha256(buf.getvalue()).hexdigest()) == GOLDEN_STRUCTURAL_WORDS


# The record codec's bytes: an ingest shard and a clean shard written
# from an archive with ``created_at`` in every accepted spelling (``Z``,
# ``±hh:mm`` offsets, fractional seconds, years 1000-9999), ``lang``
# fields and non-ASCII text. Fractional seconds are floored: tweet 69's
# 1639-10-10T12:19:20.066+02:00 is written as 1639-10-10T10:19:20Z.
GOLDEN_CODEC = {
    "ingest/tweets-00000.jsonl":
        "ca8c281376332735147035cd5f542d34f9d02aa608599bb89c140f5613511d30",
    "clean/clean-00000.jsonl":
        "3020142d3a369bc41cd267272ce84153103aa5d11cf0ceb525632ddba7cba61a",
}

_CODEC_EXTRAS = ("", " ăâîșț ȘȚ", " “ghilimele” și «altele»", " naïve café",
                 " 中文 字", " tab\tși linie", ' "citat" \\ bară', "  spațiu")


def _created_at(rng: random.Random, i: int) -> str | None:
    fixed = ("1000-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "1969-12-31T23:59:59Z",
             "1970-01-01T00:00:01+00:00", "2008-01-01T00:00:00.999999Z")
    if i < len(fixed):
        return fixed[i]
    if i % 7 == 0:
        return None
    stamp = "%04d-%02d-%02dT%02d:%02d:%02d" % (
        rng.randint(1001, 9998), rng.randint(1, 12), rng.randint(1, 28),
        rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59))
    if rng.random() < 0.3:
        stamp += rng.choice((".%03d" % rng.randint(0, 999), ".%06d" % rng.randint(0, 999999)))
    return stamp + rng.choice(("Z", "+00:00", "+02:00", "+03:00", "-05:30", "+14:00", "-12:00"))


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_record_codec_shards(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(pipeline, "CLEAN_BATCH", 16)  # 2 workers start a pool
    rng = random.Random(77)
    archive = tmp_path / "raw.jsonl"
    with open(archive, "w", encoding="utf-8") as fh:
        for i in range(96):
            obj = {"id": i - (i % 19 == 18), "text": _tweet(rng) + rng.choice(_CODEC_EXTRAS)}
            created_at = _created_at(rng, i)
            if created_at is not None:
                obj["created_at"] = created_at
            if i % 3:
                obj["lang"] = rng.choice(("ro", "en", "und"))
            fh.write(json.dumps(obj, ensure_ascii=bool(i % 2)) + "\n")
    out = tmp_path / "out"
    cfg = build_config(overrides={"io.input": str(archive), "io.output_dir": str(out),
                                  "io.workers": workers})
    manifests = [stage_ingest(cfg), stage_clean(cfg)]
    assert [m.counts["emitted"] for m in manifests] == [91, 91]
    assert {path: _sha256(out / path) for path in GOLDEN_CODEC} == GOLDEN_CODEC
