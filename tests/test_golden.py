"""Golden digests of a small seeded pipeline run.

The other tests compare one run against another, so a change to the
RNG protocol, the tokenizer or the record byte format would pass them
unnoticed. This fixture pins the sha256 of the vocabulary, the corpus
and the record file, at one and at two workers.
"""

import hashlib
import json
import random

import pytest

from tweetcorpus.pipeline import (
    build_config,
    run_pipeline,
    stage_langid_train,
    stage_pretrain_data,
)
from tweetcorpus.vocab import STRUCTURAL_TOKENS

from conftest import EN_WORDS, RO_WORDS, make_text

GOLDEN = {
    "vocab/vocab.txt":
        "dd0bae34b37476c97a2444e5725f94dbd958a49c94bc4b1f8bcfe406748a2646",
    "segment/corpus-00000.txt":
        "0074958729d3a7c4bcb11b60099c4b1cba754806526239bbccc7c8f59342bc96",
    "pretrain/pretrain-00000.rbtw":
        "260b04d5c72cfe6f68811418dc485dc223c2292bdb1ce6a2620311e742658025",
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


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_digests(fixture_inputs, workers):
    root, archive, corpus, base_vocab = fixture_inputs
    out = root / f"out-{workers}"
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
    stage_langid_train(cfg, corpus, root / f"models-{workers}")
    cfg.langid_model_a = str(root / f"models-{workers}" / "model-a.rlid")
    cfg.langid_model_b = str(root / f"models-{workers}" / "model-b.rlid")
    run_pipeline(cfg)
    assert {name: _sha256(out / name) for name in GOLDEN} == GOLDEN

    stage_pretrain_data(cfg, out_dir=out / "debug", debug_jsonl=True)
    assert _sha256(out / "debug" / "pretrain-00000.rbtw") == GOLDEN["pretrain/pretrain-00000.rbtw"]
    assert _sha256(out / "debug" / "pretrain-00000.jsonl") == GOLDEN_JSONL
