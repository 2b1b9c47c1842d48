"""The benchmark's tracer still sees the layers it reports on.

``bench/tracing.py`` replaces functions by the names their callers look
up. If a rename or an inlined copy hides a call from it, its per-layer
numbers read zero or undercount with no error. This runs a small
one-worker pipeline under ``Tracer`` and checks the call counts the
benchmark reports against the pipeline's own manifest.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

import tweetcorpus.pipeline as pipeline
import tweetcorpus.pretrain as pretrain
from tweetcorpus.pipeline import PIPELINE, STAGES, build_config, run_pipeline
from tweetcorpus.vocab import STRUCTURAL_TOKENS

from conftest import EN_WORDS, RO_WORDS, make_bilingual_samples, make_text

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def _config(tmp_path, texts, overrides):
    """A one-worker pipeline over an archive of ``texts``."""
    archive = tmp_path / "raw.jsonl"
    with open(archive, "w", encoding="utf-8") as fh:
        for i, text in enumerate(texts):
            fh.write(json.dumps({"id": i, "text": text}, ensure_ascii=False) + "\n")
    base_vocab = tmp_path / "base-vocab.txt"
    base_vocab.write_text("\n".join(list(STRUCTURAL_TOKENS) + sorted(set(RO_WORDS))) + "\n",
                          encoding="utf-8")
    return build_config(overrides={
        "io.input": str(archive),
        "io.output_dir": str(tmp_path / "out"),
        "vocab.base": str(base_vocab),
        "pretrain.max_seq_length": 24,
        **overrides,
    })


def _run_traced(tmp_path, tracing, texts, dupe_factor=3):
    """One-worker pipeline over ``texts`` (the language gate is off)."""
    cfg = _config(tmp_path, texts, {"pretrain.dupe_factor": dupe_factor})
    for module, attr, _ in tracing.TRACED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    with tracing.Tracer() as tracer:
        manifest = run_pipeline(cfg)
    return tracer, manifest


# With a literal [SEP] word in the archive, masking scans every sequence
# for its candidates; without one, it takes them from the layout.
@pytest.mark.parametrize("structural_word", ["", "[SEP]"], ids=["layout", "scan"])
def test_traced_call_counts_match_the_manifest(tmp_path, tracing, structural_word):
    rng = random.Random(17)
    texts = []
    for i in range(30):
        sentences = [make_text(rng, RO_WORDS, rng.randint(5, 9)).capitalize() + "."
                     for _ in range(rng.randint(1, 4))]
        if i % 4 == 0 and structural_word:
            sentences.insert(1, f"Cuvantul {structural_word} apare aici.")
        texts.append(" ".join(sentences))
    dupe_factor = 3
    tracer, manifest = _run_traced(tmp_path, tracing, texts, dupe_factor)
    _, calls = tracer.totals()

    # the record codec: ingest writes each kept tweet and clean each
    # cleaned one; ingest parses each archive line, vocab and clean each
    # ingested tweet, and segment each cleaned one
    ingested, cleaned = manifest.counts["ingest"], manifest.counts["clean"]
    assert calls["ingest.serialize_record"] == ingested["emitted"] + cleaned["emitted"]
    assert calls["ingest.parse_record"] == (
        ingested["read"] + 2 * ingested["emitted"] + cleaned["emitted"])

    built = manifest.counts["pretrain-data"]
    assert built["instances"] > 0
    assert calls["pretrain.mask_sequence"] == built["instances"]
    assert calls["hashing.mix64"] == (
        (built["documents"] - built["degenerate_documents"]) * dupe_factor)
    corpus = (tmp_path / "out" / "segment" / "corpus-00000.txt").read_text(encoding="utf-8")
    assert ("[SEP]" in corpus) == (structural_word == "[SEP]")


# One emoji sequence each: a pictograph, a flag pair, a ZWJ family, a
# keycap, a skin-toned pictograph and a tag-sequence flag.
EMOJI_SEQUENCES = ("\U0001F600", "\U0001F1F7\U0001F1F4",
                   "\U0001F468\u200d\U0001F469\u200d\U0001F467", "1\ufe0f\u20e3",
                   "\U0001F44D\U0001F3FD",
                   "\U0001F3F4\U000E0067\U000E0062\U000E0073\U000E0063\U000E0074\U000E007F")


def test_traced_emoji_spans_count_every_scan(tmp_path, tracing):
    # vocab scans every ingested tweet once and clean's entity count scans
    # it once more; a scan that bypasses ``iter_emoji_spans`` (a
    # ``findall`` shortcut, say) would hide its spans from the benchmark
    rng = random.Random(23)
    texts, sequences = [], 0
    for i in range(24):
        emojis = [rng.choice(EMOJI_SEQUENCES) for _ in range(i % 4)]
        sequences += len(emojis)
        words = make_text(rng, RO_WORDS, rng.randint(6, 10)).capitalize().split()
        texts.append(" ".join(words + emojis) + f" numarul {i}.")
    tracer, manifest = _run_traced(tmp_path, tracing, texts)

    assert manifest.counts["ingest"]["emitted"] == len(texts)
    assert sequences > 0
    assert tracer.counters["emojidata.spans"] == 2 * sequences


def test_the_pipeline_runs_each_stage_once_through_its_traced_name(tmp_path, tracing):
    # run_stage looks each stage up on the module when it calls it, so the
    # tracer's wrappers see every stage the pipeline runs
    rng = random.Random(29)
    texts = [make_text(rng, RO_WORDS, 8).capitalize() + ". " +
             make_text(rng, RO_WORDS, 6).capitalize() + "." for _ in range(12)]
    tracer, _ = _run_traced(tmp_path, tracing, texts)
    spans = Counter(name for name in tracer.names if name.startswith("pipeline.stage_"))
    assert spans == {f"pipeline.{STAGES[name].runner}": 1 for name in PIPELINE}
    assert len(spans) == 5


# Wrapped by name, but called by nothing: dedup keys are BLAKE2b digests,
# the gate scores without ``classify``, and the pipeline builds and
# writes records through ``build_records``. Deleting them needs the
# benchmark's tracer to stop wrapping them.
UNCALLED = {"hashing.fnv1a64_text", "langid.classify", "pretrain.build_instances",
            "pretrain.write_records"}


def test_every_traced_name_but_the_uncalled_records_a_call(tmp_path, tracing):
    rng = random.Random(37)
    corpus = tmp_path / "langid.tsv"
    corpus.write_text("".join(f"{code}\t{text}\n" for text, code in
                              make_bilingual_samples(rng, 60)), encoding="utf-8")
    texts = [make_text(rng, RO_WORDS, 8).capitalize() + ". " +
             make_text(rng, RO_WORDS, 7).capitalize() + ". \U0001F600" for _ in range(12)]
    texts += [make_text(rng, EN_WORDS, 8).capitalize() + "." for _ in range(4)]
    models = tmp_path / "models"
    cfg = _config(tmp_path, texts, {"langid.model_a": str(models / "model-a.rlid"),
                                    "langid.model_b": str(models / "model-b.rlid")})
    with tracing.Tracer() as tracer:
        pipeline.stage_langid_train(cfg, corpus, models)
        manifest = run_pipeline(cfg)
        for path in sorted((tmp_path / "out" / "pretrain").glob("*.rbtw")):
            assert list(pretrain.read_records(path))
    _, calls = tracer.totals()

    rejected = manifest.counts["clean"]["rejected"]
    assert 0 < rejected.get("not_target_language", 0) < len(texts)
    assert {name for _, _, name in tracing.TRACED if not calls[name]} == UNCALLED
