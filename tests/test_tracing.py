"""The benchmark's tracer still sees the layers it reports on.

``bench/tracing.py`` replaces functions by the names their callers look
up. If a rename or an inlined copy hides a call from it, its per-layer
numbers read zero or undercount with no error. This runs a small
one-worker pipeline under ``Tracer`` and checks the call counts the
benchmark reports against the pipeline's own manifest.
"""

import json
import random
from pathlib import Path

import pytest

from tweetcorpus.pipeline import build_config, run_pipeline
from tweetcorpus.vocab import STRUCTURAL_TOKENS

from conftest import RO_WORDS, make_text

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


# With a literal [SEP] word in the archive, masking scans every sequence
# for its candidates; without one, it takes them from the layout.
@pytest.mark.parametrize("structural_word", ["", "[SEP]"], ids=["layout", "scan"])
def test_traced_call_counts_match_the_manifest(tmp_path, tracing, structural_word):
    rng = random.Random(17)
    archive = tmp_path / "raw.jsonl"
    with open(archive, "w", encoding="utf-8") as fh:
        for i in range(30):
            sentences = [make_text(rng, RO_WORDS, rng.randint(5, 9)).capitalize() + "."
                         for _ in range(rng.randint(1, 4))]
            if i % 4 == 0 and structural_word:
                sentences.insert(1, f"Cuvantul {structural_word} apare aici.")
            fh.write(json.dumps({"id": i, "text": " ".join(sentences)}) + "\n")
    base_vocab = tmp_path / "base-vocab.txt"
    base_vocab.write_text("\n".join(list(STRUCTURAL_TOKENS) + sorted(set(RO_WORDS))) + "\n",
                          encoding="utf-8")
    dupe_factor = 3
    cfg = build_config(overrides={
        "io.input": str(archive),
        "io.output_dir": str(tmp_path / "out"),
        "vocab.base": str(base_vocab),
        "pretrain.max_seq_length": 24,
        "pretrain.dupe_factor": dupe_factor,
    })

    for module, attr, _ in tracing.TRACED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    with tracing.Tracer() as tracer:
        manifest = run_pipeline(cfg)
    _, calls = tracer.totals()

    built = manifest.counts["pretrain-data"]
    assert built["instances"] > 0
    assert calls["pretrain.mask_sequence"] == built["instances"]
    assert calls["hashing.mix64"] == (
        (built["documents"] - built["degenerate_documents"]) * dupe_factor)
    corpus = (tmp_path / "out" / "segment" / "corpus-00000.txt").read_text(encoding="utf-8")
    assert ("[SEP]" in corpus) == (structural_word == "[SEP]")
