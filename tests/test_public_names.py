"""Pin of the package's public names, ``tweetcorpus.__all__``.

A name that is removed, added or renamed fails here, so the change is
deliberate and recorded. The submodules that ``__init__`` imports from
are public names too.
"""

import tweetcorpus

PUBLIC_NAMES = [
    # classes
    "DedupState", "Document", "EmojiMap", "EmotionExample", "EntityCounts", "FilterConfig",
    "FilterVerdict", "IngestStats", "LangModel", "LangScore", "MetricReport", "NerExample",
    "PretrainConfig", "PretrainInstance", "RawTweet", "RejectReason", "SexismExample",
    "Vocabulary",
    # functions
    "agreement_filter", "apply_filters", "bio_decode", "build_instances", "build_records",
    "classify", "count_emoji_frequencies", "count_entities", "decode", "dedup",
    "default_emoji_map", "derive_sli_labels", "encode", "entity_f1", "extend_vocabulary",
    "f1_multilabel", "hamming_loss", "load_task_dataset", "mask_sequence", "mse",
    "normalize_entities", "parse_record", "prf_singlelabel", "read_documents", "read_records",
    "select_top_emojis", "serialize_record", "split_sentences", "subset_accuracy", "train",
    "translate_emojis", "word_count", "wordpiece_tokenize", "write_documents", "write_records",
    # submodules
    "emojidata", "errors", "filtering", "hashing", "ingest", "langid", "normalize", "parallel",
    "pretrain", "segment", "tasks", "vocab",
]


def test_public_names_are_pinned():
    assert sorted(tweetcorpus.__all__) == sorted(PUBLIC_NAMES)

