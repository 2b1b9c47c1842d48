"""Pin of the package's public names, ``tweetcorpus.__all__``.

A name that is removed, added or renamed fails here, so the change is
deliberate and recorded. The submodules that ``__init__`` imports from
stay out of it: ``from tweetcorpus import *`` binds only the API.
"""

import tweetcorpus
from tweetcorpus import errors

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
]


def test_public_names_are_pinned():
    assert sorted(tweetcorpus.__all__) == sorted(PUBLIC_NAMES)


# Each class in ``tweetcorpus.errors``: its parent and its exit code.
ERROR_CLASSES = {
    "TweetCorpusError": ("Exception", 2),
    "ConfigInvalid": ("TweetCorpusError", 1),
    "DataError": ("TweetCorpusError", 2),
    "IOFailure": ("TweetCorpusError", 3),
    "InputMissing": ("IOFailure", 3),
    "MalformedRecord": ("DataError", 2),
    "CorruptRecord": ("DataError", 2),
    "VersionMismatch": ("DataError", 2),
    "UnknownLabel": ("DataError", 2),
    "InvalidBIO": ("DataError", 2),
}


def test_error_hierarchy_is_pinned():
    classes = {name: value for name, value in vars(errors).items() if isinstance(value, type)}
    assert {name: (cls.__base__.__name__, cls.exit_code) for name, cls in classes.items()} \
        == ERROR_CLASSES
