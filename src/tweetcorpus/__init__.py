"""tweetcorpus: tweet archives in, pretraining data and metrics out."""

__version__ = "0.1.0"

from .filtering import FilterConfig, FilterVerdict, RejectReason, apply_filters, word_count
from .ingest import DedupState, IngestStats, RawTweet, dedup, parse_record, serialize_record
from .langid import LangModel, LangScore, agreement_filter, classify, train
from .normalize import (
    EmojiMap,
    EntityCounts,
    count_entities,
    default_emoji_map,
    normalize_entities,
    translate_emojis,
)
from .pretrain import (
    PretrainConfig,
    PretrainInstance,
    build_instances,
    build_records,
    mask_sequence,
    read_records,
    write_records,
)
from .segment import Document, SentenceSplitter, read_documents, split_sentences, write_documents
from .tasks import (
    EmotionExample,
    MetricReport,
    NerExample,
    SexismExample,
    bio_decode,
    derive_sli_labels,
    entity_f1,
    f1_multilabel,
    hamming_loss,
    load_task_dataset,
    mse,
    prf_singlelabel,
    subset_accuracy,
)
from .vocab import (
    Vocabulary,
    count_emoji_frequencies,
    decode,
    encode,
    extend_vocabulary,
    select_top_emojis,
    wordpiece_tokenize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
