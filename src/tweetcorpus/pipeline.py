"""Stage orchestration: config, manifests, and the end-to-end pipeline.

Stages communicate through plain per-shard files so any stage can be
re-run in isolation: deduped archives (tweets-*.jsonl), cleaned
archives (clean-*.jsonl), document files (corpus-*.txt), and binary
record files (pretrain-*.rbtw). Every stage writes a JSON manifest with
its config snapshot, input digests, counters, and output digests;
re-running with the same inputs and seed reproduces identical bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .errors import ConfigInvalid, InputMissing, TweetCorpusError
from .filtering import FilterConfig, RejectReason, apply_filters
from .ingest import IngestStats, dedup, parse_record, read_archive, serialize_record
from .langid import LangModel, agreement_filter, read_training_corpus, train
from .normalize import (
    EmojiMap,
    count_entities,
    default_emoji_map,
    normalize_entities,
    translate_emojis,
    unescape_basic_entities,
)
from .parallel import ordered_map
# build_instances and write_records stay importable from here: the traced
# benchmark (bench/tracing.py) wraps them under these names.
from .pretrain import (
    BuildStats,
    PretrainConfig,
    build_instances,
    build_records,
    read_records,
    write_records,
    write_records_jsonl,
)
from .segment import (
    Document,
    SentenceSplitter,
    load_abbreviations,
    read_document_file,
    split_sentences,
    write_documents,
)
from .vocab import (
    TWEET_TOKENS,
    Vocabulary,
    count_emoji_frequencies,
    extend_vocabulary,
    select_top_emojis,
)


@dataclass
class PipelineConfig:
    """Every stage knob, with paper-faithful defaults."""

    input: str = ""
    output_dir: str = ""
    shards: int = 1
    workers: int = 1
    seed: int = 0

    langid_model_a: str = ""
    langid_model_b: str = ""
    langid_threshold: float = 0.5
    langid_target: str = "ro"
    langid_alpha: float = 1.0
    langid_ngrams_a: tuple[int, int] = (1, 2)
    langid_ngrams_b: tuple[int, int] = (2, 3)

    emoji_map_path: str = ""
    abbreviations_path: str = ""
    base_vocab_path: str = ""
    emoji_fraction: float = 0.25

    filters: FilterConfig = field(default_factory=FilterConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)

    def flat(self) -> dict:
        out = {
            "io.input": self.input,
            "io.output_dir": self.output_dir,
            "io.shards": self.shards,
            "io.workers": self.workers,
            "seed": self.seed,
            "langid.model_a": self.langid_model_a,
            "langid.model_b": self.langid_model_b,
            "langid.threshold": self.langid_threshold,
            "langid.target": self.langid_target,
            "langid.alpha": self.langid_alpha,
            "langid.ngram_min_a": self.langid_ngrams_a[0],
            "langid.ngram_max_a": self.langid_ngrams_a[1],
            "langid.ngram_min_b": self.langid_ngrams_b[0],
            "langid.ngram_max_b": self.langid_ngrams_b[1],
            "normalize.emoji_map": self.emoji_map_path,
            "segment.abbreviations": self.abbreviations_path,
            "vocab.base": self.base_vocab_path,
            "vocab.emoji_fraction": self.emoji_fraction,
        }
        for name in ("min_words", "max_words", "max_mentions", "max_hashtags",
                     "max_urls", "max_emojis"):
            out[f"filter.{name}"] = getattr(self.filters, name)
        for f in dataclasses.fields(PretrainConfig):
            if f.name != "seed":
                out[f"pretrain.{f.name}"] = getattr(self.pretrain, f.name)
        return out


_INT_KEYS = {
    "io.shards", "io.workers", "seed",
    "langid.ngram_min_a", "langid.ngram_max_a",
    "langid.ngram_min_b", "langid.ngram_max_b",
    "filter.min_words", "filter.max_words", "filter.max_mentions",
    "filter.max_hashtags", "filter.max_urls", "filter.max_emojis",
    "pretrain.max_seq_length", "pretrain.max_predictions_per_seq",
    "pretrain.dupe_factor",
}
_FLOAT_KEYS = {
    "langid.threshold", "langid.alpha", "vocab.emoji_fraction",
    "pretrain.masked_lm_prob", "pretrain.mask_token_frac",
    "pretrain.keep_frac", "pretrain.random_frac",
    "pretrain.short_seq_prob", "pretrain.nsp_random_prob",
}
_STR_KEYS = {
    "io.input", "io.output_dir", "langid.model_a", "langid.model_b",
    "langid.target", "normalize.emoji_map", "segment.abbreviations",
    "vocab.base",
}
ALL_CONFIG_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


def parse_config_file(path: str | Path) -> dict:
    """Flat ``section.key = value`` lines; '#' comments; unknown keys fail."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigInvalid(f"{path}:{lineno}: expected key=value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in ALL_CONFIG_KEYS:
                raise ConfigInvalid(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = raw
    return values


def _coerce(key: str, raw):
    if isinstance(raw, (int, float)):
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError as exc:
        raise ConfigInvalid(f"bad value for {key}: {raw!r}") from exc
    return raw


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, overlaid by config-file values, overlaid by flags."""
    merged: dict = {}
    for source in (file_values or {}, overrides or {}):
        for key, raw in source.items():
            if raw is None:
                continue
            if key not in ALL_CONFIG_KEYS:
                raise ConfigInvalid(f"unknown config key {key!r}")
            merged[key] = _coerce(key, raw)

    cfg = PipelineConfig()
    cfg.input = merged.get("io.input", cfg.input)
    cfg.output_dir = merged.get("io.output_dir", cfg.output_dir)
    cfg.shards = merged.get("io.shards", cfg.shards)
    cfg.workers = merged.get("io.workers", cfg.workers)
    cfg.seed = merged.get("seed", cfg.seed)
    cfg.langid_model_a = merged.get("langid.model_a", cfg.langid_model_a)
    cfg.langid_model_b = merged.get("langid.model_b", cfg.langid_model_b)
    cfg.langid_threshold = merged.get("langid.threshold", cfg.langid_threshold)
    cfg.langid_target = merged.get("langid.target", cfg.langid_target)
    cfg.langid_alpha = merged.get("langid.alpha", cfg.langid_alpha)
    cfg.langid_ngrams_a = (merged.get("langid.ngram_min_a", cfg.langid_ngrams_a[0]),
                           merged.get("langid.ngram_max_a", cfg.langid_ngrams_a[1]))
    cfg.langid_ngrams_b = (merged.get("langid.ngram_min_b", cfg.langid_ngrams_b[0]),
                           merged.get("langid.ngram_max_b", cfg.langid_ngrams_b[1]))
    cfg.emoji_map_path = merged.get("normalize.emoji_map", cfg.emoji_map_path)
    cfg.abbreviations_path = merged.get("segment.abbreviations", cfg.abbreviations_path)
    cfg.base_vocab_path = merged.get("vocab.base", cfg.base_vocab_path)
    cfg.emoji_fraction = merged.get("vocab.emoji_fraction", cfg.emoji_fraction)

    cfg.filters = FilterConfig(
        min_words=merged.get("filter.min_words", 5),
        max_words=merged.get("filter.max_words", 256),
        max_mentions=merged.get("filter.max_mentions", 3),
        max_hashtags=merged.get("filter.max_hashtags", 3),
        max_urls=merged.get("filter.max_urls", 3),
        max_emojis=merged.get("filter.max_emojis", 3),
    ).validate()
    defaults = PretrainConfig()
    cfg.pretrain = PretrainConfig(
        max_seq_length=merged.get("pretrain.max_seq_length", defaults.max_seq_length),
        masked_lm_prob=merged.get("pretrain.masked_lm_prob", defaults.masked_lm_prob),
        mask_token_frac=merged.get("pretrain.mask_token_frac", defaults.mask_token_frac),
        keep_frac=merged.get("pretrain.keep_frac", defaults.keep_frac),
        random_frac=merged.get("pretrain.random_frac", defaults.random_frac),
        max_predictions_per_seq=merged.get("pretrain.max_predictions_per_seq",
                                           defaults.max_predictions_per_seq),
        dupe_factor=merged.get("pretrain.dupe_factor", defaults.dupe_factor),
        short_seq_prob=merged.get("pretrain.short_seq_prob", defaults.short_seq_prob),
        nsp_random_prob=merged.get("pretrain.nsp_random_prob", defaults.nsp_random_prob),
        seed=merged.get("seed", defaults.seed),
    ).validate()
    if cfg.shards < 1:
        raise ConfigInvalid("io.shards must be >= 1")
    if cfg.workers < 1:
        raise ConfigInvalid("io.workers must be >= 1")
    return cfg


# --- manifests ---------------------------------------------------------------


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class RunManifest:
    stage: str
    seed: int
    config: dict
    inputs: dict
    counts: dict
    outputs: dict
    tool: str = "tweetcorpus"
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    def write(self, directory: Path) -> Path:
        path = directory / f"manifest-{self.stage}.json"
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path


def _make_manifest(stage: str, cfg: PipelineConfig, inputs: Iterable[Path],
                   counts: dict, outputs: Iterable[Path], out_dir: Path) -> RunManifest:
    manifest = RunManifest(
        stage=stage,
        seed=cfg.seed,
        config=cfg.flat(),
        inputs={str(p): file_digest(p) for p in inputs},
        counts=counts,
        outputs={p.name: file_digest(p) for p in outputs},
    )
    manifest.write(out_dir)
    return manifest


def _require_inputs(paths: list[Path], what: str) -> list[Path]:
    if not paths:
        raise InputMissing(f"no {what} found")
    for p in paths:
        if not p.exists():
            raise InputMissing(f"missing input: {p}")
    return paths


def _input_paths(cfg: PipelineConfig) -> list[Path]:
    if not cfg.input:
        raise ConfigInvalid("io.input is not set")
    return _require_inputs([Path(p) for p in cfg.input.split(",") if p], "input files")


def _sharded(directory: Path, pattern: str) -> list[Path]:
    return sorted(directory.glob(pattern))


def _remove_stale(directory: Path, pattern: str, outputs: Iterable[Path]) -> None:
    """Delete files matching ``pattern`` that this run did not write, so a
    rerun with fewer shards leaves none behind for the next stage's glob."""
    written = {p.name for p in outputs}
    for path in _sharded(directory, pattern):
        if path.name not in written:
            path.unlink()


# --- stages ------------------------------------------------------------------


def stage_ingest(cfg: PipelineConfig, out_dir: str | Path | None = None) -> RunManifest:
    """Parse archives, dedup, and write round-robin shard files."""
    inputs = _input_paths(cfg)
    out = Path(out_dir or Path(cfg.output_dir) / "ingest")
    out.mkdir(parents=True, exist_ok=True)
    stats = IngestStats()

    def tweets():
        for path in inputs:
            yield from read_archive(path, stats)

    shard_paths = [out / f"tweets-{i:05}.jsonl" for i in range(cfg.shards)]
    sinks = [open(p, "w", encoding="utf-8") for p in shard_paths]
    try:
        for k, tweet in enumerate(dedup(tweets(), stats=stats)):
            sink = sinks[k % cfg.shards]
            sink.write(serialize_record(tweet))
            sink.write("\n")
    finally:
        for sink in sinks:
            sink.close()
    _remove_stale(out, "tweets-*.jsonl", shard_paths)
    return _make_manifest("ingest", cfg, inputs, stats.as_dict(), shard_paths, out)


def stage_langid_train(cfg: PipelineConfig, corpus: str | Path,
                       out_dir: str | Path | None = None) -> RunManifest:
    """Train the two agreement-ensemble models from code<TAB>text lines."""
    corpus = Path(corpus)
    _require_inputs([corpus], "language training corpus")
    out = Path(out_dir or Path(cfg.output_dir) / "langid")
    out.mkdir(parents=True, exist_ok=True)
    samples = read_training_corpus(corpus)
    path_a, path_b = out / "model-a.rlid", out / "model-b.rlid"
    train(samples, cfg.langid_ngrams_a, cfg.langid_alpha).save(path_a)
    train(samples, cfg.langid_ngrams_b, cfg.langid_alpha).save(path_b)
    counts = {"samples": len(samples)}
    return _make_manifest("langid-train", cfg, [corpus], counts, [path_a, path_b], out)


def _load_clean_context(cfg: PipelineConfig) -> dict:
    model_a = model_b = None
    if cfg.langid_model_a or cfg.langid_model_b:
        if not (cfg.langid_model_a and cfg.langid_model_b):
            raise ConfigInvalid("language filtering needs both langid.model_a and model_b")
        model_a = LangModel.load(cfg.langid_model_a)
        model_b = LangModel.load(cfg.langid_model_b)
    emoji_map = (EmojiMap.load(cfg.emoji_map_path) if cfg.emoji_map_path
                 else default_emoji_map())
    return {
        "model_a": model_a,
        "model_b": model_b,
        "threshold": cfg.langid_threshold,
        "target": cfg.langid_target,
        "filters": cfg.filters,
        "emoji_map": emoji_map,
    }


def clean_tweet_text(text: str, ctx: dict) -> tuple[str | None, str]:
    """One tweet through unescape, language gate, normalize, filters,
    and emoji translation. Returns (cleaned text or None, reason value)."""
    text = unescape_basic_entities(text)
    if ctx["model_a"] is not None:
        try:
            ok = agreement_filter(text, ctx["model_a"], ctx["model_b"],
                                  ctx["target"], ctx["threshold"])
        except TweetCorpusError:
            return None, RejectReason.NOT_TARGET_LANGUAGE.value
        if not ok:
            return None, RejectReason.NOT_TARGET_LANGUAGE.value
    counts = count_entities(text)
    normalized = normalize_entities(text)
    verdict = apply_filters(normalized, counts, ctx["filters"])
    if not verdict.accepted:
        return None, verdict.reason.value
    return translate_emojis(normalized, ctx["emoji_map"]), RejectReason.NONE.value


def _clean_batch(ctx: dict, lines: list[str]) -> list[tuple[str, str]]:
    out = []
    for line in lines:
        tweet = parse_record(line)
        cleaned, reason = clean_tweet_text(tweet.text, ctx)
        if cleaned is None:
            out.append(("", reason))
        else:
            out.append((serialize_record(dataclasses.replace(tweet, text=cleaned)),
                        reason))
    return out


def _batches(lines: Iterable[str], size: int) -> Iterator[list[str]]:
    batch: list[str] = []
    for line in lines:
        batch.append(line)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def stage_clean(cfg: PipelineConfig, in_dir: str | Path | None = None,
                out_dir: str | Path | None = None) -> RunManifest:
    """Language-filter, normalize, filter, and emoji-translate each shard."""
    src = Path(in_dir or Path(cfg.output_dir) / "ingest")
    shard_files = _require_inputs(_sharded(src, "tweets-*.jsonl"), "deduped shards")
    out = Path(out_dir or Path(cfg.output_dir) / "clean")
    out.mkdir(parents=True, exist_ok=True)

    ctx = _load_clean_context(cfg)
    counts = {"read": 0, "emitted": 0,
              "rejected": {reason.value: 0 for reason in RejectReason
                           if reason is not RejectReason.NONE}}

    out_paths = []
    for shard_file in shard_files:
        dst = out / shard_file.name.replace("tweets-", "clean-")
        out_paths.append(dst)
        with open(shard_file, encoding="utf-8") as fh, \
                open(dst, "w", encoding="utf-8") as sink:
            batches = _batches((line for line in fh if line.strip()), 512)
            for batch in ordered_map(_clean_batch, ctx, batches, cfg.workers):
                for record, reason in batch:
                    counts["read"] += 1
                    if record:
                        counts["emitted"] += 1
                        sink.write(record)
                        sink.write("\n")
                    else:
                        counts["rejected"][reason] += 1
    _remove_stale(out, "clean-*.jsonl", out_paths)
    return _make_manifest("clean", cfg, shard_files, counts, out_paths, out)


def stage_segment(cfg: PipelineConfig, in_dir: str | Path | None = None,
                  out_dir: str | Path | None = None) -> RunManifest:
    """Split cleaned tweets into sentences and emit document files."""
    src = Path(in_dir or Path(cfg.output_dir) / "clean")
    shard_files = _require_inputs(_sharded(src, "clean-*.jsonl"), "clean shards")
    out = Path(out_dir or Path(cfg.output_dir) / "segment")
    out.mkdir(parents=True, exist_ok=True)

    splitter = (SentenceSplitter(load_abbreviations(cfg.abbreviations_path))
                if cfg.abbreviations_path else SentenceSplitter())
    counts = {"read": 0, "documents": 0, "sentences": 0}
    out_paths = []
    for shard_index, shard_file in enumerate(shard_files):
        dst = out / f"corpus-{shard_index:05}.txt"
        out_paths.append(dst)

        def documents():
            with open(shard_file, encoding="utf-8") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    counts["read"] += 1
                    sentences = split_sentences(parse_record(line).text, splitter)
                    counts["sentences"] += len(sentences)
                    yield Document(tuple(sentences))

        with open(dst, "w", encoding="utf-8") as sink:
            counts["documents"] += write_documents(documents(), sink)
    _remove_stale(out, "corpus-*.txt", out_paths)
    return _make_manifest("segment", cfg, shard_files, counts, out_paths, out)


def stage_vocab(cfg: PipelineConfig, in_dir: str | Path | None = None,
                out_dir: str | Path | None = None) -> RunManifest:
    """Extend the base vocabulary with tweet tokens and top emojis.

    Runs on the deduped (pre-translation) shards so emoji frequencies
    see the original emoji characters.
    """
    if not cfg.base_vocab_path:
        raise ConfigInvalid("vocab.base is not set")
    base_path = Path(cfg.base_vocab_path)
    _require_inputs([base_path], "base vocabulary")
    src = Path(in_dir or Path(cfg.output_dir) / "ingest")
    shard_files = _require_inputs(_sharded(src, "tweets-*.jsonl"), "deduped shards")
    out = Path(out_dir or Path(cfg.output_dir) / "vocab")
    out.mkdir(parents=True, exist_ok=True)

    def texts():
        for shard_file in shard_files:
            with open(shard_file, encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        yield parse_record(line).text

    table = count_emoji_frequencies(texts())
    top = select_top_emojis(table, cfg.emoji_fraction) if table.total_distinct else []
    base = Vocabulary.load(base_path)
    extended = extend_vocabulary(base, TWEET_TOKENS, top)

    vocab_path = out / "vocab.txt"
    extended.save(vocab_path)
    report_path = out / "emoji-frequencies.tsv"
    table.write_report(report_path)
    counts = {
        "base_tokens": len(base),
        "distinct_emojis": table.total_distinct,
        "selected_emojis": len(top),
        "extended_tokens": len(extended),
    }
    return _make_manifest("vocab", cfg, shard_files + [base_path], counts,
                          [vocab_path, report_path], out)


def stage_pretrain_data(cfg: PipelineConfig, in_dir: str | Path | None = None,
                        vocab_path: str | Path | None = None,
                        out_dir: str | Path | None = None,
                        debug_jsonl: bool = False) -> RunManifest:
    """Generate and serialize MLM/NSP instances per document shard."""
    src = Path(in_dir or Path(cfg.output_dir) / "segment")
    shard_files = _require_inputs(_sharded(src, "corpus-*.txt"), "document shards")
    vocab_file = Path(vocab_path or Path(cfg.output_dir) / "vocab" / "vocab.txt")
    _require_inputs([vocab_file], "vocabulary")
    out = Path(out_dir or Path(cfg.output_dir) / "pretrain")
    out.mkdir(parents=True, exist_ok=True)

    vocab = Vocabulary.load(vocab_file)
    counts = {"documents": 0, "degenerate_documents": 0, "instances": 0}
    out_paths = []
    for shard_index, shard_file in enumerate(shard_files):
        dst = out / f"pretrain-{shard_index:05}.rbtw"
        out_paths.append(dst)
        stats = BuildStats()
        documents = read_document_file(shard_file)
        build_records(documents, vocab, cfg.pretrain, dst,
                      workers=cfg.workers, stats=stats)
        if debug_jsonl:
            debug_path = out / f"pretrain-{shard_index:05}.jsonl"
            write_records_jsonl(read_records(dst), debug_path, cfg.pretrain)
            out_paths.append(debug_path)
        counts["documents"] += stats.documents
        counts["degenerate_documents"] += stats.degenerate_documents
        counts["instances"] += stats.instances
    _remove_stale(out, "pretrain-*.rbtw", out_paths)
    _remove_stale(out, "pretrain-*.jsonl", out_paths)
    return _make_manifest("pretrain-data", cfg, shard_files + [vocab_file],
                          counts, out_paths, out)


def stage_stats(cfg: PipelineConfig, out_dir: str | Path | None = None) -> RunManifest:
    """Summarize an archive without transforming it."""
    inputs = _input_paths(cfg)
    out = Path(out_dir or Path(cfg.output_dir) / "stats")
    out.mkdir(parents=True, exist_ok=True)
    stats = IngestStats()
    words = 0
    entity_totals = {"mentions": 0, "hashtags": 0, "urls": 0, "emojis": 0}
    for path in inputs:
        for tweet in read_archive(path, stats):
            stats.emitted += 1
            words += len(tweet.text.split())
            counts = count_entities(tweet.text)
            for key in entity_totals:
                entity_totals[key] += getattr(counts, key)
    counts = stats.as_dict()
    counts.pop("duplicates_id")
    counts.pop("duplicates_text")
    counts["words"] = words
    counts["entities"] = entity_totals
    return _make_manifest("stats", cfg, inputs, counts, [], out)


STAGES = ("ingest", "langid-train", "clean", "segment", "vocab",
          "pretrain-data", "task-prep", "eval", "stats", "pipeline")


def run_stage(stage: str, cfg: PipelineConfig, **kwargs) -> RunManifest:
    """Dispatch one named stage; extra keyword arguments reach the stage."""
    runners = {
        "ingest": stage_ingest,
        "langid-train": stage_langid_train,
        "clean": stage_clean,
        "segment": stage_segment,
        "vocab": stage_vocab,
        "pretrain-data": stage_pretrain_data,
        "stats": stage_stats,
        "pipeline": lambda config: run_pipeline(config),
    }
    if stage not in runners:
        raise ConfigInvalid(f"unknown stage {stage!r} (task-prep and eval "
                            "take dataset paths; use the CLI or tasks module)")
    try:
        return runners[stage](cfg, **kwargs)
    except TweetCorpusError as exc:
        raise type(exc)(f"stage {stage}: {exc}") from exc


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """ingest -> vocab -> clean -> segment -> pretrain-data.

    Vocabulary extension runs right after ingest because emoji counting
    needs the pre-translation text. An archive whose tweets are all
    rejected still succeeds: the corpus is empty, a warning is printed,
    and the record stage is skipped.
    """
    if not cfg.output_dir:
        raise ConfigInvalid("io.output_dir is not set")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    counts: dict = {}
    stage_manifests = []
    for name, runner in (
        ("ingest", lambda: stage_ingest(cfg)),
        ("vocab", lambda: stage_vocab(cfg)),
        ("clean", lambda: stage_clean(cfg)),
        ("segment", lambda: stage_segment(cfg)),
    ):
        try:
            manifest = runner()
        except TweetCorpusError as exc:
            counts["failed_stage"] = name
            RunManifest(stage="pipeline", seed=cfg.seed, config=cfg.flat(),
                        inputs={}, counts=counts, outputs={}).write(out)
            raise type(exc)(f"stage {name}: {exc}") from exc
        counts[name] = manifest.counts
        stage_manifests.append(manifest)

    if counts["segment"]["documents"] < 2:
        print("warning: fewer than 2 documents survived cleaning; "
              "skipping pretraining records", file=sys.stderr)
        counts["pretrain-data"] = {"documents": counts["segment"]["documents"],
                                   "degenerate_documents": 0, "instances": 0,
                                   "skipped": True}
    else:
        manifest = stage_pretrain_data(cfg)
        counts["pretrain-data"] = manifest.counts
        stage_manifests.append(manifest)

    outputs: dict = {}
    for manifest in stage_manifests:
        for name, digest in manifest.outputs.items():
            outputs[f"{manifest.stage}/{name}"] = digest

    final = RunManifest(
        stage="pipeline",
        seed=cfg.seed,
        config=cfg.flat(),
        inputs=stage_manifests[0].inputs,
        counts=counts,
        outputs=outputs,
    )
    final.write(out)
    return final
