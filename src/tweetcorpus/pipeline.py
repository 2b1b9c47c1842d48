"""Stage orchestration: config, manifests, and the end-to-end pipeline.

Stages hand off through plain per-shard files, so any stage can be
re-run in isolation. Each stage is declared once, in ``STAGES``. Every
stage writes a JSON manifest with its config snapshot, the digests of
every file it read, counters and output digests, and the next stage
reads the files that manifest lists and no others. A stage run
(``_Outputs``) finds its inputs and commits its outputs as a unit: no
half-written file ever has a final name, and the manifest comes last.
Re-running with the same inputs and seed reproduces identical bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from . import __version__
from .errors import ConfigInvalid, DataError, InputMissing, IOFailure, TweetCorpusError
from .filtering import FilterConfig, RejectReason, apply_filters, word_count
from .ingest import IngestStats, RawTweet, dedup, parse_record, read_archive, serialize_record
from .langid import LangModel, agreement_filter, read_training_corpus, train
from .normalize import (
    EmojiMap,
    count_entities,
    default_emoji_map,
    normalize_entities,
    read_text_lines,
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
    default_abbreviations,
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
    write_emoji_report,
)


class Stage(NamedTuple):
    runner: str  # the function of this module that runs the stage
    directory: str  # its default output directory under io.output_dir
    upstream: str | None = None  # the stage whose manifest lists its inputs
    outside: tuple[str, ...] = ()  # config fields naming the outside files it reads


# Every stage, declared once. The pipeline runs ingest and each stage that
# has an upstream, in this order: vocab counts emoji before clean
# translates them.
STAGES = {
    "ingest": Stage("stage_ingest", "ingest"),
    "vocab": Stage("stage_vocab", "vocab", "ingest", ("base_vocab_path",)),
    "clean": Stage("stage_clean", "clean", "ingest",
                   ("langid_model_a", "langid_model_b", "emoji_map_path")),
    "segment": Stage("stage_segment", "segment", "clean", ("abbreviations_path",)),
    "pretrain-data": Stage("stage_pretrain_data", "pretrain", "segment"),
    "langid-train": Stage("stage_langid_train", "langid"),
    "stats": Stage("stage_stats", "stats"),
    "pipeline": Stage("run_pipeline", ""),
}
PIPELINE = ("ingest", *(name for name, stage in STAGES.items() if stage.upstream))


def _key(key: str, default, flag: str | None = None, commands: tuple[str, ...] = (),
         help: str = ""):
    """A field holding config key ``key``; ``flag`` sets it on ``commands``."""
    return field(default=default,
                 metadata={"key": key, "flag": flag, "commands": commands, "help": help})


# The subcommands that take a flag; GLOBAL flags go before or after any.
GLOBAL = ("*",)
_ARCHIVES = ("ingest", "stats", "pipeline")
_CLEAN = ("clean", "pipeline")
_RECORDS = ("pretrain-data", "pipeline")

_ONE_MODEL = "language filtering needs both langid.model_a and model_b"


@dataclass
class PipelineConfig:
    """Every stage knob, with paper-faithful defaults.

    The fields are the config table: each gives its key, type, default,
    flag and subcommands once; the config file parser, ``flat()``,
    ``build_config`` and the CLI flags are derived from them. The fields
    of ``filters`` and ``pretrain`` are keys ``filter.<field>`` and
    ``pretrain.<field>`` with flags ``--<field>``.
    """

    input: str = _key("io.input", "", "--input", _ARCHIVES, "archive(s), comma separated")
    output_dir: str = _key("io.output_dir", "", "--output-dir", tuple(STAGES), "output directory")
    shards: int = _key("io.shards", 1, "--shards", GLOBAL, "output shard count")
    workers: int = _key("io.workers", 1, "--workers", GLOBAL, "worker process count")
    seed: int = _key("seed", 0, "--seed", GLOBAL, "global RNG seed")

    langid_model_a: str = _key("langid.model_a", "", "--model-a", _CLEAN, "first model file")
    langid_model_b: str = _key("langid.model_b", "", "--model-b", _CLEAN, "second model file")
    langid_threshold: float = _key("langid.threshold", 0.5, "--threshold", _CLEAN,
                                   "agreement probability floor")
    langid_target: str = _key("langid.target", "ro", "--target", _CLEAN, "target language")
    langid_alpha: float = _key("langid.alpha", 1.0, "--alpha", ("langid-train",),
                               "add-alpha smoothing")
    langid_ngram_min_a: int = _key("langid.ngram_min_a", 1)
    langid_ngram_max_a: int = _key("langid.ngram_max_a", 2)
    langid_ngram_min_b: int = _key("langid.ngram_min_b", 2)
    langid_ngram_max_b: int = _key("langid.ngram_max_b", 3)

    emoji_map_path: str = _key("normalize.emoji_map", "", "--emoji-map", _CLEAN,
                               "emoji translation TSV")
    abbreviations_path: str = _key("segment.abbreviations", "", "--abbreviations",
                                   ("segment",), "abbreviation list file")
    base_vocab_path: str = _key("vocab.base", "", "--base-vocab", ("vocab", "pipeline"),
                                "base vocabulary file")
    emoji_fraction: float = _key("vocab.emoji_fraction", 0.25, "--emoji-fraction", ("vocab",),
                                 "share of distinct emojis added")

    filters: FilterConfig = field(default_factory=FilterConfig,
                                  metadata={"prefix": "filter", "commands": _CLEAN})
    # the record seed is the global seed, not a key of its own
    pretrain: PretrainConfig = field(default_factory=PretrainConfig, metadata={
        "prefix": "pretrain", "commands": _RECORDS, "omitted": ("seed",),
        "unflagged": ("mask_token_frac", "keep_frac", "random_frac")})

    @property
    def langid_ngrams_a(self) -> tuple[int, int]:
        return self.langid_ngram_min_a, self.langid_ngram_max_a

    @property
    def langid_ngrams_b(self) -> tuple[int, int]:
        return self.langid_ngram_min_b, self.langid_ngram_max_b

    def flat(self) -> dict:
        return {key: getattr(getattr(self, spec.section) if spec.section else self, spec.name)
                for key, spec in CONFIG_KEYS.items()}

    def validate(self) -> "PipelineConfig":
        """Reject out-of-range values before any stage runs."""
        self.filters.validate()
        self.pretrain.validate()
        if self.shards < 1:
            raise ConfigInvalid("io.shards must be >= 1")
        if self.workers < 1:
            raise ConfigInvalid("io.workers must be >= 1")
        if not 0 < self.langid_threshold < 1:
            raise ConfigInvalid("langid.threshold must be in (0, 1)")
        if not 0 < self.langid_alpha < math.inf:
            raise ConfigInvalid("langid.alpha must be finite and > 0")
        for model, (low, high) in (("a", self.langid_ngrams_a), ("b", self.langid_ngrams_b)):
            if not 1 <= low <= high <= 5:
                raise ConfigInvalid(f"langid.ngram_min_{model} and langid.ngram_max_{model} "
                                    "must satisfy 1 <= min <= max <= 5")
        if not 0 < self.emoji_fraction <= 1:
            raise ConfigInvalid("vocab.emoji_fraction must be in (0, 1]")
        if bool(self.langid_model_a) != bool(self.langid_model_b):
            raise ConfigInvalid(_ONE_MODEL)
        return self


@dataclass(frozen=True)
class ConfigKey:
    """One row of the config table."""

    key: str
    type: type
    default: object
    flag: str | None
    commands: tuple[str, ...]
    help: str
    section: str | None  # the PipelineConfig field holding the sub-config, if any
    name: str  # the field holding the value

    def coerce(self, raw):
        """Parse a config-file string; numbers pass as they are."""
        if isinstance(raw, (int, float)) or self.type is str:
            return raw
        try:
            return self.type(raw)
        except ValueError as exc:
            raise ConfigInvalid(f"bad value for {self.key}: {raw!r}") from exc


def _config_keys() -> dict[str, ConfigKey]:
    types = {"int": int, "float": float, "str": str}  # annotations are strings here
    keys = {}
    for f in dataclasses.fields(PipelineConfig):
        meta = f.metadata
        if "key" in meta:
            keys[meta["key"]] = ConfigKey(meta["key"], types[f.type], f.default, meta["flag"],
                                          meta["commands"], meta["help"], None, f.name)
            continue
        for sub in dataclasses.fields(f.default_factory):
            if sub.name not in meta.get("omitted", ()):
                key = f"{meta['prefix']}.{sub.name}"
                flag = (None if sub.name in meta.get("unflagged", ())
                        else "--" + sub.name.replace("_", "-"))
                keys[key] = ConfigKey(key, types[sub.type], sub.default, flag,
                                      meta["commands"], "", f.name, sub.name)
    return keys


CONFIG_KEYS = _config_keys()


def parse_config_file(path: str | Path) -> dict:
    """Flat ``section.key = value`` lines; '#' comments; unknown keys fail."""
    values: dict = {}
    for lineno, line in enumerate(read_text_lines(path, ConfigInvalid), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigInvalid(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = raw
    return values


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, overlaid by config-file values, overlaid by flags."""
    values = {key: spec.default for key, spec in CONFIG_KEYS.items()}
    for source in (file_values or {}, overrides or {}):
        for key, raw in source.items():
            if raw is None:
                continue
            if key not in CONFIG_KEYS:
                raise ConfigInvalid(f"unknown config key {key!r}")
            values[key] = CONFIG_KEYS[key].coerce(raw)

    def fields_of(section: str | None) -> dict:
        return {spec.name: values[key] for key, spec in CONFIG_KEYS.items()
                if spec.section == section}

    return PipelineConfig(
        **fields_of(None),
        filters=FilterConfig(**fields_of("filters")),
        pretrain=PretrainConfig(**fields_of("pretrain"), seed=values["seed"]),
    ).validate()


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
        """Write ``manifest-<stage>.json`` as a partial file and move it into place."""
        path = directory / f"manifest-{self.stage}.json"
        partial = directory / f".{path.name}.partial"
        try:
            partial.write_text(self.to_json() + "\n", encoding="utf-8")
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)
        return path


def _require_inputs(paths: list[Path], what: str = "") -> list[Path]:
    """``paths``, each an existing non-directory; with ``what``, at least one."""
    if not paths and what:
        raise InputMissing(f"no {what} found")
    for p in paths:
        if not p.exists():
            raise InputMissing(f"missing input: {p}")
        if p.is_dir():
            raise InputMissing(f"input is a directory: {p}")
    return paths


def _input_paths(cfg: PipelineConfig) -> list[Path]:
    if not cfg.input:
        raise ConfigInvalid("io.input is not set")
    return _require_inputs([Path(p) for p in cfg.input.split(",") if p], "input files")


def _stage_dir(stage: str, cfg: PipelineConfig) -> Path:
    return Path(cfg.output_dir) / STAGES[stage].directory


def _read_outside(stage: str, cfg: PipelineConfig) -> tuple[list[Path], object]:
    """The outside files ``stage`` reads that are set, and what the stage
    reads from them, read in full: the base vocabulary, the clean context
    or the abbreviations. An unset vocab.base, or a missing or bad file,
    fails here."""
    if stage == "vocab" and not cfg.base_vocab_path:
        raise ConfigInvalid("vocab.base is not set")
    paths = _require_inputs([Path(getattr(cfg, name)) for name in STAGES[stage].outside
                             if getattr(cfg, name)])
    if stage == "vocab":
        return paths, Vocabulary.load(cfg.base_vocab_path)
    if stage == "clean":
        return paths, _load_clean_context(cfg)
    if stage == "segment":
        return paths, (load_abbreviations(cfg.abbreviations_path) if cfg.abbreviations_path
                       else default_abbreviations())
    return paths, None


def _shard_lines(path: Path) -> Iterator[bytes]:
    """The non-blank lines of a shard file, as bytes."""
    with open(path, "rb") as fh:
        for line in fh:
            if not line.isspace():
                yield line


def _listed(manifest: Path) -> list[str]:
    """The output names ``manifest`` lists, each a plain file name."""
    try:
        names = list(json.loads(manifest.read_text(encoding="utf-8"))["outputs"])
    except FileNotFoundError:
        raise InputMissing(f"missing input: {manifest}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{manifest}: not a stage manifest ({exc!r})") from exc
    for name in names:
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise DataError(f"{manifest}: output {name!r} is not a plain file name")
    return names


class _Outputs:
    """One run of ``stage``: what it reads, and the files it writes, committed as a unit.

    ``out_dir`` and ``in_dir`` default to the stage's and its upstream's
    ``STAGES`` directory. Entering reads the upstream manifest's files
    into ``upstream`` and reads the outside files into ``outside`` and
    ``loaded`` (see ``_read_outside``), so a missing or bad input fails
    before anything is deleted; then it deletes the old manifest and the
    files it lists, so no reader sees a mix of two runs.
    ``path(name)`` hands out the partial path of output ``name``, which
    matches no ``*.jsonl``, ``*.txt`` or ``*.rbtw`` pattern. ``commit``
    records every input, then moves every output into place and the
    manifest last. Leaving unlinks every partial file still there: a
    stage that raises leaves neither outputs nor a manifest.
    """

    def __init__(self, stage: str, cfg: PipelineConfig, out_dir: str | Path | None = None,
                 in_dir: str | Path | None = None):
        self.stage = stage
        self.cfg = cfg
        self.directory = Path(out_dir or _stage_dir(stage, cfg))
        self.in_dir = in_dir
        self.manifest_path = self.directory / f"manifest-{stage}.json"
        self.partials: dict[str, Path] = {}

    def __enter__(self) -> "_Outputs":
        self.upstream: list[Path] = []
        source = STAGES[self.stage].upstream
        if source:
            src = Path(self.in_dir or _stage_dir(source, self.cfg))
            self.upstream = _require_inputs(
                [src / name for name in _listed(src / f"manifest-{source}.json")],
                f"{source} outputs")
        self.outside, self.loaded = _read_outside(self.stage, self.cfg)
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.manifest_path.exists():
            names = _listed(self.manifest_path)
            self.manifest_path.unlink()
            for name in names:
                (self.directory / name).unlink(missing_ok=True)
        return self

    def path(self, name: str) -> Path:
        self.partials[name] = self.directory / f".{name}.partial"
        return self.partials[name]

    def commit(self, counts: dict, extra_inputs: Iterable[Path] = (),
               digested: Mapping[Path, str] | None = None) -> RunManifest:
        """The manifest of the upstream files, ``extra_inputs`` (the
        corpus or the vocabulary), the outside files and the files in
        ``digested`` (the archives). A file in ``digested`` is recorded
        with the sha256 its stage took as it read it and is not opened
        again, so an archive may be a FIFO."""
        inputs = {str(p): file_digest(p) for p in [*self.upstream, *extra_inputs, *self.outside]}
        inputs.update((str(p), digest) for p, digest in (digested or {}).items())
        manifest = RunManifest(
            stage=self.stage,
            seed=self.cfg.seed,
            config=self.cfg.flat(),
            inputs=inputs,
            counts=counts,
            outputs={name: file_digest(p) for name, p in self.partials.items()},
        )
        for name, partial in self.partials.items():
            os.replace(partial, self.directory / name)
        manifest.write(self.directory)  # the manifest last
        return manifest

    def __exit__(self, *exc_info) -> None:
        for partial in self.partials.values():
            partial.unlink(missing_ok=True)


# --- stages ------------------------------------------------------------------


def stage_ingest(cfg: PipelineConfig, out_dir: str | Path | None = None) -> RunManifest:
    """Parse archives, dedup, and write round-robin shard files."""
    inputs = _input_paths(cfg)
    stats = IngestStats()
    digests: dict[Path, str] = {}
    with _Outputs("ingest", cfg, out_dir) as out:
        with ExitStack() as files:
            sinks = [files.enter_context(open(out.path(f"tweets-{i:05}.jsonl"), "w",
                                              encoding="utf-8")) for i in range(cfg.shards)]
            tweets = chain.from_iterable(read_archive(p, stats, digests) for p in inputs)
            for k, tweet in enumerate(dedup(tweets, stats=stats)):
                sink = sinks[k % cfg.shards]
                sink.write(serialize_record(tweet))
                sink.write("\n")
        return out.commit(dataclasses.asdict(stats), digested=digests)


def stage_langid_train(cfg: PipelineConfig, corpus: str | Path,
                       out_dir: str | Path | None = None) -> RunManifest:
    """Train the two agreement-ensemble models from code<TAB>text lines."""
    corpus = Path(corpus)
    _require_inputs([corpus])
    samples = read_training_corpus(corpus)
    with _Outputs("langid-train", cfg, out_dir) as out:
        train(samples, cfg.langid_ngrams_a, cfg.langid_alpha).save(out.path("model-a.rlid"))
        train(samples, cfg.langid_ngrams_b, cfg.langid_alpha).save(out.path("model-b.rlid"))
        return out.commit({"samples": len(samples)}, [corpus])


def _load_clean_context(cfg: PipelineConfig) -> dict:
    model_a = model_b = None
    # validate() checks this too, but library callers may set the paths later
    if bool(cfg.langid_model_a) != bool(cfg.langid_model_b):
        raise ConfigInvalid(_ONE_MODEL)
    if cfg.langid_model_a:
        model_a = LangModel.load(cfg.langid_model_a)
        model_b = LangModel.load(cfg.langid_model_b)
        # no model could rank an unknown target first: every tweet would be rejected
        if not (cfg.langid_target in model_a.languages and cfg.langid_target in model_b.languages):
            raise ConfigInvalid(
                f"langid.target {cfg.langid_target!r} is not a language of both models: "
                f"model_a has {model_a.languages}, model_b has {model_b.languages}")
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
    """One tweet through unescape, entity counting, normalize, length and
    entity filters, language gate, and emoji translation. Returns (cleaned
    text or None, reason value).

    The gate scores two models, so it runs after the microsecond filters;
    a tweet failing both counts under the filter's reason. It sees the
    unescaped text, not the normalized one."""
    text = unescape_basic_entities(text)
    counts = count_entities(text)
    normalized = normalize_entities(text)
    verdict = apply_filters(normalized, counts, ctx["filters"])
    if not verdict.accepted:
        return None, verdict.reason.value
    if ctx["model_a"] is not None:
        try:
            ok = agreement_filter(text, ctx["model_a"], ctx["model_b"],
                                  ctx["target"], ctx["threshold"])
        except TweetCorpusError:
            return None, RejectReason.NOT_TARGET_LANGUAGE.value
        if not ok:
            return None, RejectReason.NOT_TARGET_LANGUAGE.value
    return translate_emojis(normalized, ctx["emoji_map"]), RejectReason.NONE.value


# Archive lines per task of the clean stage's ordered map.
CLEAN_BATCH = 512


def _clean_batch(ctx: dict, lines: list[bytes]) -> list[tuple[str, str]]:
    out = []
    for line in lines:
        tweet = parse_record(line)
        cleaned, reason = clean_tweet_text(tweet.text, ctx)
        if cleaned is None:
            out.append(("", reason))
        else:
            out.append((serialize_record(RawTweet(tweet.id, cleaned, tweet.created_at,
                                                  tweet.declared_lang)), reason))
    return out


def _batches(lines: Iterable[bytes], size: int) -> Iterator[list[bytes]]:
    lines = iter(lines)
    return iter(lambda: list(islice(lines, size)), [])


def stage_clean(cfg: PipelineConfig, in_dir: str | Path | None = None,
                out_dir: str | Path | None = None) -> RunManifest:
    """Normalize, filter, language-filter, and emoji-translate each shard."""
    counts = {"read": 0, "emitted": 0,
              "rejected": {reason.value: 0 for reason in RejectReason
                           if reason is not RejectReason.NONE}}
    with _Outputs("clean", cfg, out_dir, in_dir) as out:
        for shard_index, shard_file in enumerate(out.upstream):
            dst = out.path(f"clean-{shard_index:05}.jsonl")
            with open(dst, "w", encoding="utf-8") as sink:
                batches = _batches(_shard_lines(shard_file), CLEAN_BATCH)
                for batch in ordered_map(_clean_batch, out.loaded, batches, cfg.workers):
                    for record, reason in batch:
                        counts["read"] += 1
                        if record:
                            counts["emitted"] += 1
                            sink.write(record)
                            sink.write("\n")
                        else:
                            counts["rejected"][reason] += 1
        return out.commit(counts)


def stage_segment(cfg: PipelineConfig, in_dir: str | Path | None = None,
                  out_dir: str | Path | None = None) -> RunManifest:
    """Split cleaned tweets into sentences and emit document files."""
    counts = {"read": 0, "documents": 0, "sentences": 0}

    def documents(shard_file: Path, abbreviations: frozenset[str]) -> Iterator[Document]:
        for line in _shard_lines(shard_file):
            counts["read"] += 1
            sentences = split_sentences(parse_record(line).text, abbreviations)
            counts["sentences"] += len(sentences)
            yield Document(tuple(sentences))

    with _Outputs("segment", cfg, out_dir, in_dir) as out:
        for shard_index, shard_file in enumerate(out.upstream):
            with open(out.path(f"corpus-{shard_index:05}.txt"), "w", encoding="utf-8") as sink:
                counts["documents"] += write_documents(documents(shard_file, out.loaded), sink)
        return out.commit(counts)


def stage_vocab(cfg: PipelineConfig, in_dir: str | Path | None = None,
                out_dir: str | Path | None = None) -> RunManifest:
    """Extend the base vocabulary with tweet tokens and top emojis.

    Runs on the deduped (pre-translation) shards so emoji frequencies
    see the original emoji characters.
    """
    with _Outputs("vocab", cfg, out_dir, in_dir) as out:
        emojis = count_emoji_frequencies(parse_record(line).text for shard in out.upstream
                                         for line in _shard_lines(shard))
        top = select_top_emojis(emojis, cfg.emoji_fraction) if emojis else []
        base = out.loaded
        extended = extend_vocabulary(base, TWEET_TOKENS, top)
        extended.save(out.path("vocab.txt"))
        write_emoji_report(emojis, out.path("emoji-frequencies.tsv"))
        return out.commit({
            "base_tokens": len(base),
            "distinct_emojis": len(emojis),
            "selected_emojis": len(top),
            "extended_tokens": len(extended),
        })


def stage_pretrain_data(cfg: PipelineConfig, in_dir: str | Path | None = None,
                        vocab_path: str | Path | None = None,
                        out_dir: str | Path | None = None,
                        debug_jsonl: bool = False) -> RunManifest:
    """Generate and serialize MLM/NSP instances per document shard."""
    vocab_file = Path(vocab_path or _stage_dir("vocab", cfg) / "vocab.txt")
    _require_inputs([vocab_file])
    vocab = Vocabulary.load(vocab_file)
    stats = BuildStats()  # summed over every shard
    with _Outputs("pretrain-data", cfg, out_dir, in_dir) as out:
        for shard_index, shard_file in enumerate(out.upstream):
            name = f"pretrain-{shard_index:05}"
            dst = out.path(f"{name}.rbtw")
            build_records(read_document_file(shard_file), vocab, cfg.pretrain, dst,
                          workers=cfg.workers, stats=stats)
            if debug_jsonl:
                write_records_jsonl(read_records(dst), out.path(f"{name}.jsonl"), cfg.pretrain)
        return out.commit(dataclasses.asdict(stats), [vocab_file])


def stage_stats(cfg: PipelineConfig, out_dir: str | Path | None = None) -> RunManifest:
    """Summarize an archive without transforming it."""
    inputs = _input_paths(cfg)
    stats = IngestStats()
    digests: dict[Path, str] = {}
    words = 0
    entity_totals = {"mentions": 0, "hashtags": 0, "urls": 0, "emojis": 0}
    for tweet in chain.from_iterable(read_archive(p, stats, digests) for p in inputs):
        stats.emitted += 1
        words += word_count(tweet.text)
        counts = count_entities(tweet.text)
        for key in entity_totals:
            entity_totals[key] += getattr(counts, key)
    counts = dataclasses.asdict(stats)
    counts.pop("duplicates_id")
    counts.pop("duplicates_text")
    counts["words"] = words
    counts["entities"] = entity_totals
    with _Outputs("stats", cfg, out_dir) as out:
        return out.commit(counts, digested=digests)


def run_stage(stage: str, cfg: PipelineConfig, **kwargs) -> RunManifest:
    """Dispatch one named stage, with extra keyword arguments; its error, an
    OSError included, is raised again named once (``_named``), so the
    pipeline's message names the stage that failed inside it."""
    if stage not in STAGES:
        raise ConfigInvalid(f"unknown stage {stage!r} (task-prep and eval "
                            "take dataset paths; use the CLI or tasks module)")
    with _named(stage):
        # looked up when called, so a wrapper set on this module sees the stage
        return globals()[STAGES[stage].runner](cfg, **kwargs)


@contextmanager
def _named(stage: str) -> Iterator[None]:
    """Raise an error from inside again as ``stage <name>: ...``, once; an OSError as IOFailure."""
    try:
        yield
    except (TweetCorpusError, OSError) as exc:
        if getattr(exc, "stage", None) is not None:
            raise
        named = (type(exc) if isinstance(exc, TweetCorpusError) else IOFailure)(
            f"stage {stage}: {exc}")
        named.stage = stage
        raise named from exc


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """ingest -> vocab -> clean -> segment -> pretrain-data.

    Vocabulary extension runs right after ingest because emoji counting
    needs the pre-translation text. An archive whose tweets are all
    rejected still succeeds: the corpus is empty, a warning is printed,
    and the record stage is skipped. A stage that fails (I/O included),
    or whose outside input file is missing or bad (all are read before
    ingest), is recorded as ``failed_stage`` in ``manifest-pipeline.json``.
    """
    if not cfg.output_dir:
        raise ConfigInvalid("io.output_dir is not set")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest-pipeline.json").unlink(missing_ok=True)

    final = RunManifest(stage="pipeline", seed=cfg.seed, config=cfg.flat(),
                        inputs={}, counts={}, outputs={})
    counts = final.counts
    stage_manifests = []
    try:
        for name in PIPELINE:
            with _named(name):
                _read_outside(name, cfg)
        for name in PIPELINE:
            if name == "pretrain-data" and counts["segment"]["documents"] < 2:
                print("warning: fewer than 2 documents survived cleaning; "
                      "skipping pretraining records", file=sys.stderr)
                counts[name] = {"documents": counts["segment"]["documents"],
                                "degenerate_documents": 0, "instances": 0, "skipped": True}
                continue
            manifest = run_stage(name, cfg)
            counts[name] = manifest.counts
            stage_manifests.append(manifest)
    except TweetCorpusError:  # named: an OSError is an IOFailure by now
        counts["failed_stage"] = name
        final.write(out)
        raise

    final.inputs = stage_manifests[0].inputs
    for manifest in stage_manifests:
        for name, digest in manifest.outputs.items():
            final.outputs[f"{manifest.stage}/{name}"] = digest
    final.write(out)
    return final
