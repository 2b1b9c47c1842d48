"""Stage orchestration: config, manifests, and the end-to-end pipeline.

Stages hand off through plain per-shard files, so any stage can be
re-run in isolation. Each stage is declared once, in ``STAGES``. Every
stage writes a JSON manifest with its config snapshot, the digests of
the bytes it read, counters and output digests, and a stage reads the
files its upstream entries name in those manifests and no others. A
stage run (``_Outputs``) reads each input once, through one hashing
reader that checks an upstream file against its listed digest, and
commits its outputs as a unit: no half-written file ever has a final
name, and the manifest comes last. Same inputs and seed, same bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import re
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import chain, count, islice, repeat
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, get_type_hints

from . import __version__
from .errors import (
    ConfigInvalid,
    DataError,
    InputMissing,
    IOFailure,
    MalformedRecord,
    TweetCorpusError,
    check_type,
    check_types,
)
from .filtering import FilterConfig, RejectReason, apply_filters, word_count
# parse_record stays importable from here: bench/tracing.py wraps it under this name.
from .ingest import (IngestStats, RawTweet, _encode, dedup, parse_record, read_archive,
                     serialize_record)
from .langid import LangModel, agreement_filter, read_training_corpus, train_models
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
    directory: str  # its directory under io.output_dir, "" for the root
    upstream: tuple[str, ...] = ()  # what it reads, in order: "<stage>" or "<stage>/<name>"
    outside: tuple[str, ...] = ()  # config fields naming the outside files it reads


# Every stage, declared once. The pipeline runs ingest and each stage that
# has an upstream, in this order: each after the stages it reads, and vocab
# counts emoji before clean translates them.
STAGES = {
    "ingest": Stage("stage_ingest", "ingest"),
    "vocab": Stage("stage_vocab", "vocab", ("ingest",), ("base_vocab_path",)),
    "clean": Stage("stage_clean", "clean", ("ingest",),
                   ("langid_model_a", "langid_model_b", "emoji_map_path")),
    "segment": Stage("stage_segment", "segment", ("clean",), ("abbreviations_path",)),
    "pretrain-data": Stage("stage_pretrain_data", "pretrain", ("vocab/vocab.txt", "segment")),
    "langid-train": Stage("stage_langid_train", ""),
    "stats": Stage("stage_stats", ""),
    "pipeline": Stage("run_pipeline", ""),
}
PIPELINE = ("ingest", *(name for name, stage in STAGES.items() if stage.upstream))


def _key(key: str, default, flag: str | None = None, commands: tuple[str, ...] = (),
         help: str = ""):
    """A field holding config key ``key``; ``flag`` sets it on ``commands``,
    the stage subcommands that read it (``_config_keys`` adds ``pipeline``)."""
    return field(default=default,
                 metadata={"key": key, "flag": flag, "commands": commands, "help": help})


@dataclass(frozen=True)
class PipelineConfig:
    """Every stage knob, with paper-faithful defaults.

    The fields are the config table: each gives once its key, type,
    default, flag and the subcommands that read it, which alone take the
    flag. The config file parser, ``flat()``, ``build_config`` and the CLI
    flags derive from it; ``filters`` and ``pretrain`` hold keys
    ``filter.<field>`` and ``pretrain.<field>`` with flags ``--<field>``.

    A config is frozen, and checked whenever it is built, by ``dataclasses.replace`` too.
    """

    input: str = _key("io.input", "", "--input", ("ingest", "stats"),
                      "archive(s), comma separated")
    output_dir: str = _key("io.output_dir", "", "--output-dir", tuple(STAGES), "output directory")
    shards: int = _key("io.shards", 1, "--shards", ("ingest",), "output shard count")
    workers: int = _key("io.workers", 1, "--workers", ("clean", "pretrain-data"), "process count")
    seed: int = _key("seed", 0, "--seed", ("pretrain-data",), "RNG seed of the records")

    langid_model_a: str = _key("langid.model_a", "", "--model-a", ("clean",), "first model file")
    langid_model_b: str = _key("langid.model_b", "", "--model-b", ("clean",), "second model file")
    langid_threshold: float = _key("langid.threshold", 0.5, "--threshold", ("clean",),
                                   "agreement probability floor")
    langid_target: str = _key("langid.target", "ro", "--target", ("clean",), "target language")
    langid_alpha: float = _key("langid.alpha", 1.0, "--alpha", ("langid-train",),
                               "add-alpha smoothing")
    langid_ngram_min_a: int = _key("langid.ngram_min_a", 1)
    langid_ngram_max_a: int = _key("langid.ngram_max_a", 2)
    langid_ngram_min_b: int = _key("langid.ngram_min_b", 2)
    langid_ngram_max_b: int = _key("langid.ngram_max_b", 3)

    emoji_map_path: str = _key("normalize.emoji_map", "", "--emoji-map", ("clean",),
                               "emoji translation TSV")
    abbreviations_path: str = _key("segment.abbreviations", "", "--abbreviations",
                                   ("segment",), "abbreviation list file")
    base_vocab_path: str = _key("vocab.base", "", "--base-vocab", ("vocab",),
                                "base vocabulary file")
    emoji_fraction: float = _key("vocab.emoji_fraction", 0.25, "--emoji-fraction", ("vocab",),
                                 "share of distinct emojis added")

    filters: FilterConfig = field(default_factory=FilterConfig,
                                  metadata={"prefix": "filter", "commands": ("clean",)})
    # the record seed is the global seed, not a key of its own
    pretrain: PretrainConfig = field(default_factory=PretrainConfig, metadata={
        "prefix": "pretrain", "commands": ("pretrain-data",), "omitted": ("seed",),
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

    def __post_init__(self) -> None:
        """Reject values of the wrong type, then out-of-range values; the
        records take the global seed."""
        check_types(self)
        object.__setattr__(self, "pretrain", dataclasses.replace(self.pretrain, seed=self.seed))
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
            raise ConfigInvalid("language filtering needs both langid.model_a and model_b")


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
        """Parse a config-file string; any other value must be of the key's
        type (``check_type``), checked here so the message names the key."""
        if isinstance(raw, str) and self.type is not str:
            try:
                return self.type(raw)
            except ValueError as exc:
                raise ConfigInvalid(f"bad value for {self.key}: {raw!r}") from exc
        check_type(self.key, raw, self.type)
        return raw


def _config_keys() -> dict[str, ConfigKey]:
    """The config table; ``pipeline`` takes the flags of every stage it runs."""
    types = get_type_hints(PipelineConfig)  # the annotations, resolved from strings
    keys = {}
    for f in dataclasses.fields(PipelineConfig):
        meta = f.metadata
        commands = meta["commands"]
        if "pipeline" not in commands and not set(commands).isdisjoint(PIPELINE):
            commands += ("pipeline",)
        if "key" in meta:
            keys[meta["key"]] = ConfigKey(meta["key"], types[f.name], f.default, meta["flag"],
                                          commands, meta["help"], None, f.name)
            continue
        sub_types = get_type_hints(f.default_factory)
        for sub in dataclasses.fields(f.default_factory):
            if sub.name not in meta.get("omitted", ()):
                key = f"{meta['prefix']}.{sub.name}"
                flag = (None if sub.name in meta.get("unflagged", ())
                        else "--" + sub.name.replace("_", "-"))
                keys[key] = ConfigKey(key, sub_types[sub.name], sub.default, flag,
                                      commands, "", f.name, sub.name)
    return keys


CONFIG_KEYS = _config_keys()


def parse_config_file(path: str | Path) -> dict:
    """Flat ``section.key = value`` lines; '#' comments; unknown or repeated keys fail."""
    values: dict = {}
    key_line: dict[str, int] = {}
    for lineno, line in enumerate(read_text_lines(path, ConfigInvalid), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigInvalid(f"{path}:{lineno}: unknown key {key!r}")
        if key in key_line:
            raise ConfigInvalid(f"{path}:{lineno}: duplicate key {key!r}, "
                                f"first at {path}:{key_line[key]}")
        key_line[key] = lineno
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
        pretrain=PretrainConfig(**fields_of("pretrain")),
    )


# --- manifests ---------------------------------------------------------------


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class _Hashed(io.FileIO):
    """A file that hashes what it reads, into ``digest`` at the end."""

    def __init__(self, path: Path):
        super().__init__(os.fspath(path))  # named as open() names it in an OSError
        self.sha, self.digest = hashlib.sha256(), "unknown (not read to its end)"

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        self.sha.update(buffer[:n])
        if not n:
            self.digest = self.sha.hexdigest()
        return n

    read = io.RawIOBase.read  # through readinto, unlike FileIO's

    def readall(self) -> bytes:  # FileIO's: one buffer sized from the file's length
        data = super().readall()
        self.sha.update(data)
        self.digest = self.sha.hexdigest()
        return data


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
    """Where ``stage`` writes, and the stages downstream of it read: the one layout."""
    if not cfg.output_dir:
        raise ConfigInvalid("io.output_dir is not set")
    return Path(cfg.output_dir) / STAGES[stage].directory


def _read_outside(stage: str, cfg: PipelineConfig, load) -> object:
    """What ``stage`` reads from its set outside files, each read in full by
    ``load`` (``_Outputs.load``): the base vocabulary, the clean context or
    the abbreviations. An unset vocab.base, or a missing or bad file, fails here."""
    if stage == "vocab" and not cfg.base_vocab_path:
        raise ConfigInvalid("vocab.base is not set")
    _require_inputs([Path(getattr(cfg, name)) for name in STAGES[stage].outside
                     if getattr(cfg, name)])
    if stage == "vocab":
        return load(Vocabulary.load, cfg.base_vocab_path)
    if stage == "clean":
        return _load_clean_context(cfg, load)
    if stage == "segment":
        return (load(load_abbreviations, cfg.abbreviations_path) if cfg.abbreviations_path
                else default_abbreviations())
    return None


def _record(line: bytes, path: Path, lineno: int) -> dict:
    """Line ``lineno`` of upstream shard ``path``, ``serialize_record`` output, only decoded.

    As in ``parse_record``, a lone surrogate, which UTF-8 cannot encode,
    is malformed: decoded strictly, only a line with an escape can hold one."""
    try:
        record = json.loads(line.decode("utf-8"))  # json.loads passes a surrogate's bytes
        text = record["text"]
        if b"\\" in line:
            _encode(record).encode("utf-8")
    except (ValueError, KeyError, TypeError, RecursionError):
        text = None
    if not isinstance(text, str):
        raise MalformedRecord(f"{path}:{lineno}: not a tweet record")
    return record


def _listed(manifest: Path) -> dict[str, str]:
    """The outputs ``manifest`` lists: each a plain file name, with its sha256."""
    try:
        listed = dict(json.loads(manifest.read_text(encoding="utf-8"))["outputs"].items())
    except FileNotFoundError:
        raise InputMissing(f"missing input: {manifest}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{manifest}: not a stage manifest ({exc!r})") from exc
    for name, digest in listed.items():
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise DataError(f"{manifest}: output {name!r} is not a plain file name")
        if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
            raise DataError(f"{manifest}: not a stage manifest (bad digest of {name!r})")
    return listed


class _Outputs:
    """One run of ``stage``: what it reads, and the files it writes, committed as a unit.

    It writes into the stage's ``STAGES`` directory and reads from its
    upstream stages' (``_stage_dir``). The stage reads every input once,
    through ``read``, which keeps the sha256 of the bytes read in
    ``digests``; building it reads the outside files into ``loaded``.
    Entering takes the files its upstream entries name, with the digests
    and manifests listing them, into ``upstream``: a missing or unlisted
    one fails before anything is deleted. Then it deletes the old manifest
    and the files it lists, so no reader mixes two runs. ``path(name)``
    hands out the partial path of output ``name``, which matches no
    ``*.jsonl``, ``*.txt`` or ``*.rbtw`` pattern. ``commit`` records every
    input, then moves every output into place and the manifest last.
    Leaving unlinks every partial file still there: a stage that raises
    leaves neither outputs nor a manifest.
    """

    def __init__(self, stage: str, cfg: PipelineConfig):
        self.stage = stage
        self.cfg = cfg
        self.directory = _stage_dir(stage, cfg)
        self.manifest_path = self.directory / f"manifest-{stage}.json"
        self.partials: dict[str, Path] = {}
        self.upstream: dict[Path, tuple[str, Path]] = {}  # each file: listed digest, manifest
        self.digests: dict[Path, str] = {}  # each file read: the sha256 of what was read
        self.loaded = _read_outside(stage, cfg, self.load)

    def __enter__(self) -> "_Outputs":
        for entry in STAGES[self.stage].upstream:
            source, _, only = entry.partition("/")
            src = _stage_dir(source, self.cfg)
            manifest = src / f"manifest-{source}.json"
            listed = _listed(manifest)
            if only and only not in listed:
                raise DataError(f"{src / only}: {manifest} lists no such file")
            names = [only] if only else listed
            _require_inputs([src / name for name in names], f"{source} outputs")
            self.upstream.update((src / name, (listed[name], manifest)) for name in names)
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.manifest_path.exists():
            names = _listed(self.manifest_path)
            self.manifest_path.unlink()
            for name in names:
                (self.directory / name).unlink(missing_ok=True)
        return self

    @contextmanager
    def read(self, path: Path) -> Iterator[BinaryIO]:
        """Input ``path``, opened once and hashed as it is read; when done, an
        upstream file must have been read to its end and match its listing."""
        raw = _Hashed(path)
        with io.BufferedReader(raw) as fh:
            yield fh
        listed, manifest = self.upstream.get(path, (raw.digest, None))
        if raw.digest != listed:
            raise DataError(f"{path}: sha256 {raw.digest}, but {manifest} lists {listed}")
        self.digests[path] = raw.digest

    def load(self, loader, path: str | Path):
        """``loader(path, source)``, given the file read through ``read``."""
        with self.read(Path(path)) as fh:
            return loader(path, fh)

    def texts(self, path: Path) -> Iterator[str]:
        with self.read(path) as fh:
            for lineno, line in enumerate(fh, 1):
                yield _record(line, path, lineno)["text"]

    def path(self, name: str) -> Path:
        self.partials[name] = self.directory / f".{name}.partial"
        return self.partials[name]

    def commit(self, counts: dict) -> RunManifest:
        """The manifest of every input, with the sha256 ``read`` took of the bytes
        used (``KeyError``: an upstream file never read); only outputs are digested."""
        inputs = {str(p): self.digests[p] for p in chain(self.upstream, self.digests)}
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


def _archives(out: _Outputs, paths: list[Path], stats: IngestStats) -> Iterator[RawTweet]:
    """The tweets of the archives ``paths``, in order, each read through ``out``."""
    for path in paths:
        with out.read(path) as fh:
            yield from read_archive(path, stats, fh)


def stage_ingest(cfg: PipelineConfig) -> RunManifest:
    """Parse archives, dedup, and write round-robin shard files."""
    inputs = _input_paths(cfg)
    stats = IngestStats()
    with _Outputs("ingest", cfg) as out:
        with ExitStack() as files:
            sinks = [files.enter_context(open(out.path(f"tweets-{i:05}.jsonl"), "w",
                                              encoding="utf-8")) for i in range(cfg.shards)]
            for k, tweet in enumerate(dedup(_archives(out, inputs, stats), stats=stats)):
                sink = sinks[k % cfg.shards]
                sink.write(serialize_record(tweet))
                sink.write("\n")
        return out.commit(dataclasses.asdict(stats))


def stage_langid_train(cfg: PipelineConfig, corpus: str | Path,
                       out_dir: str | Path | None = None) -> RunManifest:
    """Train the two agreement-ensemble models from code<TAB>text lines;
    ``out_dir``, which the benchmark passes, stands for ``io.output_dir``."""
    if out_dir is not None:
        cfg = dataclasses.replace(cfg, output_dir=str(out_dir))
    [corpus] = _require_inputs([Path(corpus)])
    out = _Outputs("langid-train", cfg)
    samples = out.load(read_training_corpus, corpus)
    # trained before the old models are deleted, so a bad corpus keeps them
    models = train_models(samples, (cfg.langid_ngrams_a, cfg.langid_ngrams_b), cfg.langid_alpha)
    with out:
        for name, model in zip(("model-a.rlid", "model-b.rlid"), models):
            model.save(out.path(name))
        return out.commit({"samples": len(samples)})


def _load_clean_context(cfg: PipelineConfig, load) -> tuple:
    """What ``clean_tweet_text`` reads, each file by ``load``: the config,
    both language models (None when language filtering is off), the emoji map."""
    model_a = model_b = None
    if cfg.langid_model_a:
        model_a = load(LangModel.load, cfg.langid_model_a)
        model_b = load(LangModel.load, cfg.langid_model_b)
        # no model could rank an unknown target first: every tweet would be rejected
        if not (cfg.langid_target in model_a.languages and cfg.langid_target in model_b.languages):
            raise ConfigInvalid(
                f"langid.target {cfg.langid_target!r} is not a language of both models: "
                f"model_a has {model_a.languages}, model_b has {model_b.languages}")
    emoji_map = (load(EmojiMap.load, cfg.emoji_map_path) if cfg.emoji_map_path
                 else default_emoji_map())
    return cfg, model_a, model_b, emoji_map


def clean_tweet_text(text: str, ctx: tuple) -> tuple[str | None, str]:
    """One tweet through unescape, entity counting, length and entity
    filters, language gate, normalize, and emoji translation. Returns
    (cleaned text or None, reason value).

    The filters and the gate read the unescaped text, so only a kept tweet
    is rewritten: a placeholder replaces non-whitespace with non-whitespace,
    so normalizing changes no word count. The gate scores two models, so it
    runs after the microsecond filters; a tweet failing both counts under
    the filter's reason. One left with no word (all unmapped emoji) is too short."""
    cfg, model_a, model_b, emoji_map = ctx
    text = unescape_basic_entities(text)
    verdict = apply_filters(text, count_entities(text), cfg.filters)
    if not verdict.accepted:
        return None, verdict.reason.value
    if model_a is not None and not agreement_filter(
            text, model_a, model_b, cfg.langid_target, cfg.langid_threshold):
        return None, RejectReason.NOT_TARGET_LANGUAGE.value
    text = translate_emojis(normalize_entities(text), emoji_map)
    return (text, RejectReason.NONE.value) if text else (None, RejectReason.TOO_SHORT.value)


# Archive lines per task of the clean stage's ordered map.
CLEAN_BATCH = 512


def _clean_batch(ctx: tuple, batch: tuple[Path, int, list[bytes]]) -> list[tuple[str, str]]:
    path, first, lines = batch  # lines of shard path, from line number first
    out = []
    for lineno, line in enumerate(lines, first):
        record = _record(line, path, lineno)
        cleaned, reason = clean_tweet_text(record["text"], ctx)
        if cleaned is None:
            out.append(("", reason))
        else:
            record["text"] = cleaned
            out.append((_encode(record), reason))
    return out


def _batches(path: Path, lines: Iterable[bytes], size: int) -> Iterator[tuple]:
    lines = iter(lines)
    return zip(repeat(path), count(1, size), iter(lambda: list(islice(lines, size)), []))


def stage_clean(cfg: PipelineConfig, out: _Outputs | None = None) -> RunManifest:
    """Normalize, filter, language-filter, and emoji-translate each shard."""
    counts = {"read": 0, "emitted": 0,
              "rejected": {reason.value: 0 for reason in RejectReason
                           if reason is not RejectReason.NONE}}
    with out or _Outputs("clean", cfg) as out:
        for shard_index, shard_file in enumerate(out.upstream):
            dst = out.path(f"clean-{shard_index:05}.jsonl")
            with open(dst, "w", encoding="utf-8") as sink, out.read(shard_file) as lines:
                batches = _batches(shard_file, lines, CLEAN_BATCH)
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


def stage_segment(cfg: PipelineConfig, out: _Outputs | None = None) -> RunManifest:
    """Split cleaned tweets into sentences and emit document files."""
    counts = {"read": 0, "documents": 0, "sentences": 0}

    def documents(texts: Iterable[str], abbreviations: frozenset[str]) -> Iterator[Document]:
        for text in texts:
            counts["read"] += 1
            sentences = split_sentences(text, abbreviations)
            counts["sentences"] += len(sentences)
            yield Document(tuple(sentences))

    with out or _Outputs("segment", cfg) as out:
        for shard_index, shard_file in enumerate(out.upstream):
            with open(out.path(f"corpus-{shard_index:05}.txt"), "w", encoding="utf-8") as sink:
                counts["documents"] += write_documents(
                    documents(out.texts(shard_file), out.loaded), sink)
        return out.commit(counts)


def stage_vocab(cfg: PipelineConfig, out: _Outputs | None = None) -> RunManifest:
    """Extend the base vocabulary with tweet tokens and top emojis.

    Runs on the deduped (pre-translation) shards so emoji frequencies
    see the original emoji characters.
    """
    with out or _Outputs("vocab", cfg) as out:
        emojis = count_emoji_frequencies(text for shard in out.upstream
                                         for text in out.texts(shard))
        top = select_top_emojis(emojis, cfg.emoji_fraction)
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


def stage_pretrain_data(cfg: PipelineConfig, debug_jsonl: bool = False) -> RunManifest:
    """Generate and serialize MLM/NSP instances per document shard."""
    stats = BuildStats()  # summed over every shard
    with _Outputs("pretrain-data", cfg) as out:
        vocab_file, *corpus = out.upstream
        vocab = out.load(Vocabulary.load, vocab_file)
        for shard_index, shard_file in enumerate(corpus):
            name = f"pretrain-{shard_index:05}"
            dst = out.path(f"{name}.rbtw")
            with out.read(shard_file) as fh:
                documents = read_document_file(shard_file, io.TextIOWrapper(fh, encoding="utf-8"))
                build_records(documents, vocab, cfg.pretrain, dst, workers=cfg.workers,
                              stats=stats)
            if debug_jsonl:
                write_records_jsonl(read_records(dst), out.path(f"{name}.jsonl"), cfg.pretrain)
        return out.commit(dataclasses.asdict(stats))


def stage_stats(cfg: PipelineConfig) -> RunManifest:
    """Summarize an archive without transforming it."""
    inputs = _input_paths(cfg)
    stats = IngestStats()
    words = 0
    entity_totals = {"mentions": 0, "hashtags": 0, "urls": 0, "emojis": 0}
    with _Outputs("stats", cfg) as out:
        for tweet in _archives(out, inputs, stats):
            stats.emitted += 1
            words += word_count(tweet.text)
            counts = count_entities(tweet.text)
            for key in entity_totals:
                entity_totals[key] += getattr(counts, key)
        return out.commit({"read": stats.read, "malformed": stats.malformed,
                           "emitted": stats.emitted, "words": words, "entities": entity_totals})


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
    needs the pre-translation text. An empty corpus shard (every tweet
    rejected) gives a header-only record file; a shard of one document
    fails the record stage, as documents pair only within their shard.
    A stage that fails (I/O included), or whose outside input file is
    missing or bad (all are read before ingest, into the ``_Outputs`` the
    stage is handed), is recorded as ``failed_stage`` in ``manifest-pipeline.json``.
    """
    out = _stage_dir("pipeline", cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest-pipeline.json").unlink(missing_ok=True)

    final = RunManifest(stage="pipeline", seed=cfg.seed, config=cfg.flat(),
                        inputs={}, counts={}, outputs={})
    counts = final.counts
    stage_manifests = []
    kwargs = {}
    try:
        for name in PIPELINE:
            with _named(name):
                kwargs[name] = {"out": _Outputs(name, cfg)} if STAGES[name].outside else {}
        for name in PIPELINE:
            manifest = run_stage(name, cfg, **kwargs.pop(name))  # freed once run
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
