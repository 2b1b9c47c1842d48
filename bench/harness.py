"""One benchmark pass: the library stages in pipeline order, plus checks.

Stage functions are looked up on ``tweetcorpus.pipeline`` (and
``read_records`` on ``tweetcorpus.pretrain``) at call time, so that a
run under ``tracing.Tracer`` goes through the traced wrappers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import tweetcorpus.pipeline as pipeline
import tweetcorpus.pretrain as pretrain
from tweetcorpus.langid import LangModel
from tweetcorpus.normalize import default_emoji_map
from tweetcorpus.vocab import Vocabulary

from calibrate import REFERENCE_SECONDS, reference_seconds
from workloads import Inputs, Workload

STAGES = (
    ("ingest", "stage_ingest"),
    ("vocab", "stage_vocab"),
    ("clean", "stage_clean"),
    ("segment", "stage_segment"),
    ("pretrain-data", "stage_pretrain_data"),
)
MANIFEST_DIRS = {"ingest": "ingest", "vocab": "vocab", "clean": "clean",
                 "segment": "segment", "pretrain-data": "pretrain"}
# Output files whose bytes are pinned; manifests embed absolute paths.
DIGESTED = ("vocab/vocab.txt", "segment/corpus-", "pretrain/pretrain-")

# Called after each stage with (stage key, pass directory); lets a test
# damage an output between stages.
Tamper = Callable[[str, Path], None]


class Gate:
    """Counts attempted and failed operations: stage calls and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Run:
    """What every pass of one benchmark run shares."""

    workload: Workload
    seed: int
    inputs: Inputs
    models: tuple[str, str] | None = None

    def config(self, out_dir: Path, workers: int):
        overrides = {
            "io.input": str(self.inputs.archive),
            "io.output_dir": str(out_dir),
            "io.workers": workers,
            "seed": self.seed,
            "vocab.base": str(self.inputs.base_vocab),
            "pretrain.dupe_factor": self.workload.dupe_factor,
        }
        if self.models:
            overrides["langid.model_a"], overrides["langid.model_b"] = self.models
        return pipeline.build_config(overrides=overrides)


def setup(run: Run, model_dir: Path) -> float:
    """The one-time costs before the first stage; returns wall seconds.

    Trains and loads the language models (when the workload gates on
    language), loads the emoji map and the base vocabulary.
    """
    start = perf_counter()
    if run.workload.language_id:
        pipeline.stage_langid_train(run.config(model_dir, 1), run.inputs.langid_corpus,
                                    model_dir)
        run.models = (str(model_dir / "model-a.rlid"), str(model_dir / "model-b.rlid"))
        LangModel.load(run.models[0])
        LangModel.load(run.models[1])
    default_emoji_map()
    Vocabulary.load(run.inputs.base_vocab)
    return perf_counter() - start


@dataclass
class PassResult:
    seconds: dict[str, float] = field(default_factory=dict)
    # Stage seconds at the reference host speed (see calibrate.py).
    scaled: dict[str, float] = field(default_factory=dict)
    counts: dict[str, dict] = field(default_factory=dict)
    records_read: int = 0
    record_bytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def pipeline_scaled(self) -> float:
        return sum(self.scaled[key] for key, _ in STAGES)

    def timed(self, key: str, seconds: float, before: float, after: float) -> None:
        self.seconds[key] = seconds
        self.scaled[key] = scale(seconds, before, after)


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference host speed, given the reference job's
    times just before and just after them."""
    return seconds * 2 * REFERENCE_SECONDS / (before + after)


def run_pass(run: Run, out_dir: Path, workers: int, gate: Gate,
             tamper: Tamper | None = None) -> PassResult | None:
    """Stages in pipeline order into a fresh ``out_dir``, then a full
    ``read_records`` pass. Returns None if any call raised."""
    cfg = run.config(out_dir, workers)
    result = PassResult()
    before = reference_seconds()
    for key, attr in STAGES:
        start = perf_counter()
        try:
            manifest = getattr(pipeline, attr)(cfg)
        except Exception as exc:  # a failed stage is a reported operation
            gate.check(False, f"stage {key} raised {exc!r}")
            return None
        seconds = perf_counter() - start
        after = reference_seconds()
        result.timed(key, seconds, before, after)
        before = after
        gate.check(True, f"stage {key}")
        result.counts[key] = manifest.counts
        if tamper is not None:
            tamper(key, out_dir)

    start = perf_counter()
    try:
        result.records_read = sum(1 for path in record_files(out_dir)
                                  for _ in pretrain.read_records(path))
    except Exception as exc:
        gate.check(False, f"read_records raised {exc!r}")
        return None
    result.timed("read_records", perf_counter() - start, before, reference_seconds())
    gate.check(True, "read_records")
    result.record_bytes = sum(path.stat().st_size for path in record_files(out_dir))
    return result


def record_files(out_dir: Path) -> list[Path]:
    return sorted((out_dir / "pretrain").glob("pretrain-*.rbtw"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- checks ---------------------------------------------------------------------


def check_counters(result: PassResult, gate: Gate) -> None:
    ingest, clean = result.counts["ingest"], result.counts["clean"]
    segment, built = result.counts["segment"], result.counts["pretrain-data"]
    gate.check(ingest["read"] == ingest["malformed"] + ingest["duplicates_id"]
               + ingest["duplicates_text"] + ingest["emitted"],
               f"ingest counters do not reconcile: {ingest}")
    gate.check(clean["read"] == clean["emitted"] + sum(clean["rejected"].values()),
               f"clean counters do not reconcile: {clean}")
    gate.check(segment["documents"] == clean["emitted"],
               f"segment wrote {segment['documents']} documents for "
               f"{clean['emitted']} clean tweets")
    gate.check(built["instances"] == result.records_read,
               f"pretrain-data wrote {built['instances']} instances, "
               f"{result.records_read} read back")


def check_manifests(out_dir: Path, result: PassResult, gate: Gate) -> None:
    """Every manifest's input and output digests match the bytes on disk.

    Fills ``result.digests`` with the pinned outputs, keyed by path
    relative to ``out_dir``.
    """
    for key, _ in STAGES:
        stage_dir = out_dir / MANIFEST_DIRS[key]
        manifest = json.loads((stage_dir / f"manifest-{key}.json").read_text("utf-8"))
        stale = [p for p, digest in manifest["inputs"].items()
                 if sha256(Path(p)) != digest]
        for name, digest in manifest["outputs"].items():
            rel = f"{MANIFEST_DIRS[key]}/{name}"
            actual = sha256(stage_dir / name)
            if actual != digest:
                stale.append(rel)
            if rel.startswith(DIGESTED):
                result.digests[rel] = actual
        gate.check(not stale, f"{key} manifest does not match files on disk: {stale}")


@dataclass
class RecordStats:
    records: int = 0
    random_next: int = 0
    masked: int = 0
    candidates: int = 0


def check_records(out_dir: Path, vocab_path: Path, gate: Gate) -> RecordStats:
    """Per-record invariants of every record file, as one check.

    Length within the file's max_seq_length; masked count within
    max_predictions_per_seq; [CLS] first; segment ids a run of 0s then a
    run of 1s, each run ending in [SEP]; no masked position holds, or
    originally held, [CLS] or [SEP].
    """
    vocab = Vocabulary.load(vocab_path)
    cls_id, sep_id = vocab.cls_id, vocab.sep_id
    stats = RecordStats()
    bad: list[str] = []
    for path in record_files(out_dir):
        try:
            bad += _record_problems(path, cls_id, sep_id, stats)
        except Exception as exc:
            bad.append(f"{path.name}: {exc!r}")
    gate.check(not bad, f"record invariants broken: {bad[:5]}")
    return stats


def _record_problems(path: Path, cls_id: int, sep_id: int, stats: RecordStats) -> list[str]:
    header: list = []
    bad = []
    for k, inst in enumerate(pretrain.read_records(path, header)):
        max_len, max_preds = header[0].max_seq_length, header[0].max_predictions_per_seq
        ids, segs, positions = inst.token_ids, inst.segment_ids, inst.masked_positions
        n = len(ids)
        boundary = segs.index(1) if 1 in segs else n
        problems = []
        if n > max_len or len(positions) > max_preds:
            problems.append("too long")
        if n != len(segs) or len(positions) != len(inst.masked_label_ids):
            problems.append("length mismatch")
        if ids[0] != cls_id or ids[boundary - 1] != sep_id or ids[-1] != sep_id:
            problems.append("[CLS]/[SEP] misplaced")
        if not 2 <= boundary < n or any(s != 0 for s in segs[:boundary]) \
                or any(s != 1 for s in segs[boundary:]):
            problems.append("segment ids not 0…0 1…1")
        if any(p in (0, boundary - 1, n - 1) for p in positions) \
                or cls_id in inst.masked_label_ids or sep_id in inst.masked_label_ids:
            problems.append("[CLS]/[SEP] masked")
        if problems:
            bad.append(f"{path.name} record {k}: {', '.join(problems)}")
        stats.records += 1
        stats.random_next += inst.is_random_next
        stats.masked += len(positions)
        stats.candidates += n - 3
    return bad
