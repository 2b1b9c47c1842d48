"""Corpus-pipeline benchmark for tweetcorpus.

    python3 bench/run.py --workload archive --seed 0 --seconds 35 --trace 0

Generates the workload's inputs from the seed, then runs the library
stages in pipeline order (ingest, vocab, clean, segment, pretrain-data)
followed by a full ``read_records`` pass, each pass into a fresh output
directory, until ``--seconds`` have passed. Every pass is checked:
stage counters reconcile, manifests match the bytes on disk, records
meet their invariants, output digests repeat from pass to pass and, at
the seed pinned with them in ``bench/reference.json`` (0), equal the
golden digests.

``--trace 0`` reports the end-to-end metrics (medians over passes) at
the workload's worker count. ``--trace 1`` reports per-layer metrics
instead: after one untraced pass at one worker and one at
``POOL_WORKERS``, it alternates traced and untraced one-worker passes
and takes span self times and counts from the traced ones.

Every reported time, and every throughput's denominator, is wall time
at the reference host speed: a fixed reference job (``calibrate.py``)
runs just before and just after each timed stage and set-up, and the
wall time is scaled by its pinned time over the mean of those two
runs. On a shared host whose speed drifts by a quarter from minute to
minute this keeps the program's cost and drops the host's. The raw
wall times are printed with every result (``pass_seconds``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. When any check
fails, ``metrics`` is empty and the exit code is 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibrate import reference_seconds
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Set-up is timed at least SETUP_REPS times and until SETUP_SECONDS have
# passed, and the median is reported.
SETUP_REPS = 5
SETUP_SECONDS = 1.5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
POOL_WORKERS = 2  # the pool size the traced run compares one worker against

E2E_UNITS = {
    "setup_s": "s",
    "pipeline_tweets_per_s": "tweets/s",
    "ingest_tweets_per_s": "tweets/s",
    "vocab_tweets_per_s": "tweets/s",
    "clean_tweets_per_s": "tweets/s",
    "segment_docs_per_s": "docs/s",
    "pretrain_instances_per_s": "instances/s",
    "read_records_per_s": "records/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_facts() -> dict:
    import numpy
    import regex

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "regex": regex.__version__,
        "commit": _git_commit(),
    }


class Bench:
    """One invocation: a workload, a seed and a work directory."""

    def __init__(self, workload, seed: int, work: Path, tamper=None):
        import harness
        from workloads import generate

        self.h = harness
        self.gate = harness.Gate()
        self.work = work
        self.tamper = tamper
        self.run = harness.Run(workload, seed, generate(workload, seed, work / "inputs"))
        self.reference_digests: dict | None = None
        self.record_stats = None
        self.passes = 0
        self.pass_seconds: list[dict] = []
        self.pass_scaled: list[dict] = []
        golden = json.loads(REFERENCE.read_text("utf-8"))["golden"].get(workload.name)
        self.gate.check(golden is not None, f"no golden digests pinned for {workload.name}")
        self.golden = golden["digests"] if golden and golden["seed"] == seed else None

    def one_pass(self, workers: int, tracer=None):
        """Run, check and delete one pass; None if it failed. Only the
        stages and the read pass run under ``tracer``."""
        h, gate = self.h, self.gate
        out = self.work / f"pass-{self.passes}"
        self.passes += 1
        gc.collect()  # the previous pass's garbage, outside the timed stages
        with tracer or contextlib.nullcontext():
            result = h.run_pass(self.run, out, workers, gate, self.tamper)
        if result is not None:
            self.pass_seconds.append(result.seconds)
            self.pass_scaled.append(result.scaled)
            h.check_counters(result, gate)
            h.check_manifests(out, result, gate)
            if self.reference_digests is None:
                self.reference_digests = result.digests
                self.record_stats = h.check_records(out, out / "vocab" / "vocab.txt", gate)
            else:
                gate.check(result.digests == self.reference_digests,
                           "output digests differ from the first pass")
            if self.golden is not None:
                gate.check(result.digests == self.golden,
                           "output digests differ from the pinned golden digests")
        shutil.rmtree(out)
        return result

    def end_to_end(self, seconds: float) -> dict:
        start = perf_counter()
        wl = self.run.workload
        setups = []
        before = reference_seconds()
        while len(setups) < SETUP_REPS or perf_counter() - start < SETUP_SECONDS:
            took = self.h.setup(self.run, self.work / "setup")
            after = reference_seconds()
            setups.append(self.h.scale(took, before, after))
            before = after
        results = []
        while len(results) < MIN_PASSES or perf_counter() - start < seconds:
            result = self.one_pass(wl.workers)
            if result is None:
                return {}
            results.append(result)

        def rate(count, key):
            return statistics.median(count(r) / r.scaled[key] for r in results)

        return {
            "setup_s": statistics.median(setups),
            "pipeline_tweets_per_s": statistics.median(
                r.counts["ingest"]["read"] / r.pipeline_scaled for r in results),
            "ingest_tweets_per_s": rate(lambda r: r.counts["ingest"]["read"], "ingest"),
            "vocab_tweets_per_s": rate(lambda r: r.counts["ingest"]["emitted"], "vocab"),
            "clean_tweets_per_s": rate(lambda r: r.counts["clean"]["read"], "clean"),
            "segment_docs_per_s": rate(lambda r: r.counts["segment"]["documents"], "segment"),
            "pretrain_instances_per_s": rate(
                lambda r: r.counts["pretrain-data"]["instances"], "pretrain-data"),
            "read_records_per_s": rate(lambda r: r.records_read, "read_records"),
            "peak_rss_mb": _peak_mb(resource.RUSAGE_SELF),
        }

    def per_layer(self, seconds: float, trace_path: Path) -> dict:
        from tracing import Tracer

        start = perf_counter()
        before = reference_seconds()
        with Tracer() as setup_tracer:
            took = self.h.setup(self.run, self.work / "setup")
        setup_self, _ = setup_tracer.totals()
        setup_factor = self.h.scale(took, before, reference_seconds()) / took
        # A one-worker pass, then a pool pass: peak RSS is a lifetime
        # maximum, so this order shows what the pool adds. All passes
        # must write the same bytes as the first.
        first = self.one_pass(1)
        one_worker_mb = _peak_mb(resource.RUSAGE_SELF)
        pool = self.one_pass(POOL_WORKERS)
        if first is None or pool is None:
            return {}
        plain, traced = [first.scaled], []
        tracer = None
        while len(traced) < MIN_TRACED_PASSES or perf_counter() - start < seconds:
            tracer = Tracer()
            result = self.one_pass(1, tracer)
            if result is None:
                return {}
            traced.append((sum(result.scaled.values()),
                           layer_metrics(tracer, result, self.record_stats)))
            result = self.one_pass(1)
            if result is None:
                return {}
            plain.append(result.scaled)
        tracer.write(trace_path)

        metrics = {name: statistics.median(m[name] for _, m in traced)
                   for name in traced[0][1]}
        metrics["pipeline.stage_langid_train.self_s"] = (
            setup_self["pipeline.stage_langid_train"] * setup_factor)
        metrics["pipeline.tracing_overhead_ratio"] = (
            statistics.median(t for t, _ in traced)
            / statistics.median(sum(s.values()) for s in plain) - 1)
        metrics["pipeline.peak_rss_one_worker_mb"] = one_worker_mb
        metrics["pipeline.peak_rss_pool_mb"] = _peak_mb(resource.RUSAGE_SELF)
        metrics["pipeline.peak_child_rss_mb"] = _peak_mb(resource.RUSAGE_CHILDREN)
        # One-worker stage time over the pool pass's: below 1 means the
        # pool made the stage slower.
        for key in ("clean", "pretrain-data"):
            metrics[f"pipeline.{key.replace('-', '_')}.pool_speedup"] = (
                statistics.median(s[key] for s in plain) / pool.scaled[key])
        return metrics


# Spans whose call count is reported as ``<span>.calls``.
COUNTED_SPANS = ("ingest.parse_record", "hashing.mix64", "langid.agreement_filter",
                 "langid.classify", "pretrain.mask_sequence")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, result, records) -> dict:
    """Per-layer numbers of one traced pass: self seconds of every traced
    span (at the reference host speed, by the pass's overall factor), call
    counts, and the counts and ratios measured where the work happens."""
    from tracing import TRACED

    self_s, calls = tracer.totals()
    factor = sum(result.scaled.values()) / sum(result.seconds.values())
    c = tracer.counters
    ingest, clean = result.counts["ingest"], result.counts["clean"]
    segment, vocab = result.counts["segment"], result.counts["vocab"]
    metrics = {f"{name}.self_s": self_s[name] * factor for _, _, name in TRACED}
    metrics.update({f"{name}.calls": calls[name] for name in COUNTED_SPANS})
    metrics.update({
        "ingest.duplicate_ratio": _ratio(ingest["duplicates_id"] + ingest["duplicates_text"],
                                         ingest["read"] - ingest["malformed"]),
        "ingest.malformed": ingest["malformed"],
        "hashing.bytes": c["hashing.bytes"],
        "langid.pass_ratio": _ratio(c["langid.passed"], calls["langid.agreement_filter"]),
        "emojidata.spans": c["emojidata.spans"],
        "emojidata.chars_scanned": c["emojidata.chars_scanned"],
        "emojidata.span_hit_ratio": _ratio(c["emojidata.spans"], c["emojidata.chars_scanned"]),
        "filtering.accept_ratio": _ratio(c["filtering.accepted"],
                                         calls["filtering.apply_filters"]),
        "segment.sentences_per_doc": _ratio(segment["sentences"], segment["documents"]),
        "vocab.distinct_emojis": vocab["distinct_emojis"],
        "vocab.pieces_per_word": _ratio(c["vocab.pieces"], c["vocab.words"]),
        "vocab.unk_ratio": _ratio(c["vocab.unk_pieces"], c["vocab.pieces"]),
        "pretrain.record_bytes": result.record_bytes,
        "pretrain.instances": result.counts["pretrain-data"]["instances"],
        "pretrain.random_next_ratio": _ratio(records.random_next, records.records),
        "pretrain.masked_ratio": _ratio(records.masked, records.candidates),
    })
    for reason, count in clean["rejected"].items():
        metrics[f"filtering.rejected.{reason}"] = count
    return metrics


LAYER_UNITS = (("_s", "s"), (".calls", "count"), ("_ratio", "ratio"), ("_mb", "MB"),
               ("_speedup", "ratio"),
               ("_bytes", "bytes"), (".bytes", "bytes"), ("_per_doc", "sentences/doc"),
               ("_per_word", "pieces/word"))


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None, tamper=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tweetcorpus" / "__init__.py").is_file():
        print(f"error: tweetcorpus sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK))
    try:
        bench = Bench(workload, args.seed, work, tamper)
        if args.trace:
            metrics = bench.per_layer(args.seconds, WORK / f"trace-{workload.name}.json")
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = bench.end_to_end(args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gate = bench.gate
    correct = not gate.failures
    details = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": bench.passes,
        "pass_seconds": bench.pass_seconds,
        "pass_scaled_seconds": bench.pass_scaled,
        "failed_frac": gate.failed / gate.attempted,
        "peak_child_rss_mb": _peak_mb(resource.RUSAGE_CHILDREN),
        "host": host_facts(), "digests": bench.reference_digests,
        "failures": gate.failures,
    }
    print(json.dumps(details, ensure_ascii=False))
    if correct:
        for name, value in metrics.items():
            print(f"  {name:<44} {value:>14.6g} {units[name]}")
    else:
        print("  INVALID: no metric is reported; failures:", *gate.failures, sep="\n    ")
    print(f"  {'failed_frac':<44} {details['failed_frac']:>14.6g} ratio"
          f"   ({gate.failed} of {gate.attempted} operations)")
    print(f"  {'peak_child_rss_mb':<44} {details['peak_child_rss_mb']:>14.6g} MB"
          "   (largest process this run waited for)")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": ({name: {"value": value, "unit": units[name]}
                     for name, value in metrics.items()} if correct else {}),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
