"""In-memory span tracing of the tweetcorpus layers, applied from outside.

``Tracer.install`` replaces each public function listed in ``TRACED``
with a wrapper at the name its caller looks up (``pipeline`` imports
most functions by name, so those are patched on ``tweetcorpus.pipeline``,
not on their home module). A wrapper records one span per call: name,
start, end and the index of the enclosing span. A generator function is
wrapped so that every resumption is a span charged to the generator,
not to its consumer. Only per-tweet or coarser calls are wrapped; the
per-character emoji matcher is not.

Run traced code with one worker: calls made in pool workers are not
seen.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import tweetcorpus.emojidata
import tweetcorpus.ingest
import tweetcorpus.langid
import tweetcorpus.pipeline
import tweetcorpus.pretrain
import tweetcorpus.vocab

# (module, attribute, span name). The span name is the layer (the
# module that defines the function) and the function name; a function
# looked up from two modules is patched on both.
TRACED = (
    (tweetcorpus.pipeline, "stage_langid_train", "pipeline.stage_langid_train"),
    (tweetcorpus.pipeline, "stage_ingest", "pipeline.stage_ingest"),
    (tweetcorpus.pipeline, "stage_vocab", "pipeline.stage_vocab"),
    (tweetcorpus.pipeline, "stage_clean", "pipeline.stage_clean"),
    (tweetcorpus.pipeline, "stage_segment", "pipeline.stage_segment"),
    (tweetcorpus.pipeline, "stage_pretrain_data", "pipeline.stage_pretrain_data"),
    (tweetcorpus.pipeline, "clean_tweet_text", "pipeline.clean_tweet_text"),
    (tweetcorpus.pipeline, "file_digest", "pipeline.file_digest"),
    (tweetcorpus.pipeline, "read_archive", "ingest.read_archive"),
    (tweetcorpus.ingest, "parse_record", "ingest.parse_record"),
    (tweetcorpus.pipeline, "parse_record", "ingest.parse_record"),
    (tweetcorpus.pipeline, "dedup", "ingest.dedup"),
    (tweetcorpus.pipeline, "serialize_record", "ingest.serialize_record"),
    (tweetcorpus.ingest, "fnv1a64_text", "hashing.fnv1a64_text"),
    (tweetcorpus.pretrain, "mix64", "hashing.mix64"),
    (tweetcorpus.pipeline, "agreement_filter", "langid.agreement_filter"),
    (tweetcorpus.langid, "classify", "langid.classify"),
    (tweetcorpus.pipeline, "unescape_basic_entities", "normalize.unescape_basic_entities"),
    (tweetcorpus.pipeline, "count_entities", "normalize.count_entities"),
    (tweetcorpus.pipeline, "normalize_entities", "normalize.normalize_entities"),
    (tweetcorpus.pipeline, "translate_emojis", "normalize.translate_emojis"),
    (tweetcorpus.emojidata, "count_emoji", "emojidata.count_emoji"),
    (tweetcorpus.emojidata, "iter_emoji_spans", "emojidata.iter_emoji_spans"),
    (tweetcorpus.pipeline, "apply_filters", "filtering.apply_filters"),
    (tweetcorpus.pipeline, "split_sentences", "segment.split_sentences"),
    (tweetcorpus.pipeline, "write_documents", "segment.write_documents"),
    (tweetcorpus.pipeline, "read_document_file", "segment.read_document_file"),
    (tweetcorpus.pipeline, "count_emoji_frequencies", "vocab.count_emoji_frequencies"),
    (tweetcorpus.pretrain, "wordpiece_tokenize", "vocab.wordpiece_tokenize"),
    (tweetcorpus.pretrain, "encode", "vocab.encode"),
    (tweetcorpus.pretrain, "tokenize_documents", "pretrain.tokenize_documents"),
    (tweetcorpus.pipeline, "build_instances", "pretrain.build_instances"),
    (tweetcorpus.pretrain, "mask_sequence", "pretrain.mask_sequence"),
    (tweetcorpus.pipeline, "write_records", "pretrain.write_records"),
    (tweetcorpus.pretrain, "read_records", "pretrain.read_records"),
)


def _count_fnv(counters: Counter, args, result) -> None:
    counters["hashing.bytes"] += len(args[0].encode("utf-8"))


def _count_agreement(counters: Counter, args, result) -> None:
    counters["langid.passed"] += bool(result)


def _count_filters(counters: Counter, args, result) -> None:
    counters["filtering.accepted"] += result.accepted


def _count_wordpiece(counters: Counter, args, result) -> None:
    counters["vocab.words"] += len(args[0].split())
    counters["vocab.pieces"] += len(result)
    counters["vocab.unk_pieces"] += result.count(tweetcorpus.vocab.UNK_TOKEN)


def _count_emoji_scan(counters: Counter, args) -> None:
    counters["emojidata.chars_scanned"] += len(args[0])


def _count_emoji_span(counters: Counter, item) -> None:
    counters["emojidata.spans"] += 1


# Counts taken after a call returns, outside its span.
CALL_COUNTERS = {
    "hashing.fnv1a64_text": _count_fnv,
    "langid.agreement_filter": _count_agreement,
    "filtering.apply_filters": _count_filters,
    "vocab.wordpiece_tokenize": _count_wordpiece,
}
# Counts taken when a generator is created, and per item it yields.
GEN_COUNTERS = {
    "emojidata.iter_emoji_spans": (_count_emoji_scan, _count_emoji_span),
}


class Tracer:
    """Spans kept in parallel lists; ``parents[i]`` is -1 for a root span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def _wrap_call(self, name, fn):
        count = CALL_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counters, args, result)
            return result
        return traced

    def _wrap_generator(self, name, fn):
        count_args, count_item = GEN_COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_args is not None:
                count_args(self.counters, args)
            return self._resume_each(name, fn(*args, **kwargs), count_item)
        return traced

    def _resume_each(self, name, gen, count_item):
        try:
            while True:
                index = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                if count_item is not None:
                    count_item(self.counters, item)
                yield item
        finally:
            gen.close()

    def install(self) -> None:
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap_call
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> tuple[Counter, Counter]:
        """Per span name: (self seconds, span count).

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on this single thread.
        """
        self_s: Counter = Counter()
        calls: Counter = Counter()
        names, parents = self.names, self.parents
        for name, start, end, parent in zip(names, self.starts, self.ends, parents):
            duration = end - start
            self_s[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_s[names[parent]] -= duration
        return self_s, calls

    def write(self, path: Path) -> None:
        """Spans as [name, start, end, parent] rows, times relative to the first."""
        origin = self.starts[0] if self.starts else 0.0
        rows = [[n, round(s - origin, 7), round(e - origin, 7), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        path.write_text(json.dumps({"spans": rows}, separators=(",", ":")) + "\n",
                        encoding="utf-8")
