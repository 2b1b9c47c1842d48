"""MLM/NSP pretraining instance generation and record serialization.

Each (document, duplicate) pair gets its own RNG seeded from
mix64(seed, document index, duplicate index), so generation is
reproducible and embarrassingly parallel: worker count changes wall
time, never bytes. Pairs are built in ordered chunks of CHUNK_PAIRS
through ``parallel.ordered_map``; ``build_records`` packs each chunk
into framed records where it is built, so the caller only writes bytes.

RNG protocol per (document, duplicate), in draw order:

1. one ``random()``; if below short_seq_prob, one ``randint(2, T)``
   picking the reduced target length (T = max_seq_length - 3);
2. per flushed chunk of two or more sentences, one ``randint`` choosing
   the segment-A boundary, then one ``random()`` for the NSP coin
   (single-sentence chunks force a random next without a coin draw);
3. on a random next, one ``randrange(len(docs) - 1)`` picking the
   foreign document (skipping self by offset) and one ``randint``
   picking its start sentence; unused chunk sentences are pushed back;
4. the longer segment is truncated from its end, without randomness;
5. masking (see mask_sequence) continues on the same stream.
"""

from __future__ import annotations

import json
import random
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

from .errors import (
    ConfigInvalid,
    CorruptRecord,
    DataError,
    NoCandidates,
    TooFewDocuments,
    VersionMismatch,
)
from .hashing import mix64
from .parallel import ordered_map
from .segment import Document
from .vocab import Vocabulary, encode, wordpiece_tokenize

RECORD_MAGIC = b"RBTW"
RECORD_VERSION = 1
_HEADER = struct.Struct("<4sHII")
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class PretrainConfig:
    max_seq_length: int = 128
    masked_lm_prob: float = 0.15
    mask_token_frac: float = 0.8
    keep_frac: float = 0.1
    random_frac: float = 0.1
    max_predictions_per_seq: int = 20
    dupe_factor: int = 10
    short_seq_prob: float = 0.1
    nsp_random_prob: float = 0.5
    seed: int = 0

    def validate(self) -> "PretrainConfig":
        if abs(self.mask_token_frac + self.keep_frac + self.random_frac - 1.0) > 1e-12:
            raise ConfigInvalid("mask/keep/random fractions must sum to 1")
        if not 0 < self.masked_lm_prob < 1:
            raise ConfigInvalid("masked_lm_prob must be in (0, 1)")
        if self.dupe_factor < 1:
            raise ConfigInvalid("dupe_factor must be >= 1")
        if self.max_seq_length < 5:
            raise ConfigInvalid("max_seq_length must be >= 5 ([CLS] a [SEP] b [SEP])")
        if self.max_predictions_per_seq < 1:
            raise ConfigInvalid("max_predictions_per_seq must be >= 1")
        if not 0 <= self.short_seq_prob <= 1:
            raise ConfigInvalid("short_seq_prob must be in [0, 1]")
        if not 0 <= self.nsp_random_prob <= 1:
            raise ConfigInvalid("nsp_random_prob must be in [0, 1]")
        return self


@dataclass(frozen=True)
class PretrainInstance:
    token_ids: tuple[int, ...]
    segment_ids: tuple[int, ...]
    is_random_next: bool
    masked_positions: tuple[int, ...]
    masked_label_ids: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "token_ids": list(self.token_ids),
            "segment_ids": list(self.segment_ids),
            "is_random_next": self.is_random_next,
            "masked_positions": list(self.masked_positions),
            "masked_label_ids": list(self.masked_label_ids),
        }


def mask_sequence(token_ids: Sequence[int], vocab: Vocabulary, cfg: PretrainConfig,
                  rng: random.Random) -> tuple[list[int], list[int], list[int]]:
    """Apply the MLM corruption to one assembled sequence.

    Candidates are all non-[CLS]/[SEP] positions. The number selected is
    min(max_predictions_per_seq, max(1, round(masked_lm_prob * candidates))),
    drawn uniformly without replacement via ``rng.sample``. For each
    selected position, ascending, one ``random()`` decides the fate:
    below mask_token_frac -> [MASK]; below mask_token_frac + keep_frac
    -> unchanged; otherwise one ``randrange`` over the replacement pool
    (vocabulary minus [CLS]/[SEP]/[MASK]/[PAD]) picks a random token.
    """
    cls_id, sep_id = vocab.cls_id, vocab.sep_id
    candidates = [i for i, t in enumerate(token_ids) if t != cls_id and t != sep_id]
    if not candidates:
        raise NoCandidates("sequence contains only [CLS]/[SEP]")
    count = min(cfg.max_predictions_per_seq,
                max(1, int(round(cfg.masked_lm_prob * len(candidates)))))
    positions = sorted(rng.sample(candidates, count))

    pool = vocab.replacement_pool
    keep_cutoff = cfg.mask_token_frac + cfg.keep_frac
    masked = list(token_ids)
    labels = []
    for pos in positions:
        labels.append(token_ids[pos])
        r = rng.random()
        if r < cfg.mask_token_frac:
            masked[pos] = vocab.mask_id
        elif r < keep_cutoff:
            pass
        else:
            masked[pos] = pool[rng.randrange(len(pool))]
    return masked, positions, labels


def _truncate_pair(tokens_a: list[int], tokens_b: list[int], max_num_tokens: int) -> None:
    # longer segment loses tokens from its end; segments never drop below 1
    while len(tokens_a) + len(tokens_b) > max_num_tokens:
        longer = tokens_a if len(tokens_a) >= len(tokens_b) else tokens_b
        if len(longer) <= 1:
            break
        longer.pop()


def _instances_for_document(all_docs: Sequence[Sequence[Sequence[int]]], doc_index: int,
                            rng: random.Random, vocab: Vocabulary,
                            cfg: PretrainConfig) -> list[tuple]:
    """One (document, duplicate) pair's instances, as raw
    ``(token ids, segment-0 length, is_random_next, masked positions,
    labels)`` tuples; segment 0 is [CLS], segment A and the first [SEP]."""
    document = all_docs[doc_index]
    max_num_tokens = cfg.max_seq_length - 3
    target_seq_length = max_num_tokens
    if rng.random() < cfg.short_seq_prob:
        target_seq_length = rng.randint(2, max_num_tokens)

    instances = []
    current_chunk: list[Sequence[int]] = []
    current_length = 0
    i = 0
    while i < len(document):
        segment = document[i]
        current_chunk.append(segment)
        current_length += len(segment)
        if i == len(document) - 1 or current_length >= target_seq_length:
            a_end = 1
            if len(current_chunk) >= 2:
                a_end = rng.randint(1, len(current_chunk) - 1)
            tokens_a = [t for seg in current_chunk[:a_end] for t in seg]

            tokens_b: list[int] = []
            if len(current_chunk) == 1 or rng.random() < cfg.nsp_random_prob:
                is_random_next = True
                target_b_length = target_seq_length - len(tokens_a)
                j = rng.randrange(len(all_docs) - 1)
                if j >= doc_index:
                    j += 1
                foreign = all_docs[j]
                start = rng.randint(0, len(foreign) - 1)
                for k in range(start, len(foreign)):
                    tokens_b.extend(foreign[k])
                    if len(tokens_b) >= target_b_length:
                        break
                # unused sentences go back into the stream
                i -= len(current_chunk) - a_end
            else:
                is_random_next = False
                for seg in current_chunk[a_end:]:
                    tokens_b.extend(seg)

            _truncate_pair(tokens_a, tokens_b, max_num_tokens)
            ids = [vocab.cls_id] + tokens_a + [vocab.sep_id] + tokens_b + [vocab.sep_id]
            masked, positions, labels = mask_sequence(ids, vocab, cfg, rng)
            instances.append((masked, len(tokens_a) + 2, is_random_next, positions, labels))
            current_chunk = []
            current_length = 0
        i += 1
    return instances


@dataclass
class BuildStats:
    documents: int = 0
    degenerate_documents: int = 0
    instances: int = 0

    def as_dict(self) -> dict:
        return {
            "documents": self.documents,
            "degenerate_documents": self.degenerate_documents,
            "instances": self.instances,
        }


def tokenize_documents(documents: Iterable[Document], vocab: Vocabulary,
                       stats: BuildStats | None = None) -> list[list[list[int]]]:
    """Sentence token-id lists per document; empty documents are dropped.

    WordPiece treats every whitespace-separated word on its own, so each
    distinct word is tokenized once per call and its ids are reused.
    """
    word_ids: dict[str, list[int]] = {}
    out = []
    for doc in documents:
        if stats:
            stats.documents += 1
        sentences = []
        for sentence in doc:
            ids: list[int] = []
            for word in sentence.split():
                pieces = word_ids.get(word)
                if pieces is None:
                    pieces = word_ids[word] = encode(wordpiece_tokenize(word, vocab), vocab)
                ids += pieces
            if ids:
                sentences.append(ids)
        if sentences:
            out.append(sentences)
        elif stats:
            stats.degenerate_documents += 1
    return out


# (document, duplicate) pairs per task of the ordered map; pair p is
# document p // dupe_factor, duplicate p % dupe_factor.
CHUNK_PAIRS = 512


def _prepare(documents: Iterable[Document], vocab: Vocabulary, cfg: PretrainConfig,
             stats: BuildStats | None) -> tuple[tuple, Iterator[tuple[int, int]]]:
    """The map's context and its chunks of pair indices."""
    cfg.validate()
    tok_docs = tokenize_documents(documents, vocab, stats)
    if len(tok_docs) < 2:
        raise TooFewDocuments(
            f"need at least 2 tokenizable documents, got {len(tok_docs)}")
    vocab.replacement_pool  # built here, once, not in every worker
    pairs = len(tok_docs) * cfg.dupe_factor
    chunks = ((lo, min(lo + CHUNK_PAIRS, pairs)) for lo in range(0, pairs, CHUNK_PAIRS))
    return (tok_docs, vocab, cfg), chunks


def _chunk_instances(context: tuple, bounds: tuple[int, int]) -> Iterator[tuple]:
    docs, vocab, cfg = context
    for pair in range(*bounds):
        i, d = divmod(pair, cfg.dupe_factor)
        rng = random.Random(mix64(cfg.seed, i, d))
        yield from _instances_for_document(docs, i, rng, vocab, cfg)


def _instance_chunk(context: tuple, bounds: tuple[int, int]) -> list[PretrainInstance]:
    return [PretrainInstance(tuple(ids), (0,) * a_len + (1,) * (len(ids) - a_len),
                             is_random_next, tuple(positions), tuple(labels))
            for ids, a_len, is_random_next, positions, labels
            in _chunk_instances(context, bounds)]


def _record_chunk(context: tuple, bounds: tuple[int, int]) -> tuple[int, bytes]:
    frames = [_frame(ids, bytes(a_len) + b"\x01" * (len(ids) - a_len),
                     is_random_next, positions, labels)
              for ids, a_len, is_random_next, positions, labels
              in _chunk_instances(context, bounds)]
    return len(frames), b"".join(frames)


def build_instances(documents: Iterable[Document], vocab: Vocabulary,
                    cfg: PretrainConfig, workers: int = 1,
                    stats: BuildStats | None = None) -> Iterator[PretrainInstance]:
    """Generate instances in (document index, duplicate index) order.

    Requires at least two non-degenerate documents so a foreign document
    always exists for random-next sampling.
    """
    context, chunks = _prepare(documents, vocab, cfg, stats)
    for instances in ordered_map(_instance_chunk, context, chunks, workers):
        if stats:
            stats.instances += len(instances)
        yield from instances


def build_records(documents: Iterable[Document], vocab: Vocabulary,
                  cfg: PretrainConfig, sink: BinaryIO | str | Path,
                  workers: int = 1, stats: BuildStats | None = None) -> int:
    """Build the instances of ``documents`` and write them as a record
    file: the bytes of ``write_records(build_instances(...), sink, cfg)``.

    Every chunk of pairs is packed into framed records where it is
    built, so this process only writes bytes. Returns the record count.
    """
    context, chunks = _prepare(documents, vocab, cfg, stats)
    out, owned = _open(sink, "wb")
    count = 0
    try:
        _write_header(out, cfg)
        for built, frames in ordered_map(_record_chunk, context, chunks, workers):
            out.write(frames)
            count += built
    finally:
        if owned:
            out.close()
    if stats:
        stats.instances += count
    return count


# --- record serialization ---------------------------------------------------
#
# A record file is the header, its CRC32, then one frame per instance:
# u32 payload size, payload, u32 CRC32 of the payload. The payload is
#   u32 n | n x u32 token ids | n x u8 segment ids | u8 is_random_next |
#   u32 m | m x u32 masked positions | m x u32 masked label ids
# with every integer little-endian.

# array typecode of a 4-byte unsigned word; arrays hold native byte order
_WORD = next(code for code in "IL" if array(code).itemsize == 4)
_SWAP = sys.byteorder != "little"


def _words(values: Iterable[int]) -> bytes:
    """``values`` as little-endian u32s."""
    words = array(_WORD, values)
    if _SWAP:
        words.byteswap()
    return words.tobytes()


def _frame(token_ids: Sequence[int], segments: bytes, is_random_next: bool,
           positions: Sequence[int], labels: Sequence[int]) -> bytes:
    payload = b"".join((
        _U32.pack(len(token_ids)), _words(token_ids), segments,
        b"\x01" if is_random_next else b"\x00",
        _U32.pack(len(positions)), _words(positions), _words(labels),
    ))
    return b"".join((_U32.pack(len(payload)), payload, _U32.pack(zlib.crc32(payload))))


@lru_cache(maxsize=4096)
def _payload_layout(n: int, m: int) -> struct.Struct:
    """The whole payload of n tokens and m predictions as one struct."""
    return struct.Struct(f"<I{n}I{n}BBI{2 * m}I")


def _unpack_instance(buffer: bytes, size: int) -> PretrainInstance:
    """The instance whose payload is ``buffer[:size]``."""
    if size < 4:
        raise CorruptRecord("payload shorter than its declared contents")
    (n,) = _U32.unpack_from(buffer)
    m_at = 5 * n + 5
    if m_at + 4 > size:
        raise CorruptRecord("payload shorter than its declared contents")
    (m,) = _U32.unpack_from(buffer, m_at)
    end = m_at + 4 + 8 * m
    if end > size:
        raise CorruptRecord("payload shorter than its declared contents")
    if end != size:
        raise CorruptRecord(f"{size - end} trailing bytes in payload")
    values = _payload_layout(n, m).unpack_from(buffer)
    ids_end = 1 + n
    segs_end = ids_end + n
    labels_at = segs_end + 2 + m
    return PretrainInstance(values[1:ids_end], values[ids_end:segs_end],
                            bool(values[segs_end]), values[segs_end + 2:labels_at],
                            values[labels_at:])


def _open(sink, mode: str):
    if isinstance(sink, (str, Path)):
        return open(sink, mode), True
    return sink, False


def _write_header(out: BinaryIO, cfg: PretrainConfig) -> None:
    header = _HEADER.pack(RECORD_MAGIC, RECORD_VERSION,
                          cfg.max_seq_length, cfg.max_predictions_per_seq)
    out.write(header)
    out.write(_U32.pack(zlib.crc32(header)))


def write_records(instances: Iterable[PretrainInstance], sink: BinaryIO | str | Path,
                  cfg: PretrainConfig) -> int:
    """Length-prefixed, CRC-protected binary records.

    The header self-describes max_seq_length and max_predictions_per_seq
    and carries its own CRC32 so corruption anywhere in the file is
    detectable.
    """
    out, owned = _open(sink, "wb")
    try:
        _write_header(out, cfg)
        count = 0
        for inst in instances:
            if len(inst.token_ids) > cfg.max_seq_length:
                raise DataError(
                    f"instance of {len(inst.token_ids)} tokens exceeds "
                    f"max_seq_length {cfg.max_seq_length}")
            if len(inst.masked_positions) > cfg.max_predictions_per_seq:
                raise DataError("instance exceeds max_predictions_per_seq")
            if len(inst.segment_ids) != len(inst.token_ids):
                raise DataError(
                    f"{len(inst.segment_ids)} segment ids for "
                    f"{len(inst.token_ids)} tokens")
            if len(inst.masked_label_ids) != len(inst.masked_positions):
                raise DataError(
                    f"{len(inst.masked_label_ids)} masked labels for "
                    f"{len(inst.masked_positions)} masked positions")
            out.write(_frame(inst.token_ids, bytes(inst.segment_ids), inst.is_random_next,
                             inst.masked_positions, inst.masked_label_ids))
            count += 1
        return count
    finally:
        if owned:
            out.close()


@dataclass
class RecordHeader:
    version: int
    max_seq_length: int
    max_predictions_per_seq: int


def read_header(fh: BinaryIO) -> RecordHeader:
    raw = fh.read(_HEADER.size + 4)
    if len(raw) != _HEADER.size + 4:
        raise CorruptRecord("file too short for a record header")
    header, (crc,) = raw[:_HEADER.size], _U32.unpack(raw[_HEADER.size:])
    if zlib.crc32(header) != crc:
        raise CorruptRecord("header CRC mismatch")
    magic, version, max_seq, max_preds = _HEADER.unpack(header)
    if magic != RECORD_MAGIC:
        raise CorruptRecord(f"bad magic {magic!r}")
    if version != RECORD_VERSION:
        raise VersionMismatch(f"record version {version}, expected {RECORD_VERSION}")
    return RecordHeader(version, max_seq, max_preds)


def read_records(source: BinaryIO | str | Path,
                 header_out: list | None = None) -> Iterator[PretrainInstance]:
    """Stream instances back; raises CorruptRecord on any damage.

    Pass a list as ``header_out`` to also receive the RecordHeader.
    """
    fh, owned = _open(source, "rb")
    try:
        header = read_header(fh)
        if header_out is not None:
            header_out.append(header)
        while True:
            prefix = fh.read(4)
            if not prefix:
                break
            if len(prefix) != 4:
                raise CorruptRecord("truncated record length prefix")
            (size,) = _U32.unpack(prefix)
            body = fh.read(size + 4)
            if len(body) != size + 4:
                raise CorruptRecord("truncated record body")
            (crc,) = _U32.unpack_from(body, size)
            if zlib.crc32(memoryview(body)[:size]) != crc:
                raise CorruptRecord("payload CRC mismatch")
            inst = _unpack_instance(body, size)
            if len(inst.token_ids) > header.max_seq_length:
                raise CorruptRecord("record exceeds file max_seq_length")
            if len(inst.masked_positions) > header.max_predictions_per_seq:
                raise CorruptRecord("record exceeds file max_predictions_per_seq")
            yield inst
    finally:
        if owned:
            fh.close()


def write_records_jsonl(instances: Iterable[PretrainInstance],
                        sink, cfg: PretrainConfig) -> int:
    """Line-delimited JSON twin of the binary format, for debugging."""
    out, owned = _open(sink, "w")
    try:
        count = 0
        out.write(json.dumps({
            "max_seq_length": cfg.max_seq_length,
            "max_predictions_per_seq": cfg.max_predictions_per_seq,
        }) + "\n")
        for inst in instances:
            out.write(json.dumps(inst.as_dict()) + "\n")
            count += 1
        return count
    finally:
        if owned:
            out.close()
