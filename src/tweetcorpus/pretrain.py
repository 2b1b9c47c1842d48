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

Every ``randint``, ``randrange`` and ``sample`` above is made in place
by ``_below`` and ``_sample``: the same ``getrandbits`` calls, in the
same order, that those ``random.Random`` methods make, so they take the
same values from the same state without the methods' Python wrappers.
"""

from __future__ import annotations

import json
import random
import struct
import sys
import zlib
from array import array
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain
from math import ceil, log
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

from .errors import ConfigInvalid, CorruptRecord, DataError, VersionMismatch, check_types
from .parallel import ordered_map
from .segment import Document
from .vocab import Vocabulary, encode, wordpiece_tokenize

RECORD_MAGIC = b"RBTW"
RECORD_VERSION = 1
_HEADER = struct.Struct("<4sHII")
_U32 = struct.Struct("<I")
RECORD_BLOCK = 1 << 20  # bytes per read of a record file, as file_digest reads


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

    def __post_init__(self) -> None:
        check_types(self)
        fractions = (self.mask_token_frac, self.keep_frac, self.random_frac)
        if not all(0 <= f <= 1 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-12:
            raise ConfigInvalid("mask/keep/random fractions must each be in [0, 1] and sum to 1")
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


@dataclass(frozen=True)
class PretrainInstance:
    token_ids: tuple[int, ...]
    segment_ids: tuple[int, ...]
    is_random_next: bool
    masked_positions: tuple[int, ...]
    masked_label_ids: tuple[int, ...]


FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF
# _ZERO_BYTES[k]: folding k zero bytes, FNV_PRIME**k mod 2**64
_ZERO_BYTES = tuple(pow(FNV_PRIME, k, 1 << 64) for k in range(9))


def mix64(seed: int, *parts: int) -> int:
    """Mix a base seed with integer parts into one 64-bit seed.

    The builtin ``hash`` is salted per process; FNV-1a is the same on
    every platform. The seed, then each part, is folded in through the
    FNV-1a step function over the 8 bytes of its little-endian
    representation (mod 2**64), then finalized with an xor-shift so that
    nearby (seed, part) tuples land far apart. XOR with a zero byte
    changes nothing, so the zero high bytes of a small value are folded
    as one multiplication by a power of FNV_PRIME; the result is the
    same as folding all 8 bytes one at a time.
    """
    h = FNV_OFFSET
    for word in (seed, *parts):
        word &= _MASK
        zeros = 8
        while word:
            h = ((h ^ (word & 0xFF)) * FNV_PRIME) & _MASK
            word >>= 8
            zeros -= 1
        h = (h * _ZERO_BYTES[zeros]) & _MASK
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK
    h ^= h >> 33
    return h


def _below(getrandbits, n: int) -> int:
    """``Random._randbelow_with_getrandbits(n)``: a draw from [0, n)."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def _sample(getrandbits, population: Sequence[int], k: int) -> list[int]:
    """``Random.sample(population, k)``, 0 <= k <= len(population): the
    same draws in the same order, so the same result and final state."""
    n = len(population)
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    result = []
    if n <= setsize:  # pool swap: draw below the n - i items not yet taken
        pool = list(population)
        for left in range(n, n - k, -1):
            bits = left.bit_length()
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[left - 1]
    else:  # set rejection: redraw below n until an index not yet taken
        selected = set()
        bits = n.bit_length()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result.append(population[j])
    return result


def mask_sequence(token_ids: Sequence[int], vocab: Vocabulary, cfg: PretrainConfig,
                  rng: random.Random, candidates: Sequence[int] | None = None,
                  ) -> tuple[list[int], list[int], list[int]]:
    """Apply the MLM corruption to one assembled sequence.

    Candidates are all non-[CLS]/[SEP] positions, ascending. Without
    ``candidates`` every token is scanned for them; a caller that knows
    the sequence's layout may pass that list instead, which must equal
    what the scan would find. The number selected is
    min(max_predictions_per_seq, max(1, round(masked_lm_prob * candidates))),
    drawn uniformly without replacement via ``rng.sample``. For each
    selected position, ascending, one ``random()`` decides the fate:
    below mask_token_frac -> [MASK]; below mask_token_frac + keep_frac
    -> unchanged; otherwise one ``randrange`` over the replacement pool
    (vocabulary minus [CLS]/[SEP]/[MASK]/[PAD]) picks a random token.

    The ``sample`` and ``randrange`` draws are made in place from
    ``rng.getrandbits``, exactly as those methods make them, so ``rng``
    must be a ``random.Random`` whose draws come from ``getrandbits``:
    the standard library's default.
    """
    if candidates is None:
        cls_id, sep_id = vocab.cls_id, vocab.sep_id
        candidates = [i for i, t in enumerate(token_ids) if t != cls_id and t != sep_id]
    if not candidates:
        raise DataError("sequence contains only [CLS]/[SEP]")
    count = min(cfg.max_predictions_per_seq,
                max(1, int(round(cfg.masked_lm_prob * len(candidates)))))
    getrandbits = rng.getrandbits
    positions = sorted(_sample(getrandbits, candidates, count))

    pool = vocab.replacement_pool
    mask_id, mask_cutoff = vocab.mask_id, cfg.mask_token_frac
    keep_cutoff = mask_cutoff + cfg.keep_frac
    masked = list(token_ids)
    labels = [token_ids[pos] for pos in positions]
    draw = rng.random
    for pos in positions:
        r = draw()
        if r < mask_cutoff:
            masked[pos] = mask_id
        elif r >= keep_cutoff:  # between the cutoffs the token is kept
            masked[pos] = pool[_below(getrandbits, len(pool))]
    return masked, positions, labels


def _truncate_pair(tokens_a: list[int], tokens_b: list[int], max_num_tokens: int) -> None:
    # longer segment loses tokens from its end; it holds at least 2, as the
    # pair holds more than max_num_tokens >= 2 (PretrainConfig checks max_seq_length >= 5)
    while len(tokens_a) + len(tokens_b) > max_num_tokens:
        longer = tokens_a if len(tokens_a) >= len(tokens_b) else tokens_b
        longer.pop()


def _instances_for_document(all_docs: Sequence[Sequence[Sequence[int]]], doc_index: int,
                            rng: random.Random, vocab: Vocabulary,
                            cfg: PretrainConfig, layout: bool) -> list[tuple]:
    """One (document, duplicate) pair's instances, as raw
    ``(token ids, segment-0 length, is_random_next, masked positions,
    labels)`` tuples; segment 0 is [CLS], segment A and the first [SEP].

    With ``layout``, which the caller may set only when no sentence of
    ``all_docs`` holds the [CLS] or [SEP] id, the masking candidates are
    taken from the ``[CLS] A [SEP] B [SEP]`` layout, not scanned for."""
    document = all_docs[doc_index]
    getrandbits = rng.getrandbits
    max_num_tokens = cfg.max_seq_length - 3
    target_seq_length = max_num_tokens
    if rng.random() < cfg.short_seq_prob:
        target_seq_length = 2 + _below(getrandbits, max_num_tokens - 1)

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
                a_end = 1 + _below(getrandbits, len(current_chunk) - 1)
            tokens_a = list(chain.from_iterable(current_chunk[:a_end]))

            tokens_b: list[int] = []
            if len(current_chunk) == 1 or rng.random() < cfg.nsp_random_prob:
                is_random_next = True
                target_b_length = target_seq_length - len(tokens_a)
                j = _below(getrandbits, len(all_docs) - 1)
                if j >= doc_index:
                    j += 1
                foreign = all_docs[j]
                start = _below(getrandbits, len(foreign))
                for k in range(start, len(foreign)):
                    tokens_b.extend(foreign[k])
                    if len(tokens_b) >= target_b_length:
                        break
                # unused sentences go back into the stream
                i -= len(current_chunk) - a_end
            else:
                is_random_next = False
                tokens_b = list(chain.from_iterable(current_chunk[a_end:]))

            _truncate_pair(tokens_a, tokens_b, max_num_tokens)
            a_len = len(tokens_a) + 2
            ids = [vocab.cls_id, *tokens_a, vocab.sep_id, *tokens_b, vocab.sep_id]
            candidates = None
            if layout:
                candidates = [*range(1, a_len - 1), *range(a_len, len(ids) - 1)]
            masked, positions, labels = mask_sequence(ids, vocab, cfg, rng, candidates)
            instances.append((masked, a_len, is_random_next, positions, labels))
            current_chunk = []
            current_length = 0
        i += 1
    return instances


@dataclass
class BuildStats:
    documents: int = 0
    degenerate_documents: int = 0
    instances: int = 0


def tokenize_documents(documents: Iterable[Document], vocab: Vocabulary,
                       stats: BuildStats | None = None) -> list[list[list[int]]]:
    """Sentence token-id lists per document; empty documents are dropped.

    WordPiece treats every whitespace-separated word on its own, so each
    distinct word is tokenized once per call and its ids are reused.
    """
    stats = stats or BuildStats()
    word_ids: dict[str, list[int]] = {}
    out = []
    for doc in documents:
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
        else:
            stats.degenerate_documents += 1
    return out


# (document, duplicate) pairs per task of the ordered map; pair p is
# document p // dupe_factor, duplicate p % dupe_factor.
CHUNK_PAIRS = 512


def _built_chunks(documents: Iterable[Document], vocab: Vocabulary, cfg: PretrainConfig,
                  workers: int, stats: BuildStats) -> Iterator[tuple[int, bytes]]:
    """Each chunk's ``(count, frames)``, in pair order. The documents are
    tokenized and checked at the call, before any chunk is built."""
    tok_docs = tokenize_documents(documents, vocab, stats)
    if len(tok_docs) == 1:
        raise DataError("need at least 2 tokenizable documents, got 1")
    vocab.replacement_pool  # built here, once, not in every worker
    # a literal [CLS] or [SEP] word breaks the layout's candidates
    cls_id, sep_id = vocab.cls_id, vocab.sep_id
    layout = not any(cls_id in sentence or sep_id in sentence
                     for doc in tok_docs for sentence in doc)
    pairs = len(tok_docs) * cfg.dupe_factor
    chunks = ((lo, min(lo + CHUNK_PAIRS, pairs)) for lo in range(0, pairs, CHUNK_PAIRS))
    return ordered_map(_record_chunk, (tok_docs, vocab, cfg, layout), chunks, workers)


def _record_chunk(context: tuple, bounds: tuple[int, int]) -> tuple[int, bytes]:
    docs, vocab, cfg, layout = context
    rng = random.Random()
    frames: list[bytes] = []
    for pair in range(*bounds):
        i, d = divmod(pair, cfg.dupe_factor)
        rng.seed(mix64(cfg.seed, i, d))  # the state of Random(mix64(...))
        frames += [_frame(ids, bytes(a_len) + b"\x01" * (len(ids) - a_len),
                          is_random_next, positions, labels)
                   for ids, a_len, is_random_next, positions, labels
                   in _instances_for_document(docs, i, rng, vocab, cfg, layout)]
    return len(frames), b"".join(frames)


def build_instances(documents: Iterable[Document], vocab: Vocabulary,
                    cfg: PretrainConfig, workers: int = 1,
                    stats: BuildStats | None = None) -> Iterator[PretrainInstance]:
    """Generate instances in (document index, duplicate index) order.

    No non-degenerate document gives no instances; exactly one is an
    error, as random-next sampling needs a foreign document. The
    instances are unpacked from the frames that ``build_records``
    writes, so they equal the records on disk.
    """
    stats = stats or BuildStats()
    for built, frames in _built_chunks(documents, vocab, cfg, workers, stats):
        stats.instances += built
        for payload in _walk(frames)[0]:
            yield _unpack_instance(payload)


def build_records(documents: Iterable[Document], vocab: Vocabulary,
                  cfg: PretrainConfig, sink: BinaryIO | str | Path,
                  workers: int = 1, stats: BuildStats | None = None) -> int:
    """Build the instances of ``documents`` and write them as a record
    file: the bytes of ``write_records(build_instances(...), sink, cfg)``.

    Every chunk of pairs is packed into framed records where it is
    built, so this process only writes bytes. Returns the record count.
    """
    stats = stats or BuildStats()
    count = _write_file(sink, cfg, _built_chunks(documents, vocab, cfg, workers, stats))
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


def _frame(token_ids: Sequence[int], segments: bytes, is_random_next: bool,
           positions: Sequence[int], labels: Sequence[int]) -> bytes:
    head = array(_WORD, [len(token_ids), *token_ids])
    tail = array(_WORD, [len(positions), *positions, *labels])
    if _SWAP:
        head.byteswap()
        tail.byteswap()
    payload = b"".join((head, segments, b"\x01" if is_random_next else b"\x00", tail))
    return b"".join((_U32.pack(len(payload)), payload, _U32.pack(zlib.crc32(payload))))


@lru_cache(maxsize=4096)
def _words(n: int) -> struct.Struct:
    """n little-endian u32 words."""
    return struct.Struct(f"<{n}I")


def _unpack_instance(payload: memoryview) -> PretrainInstance:
    """The instance whose payload is ``payload``."""
    size = len(payload)
    if size < 4:
        raise CorruptRecord("payload shorter than its declared contents")
    (n,) = _U32.unpack_from(payload)
    m_at = 5 * n + 5
    if m_at + 4 > size:
        raise CorruptRecord("payload shorter than its declared contents")
    (m,) = _U32.unpack_from(payload, m_at)
    end = m_at + 4 + 8 * m
    if end > size:
        raise CorruptRecord("payload shorter than its declared contents")
    if end != size:
        raise CorruptRecord(f"{size - end} trailing bytes in payload")
    predictions = _words(m)
    return PretrainInstance(_words(n).unpack_from(payload, 4),
                            tuple(payload[4 * n + 4:m_at - 1]), bool(payload[m_at - 1]),
                            predictions.unpack_from(payload, m_at + 4),
                            predictions.unpack_from(payload, m_at + 4 + 4 * m))


def _walk(buffer: bytes) -> tuple[list[memoryview], int]:
    """The CRC-checked payloads of the whole frames at the start of
    ``buffer``, and the offset where the rest (a partial frame) starts."""
    view, end = memoryview(buffer), len(buffer)
    payloads, at = [], 0
    while at + 4 <= end:
        stop = at + 8 + _U32.unpack_from(view, at)[0]
        if stop > end:
            break
        payload = view[at + 4:stop - 4]
        if zlib.crc32(payload) != _U32.unpack_from(view, stop - 4)[0]:
            raise CorruptRecord("payload CRC mismatch")
        payloads.append(payload)
        at = stop
    return payloads, at


def _open(sink, mode: str):
    """A context that opens a path and closes it, or leaves an open file as it is."""
    return open(sink, mode) if isinstance(sink, (str, Path)) else nullcontext(sink)


def _write_file(sink: BinaryIO | str | Path, cfg: PretrainConfig,
                chunks: Iterable[tuple[int, bytes]]) -> int:
    """Write the header, then each ``(count, frames)`` chunk's frames, as a
    record file; returns the sum of the counts."""
    header = _HEADER.pack(RECORD_MAGIC, RECORD_VERSION,
                          cfg.max_seq_length, cfg.max_predictions_per_seq)
    count = 0
    with _open(sink, "wb") as out:
        out.write(header)
        out.write(_U32.pack(zlib.crc32(header)))
        for built, frames in chunks:
            out.write(frames)
            count += built
    return count


def write_records(instances: Iterable[PretrainInstance], sink: BinaryIO | str | Path,
                  cfg: PretrainConfig) -> int:
    """Length-prefixed, CRC-protected binary records.

    The header self-describes max_seq_length and max_predictions_per_seq
    and carries its own CRC32 so corruption anywhere in the file is
    detectable.
    """
    def frames() -> Iterator[tuple[int, bytes]]:
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
            yield 1, _frame(inst.token_ids, bytes(inst.segment_ids), inst.is_random_next,
                            inst.masked_positions, inst.masked_label_ids)

    return _write_file(sink, cfg, frames())


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

    Pass a list as ``header_out`` to also receive the RecordHeader. The
    file is read ``RECORD_BLOCK`` bytes at a time, and the CRC of every
    whole frame in a read is checked before its first instance is yielded.
    """
    with _open(source, "rb") as fh:
        header = read_header(fh)
        if header_out is not None:
            header_out.append(header)
        rest = b""
        while block := fh.read(RECORD_BLOCK):
            rest += block
            payloads, at = _walk(rest)
            for payload in payloads:
                inst = _unpack_instance(payload)
                if len(inst.token_ids) > header.max_seq_length:
                    raise CorruptRecord("record exceeds file max_seq_length")
                if len(inst.masked_positions) > header.max_predictions_per_seq:
                    raise CorruptRecord("record exceeds file max_predictions_per_seq")
                yield inst
            rest = rest[at:]
    if rest:
        raise CorruptRecord("truncated record body" if len(rest) >= 4
                            else "truncated record length prefix")


def write_records_jsonl(instances: Iterable[PretrainInstance],
                        sink, cfg: PretrainConfig) -> int:
    """Line-delimited JSON twin of the binary format, for debugging."""
    count = 0
    with _open(sink, "w") as out:
        out.write(json.dumps({
            "max_seq_length": cfg.max_seq_length,
            "max_predictions_per_seq": cfg.max_predictions_per_seq,
        }) + "\n")
        for inst in instances:
            out.write(json.dumps(asdict(inst)) + "\n")
            count += 1
    return count
