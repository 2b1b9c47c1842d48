"""Streaming archive ingestion: parse line-delimited JSON and dedup.

A tweet is dropped when either its id or the key of its canonical text
(whitespace-collapsed, lowercased) was already seen; the first
occurrence always wins. The key is the unsalted 64-bit BLAKE2b digest
of that text, the same on every platform and run. State grows with the
number of unique tweets only, never with archive size.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain
from typing import Iterable, Iterator

from .errors import MalformedRecord
from .normalize import collapse_whitespace

_MAX_ID = 2**64 - 1
_MAX_ID_DIGITS = 20  # len(str(_MAX_ID))
_EPOCH = datetime(1970, 1, 1)
_UTC_EPOCH = _EPOCH.replace(tzinfo=timezone.utc)
_MIN_TS, _MAX_TS = -62135596800, 253402300799  # 0001-01-01, 9999-12-31T23:59:59 UTC
_encode = json.JSONEncoder(ensure_ascii=False).encode
_BOM = b"\xef\xbb\xbf"


@dataclass(frozen=True)
class RawTweet:
    id: int
    text: str
    created_at: int = 0  # unix seconds, UTC
    declared_lang: str | None = None


@dataclass
class DedupState:
    seen_ids: set[int] = field(default_factory=set)
    seen_text_hashes: set[int] = field(default_factory=set)


@dataclass
class IngestStats:
    read: int = 0
    malformed: int = 0
    duplicates_id: int = 0
    duplicates_text: int = 0
    emitted: int = 0


def _parse_timestamp(value: str) -> int:
    # RFC 3339; Python 3.10's fromisoformat rejects the Z suffix
    try:
        dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError as exc:
        raise MalformedRecord(f"bad created_at: {value!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    seconds = (dt - _UTC_EPOCH) // timedelta(seconds=1)  # floor, before 1970 too
    if not _MIN_TS <= seconds <= _MAX_TS:  # serialize_record writes UTC years 1..9999
        raise MalformedRecord(f"created_at outside UTC years 1..9999: {value!r}")
    return seconds


def parse_record(line: str | bytes) -> RawTweet:
    """Parse one archive line into a RawTweet.

    Required fields: id (integer or string of at most 20 ASCII
    digits), text (non-empty string). Optional: created_at (RFC 3339,
    defaults to epoch 0) and lang (ISO 639-1 code). Any line that is
    not such a record raises MalformedRecord, among them JSON nested
    past the recursion limit and integers past ``int``'s digit limit.
    A text or lang holding a lone surrogate, which UTF-8 cannot encode,
    is malformed. Every ``str`` line is checked; in a line decoded from
    bytes only a ``\\uD800``-``\\uDFFF`` escape yields one, so only
    those with a backslash are.
    """
    decoded = isinstance(line, bytes)
    if decoded:
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRecord(str(exc)) from exc
    try:
        obj = json.loads(line)
    # ValueError covers JSONDecodeError and an integer over the digit limit
    except (ValueError, RecursionError) as exc:
        raise MalformedRecord(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
        raise MalformedRecord("record must be an object with id and text")

    raw_id = obj["id"]
    if (isinstance(raw_id, str) and raw_id.isascii() and raw_id.isdigit()
            and len(raw_id) <= _MAX_ID_DIGITS):
        raw_id = int(raw_id)
    if not isinstance(raw_id, int) or isinstance(raw_id, bool) or not 0 <= raw_id <= _MAX_ID:
        raise MalformedRecord(f"id must be an unsigned 64-bit integer, got {obj['id']!r}")

    text = obj["text"]
    if not isinstance(text, str) or not text:
        raise MalformedRecord("text must be a non-empty string")

    created_at = 0
    if obj.get("created_at") is not None:
        if not isinstance(obj["created_at"], str):
            raise MalformedRecord("created_at must be an RFC 3339 string")
        created_at = _parse_timestamp(obj["created_at"])

    lang = obj.get("lang")
    if lang is not None and not isinstance(lang, str):
        raise MalformedRecord("lang must be a string")
    if not decoded or "\\" in line:
        try:
            (text + (lang or "")).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedRecord("text or lang holds a lone surrogate") from exc

    return RawTweet(id=raw_id, text=text, created_at=created_at, declared_lang=lang)


def serialize_record(tweet: RawTweet) -> str:
    """Inverse of parse_record: parse_record(serialize_record(t)) == t."""
    obj: dict = {"id": tweet.id, "text": tweet.text}
    if tweet.created_at:
        # isoformat pads the year to 4 digits; strftime("%Y") may not
        obj["created_at"] = (_EPOCH + timedelta(seconds=tweet.created_at)).isoformat() + "Z"
    if tweet.declared_lang is not None:
        obj["lang"] = tweet.declared_lang
    return _encode(obj)


def fnv1a64_text(text: str) -> int:
    """64-bit FNV-1a of the UTF-8 text. No stage calls it; it stays only
    because bench/tracing.py wraps it here, and goes when that wrap does."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def text_dedup_key(text: str) -> int:
    """The 64-bit BLAKE2b digest of the canonical text, little-endian."""
    canonical = collapse_whitespace(text).lower().encode("utf-8")
    return int.from_bytes(hashlib.blake2b(canonical, digest_size=8).digest(), "little")


def dedup(
    tweets: Iterable[RawTweet],
    state: DedupState | None = None,
    stats: IngestStats | None = None,
) -> Iterator[RawTweet]:
    """Drop id and near-verbatim text duplicates, keeping first occurrences."""
    state = state if state is not None else DedupState()
    stats = stats or IngestStats()
    for tweet in tweets:
        if tweet.id in state.seen_ids:
            stats.duplicates_id += 1
            continue
        key = text_dedup_key(tweet.text)
        if key in state.seen_text_hashes:
            stats.duplicates_text += 1
            continue
        state.seen_ids.add(tweet.id)
        state.seen_text_hashes.add(key)
        stats.emitted += 1
        yield tweet


def read_archive(path, stats: IngestStats | None = None,
                 digests: dict | None = None) -> Iterator[RawTweet]:
    """Stream an archive file, counting malformed and undecodable lines.

    A UTF-8 byte-order mark may lead the file, not a later line. Once
    the stream is exhausted, ``digests[path]`` is the sha256 of every
    byte it read: the file is read once, so it may be a FIFO.
    """
    stats = stats or IngestStats()
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        first = fh.readline()
        if first.startswith(_BOM):  # it leads the file, not the first record
            sha.update(_BOM)
            first = first[len(_BOM):]
        for raw in chain((first,), fh):
            sha.update(raw)
            raw = raw.strip()
            if not raw:
                continue
            stats.read += 1
            try:
                yield parse_record(raw)
            except MalformedRecord:
                stats.malformed += 1
    if digests is not None:
        digests[path] = sha.hexdigest()
