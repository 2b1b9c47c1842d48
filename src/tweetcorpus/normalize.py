r"""Tweet text normalization: placeholder tokens and emoji translation.

Mentions, URLs, and hashtags become the placeholder words USER, HTTPURL,
and HASHTAG; emoji sequences are translated to colon-delimited textual
descriptions through a pluggable mapping file.

The text contract of every layer: whitespace is ``re``'s ``\s``
(``str.isspace``, what ``str.split`` breaks on) and a hashtag letter is
``\w`` (``str.isalnum`` or ``_``), under ``unicodedata.unidata_version``.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from . import emojidata
from .errors import DataError, TweetCorpusError

# Pinned match patterns. Mention length follows the platform's handle
# limit; the hashtag body allows any letter or digit script.
MENTION_PATTERN = r"@[A-Za-z0-9_]{1,15}"
URL_PATTERN = r"(https?://|www\.)[^\s]+"
HASHTAG_PATTERN = r"#\w+"

MENTION_TOKEN = "USER"
URL_TOKEN = "HTTPURL"
HASHTAG_TOKEN = "HASHTAG"

_MENTION_RE = re.compile(MENTION_PATTERN)
_URL_RE = re.compile(URL_PATTERN)
_HASHTAG_RE = re.compile(HASHTAG_PATTERN)

_BASIC_ENTITIES = (("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"))

_TEXT_BLOCK = 1 << 13  # bytes per read of a text file


def text_line_blocks(path: str | Path, source: BinaryIO,
                     error: type[TweetCorpusError] = DataError,
                     size: int = _TEXT_BLOCK) -> Iterator[list[str]]:
    """The lines of ``source``, the open UTF-8 text file ``path``, without
    newlines, one list per block of whole lines decoded at a time: the
    lines in the next ``size`` bytes (-1: to the end of the file).

    Lines split as in text mode with universal newlines: at "\\n", "\\r"
    and "\\r\\n" only. A byte that is not UTF-8 raises ``error`` naming
    ``path:line``, found in the bytes already read.
    """
    lineno = 0  # lines yielded
    rest = b""
    while True:
        block = source.read(size)
        data = rest + block
        cut = data.rfind(b"\n") + 1 if block else len(data)  # a block ends after a newline
        data, rest = data[:cut], data[cut:]
        try:
            lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
        except UnicodeDecodeError as exc:
            before = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            lineno += before.count(b"\n") + 1
            raise error(f"{path}:{lineno}: not UTF-8 (byte 0x{data[exc.start]:02x})") from None
        if lines[-1] == "":  # no line after the last newline
            lines.pop()
        lineno += len(lines)
        yield lines
        if not block:
            return


def read_text_lines(path: str | Path, error: type[TweetCorpusError] = DataError,
                    source: BinaryIO | None = None) -> list[str]:
    """The lines of the UTF-8 text file ``path``, or its open ``source``,
    by ``text_line_blocks``, decoded whole; a leading byte-order mark also
    raises ``error`` naming ``path:1``. It closes ``source``.
    """
    with open(path, "rb") if source is None else source as fh:
        blocks = text_line_blocks(path, fh, error, -1)
        lines = next(blocks)  # the whole file but a last line with no newline
        for block in blocks:
            lines += block
    if lines and lines[0].startswith("\ufeff"):
        raise error(f"{path}:1: starts with a byte-order mark (U+FEFF)")
    return lines


def collapse_whitespace(text: str) -> str:
    """Each whitespace run becomes one space, and the ends are stripped."""
    return " ".join(text.split())


@dataclass(frozen=True)
class EntityCounts:
    """Entity tallies over a tweet's raw (pre-normalization) text."""

    mentions: int
    hashtags: int
    urls: int
    emojis: int


def count_entities(text: str) -> EntityCounts:
    return EntityCounts(
        mentions=len(_MENTION_RE.findall(text)),
        hashtags=len(_HASHTAG_RE.findall(text)),
        urls=len(_URL_RE.findall(text)),
        emojis=emojidata.count_emoji(text),
    )


def unescape_basic_entities(text: str) -> str:
    """Unescape &amp;/&lt;/&gt; (and nothing else). Applied once per tweet."""
    for escaped, plain in _BASIC_ENTITIES:
        text = text.replace(escaped, plain)
    return text


def normalize_entities(text: str) -> str:
    """Replace mentions/URLs/hashtags with placeholder tokens.

    Rewrites until a fixpoint is reached so the operation is idempotent
    even on adversarial inputs such as stacked markers ("@@name"); the
    loop converges because every effective pass consumes at least one
    marker character. Output without "@", "#", "http" or "www." is a
    fixpoint already: no pattern matches it, and it is collapsed.
    """
    while True:
        out = _URL_RE.sub(URL_TOKEN, text)
        out = _MENTION_RE.sub(MENTION_TOKEN, out)
        out = _HASHTAG_RE.sub(HASHTAG_TOKEN, out)
        out = collapse_whitespace(out)
        if out == text or not ("@" in out or "#" in out or "http" in out or "www." in out):
            return out
        text = out


class EmojiMap:
    """Emoji sequence -> textual description, longest-match-first."""

    def __init__(self, entries: dict[str, str]):
        for key, desc in entries.items():
            if not key or not desc.strip():
                raise DataError(f"empty emoji map entry: {key!r} -> {desc!r}")
        self.entries = dict(entries)
        # keys grouped by first code point, longest first, so lookup at a
        # text position probes only plausible candidates
        by_first: dict[str, list[str]] = {}
        for key in self.entries:
            by_first.setdefault(key[0], []).append(key)
        for keys in by_first.values():
            keys.sort(key=len, reverse=True)
        self._by_first = by_first
        # positions where a key or an emoji sequence can start, as a prefix
        # class (see ``emojidata``): ``translate_emojis`` steps past a
        # position that neither a key nor a sequence matches
        self._candidates = emojidata.char_class(emojidata.prefix_ranges(
            emojidata.START_RANGES + tuple((ord(ch), ord(ch)) for ch in by_first)))

    def __len__(self) -> int:
        return len(self.entries)

    def longest_match(self, text: str, pos: int) -> str | None:
        for key in self._by_first.get(text[pos], ()):
            if text.startswith(key, pos):
                return key
        return None

    @classmethod
    def load(cls, path: str | Path, source: BinaryIO | None = None) -> "EmojiMap":
        entries = {}
        key_line = {}
        for lineno, line in enumerate(read_text_lines(path, source=source), 1):
            # a "#" line is a comment unless it starts with an emoji such as the keycap #️⃣
            if not line or line.startswith("#") and emojidata.match_emoji(line, 0) is None:
                continue
            if "\t" not in line:
                raise DataError(f"{path}:{lineno}: expected emoji<TAB>description")
            key, desc = line.split("\t", 1)
            if key in key_line:
                raise DataError(f"{path}:{lineno}: duplicate emoji {key!r}, "
                                f"first at {path}:{key_line[key]}")
            key_line[key] = lineno
            entries[key] = desc
        return cls(entries)


def default_emoji_map() -> EmojiMap:
    ref = importlib.resources.files("tweetcorpus.data") / "emoji_map.tsv"
    with importlib.resources.as_file(ref) as path:
        return EmojiMap.load(path)


def translate_emojis(text: str, emoji_map: EmojiMap) -> str:
    """Translate mapped emoji sequences, drop unmapped ones.

    A mapped sequence becomes " :description: "; an emoji sequence
    absent from the map becomes a single space. When a mapped key and a
    detected sequence overlap, the longer match wins, so a mapped ZWJ
    family outranks its mapped first member.
    """
    out = []
    search = emoji_map._candidates.search
    i = 0  # text[i:] is not yet copied to ``out``
    found = search(text)
    while found is not None:
        j = found.start()
        key = emoji_map.longest_match(text, j)
        seq_end = emojidata.match_emoji(text, j)
        if key is not None and (seq_end is None or len(key) >= seq_end - j):
            out.append(text[i:j])
            out.append(f" :{emoji_map.entries[key]}: ")
            i = j + len(key)
        elif seq_end is not None:
            out.append(text[i:j])
            out.append(" ")
            i = seq_end
        else:
            found = search(text, j + 1)
            continue
        found = search(text, i)
    out.append(text[i:])
    return collapse_whitespace("".join(out))
