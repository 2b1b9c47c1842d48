"""Tweet text normalization: placeholder tokens and emoji translation.

Mentions, URLs, and hashtags become the placeholder words USER, HTTPURL,
and HASHTAG; emoji sequences are translated to colon-delimited textual
descriptions through a pluggable mapping file.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

import regex

from . import emojidata
from .errors import DataError

# Pinned match patterns. Mention length follows the platform's handle
# limit; the hashtag body allows any letter or digit script.
MENTION_PATTERN = r"@[A-Za-z0-9_]{1,15}"
URL_PATTERN = r"(https?://|www\.)[^\s]+"
HASHTAG_PATTERN = r"#[\p{L}\p{N}_]+"

MENTION_TOKEN = "USER"
URL_TOKEN = "HTTPURL"
HASHTAG_TOKEN = "HASHTAG"

_MENTION_RE = regex.compile(MENTION_PATTERN)
_URL_RE = regex.compile(URL_PATTERN)
_HASHTAG_RE = regex.compile(HASHTAG_PATTERN)
_WS_RE = regex.compile(r"\s+")

_BASIC_ENTITIES = (("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"))


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
    marker character.
    """
    while True:
        out = _URL_RE.sub(URL_TOKEN, text)
        out = _MENTION_RE.sub(MENTION_TOKEN, out)
        out = _HASHTAG_RE.sub(HASHTAG_TOKEN, out)
        out = _WS_RE.sub(" ", out).strip()
        if out == text:
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
        # positions where a key or an emoji sequence can start; first
        # characters inside the emoji start ranges merge into them, which
        # keeps the class short (``re`` tries a class's items in turn)
        self._candidates = emojidata.char_class(
            emojidata.START_RANGES + tuple((ord(ch), ord(ch)) for ch in by_first))

    def __len__(self) -> int:
        return len(self.entries)

    def longest_match(self, text: str, pos: int) -> str | None:
        for key in self._by_first.get(text[pos], ()):
            if text.startswith(key, pos):
                return key
        return None

    @classmethod
    def load(cls, path: str | Path) -> "EmojiMap":
        entries = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                if "\t" not in line:
                    raise DataError(f"{path}:{lineno}: expected emoji<TAB>description")
                key, desc = line.split("\t", 1)
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
    return _WS_RE.sub(" ", "".join(out)).strip()
