"""Extended WordPiece vocabulary and greedy tokenizer.

The vocabulary is a base token list extended with the three tweet
placeholders and the most frequent quarter of distinct emojis, so all
of them tokenize to exactly one piece downstream. The tokenizer is the
standard cased greedy longest-match-first WordPiece.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

from . import emojidata
from .errors import DataError
from .normalize import HASHTAG_TOKEN, MENTION_TOKEN, URL_TOKEN, read_text_lines

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
MASK_TOKEN = "[MASK]"
STRUCTURAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN)
TWEET_TOKENS = (MENTION_TOKEN, URL_TOKEN, HASHTAG_TOKEN)
CONTINUATION_PREFIX = "##"

MAX_WORD_CHARS = 100  # longer words become a single [UNK]


class Vocabulary:
    """Immutable token <-> id mapping; ids equal list positions."""

    def __init__(self, tokens: Sequence[str]):
        self.tokens = tuple(tokens)
        self.id_of = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.id_of) != len(self.tokens):
            dupes = [t for t, c in Counter(self.tokens).items() if c > 1]
            raise DataError(f"duplicate tokens in vocabulary: {dupes[:5]}")
        for special in STRUCTURAL_TOKENS:
            if special not in self.id_of:
                raise DataError(f"vocabulary is missing {special}")
        self.pad_id = self.id_of[PAD_TOKEN]
        self.unk_id = self.id_of[UNK_TOKEN]
        self.cls_id = self.id_of[CLS_TOKEN]
        self.sep_id = self.id_of[SEP_TOKEN]
        self.mask_id = self.id_of[MASK_TOKEN]
        self._replacement_pool: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.id_of

    @property
    def replacement_pool(self) -> tuple[int, ...]:
        """Ids legal as random masking replacements: everything except
        the structural tokens that would corrupt training semantics."""
        if self._replacement_pool is None:
            banned = {self.cls_id, self.sep_id, self.mask_id, self.pad_id}
            self._replacement_pool = tuple(
                i for i in range(len(self.tokens)) if i not in banned)
        return self._replacement_pool

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for token in self.tokens:
                out.write(token)
                out.write("\n")

    @classmethod
    def load(cls, path: str | Path, source: BinaryIO | None = None) -> "Vocabulary":
        tokens = read_text_lines(path, source=source)
        while tokens and not tokens[-1]:
            tokens.pop()
        return cls(tokens)


def count_emoji_frequencies(corpus: Iterable[str]) -> Counter:
    """Occurrences of each emoji sequence; run this on pre-translation text."""
    counts: Counter = Counter()
    for text in corpus:
        for start, end in emojidata.iter_emoji_spans(text):
            counts[text[start:end]] += 1
    return counts


def _emoji_ranking(counts: Counter) -> list[tuple[str, int]]:
    """By count descending, ties by code-point sequence ascending, so the
    order is identical across runs and platforms."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def select_top_emojis(counts: Counter, fraction: float = 0.25) -> list[str]:
    """The first ceil(fraction * distinct) emojis of the ranking (none of an empty table)."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    k = math.ceil(fraction * len(counts))
    return [emoji_seq for emoji_seq, _ in _emoji_ranking(counts)[:k]]


def write_emoji_report(counts: Counter, path: str | Path) -> None:
    """One ``emoji<TAB>count`` line per emoji sequence, in ranking order."""
    with open(path, "w", encoding="utf-8") as out:
        for emoji_seq, count in _emoji_ranking(counts):
            out.write(f"{emoji_seq}\t{count}\n")


def extend_vocabulary(base: Vocabulary, specials: Sequence[str],
                      emojis: Sequence[str]) -> Vocabulary:
    """Append new specials then new emojis; existing ids never move."""
    additions = list(specials) + list(emojis)
    dupes = [t for t, c in Counter(additions).items() if c > 1]
    if dupes:
        raise DataError(f"repeated additions: {dupes[:5]}")
    for token in additions:
        if any(ch.isspace() for ch in token):
            raise DataError(f"token contains whitespace: {token!r}")
    new_tokens = [t for t in additions if t not in base.id_of]
    return Vocabulary(base.tokens + tuple(new_tokens))


def wordpiece_tokenize(text: str, vocab: Vocabulary) -> list[str]:
    """Greedy longest-match-first WordPiece over whitespace words.

    Cased: no lowercasing. A word longer than MAX_WORD_CHARS or with an
    unmatchable remainder becomes a single [UNK].
    """
    id_of = vocab.id_of
    output: list[str] = []
    for word in text.split():
        if len(word) > MAX_WORD_CHARS:
            output.append(UNK_TOKEN)
            continue
        pieces: list[str] = []
        start = 0
        size = len(word)
        while start < size:
            end = size
            piece = None
            while start < end:
                candidate = word[start:end]
                if start > 0:
                    candidate = CONTINUATION_PREFIX + candidate
                if candidate in id_of:
                    piece = candidate
                    break
                end -= 1
            if piece is None:
                pieces = None
                break
            pieces.append(piece)
            start = end
        if pieces is None:
            output.append(UNK_TOKEN)
        else:
            output.extend(pieces)
    return output


def encode(tokens: Iterable[str], vocab: Vocabulary) -> list[int]:
    """Token ids; out-of-vocabulary tokens map to the [UNK] id."""
    unk = vocab.unk_id
    id_of = vocab.id_of
    return [id_of.get(tok, unk) for tok in tokens]


def decode(ids: Iterable[int], vocab: Vocabulary) -> list[str]:
    tokens = vocab.tokens
    out = []
    for i in ids:
        if not 0 <= i < len(tokens):
            raise DataError(f"id {i} outside vocabulary of {len(tokens)}")
        out.append(tokens[i])
    return out
