"""Length and spam filters over normalized tweets.

Word counts are measured on the placeholder-normalized text before
emoji translation (translations would inflate counts with multi-word
descriptions); entity limits apply to counts taken on the raw text.

Precedence: ``apply_filters`` reports the first failing bound in the
order ``RejectReason`` declares them. The clean stage runs the language
gate only on tweets these filters accept, so ``NOT_TARGET_LANGUAGE``,
declared last, names only tweets that pass every filter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ConfigInvalid
from .normalize import EntityCounts


class RejectReason(enum.Enum):
    TOO_SHORT = "too_short"
    TOO_LONG = "too_long"
    TOO_MANY_MENTIONS = "too_many_mentions"
    TOO_MANY_HASHTAGS = "too_many_hashtags"
    TOO_MANY_URLS = "too_many_urls"
    TOO_MANY_EMOJIS = "too_many_emojis"
    NOT_TARGET_LANGUAGE = "not_target_language"
    NONE = "none"


@dataclass(frozen=True)
class FilterConfig:
    min_words: int = 5
    max_words: int = 256
    max_mentions: int = 3
    max_hashtags: int = 3
    max_urls: int = 3
    max_emojis: int = 3

    def validate(self) -> "FilterConfig":
        if self.min_words < 1:
            raise ConfigInvalid("min_words must be >= 1")
        if self.max_words < self.min_words:
            raise ConfigInvalid("max_words must be >= min_words")
        for name in ("max_mentions", "max_hashtags", "max_urls", "max_emojis"):
            if getattr(self, name) < 0:
                raise ConfigInvalid(f"{name} must be >= 0")
        return self


@dataclass(frozen=True)
class FilterVerdict:
    accepted: bool
    reason: RejectReason

    def __post_init__(self):
        assert self.accepted == (self.reason is RejectReason.NONE)


_ACCEPT = FilterVerdict(True, RejectReason.NONE)


def word_count(text: str) -> int:
    """Number of maximal non-whitespace runs."""
    return len(text.split())


def apply_filters(text: str, counts: EntityCounts, cfg: FilterConfig) -> FilterVerdict:
    """First failing bound, in the order the reasons are declared, wins.

    Boundary semantics: exactly min_words and exactly max_words are
    accepted; entity counts of exactly the maximum are accepted.
    """
    n = word_count(text)
    if n < cfg.min_words:
        return FilterVerdict(False, RejectReason.TOO_SHORT)
    if n > cfg.max_words:
        return FilterVerdict(False, RejectReason.TOO_LONG)
    if counts.mentions > cfg.max_mentions:
        return FilterVerdict(False, RejectReason.TOO_MANY_MENTIONS)
    if counts.hashtags > cfg.max_hashtags:
        return FilterVerdict(False, RejectReason.TOO_MANY_HASHTAGS)
    if counts.urls > cfg.max_urls:
        return FilterVerdict(False, RejectReason.TOO_MANY_URLS)
    if counts.emojis > cfg.max_emojis:
        return FilterVerdict(False, RejectReason.TOO_MANY_EMOJIS)
    return _ACCEPT
