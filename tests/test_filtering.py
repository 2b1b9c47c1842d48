import dataclasses
import random

import pytest

from tweetcorpus.errors import ConfigInvalid
from tweetcorpus.filtering import FilterConfig, RejectReason, apply_filters, word_count
from tweetcorpus.normalize import EntityCounts


def test_word_count_basic():
    assert word_count("a b  c") == 3
    assert word_count("") == 0
    assert word_count("   ") == 0
    assert word_count("\tuna\ndoua ") == 2


def oracle_word_count(text):
    # character scan: count transitions into non-whitespace
    count, in_word = 0, False
    for ch in text:
        if ch.isspace():
            in_word = False
        elif not in_word:
            count += 1
            in_word = True
    return count


@pytest.mark.parametrize("seed", range(3))
def test_word_count_matches_scan_oracle(seed):
    rng = random.Random(seed)
    alphabet = "ab \t\n  xy"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        assert word_count(text) == oracle_word_count(text)


def _counts(m=0, h=0, u=0, e=0):
    return EntityCounts(mentions=m, hashtags=h, urls=u, emojis=e)


def test_rejects_too_short():
    verdict = apply_filters("unu doi trei patru", _counts(), FilterConfig())
    assert not verdict.accepted
    assert verdict.reason is RejectReason.TOO_SHORT


def test_rejects_too_many_mentions():
    text = " ".join(["cuvant"] * 10)
    verdict = apply_filters(text, _counts(m=4), FilterConfig())
    assert verdict.reason is RejectReason.TOO_MANY_MENTIONS


def test_boundary_grid_exact():
    cfg = FilterConfig()
    for n_words in (4, 5, 256, 257):
        for entity_count in (3, 4):
            text = " ".join(["w"] * n_words)
            counts = _counts(m=entity_count)
            verdict = apply_filters(text, counts, cfg)
            # forced by the stated boundary semantics
            should_accept = (5 <= n_words <= 256) and entity_count <= 3
            assert verdict.accepted == should_accept, (n_words, entity_count)
            if n_words < 5:
                assert verdict.reason is RejectReason.TOO_SHORT
            elif n_words > 256:
                assert verdict.reason is RejectReason.TOO_LONG
            elif entity_count > 3:
                assert verdict.reason is RejectReason.TOO_MANY_MENTIONS


def oracle_verdict(n_words, counts, cfg):
    """Independent rule-by-rule re-implementation."""
    if n_words < cfg.min_words:
        return RejectReason.TOO_SHORT
    if n_words > cfg.max_words:
        return RejectReason.TOO_LONG
    if counts.mentions > cfg.max_mentions:
        return RejectReason.TOO_MANY_MENTIONS
    if counts.hashtags > cfg.max_hashtags:
        return RejectReason.TOO_MANY_HASHTAGS
    if counts.urls > cfg.max_urls:
        return RejectReason.TOO_MANY_URLS
    if counts.emojis > cfg.max_emojis:
        return RejectReason.TOO_MANY_EMOJIS
    return RejectReason.NONE


def test_random_tweets_match_oracle():
    rng = random.Random(17)
    cfg = FilterConfig()
    for _ in range(10_000):
        n_words = rng.randint(0, 300)
        counts = _counts(rng.randint(0, 5), rng.randint(0, 5),
                         rng.randint(0, 5), rng.randint(0, 5))
        text = " ".join(["w"] * n_words)
        verdict = apply_filters(text, counts, cfg)
        assert verdict.reason is oracle_verdict(n_words, counts, cfg)


def test_loosening_bounds_is_monotone():
    rng = random.Random(23)
    base = FilterConfig()
    wider = [
        FilterConfig(min_words=4),
        FilterConfig(max_words=300),
        FilterConfig(max_mentions=4),
        FilterConfig(max_hashtags=4),
        FilterConfig(max_urls=4),
        FilterConfig(max_emojis=4),
    ]
    for _ in range(500):
        n_words = rng.randint(0, 300)
        counts = _counts(rng.randint(0, 5), rng.randint(0, 5),
                         rng.randint(0, 5), rng.randint(0, 5))
        text = " ".join(["w"] * n_words)
        accepted = apply_filters(text, counts, base).accepted
        for cfg in wider:
            if accepted:
                assert apply_filters(text, counts, cfg).accepted


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        FilterConfig(min_words=0)
    with pytest.raises(ConfigInvalid):
        FilterConfig(min_words=10, max_words=5)
    with pytest.raises(ConfigInvalid):
        FilterConfig(max_urls=-1)
    with pytest.raises(ConfigInvalid):
        dataclasses.replace(FilterConfig(), max_words=4)
    # the types first: a bool is not an int, and a list is no TypeError
    with pytest.raises(ConfigInvalid, match="bad value for min_words: True is not int"):
        FilterConfig(min_words=True)
    with pytest.raises(ConfigInvalid, match=r"bad value for max_urls: \[1\] is not int"):
        dataclasses.replace(FilterConfig(), max_urls=[1])
    with pytest.raises(ConfigInvalid, match="bad value for max_words: 9.0 is not int"):
        FilterConfig(max_words=9.0)
    FilterConfig()
