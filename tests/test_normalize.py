import random

import pytest
import regex
from hypothesis import given, settings, strategies as st

from tweetcorpus import emojidata
from tweetcorpus.normalize import (
    HASHTAG_PATTERN,
    MENTION_PATTERN,
    URL_PATTERN,
    EmojiMap,
    count_entities,
    default_emoji_map,
    normalize_entities,
    translate_emojis,
    unescape_basic_entities,
)


def test_patterns_are_pinned():
    assert MENTION_PATTERN == r"@[A-Za-z0-9_]{1,15}"
    assert URL_PATTERN == r"(https?://|www\.)[^\s]+"
    assert HASHTAG_PATTERN == r"#[\p{L}\p{N}_]+"


def test_count_entities_basic():
    counts = count_entities("@a @b salut #x http://t.co \U0001F600")
    assert (counts.mentions, counts.hashtags, counts.urls, counts.emojis) == (2, 1, 1, 1)


def test_count_entities_zero():
    counts = count_entities("plain text")
    assert (counts.mentions, counts.hashtags, counts.urls, counts.emojis) == (0, 0, 0, 0)


PLANTS = {
    "mention": ["@ana", "@ion_p", "@x9"],
    "hashtag": ["#stiri", "#zi_buna", "#temaș"],
    "url": ["http://t.co/abc", "https://e.org/p", "www.ex.ro/q1"],
    "emoji": ["\U0001F600", "\U0001F680", "❤️",
              "\U0001F468‍\U0001F469‍\U0001F467"],
    "word": ["salut", "lume", "azi", "vreme", "Frumos", "si..."],
}


@pytest.mark.parametrize("seed", range(5))
def test_count_entities_matches_planted_oracle(seed):
    rng = random.Random(seed)
    for _ in range(200):
        expected = {"mention": 0, "hashtag": 0, "url": 0, "emoji": 0, "word": 0}
        tokens = []
        for _ in range(rng.randint(0, 12)):
            kind = rng.choice(list(PLANTS))
            expected[kind] += 1
            tokens.append(rng.choice(PLANTS[kind]))
        counts = count_entities(" ".join(tokens))
        assert counts.mentions == expected["mention"]
        assert counts.hashtags == expected["hashtag"]
        assert counts.urls == expected["url"]
        assert counts.emojis == expected["emoji"]


def test_normalize_basic():
    assert normalize_entities("@ion vezi https://x.ro #stiri") == "USER vezi HTTPURL HASHTAG"


def test_normalize_already_normalized_unchanged():
    assert normalize_entities("USER vezi HTTPURL HASHTAG") == "USER vezi HTTPURL HASHTAG"


def test_normalize_stacked_markers_reach_fixpoint():
    out = normalize_entities("@@ion salut")
    assert out == normalize_entities(out)
    assert "@" not in out


ENTITY_TEXT = st.lists(
    st.one_of(
        st.sampled_from(sum(PLANTS.values(), [])),
        st.text(alphabet="abc@#. :/_w", min_size=1, max_size=8),
    ),
    max_size=10,
).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(ENTITY_TEXT)
def test_normalize_is_idempotent(text):
    once = normalize_entities(text)
    assert normalize_entities(once) == once


# fresh copies of the pinned patterns: residue detection must not reuse
# the module's compiled objects
_SCAN_MENTION = regex.compile(r"@[A-Za-z0-9_]{1,15}")
_SCAN_URL = regex.compile(r"(https?://|www\.)[^\s]+")
_SCAN_HASHTAG = regex.compile(r"#[\p{L}\p{N}_]+")


@pytest.mark.parametrize("seed", range(3))
def test_normalize_leaves_no_residual_patterns(seed):
    rng = random.Random(100 + seed)
    for _ in range(350):
        tokens = [rng.choice(rng.choice(list(PLANTS.values())))
                  for _ in range(rng.randint(1, 10))]
        out = normalize_entities(" ".join(tokens))
        assert not _SCAN_MENTION.search(out)
        assert not _SCAN_URL.search(out)
        assert not _SCAN_HASHTAG.search(out)
        counts = count_entities(out)
        assert counts.mentions == counts.urls == counts.hashtags == 0


def test_translate_basic():
    m = EmojiMap({"\U0001F600": "fata zambitoare"})
    assert translate_emojis("salut \U0001F600", m) == "salut :fata zambitoare:"


def test_translate_no_emoji_identity():
    m = EmojiMap({"\U0001F600": "fata zambitoare"})
    assert translate_emojis("text simplu", m) == "text simplu"


def test_translate_unmapped_becomes_space():
    m = EmojiMap({"\U0001F600": "fata zambitoare"})
    assert translate_emojis("a \U0001F680 b", m) == "a b"


FAMILY = "\U0001F468‍\U0001F469‍\U0001F467"


def test_translate_zwj_longest_match_wins():
    m = EmojiMap({FAMILY: "familie", "\U0001F468": "barbat"})
    assert translate_emojis(f"foto {FAMILY} azi", m) == "foto :familie: azi"

    # oracle: enumerate all mapped keys at every position, take the longest
    text = f"foto {FAMILY} azi"
    best = max((k for k in m.entries if text[5:].startswith(k)), key=len)
    assert best == FAMILY


def test_translate_unmapped_zwj_sequence_removed_whole():
    m = EmojiMap({"\U0001F468": "barbat"})
    # the family sequence is one (unmapped) emoji: its mapped first
    # member must not fire inside it
    assert translate_emojis(f"a {FAMILY} b", m) == "a b"


def test_translate_adjacent_emojis():
    m = EmojiMap({"\U0001F600": "zambet", "\U0001F680": "racheta"})
    assert translate_emojis("\U0001F600\U0001F680", m) == ":zambet: :racheta:"


EMOJI_SAMPLES = [
    "\U0001F600", "\U0001F62D", "❤️", "✨", "⚡",
    "\U0001F1F7\U0001F1F4",  # flag pair
    "1️⃣",         # keycap
    "\U0001F44D\U0001F3FD",  # skin tone
    FAMILY,
    "❤️‍\U0001F525",
]


@pytest.mark.parametrize("seed", range(3))
def test_translate_removes_all_emoji_presentation(seed):
    rng = random.Random(200 + seed)
    m = default_emoji_map()
    for _ in range(250):
        tokens = []
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.5:
                tokens.append(rng.choice(EMOJI_SAMPLES))
            else:
                tokens.append(rng.choice(PLANTS["word"]))
        out = translate_emojis(rng.choice(["", " "]).join(tokens), m)
        for ch in out:
            assert not emojidata.has_emoji_presentation(ch), (tokens, out, hex(ord(ch)))


def test_emoji_presentation_chars_are_all_consumable():
    # every default-emoji code point must be recognized by the scanner,
    # otherwise the removal invariant cannot hold
    for lo, hi in emojidata.EMOJI_PRESENTATION:
        for cp in (lo, (lo + hi) // 2, hi):
            ch = chr(cp)
            assert emojidata.match_emoji(ch, 0) is not None, hex(cp)


def test_count_emoji_zwj_counts_once():
    assert emojidata.count_emoji(f"x {FAMILY} y") == 1
    assert emojidata.count_emoji("\U0001F1F7\U0001F1F4") == 1
    assert emojidata.count_emoji("ab3c") == 0  # bare digits are not emoji
    assert emojidata.count_emoji("1️⃣") == 1


def test_unescape_basic_entities():
    assert unescape_basic_entities("a &amp; b &lt;c&gt;") == "a & b <c>"
    assert unescape_basic_entities("&quot;x&quot;") == "&quot;x&quot;"


def test_default_map_loads():
    m = default_emoji_map()
    assert len(m) > 200
    assert translate_emojis("\U0001F600", m) == ":grinning face:"


# --- reference scanners ------------------------------------------------------
# The per-character loops the prefiltered scanner replaced: every position
# is tried in turn. The fast paths must agree with them exactly.


def reference_emoji_spans(text):
    spans = []
    i, n = 0, len(text)
    while i < n:
        end = emojidata.match_emoji(text, i)
        if end is not None:
            spans.append((i, end))
            i = end
        else:
            i += 1
    return spans


def reference_translate(text, emoji_map):
    out = []
    i, n = 0, len(text)
    while i < n:
        key = emoji_map.longest_match(text, i)
        seq_end = emojidata.match_emoji(text, i)
        if key is not None and (seq_end is None or len(key) >= seq_end - i):
            out.append(f" :{emoji_map.entries[key]}: ")
            i += len(key)
        elif seq_end is not None:
            out.append(" ")
            i = seq_end
        else:
            out.append(text[i])
            i += 1
    return regex.sub(r"\s+", " ", "".join(out)).strip()


SCANNER_ALPHABET = (
    # pictographs, regional indicators, skin tones, ZWJ, VS15/VS16
    ["\U0001F600", "\U0001F468", "\U0001F469", "\U0001F525", "❤", "☀", "©",
     "\U0001F3F4", "\U0001F1F7", "\U0001F1F4", "\U0001F1E6", "\U0001F3FB",
     "\U0001F3FF", "‍", "︎", "️"]
    # tag characters, the combining keycap, keycap bases
    + ["\U000E0067", "\U000E0062", "\U000E007F", "⃣", "1", "7", "#", "*"]
    # ASCII letters and whitespace, and the custom map's key characters
    + list("abcXYZ") + [" ", "\n", "\t"] + ["<", "3", ":", ")"]
)
CUSTOM_MAP = EmojiMap({"<3": "inima", ":)": "zambet", "\U0001F600": "fata",
                       "\U0001F468‍\U0001F469": "cuplu", "1️⃣": "unu"})


DEFAULT_MAP = default_emoji_map()


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SCANNER_ALPHABET), max_size=40).map("".join))
def test_prefiltered_scanner_matches_reference(text):
    assert list(emojidata.iter_emoji_spans(text)) == reference_emoji_spans(text)
    assert emojidata.count_emoji(text) == len(reference_emoji_spans(text))
    assert translate_emojis(text, DEFAULT_MAP) == reference_translate(text, DEFAULT_MAP)
    assert translate_emojis(text, CUSTOM_MAP) == reference_translate(text, CUSTOM_MAP)


def test_custom_map_keys_still_translate():
    assert translate_emojis("te iubesc <3 :) \U0001F600", CUSTOM_MAP) \
        == "te iubesc :inima: :zambet: :fata:"
