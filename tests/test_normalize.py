import random
import re
from bisect import bisect_right

import pytest
import regex
from hypothesis import given, settings, strategies as st

from tweetcorpus import emojidata
from tweetcorpus.errors import DataError
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
    assert HASHTAG_PATTERN == r"#\w+"


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


def reference_normalize_entities(text):
    """The unconditional fixpoint loop: stop only when a whole pass,
    whitespace collapse by ``\\s`` included, changes nothing."""
    while True:
        out = re.sub(URL_PATTERN, "HTTPURL", text)
        out = re.sub(MENTION_PATTERN, "USER", out)
        out = re.sub(HASHTAG_PATTERN, "HASHTAG", out)
        out = re.sub(r"\s+", " ", out).strip()
        if out == text:
            return out
        text = out


@pytest.mark.parametrize("text", [
    "@@ion", "##x#y", "http://@a", "wwww.x", "#USER", "@#@x", "#@ab #",
    "@@@@a b", "###www1", "www.@x @ http:// #", "x@y#z http://a@b#c",
])
def test_normalize_matches_the_fixpoint_loop_on_stacked_markers(text):
    assert normalize_entities(text) == reference_normalize_entities(text)


MARKER_TEXT = st.lists(st.sampled_from(
    ["@", "#", "http", "https", "://", "www", ".", "w", "a", "_", "1", "é", "USER",
     " ", "\t", "\x1c", ":", "/"]), max_size=14).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.one_of(MARKER_TEXT, ENTITY_TEXT))
def test_normalize_matches_the_fixpoint_loop(text):
    assert normalize_entities(text) == reference_normalize_entities(text)


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


# Oracle: the Emoji_Presentation property ranges, inclusive (Unicode
# emoji-data 15.1), the code points that render as emoji by default.
# Regional indicators and skin-tone modifiers carry this property despite
# not being Extended_Pictographic.
EMOJI_PRESENTATION = (
    (0x231A, 0x231B), (0x23E9, 0x23EC), (0x23F0, 0x23F0), (0x23F3, 0x23F3),
    (0x25FD, 0x25FE), (0x2614, 0x2615), (0x2648, 0x2653), (0x267F, 0x267F),
    (0x2693, 0x2693), (0x26A1, 0x26A1), (0x26AA, 0x26AB), (0x26BD, 0x26BE),
    (0x26C4, 0x26C5), (0x26CE, 0x26CE), (0x26D4, 0x26D4), (0x26EA, 0x26EA),
    (0x26F2, 0x26F3), (0x26F5, 0x26F5), (0x26FA, 0x26FA), (0x26FD, 0x26FD),
    (0x2705, 0x2705), (0x270A, 0x270B), (0x2728, 0x2728), (0x274C, 0x274C),
    (0x274E, 0x274E), (0x2753, 0x2755), (0x2757, 0x2757), (0x2795, 0x2797),
    (0x27B0, 0x27B0), (0x27BF, 0x27BF), (0x2B1B, 0x2B1C), (0x2B50, 0x2B50),
    (0x2B55, 0x2B55),
    (0x1F004, 0x1F004), (0x1F0CF, 0x1F0CF), (0x1F18E, 0x1F18E),
    (0x1F191, 0x1F19A), (0x1F1E6, 0x1F1FF), (0x1F201, 0x1F201),
    (0x1F21A, 0x1F21A), (0x1F22F, 0x1F22F), (0x1F232, 0x1F236),
    (0x1F238, 0x1F23A), (0x1F250, 0x1F251), (0x1F300, 0x1F320),
    (0x1F32D, 0x1F335), (0x1F337, 0x1F37C), (0x1F37E, 0x1F393),
    (0x1F3A0, 0x1F3CA), (0x1F3CF, 0x1F3D3), (0x1F3E0, 0x1F3F0),
    (0x1F3F4, 0x1F3F4), (0x1F3F8, 0x1F43E), (0x1F440, 0x1F440),
    (0x1F442, 0x1F4FC), (0x1F4FF, 0x1F53D), (0x1F54B, 0x1F54E),
    (0x1F550, 0x1F567), (0x1F57A, 0x1F57A), (0x1F595, 0x1F596),
    (0x1F5A4, 0x1F5A4), (0x1F5FB, 0x1F64F), (0x1F680, 0x1F6C5),
    (0x1F6CC, 0x1F6CC), (0x1F6D0, 0x1F6D2), (0x1F6D5, 0x1F6D7),
    (0x1F6DC, 0x1F6DF), (0x1F6EB, 0x1F6EC), (0x1F6F4, 0x1F6FC),
    (0x1F7E0, 0x1F7EB), (0x1F7F0, 0x1F7F0), (0x1F90C, 0x1F93A),
    (0x1F93C, 0x1F945), (0x1F947, 0x1F9FF), (0x1FA70, 0x1FA7C),
    (0x1FA80, 0x1FA88), (0x1FA90, 0x1FABD), (0x1FABF, 0x1FAC5),
    (0x1FACE, 0x1FADB), (0x1FAE0, 0x1FAE8), (0x1FAF0, 0x1FAF8),
)

_PRES_STARTS = [lo for lo, _ in EMOJI_PRESENTATION]


def has_emoji_presentation(ch):
    cp = ord(ch)
    idx = bisect_right(_PRES_STARTS, cp) - 1
    return idx >= 0 and cp <= EMOJI_PRESENTATION[idx][1]


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
            assert not has_emoji_presentation(ch), (tokens, out, hex(ord(ch)))


def test_emoji_presentation_chars_are_all_consumable():
    # every default-emoji code point must be recognized by the scanner,
    # otherwise the removal invariant cannot hold
    for lo, hi in EMOJI_PRESENTATION:
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


def test_map_file_names_both_lines_of_a_duplicate_key(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("\U0001F600\tfata\n# comentariu\n\U0001F680\tracheta\n"
                    "\U0001F600\tzambet\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            f"{path}:4: duplicate emoji '\U0001F600', first at {path}:1")):
        EmojiMap.load(path)


def test_map_file_keeps_keycap_hash_lines_and_skips_comments(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("#comment\n#\n#\ufe0f\u20e3\tdiez\n#\u20e3\tdiez scurt\n"
                    "1\ufe0f\u20e3\tunu\n", encoding="utf-8")
    m = EmojiMap.load(path)
    assert m.entries == {"#\ufe0f\u20e3": "diez", "#\u20e3": "diez scurt", "1\ufe0f\u20e3": "unu"}
    assert (translate_emojis("scor #\ufe0f\u20e3 si 1\ufe0f\u20e3 azi", m)
            == "scor :diez: si :unu: azi")


# --- reference scanners ------------------------------------------------------
# The per-character matcher that ``emojidata.EMOJI_RE`` replaced, and loops
# that try every position in turn. The pattern and the fast paths must
# agree with them exactly.

_RI_LO, _RI_HI = 0x1F1E6, 0x1F1FF
_SKIN_LO, _SKIN_HI = 0x1F3FB, 0x1F3FF
_TAG_LO, _TAG_HI = 0xE0020, 0xE007F
_EP_STARTS = [lo for lo, _ in emojidata.EXTENDED_PICTOGRAPHIC]


def _is_pictographic(ch):
    cp = ord(ch)
    idx = bisect_right(_EP_STARTS, cp) - 1
    return idx >= 0 and cp <= emojidata.EXTENDED_PICTOGRAPHIC[idx][1]


def _consume_extensions(text, j):
    # up to one variation selector and one skin-tone modifier, any order
    n = len(text)
    seen_vs = seen_skin = False
    while j < n:
        ch = text[j]
        if not seen_vs and ch in ("\ufe0e", "\ufe0f"):
            seen_vs = True
            j += 1
        elif not seen_skin and _SKIN_LO <= ord(ch) <= _SKIN_HI:
            seen_skin = True
            j += 1
        else:
            break
    return j


def _match_element(text, i):
    """One ZWJ-chain element: pictographic base plus its extensions."""
    n = len(text)
    if i >= n:
        return None
    ch = text[i]
    if _RI_LO <= ord(ch) <= _RI_HI:
        if i + 1 < n and _RI_LO <= ord(text[i + 1]) <= _RI_HI:
            return i + 2
        return i + 1
    if _SKIN_LO <= ord(ch) <= _SKIN_HI:
        return i + 1
    if ch in "0123456789#*":
        j = i + 1
        if j < n and text[j] == "\ufe0f":
            j += 1
        if j < n and text[j] == "\u20e3":
            return j + 1
        return None
    if _is_pictographic(ch):
        j = _consume_extensions(text, i + 1)
        # tag sequence (subdivision flags): only valid when terminated
        if j < n and _TAG_LO <= ord(text[j]) <= _TAG_HI:
            k = j
            while k < n and _TAG_LO <= ord(text[k]) <= _TAG_HI:
                k += 1
            if text[k - 1] == "\U000E007F":
                return k
        return j
    return None


def reference_match_emoji(text, i):
    end = _match_element(text, i)
    if end is None:
        return None
    n = len(text)
    while end < n and text[end] == "\u200d":
        nxt = _match_element(text, end + 1)
        if nxt is None:
            break
        end = nxt
    return end


def reference_emoji_spans(text):
    spans = []
    i, n = 0, len(text)
    while i < n:
        end = reference_match_emoji(text, i)
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
        seq_end = reference_match_emoji(text, i)
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
    + ["\U000E0067", "\U000E0062", "\U000E0020", "\U000E007F",
       "⃣", "1", "7", "#", "*"]
    # the code points just outside the regional-indicator, skin-tone and
    # pictographic ranges
    + ["\U0001F1E5", "\U0001F3FA", "\U0001F400"]
    # code points the prefix classes' fold of U+1F000..U+1FFFF lets in
    # that start no emoji
    + ["\U0001F10B", "\U0001F650", "\U0001F700", "\U0001FB00", "\U0001FFFE"]
    # ASCII letters and whitespace, and the custom map's key characters
    + list("abcXYZ") + [" ", "\n", "\t"] + ["<", "3", ":", ")"]
)
CUSTOM_MAP = EmojiMap({"<3": "inima", ":)": "zambet", "\U0001F600": "fata",
                       "\U0001F468‍\U0001F469": "cuplu", "1️⃣": "unu",
                       "\U0001F650\U0001F600": "nod"})


DEFAULT_MAP = default_emoji_map()


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SCANNER_ALPHABET), max_size=40).map("".join))
def test_prefiltered_scanner_matches_reference(text):
    for i in range(len(text) + 1):
        assert emojidata.match_emoji(text, i) == reference_match_emoji(text, i), i
    assert list(emojidata.iter_emoji_spans(text)) == reference_emoji_spans(text)
    assert emojidata.count_emoji(text) == len(reference_emoji_spans(text))
    assert translate_emojis(text, DEFAULT_MAP) == reference_translate(text, DEFAULT_MAP)
    assert translate_emojis(text, CUSTOM_MAP) == reference_translate(text, CUSTOM_MAP)


# These blocks hold every code point the grammar names except the
# variation selectors, which the tries below append. The same check over
# all 0x110000 code points also passes, but takes about 15 s.
SWEPT_BLOCKS = (range(0x0000, 0x3400), range(0x1F000, 0x20000), range(0xE0000, 0xE0080))


def test_pattern_matches_reference_on_every_code_point_of_the_emoji_blocks():
    for block in SWEPT_BLOCKS:
        for cp in block:
            ch = chr(cp)
            for text in (ch, ch + "\ufe0f", ch + "\U0001F3FB", "\U0001F600\u200d" + ch):
                assert emojidata.match_emoji(text, 0) == reference_match_emoji(text, 0), \
                    (hex(cp), text)


BLACK_FLAG, TAG_G, TAG_B, CANCEL_TAG = "\U0001F3F4", "\U000E0067", "\U000E0062", "\U000E007F"


@pytest.mark.parametrize("text, end", [
    # a tag run that does not end in U+E007F is not consumed
    (BLACK_FLAG + TAG_G + TAG_B, 1),
    (BLACK_FLAG + TAG_G + CANCEL_TAG + TAG_B, 1),
    # a run is consumed whole when its last character is U+E007F, even
    # with another U+E007F inside it
    (BLACK_FLAG + TAG_G + TAG_B + CANCEL_TAG, 4),
    (BLACK_FLAG + TAG_G + CANCEL_TAG + TAG_B + CANCEL_TAG, 5),
    (BLACK_FLAG + TAG_G + TAG_B + CANCEL_TAG + "a", 4),
])
def test_tag_runs(text, end):
    assert reference_match_emoji(text, 0) == end
    assert emojidata.match_emoji(text, 0) == end


def test_custom_map_keys_still_translate():
    assert translate_emojis("te iubesc <3 :) \U0001F600", CUSTOM_MAP) \
        == "te iubesc :inima: :zambet: :fata:"
    # a key that opens with a code point only the fold lets in, and that
    # code point alone, which no key or sequence matches
    assert translate_emojis("a\U0001F650\U0001F600 \U0001F650b\U0001F600", CUSTOM_MAP) \
        == "a :nod: \U0001F650b :fata:"


def _merged(ranges):
    """Inclusive code point ranges, sorted, with overlapping and adjacent
    ones merged."""
    out = []
    for lo, hi in sorted(ranges):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _matched_ranges(char_class, lo, hi):
    """The ranges of the code points in lo..hi that the one-character class
    ``char_class`` matches, found by matching each."""
    text = "".join(map(chr, range(lo, hi + 1)))
    return _merged((ord(found.group()),) * 2 for found in char_class.finditer(text))


ASTRAL_EMOJI_BLOCK = (0x1F000, 0x1FFFF)


def test_prefix_classes_hold_one_astral_range_for_the_emoji_starts():
    # The element opener and a map's candidate class may fold the astral
    # starts into the one block that holds them, which keeps ``re``'s
    # search from testing each astral range in turn on plain text. They
    # must still hold every start code point and every key's first
    # character, and keep the BMP exact.
    # U+1F10B lies inside the block, and U+20BB7 outside it
    emoji_map = EmojiMap({"<3": "inima", "\U0001F10B": "cerc", "\U00020BB7": "ideograma"})
    starts = _merged(emojidata.START_RANGES)
    assert all(ASTRAL_EMOJI_BLOCK[0] <= lo <= hi <= ASTRAL_EMOJI_BLOCK[1]
               for lo, hi in starts if hi > 0xFFFF)
    assert emojidata.EMOJI_RE.pattern.startswith(emojidata.START_CLASS.pattern)
    for prefix, firsts in ((emojidata.START_CLASS, ""), (emoji_map._candidates, "<\U00020BB7")):
        exact = _merged(starts + [(ord(ch), ord(ch)) for ch in firsts])
        assert _matched_ranges(prefix, 0, 0xFFFF) == [r for r in exact if r[1] <= 0xFFFF]
        assert _matched_ranges(prefix, 0x10000, 0x10FFFF) == [ASTRAL_EMOJI_BLOCK] + [
            r for r in exact if r[0] > ASTRAL_EMOJI_BLOCK[1]]
