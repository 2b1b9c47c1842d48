"""Unicode emoji detection without third-party data dependencies.

Embeds the Extended_Pictographic ranges from the Unicode emoji-data
tables (15.1) and compiles the emoji-sequence grammar into one ``re``
pattern, ``EMOJI_RE``. ZWJ chains, flag
(regional-indicator) pairs, keycaps, skin-tone and variation-selector
extensions, and tag sequences all match as a single emoji.

Each element of a sequence opens with ``START_CLASS``, which holds every
code point that can start one: the Extended_Pictographic ranges,
regional indicators, skin-tone modifiers and keycap bases. A
one-character lookbehind then picks the element's branch, testing the
character just matched against that branch's exact class. The leading
class gives ``re`` a prefix character set, so ``finditer`` and
``search`` skip straight to candidate positions.

That skip is where plain text spends its time. ``re`` tests the BMP part
of a class as one bitmap, but each range above U+FFFF in turn (27 in
``START_RANGES``). So ``prefix_ranges`` folds the astral starts into the
one block that holds them, U+1F000..U+1FFFF, and keeps the BMP exact. A
code point that only the fold lets in passes no lookbehind, so the
matches stay those of the exact class.
"""

import re

# Extended_Pictographic property ranges, inclusive. Deliberately covers
# unassigned future-emoji code points, per the Unicode stability policy.
EXTENDED_PICTOGRAPHIC = (
    (0x00A9, 0x00A9), (0x00AE, 0x00AE), (0x203C, 0x203C), (0x2049, 0x2049),
    (0x2122, 0x2122), (0x2139, 0x2139), (0x2194, 0x2199), (0x21A9, 0x21AA),
    (0x231A, 0x231B), (0x2328, 0x2328), (0x23CF, 0x23CF), (0x23E9, 0x23F3),
    (0x23F8, 0x23FA), (0x24C2, 0x24C2), (0x25AA, 0x25AB), (0x25B6, 0x25B6),
    (0x25C0, 0x25C0), (0x25FB, 0x25FE), (0x2600, 0x2605), (0x2607, 0x2612),
    (0x2614, 0x2685), (0x2690, 0x2705), (0x2708, 0x2712), (0x2714, 0x2714),
    (0x2716, 0x2716), (0x271D, 0x271D), (0x2721, 0x2721), (0x2728, 0x2728),
    (0x2733, 0x2734), (0x2744, 0x2744), (0x2747, 0x2747), (0x274C, 0x274C),
    (0x274E, 0x274E), (0x2753, 0x2755), (0x2757, 0x2757), (0x2763, 0x2767),
    (0x2795, 0x2797), (0x27A1, 0x27A1), (0x27B0, 0x27B0), (0x27BF, 0x27BF),
    (0x2934, 0x2935), (0x2B05, 0x2B07), (0x2B1B, 0x2B1C), (0x2B50, 0x2B50),
    (0x2B55, 0x2B55), (0x3030, 0x3030), (0x303D, 0x303D), (0x3297, 0x3297),
    (0x3299, 0x3299),
    (0x1F000, 0x1F0FF), (0x1F10D, 0x1F10F), (0x1F12F, 0x1F12F),
    (0x1F16C, 0x1F171), (0x1F17E, 0x1F17F), (0x1F18E, 0x1F18E),
    (0x1F191, 0x1F19A), (0x1F1AD, 0x1F1E5), (0x1F201, 0x1F20F),
    (0x1F21A, 0x1F21A), (0x1F22F, 0x1F22F), (0x1F232, 0x1F23A),
    (0x1F23C, 0x1F23F), (0x1F249, 0x1F3FA), (0x1F400, 0x1F53D),
    (0x1F546, 0x1F64F), (0x1F680, 0x1F6FF), (0x1F774, 0x1F77F),
    (0x1F7D5, 0x1F7FF), (0x1F80C, 0x1F80F), (0x1F848, 0x1F84F),
    (0x1F85A, 0x1F85F), (0x1F888, 0x1F88F), (0x1F8AE, 0x1F8FF),
    (0x1F90C, 0x1F93A), (0x1F93C, 0x1F945), (0x1F947, 0x1FAFF),
    (0x1FC00, 0x1FFFD),
)

ZWJ = "\u200d"
VARIATION_SELECTORS = "\ufe0e\ufe0f"  # VS15 (text), VS16 (emoji)

_RI = ((0x1F1E6, 0x1F1FF),)  # regional indicators
_SKIN = ((0x1F3FB, 0x1F3FF),)  # skin-tone modifiers
_TAG = ((0xE0020, 0xE007F),)  # tag characters; U+E007F ends a tag run
_KEYCAP_BASES = tuple((ord(ch), ord(ch)) for ch in "0123456789#*")


def char_class(ranges) -> re.Pattern:
    """Compile a one-character class matching the inclusive code point
    ``ranges``; overlapping and adjacent ranges are merged first."""
    merged: list[list[int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    body = "".join(re.escape(chr(lo)) if lo == hi
                   else f"{re.escape(chr(lo))}-{re.escape(chr(hi))}"
                   for lo, hi in merged)
    return re.compile(f"[{body}]")


def prefix_ranges(ranges) -> tuple:
    """``ranges`` with every range inside U+1F000..U+1FFFF widened to that
    whole block, for a prefix class whose match is checked again."""
    kept = tuple(r for r in ranges if not 0x1F000 <= r[0] <= r[1] <= 0x1FFFF)
    return kept + ((0x1F000, 0x1FFFF),) if len(kept) < len(ranges) else kept


# Every code point at which a sequence can start. The four kinds are
# disjoint, so the character an element opens with selects one branch.
START_RANGES = EXTENDED_PICTOGRAPHIC + _RI + _SKIN + _KEYCAP_BASES
START_CLASS = char_class(prefix_ranges(START_RANGES))


def _sequence_pattern() -> str:
    ep, ri, skin, tag, keycap_base = (
        char_class(ranges).pattern for ranges in (
            EXTENDED_PICTOGRAPHIC, _RI, _SKIN, _TAG, _KEYCAP_BASES))
    vs = f"[{VARIATION_SELECTORS}]"
    element = (
        f"{START_CLASS.pattern}(?:"
        f"(?<={ri}){ri}?"  # a flag pair, or a lone regional indicator
        f"|(?<={skin})"  # a lone skin-tone modifier
        f"|(?<={keycap_base})\ufe0f?\u20e3"  # a keycap needs U+20E3
        # a pictograph: up to one variation selector and one skin tone in
        # either order, then a tag run counted only when U+E007F ends it
        f"|(?<={ep})(?:{vs}{skin}?|{skin}{vs}?)?(?:{tag}*\U000E007F(?!{tag}))?"
        ")")
    return f"{element}(?:{ZWJ}{element})*"


# Greedy: ZWJ-joined elements fold into one match, so a family sequence
# or a flag pair is a single emoji.
EMOJI_RE = re.compile(_sequence_pattern())


def match_emoji(text: str, i: int):
    """End of the emoji sequence starting at ``i``, or ``None``."""
    found = EMOJI_RE.match(text, i)
    return None if found is None else found.end()


def iter_emoji_spans(text: str):
    """Yield (start, end) for every emoji sequence in ``text``."""
    for found in EMOJI_RE.finditer(text):
        yield found.span()


def count_emoji(text: str) -> int:
    return sum(1 for _ in iter_emoji_spans(text))
