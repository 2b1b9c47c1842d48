"""Unicode emoji detection without third-party data dependencies.

Embeds the Extended_Pictographic and Emoji_Presentation ranges from the
Unicode emoji-data tables (15.1) plus a small scanner that groups code
points into emoji sequences: ZWJ chains, flag (regional-indicator)
pairs, keycaps, skin-tone and variation-selector extensions, and tag
sequences all count as a single emoji.

Only a few code points can start a sequence: the Extended_Pictographic
ranges, regional indicators, skin-tone modifiers and keycap bases. They
form one compiled ``re`` character class (``START_CLASS``), and the
scanner jumps between candidate positions with ``search`` instead of
trying every character in Python.
"""

import re
from bisect import bisect_right

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

# Emoji_Presentation property ranges, inclusive: code points that render
# as emoji by default. Regional indicators and skin-tone modifiers carry
# this property despite not being Extended_Pictographic.
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

ZWJ = "‍"
VS15 = "︎"
VS16 = "️"
COMBINING_KEYCAP = "⃣"
KEYCAP_BASES = "0123456789#*"

_RI_LO, _RI_HI = 0x1F1E6, 0x1F1FF
_SKIN_LO, _SKIN_HI = 0x1F3FB, 0x1F3FF
_TAG_LO, _TAG_HI = 0xE0020, 0xE007F
_TAG_END = 0xE007F


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


# Every code point at which a sequence can start (see ``_match_element``).
START_RANGES = (EXTENDED_PICTOGRAPHIC + ((_RI_LO, _RI_HI), (_SKIN_LO, _SKIN_HI))
                + tuple((ord(ch), ord(ch)) for ch in KEYCAP_BASES))
START_CLASS = char_class(START_RANGES)


def _build_index(ranges):
    starts = [lo for lo, _ in ranges]
    return starts, list(ranges)


_EP_STARTS, _EP_RANGES = _build_index(EXTENDED_PICTOGRAPHIC)
_PRES_STARTS, _PRES_RANGES = _build_index(EMOJI_PRESENTATION)


def _in_ranges(cp: int, starts, ranges) -> bool:
    idx = bisect_right(starts, cp) - 1
    return idx >= 0 and cp <= ranges[idx][1]


def is_pictographic(ch: str) -> bool:
    return _in_ranges(ord(ch), _EP_STARTS, _EP_RANGES)


def has_emoji_presentation(ch: str) -> bool:
    return _in_ranges(ord(ch), _PRES_STARTS, _PRES_RANGES)


def _is_regional_indicator(ch: str) -> bool:
    return _RI_LO <= ord(ch) <= _RI_HI


def _is_skin_tone(ch: str) -> bool:
    return _SKIN_LO <= ord(ch) <= _SKIN_HI


def _consume_extensions(text: str, j: int) -> int:
    # up to one variation selector and one skin-tone modifier, any order
    n = len(text)
    seen_vs = seen_skin = False
    while j < n:
        ch = text[j]
        if not seen_vs and ch in (VS15, VS16):
            seen_vs = True
            j += 1
        elif not seen_skin and _is_skin_tone(ch):
            seen_skin = True
            j += 1
        else:
            break
    return j


def _match_element(text: str, i: int):
    """One ZWJ-chain element: pictographic base plus its extensions."""
    n = len(text)
    if i >= n:
        return None
    ch = text[i]
    if _is_regional_indicator(ch):
        if i + 1 < n and _is_regional_indicator(text[i + 1]):
            return i + 2
        return i + 1
    if _is_skin_tone(ch):
        return i + 1
    if ch in KEYCAP_BASES:
        j = i + 1
        if j < n and text[j] == VS16:
            j += 1
        if j < n and text[j] == COMBINING_KEYCAP:
            return j + 1
        return None
    if is_pictographic(ch):
        j = _consume_extensions(text, i + 1)
        # tag sequence (subdivision flags): only valid when terminated
        if j < n and _TAG_LO <= ord(text[j]) <= _TAG_HI:
            k = j
            while k < n and _TAG_LO <= ord(text[k]) <= _TAG_HI:
                k += 1
            if ord(text[k - 1]) == _TAG_END:
                return k
        return j
    return None


def match_emoji(text: str, i: int):
    """Length of the emoji sequence starting at ``i``, or ``None``.

    Greedy: ZWJ-joined elements are folded into one match, so a family
    sequence or a flag pair is a single emoji.
    """
    end = _match_element(text, i)
    if end is None:
        return None
    n = len(text)
    while end < n and text[end] == ZWJ:
        nxt = _match_element(text, end + 1)
        if nxt is None:
            break
        end = nxt
    return end


def iter_emoji_spans(text: str):
    """Yield (start, end) for every emoji sequence in ``text``."""
    search = START_CLASS.search
    found = search(text)
    while found is not None:
        i = found.start()
        end = match_emoji(text, i)
        if end is not None:
            yield i, end
            found = search(text, end)
        else:
            found = search(text, i + 1)


def count_emoji(text: str) -> int:
    return sum(1 for _ in iter_emoji_spans(text))
