"""Stable 64-bit hashing for the per-task RNG seeds.

Python's builtin ``hash`` is salted per process, so the per-(document,
duplicate) seed derivation, ``mix64``, uses the FNV-1a step function,
which gives identical values on every platform and run; the RNG
protocol and every record byte depend on it. In the pipeline FNV-1a
feeds only ``mix64``: ingest's dedup keys are BLAKE2b digests
(``ingest.text_dedup_key``), and no stage calls ``fnv1a64`` or
``fnv1a64_text``, the FNV-1a hash of a whole byte string or text.
"""

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF
# _ZERO_BYTES[k]: folding k zero bytes, FNV_PRIME**k mod 2**64
_ZERO_BYTES = tuple(pow(FNV_PRIME, k, 1 << 64) for k in range(9))


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over raw bytes."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _MASK
    return h


def fnv1a64_text(text: str) -> int:
    return fnv1a64(text.encode("utf-8"))


def mix64(seed: int, *parts: int) -> int:
    """Mix a base seed with integer parts into one 64-bit seed.

    The seed, then each part, is folded in through the FNV-1a step
    function over the 8 bytes of its little-endian representation (mod
    2**64), then finalized with an xor-shift so that nearby
    (seed, part) tuples land far apart. XOR with a zero byte changes
    nothing, so the zero high bytes of a small value are folded as one
    multiplication by a power of FNV_PRIME; the result is the same as
    folding all 8 bytes one at a time.
    """
    h = FNV_OFFSET
    for word in (seed, *parts):
        word &= _MASK
        zeros = 8
        while word:
            h = ((h ^ (word & 0xFF)) * FNV_PRIME) & _MASK
            word >>= 8
            zeros -= 1
        h = (h * _ZERO_BYTES[zeros]) & _MASK
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK
    h ^= h >> 33
    return h
