"""A fixed reference job that measures how fast the host runs Python now.

On a shared host the same code can run a third slower from one tenth
of a second to the next and from one minute to the next, and process
CPU time slows with it (there are no hardware instruction counters to
fall back on), so a stage's wall time alone mixes the program's cost
with the host's speed. The benchmark runs ``reference_seconds`` just
before and just after every timed stage and divides the stage's wall
time by the mean of the two; the quotient, times ``REFERENCE_SECONDS``
(a sample's median on the host the benchmark was tuned on), is the
stage's time at that host's speed. Calibrating next to each stage
tracks the host better than once per pass or once per run.

The job uses none of tweetcorpus's code, so a change to the package
cannot move it. It mixes what the pipeline spends its time on:
interpreted integer loops, dict counting, regex tokenising, string
methods and JSON.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

import regex

# Median wall time of one sample (REPS jobs) on the 2-vCPU host the bounds
# were set on (Python 3.11.7). Only the scale of the normalised numbers
# depends on it.
REFERENCE_SECONDS = 0.023
# Jobs per sample: about 20 ms, short enough to sit next to a stage, long
# enough that timer resolution does not matter.
REPS = 8

_WORD = regex.compile(r"\p{L}+|\p{N}+|[^\s\p{L}\p{N}]")


def _text() -> str:
    rng = random.Random(20230606)
    letters = "abcdefghijklmnoprstuvzăâîșț"
    words = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
             for _ in range(400)]
    return " ".join(rng.choice(words) + rng.choice(("", "", "", ",", ".", "!"))
                    for _ in range(1200))


_TEXT = _text()


def job() -> int:
    """One run of the reference job; returns a checksum of its work."""
    counts: dict[str, int] = {}
    h = 0xCBF29CE484222325
    for token in _WORD.findall(_TEXT):
        key = token.lower()
        counts[key] = counts.get(key, 0) + 1
        for ch in key[:4]:
            h = ((h ^ ord(ch)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    line = json.dumps(ranked[:200], ensure_ascii=False)
    return h ^ len(json.loads(line)) ^ sum(len(w) for w in _TEXT.split()[:500])


def reference_seconds() -> float:
    """Wall seconds of ``REPS`` reference jobs, run now."""
    start = perf_counter()
    for _ in range(REPS):
        job()
    return perf_counter() - start
