"""Character n-gram language identification.

A multinomial Naive Bayes classifier over character n-grams stands in
for external language detectors; two models trained with different
n-gram ranges form an agreement ensemble, and a tweet passes only when
both rank the target language first with enough posterior mass.

Each model keeps one row table: n-gram -> the tuple of its per-language
log-likelihoods, unseen entries filled in (the dense rows the ``.rlid``
file stores), so scoring costs one lookup per distinct n-gram. The
agreement gate prepares a text and counts each n-gram order once for
both models; the orders only model B uses are counted only after model
A accepts. Per language, scores are summed in a fixed order (n
ascending, then first occurrence) from the same ``count * value``
products, so every probability is reproducible to the last bit.
"""

from __future__ import annotations

import math
import re
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import add
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import (
    CorruptRecord,
    EmptyAfterStripping,
    EmptySample,
    InsufficientLanguages,
    VersionMismatch,
)

MODEL_MAGIC = b"RLID"
MODEL_VERSION = 1

_STRIP_RE = re.compile(r"\b(USER|HTTPURL|HASHTAG)\b|\d+")
_WS_RE = re.compile(r"\s+")


def _prepare(text: str) -> str:
    # placeholders and digits carry no language signal
    return _WS_RE.sub(" ", _STRIP_RE.sub(" ", text)).strip()


def _ngram_orders(text: str, min_n: int) -> Iterator[Counter]:
    """Counters of the n-grams of ``text`` for n = min_n, min_n + 1, ...,
    each keyed in first-occurrence order. An order is built only when it
    is asked for."""
    grams = text
    n = 1
    while True:
        if n >= min_n:
            yield Counter(grams)
        n += 1
        # the n-grams are the (n-1)-grams each extended by the next character
        grams = list(map(add, grams, text[n - 1:]))


def _count_ngrams(text: str, min_n: int, max_n: int) -> list[Counter]:
    """One Counter per order n = min_n..max_n, keyed in first-occurrence order."""
    return list(islice(_ngram_orders(text, min_n), max_n - min_n + 1))


@dataclass(frozen=True)
class LangScore:
    language: str
    probability: float


class LangModel:
    """Multinomial NB with add-alpha smoothing over a fixed n-gram vocabulary.

    N-grams never seen in training are dropped at classification time;
    n-grams seen for some other language score with the smoothing mass
    alpha / (total + alpha * |V|).
    """

    def __init__(self, languages: Sequence[str], ngram_range: tuple[int, int],
                 smoothing_alpha: float, log_priors: dict[str, float],
                 log_likelihoods: dict[str, dict[str, float]],
                 log_unseen: dict[str, float], vocabulary: frozenset[str]):
        self.languages = list(languages)
        self.ngram_range = ngram_range
        self.smoothing_alpha = smoothing_alpha
        self.log_priors = log_priors
        self.log_likelihoods = log_likelihoods
        self.log_unseen = log_unseen
        self.vocabulary = vocabulary
        self.rows = {gram: tuple(log_likelihoods[lang].get(gram, log_unseen[lang])
                                 for lang in self.languages)
                     for gram in vocabulary}
        self.prior_row = tuple(log_priors[lang] for lang in self.languages)

    def classify(self, text: str) -> list[LangScore]:
        return classify(self, text)

    def save(self, path: str | Path) -> None:
        save_model(self, path)

    @classmethod
    def load(cls, path: str | Path) -> "LangModel":
        return load_model(path)


def train(samples: Iterable[tuple[str, str]], ngram_range: tuple[int, int] = (1, 3),
          smoothing_alpha: float = 1.0) -> LangModel:
    """Fit the classifier from (text, language-code) pairs.

    Deterministic: counts are integers and every derived float comes
    from the final tallies, so sample order never changes the model.
    """
    min_n, max_n = ngram_range
    if not (1 <= min_n <= max_n <= 5):
        raise ValueError(f"ngram_range must satisfy 1 <= min <= max <= 5, got {ngram_range}")
    if smoothing_alpha <= 0:
        raise ValueError("smoothing_alpha must be positive")

    gram_counts: dict[str, Counter] = {}
    sample_counts: Counter = Counter()
    for text, lang in samples:
        if not text.strip():
            raise EmptySample("training sample with empty text")
        stripped = _prepare(text)
        if not stripped:
            raise EmptySample(f"training sample empty after stripping: {text!r}")
        sample_counts[lang] += 1
        counts = gram_counts.setdefault(lang, Counter())
        for order_counts in _count_ngrams(stripped, min_n, max_n):
            counts.update(order_counts)

    if len(sample_counts) < 2:
        raise InsufficientLanguages(
            f"need at least 2 languages, got {sorted(sample_counts)}")

    languages = sorted(sample_counts)
    vocab = sorted(set().union(*gram_counts.values()))
    v = len(vocab)
    total_samples = sum(sample_counts.values())

    log_priors = {}
    log_unseen = {}
    log_likelihoods: dict[str, dict[str, float]] = {lang: {} for lang in languages}
    for lang in languages:
        counts = gram_counts[lang]
        total = sum(counts.values())
        denom = math.log(total + smoothing_alpha * v)
        log_priors[lang] = math.log(sample_counts[lang] / total_samples)
        log_unseen[lang] = math.log(smoothing_alpha) - denom
        table = log_likelihoods[lang]
        for gram in vocab:
            c = counts.get(gram, 0)
            if c:
                table[gram] = math.log(c + smoothing_alpha) - denom
    return LangModel(languages, (min_n, max_n), smoothing_alpha,
                     log_priors, log_likelihoods, log_unseen, frozenset(vocab))


def _ranked(model: LangModel, counters: Sequence[Counter]) -> list[tuple[str, float]]:
    """(language, posterior) pairs, descending, from one Counter per order
    of ``model.ngram_range``. Ties break by language code ascending."""
    get = model.rows.get
    # n-grams never seen in training are dropped
    known = [(count, row) for order_counts in counters
             for count, row in zip(order_counts.values(), map(get, order_counts))
             if row is not None]
    scores = []
    for k, total in enumerate(model.prior_row):
        for count, row in known:
            total += count * row[k]
        scores.append(total)
    peak = max(scores)
    exps = [math.exp(s - peak) for s in scores]
    z = sum(exps)
    return sorted(((lang, e / z) for lang, e in zip(model.languages, exps)),
                  key=lambda pair: (-pair[1], pair[0]))


def _classifiable(text: str) -> str:
    stripped = _prepare(text)
    if not stripped:
        raise EmptyAfterStripping(f"nothing classifiable in {text!r}")
    return stripped


def classify(model: LangModel, text: str) -> list[LangScore]:
    """Full posterior over the model's languages, descending.

    Ties break by language code ascending; probabilities sum to 1.
    """
    counters = _count_ngrams(_classifiable(text), *model.ngram_range)
    return [LangScore(lang, p) for lang, p in _ranked(model, counters)]


def agreement_filter(text: str, model_a: LangModel, model_b: LangModel,
                     target: str, threshold: float = 0.5) -> bool:
    """True iff both models rank ``target`` first at or above ``threshold``."""
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    stripped = _classifiable(text)
    lo = min(model_a.ngram_range[0], model_b.ngram_range[0])
    # orders lo, lo + 1, ... are counted once, for both models, and the
    # orders only model B uses only after model A has accepted
    orders = _ngram_orders(stripped, lo)
    counters: list[Counter] = []
    for model in (model_a, model_b):
        min_n, max_n = model.ngram_range
        counters += islice(orders, max(0, max_n - lo + 1 - len(counters)))
        language, probability = _ranked(model, counters[min_n - lo:max_n - lo + 1])[0]
        if language != target or probability < threshold:
            return False
    return True


def _write_str(out, value: str) -> None:
    data = value.encode("utf-8")
    out.write(struct.pack("<H", len(data)))
    out.write(data)


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise CorruptRecord("unexpected end of model file")
    return data


def _read_str(fh) -> str:
    (size,) = struct.unpack("<H", _read_exact(fh, 2))
    return _read_exact(fh, size).decode("utf-8")


def save_model(model: LangModel, path: str | Path) -> None:
    """Versioned binary layout: language table, then an n-gram table of
    float64 little-endian log-likelihood rows (one column per language,
    unseen entries materialized). Grams are sorted, so identical models
    produce identical bytes."""
    vocab = sorted(model.vocabulary)
    if not vocab:
        raise CorruptRecord("refusing to save a model with an empty vocabulary")
    with open(path, "wb") as out:
        out.write(MODEL_MAGIC)
        out.write(struct.pack("<H", MODEL_VERSION))
        out.write(struct.pack("<BB", *model.ngram_range))
        out.write(struct.pack("<d", model.smoothing_alpha))
        out.write(struct.pack("<H", len(model.languages)))
        for lang in model.languages:
            _write_str(out, lang)
            out.write(struct.pack("<dd", model.log_priors[lang], model.log_unseen[lang]))
        out.write(struct.pack("<I", len(vocab)))
        row_format = "<%dd" % len(model.languages)
        for gram in vocab:
            _write_str(out, gram)
            out.write(struct.pack(row_format, *model.rows[gram]))


def load_model(path: str | Path) -> LangModel:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MODEL_MAGIC:
            raise CorruptRecord(f"{path}: not a language model file")
        (version,) = struct.unpack("<H", _read_exact(fh, 2))
        if version != MODEL_VERSION:
            raise VersionMismatch(f"{path}: model version {version}, expected {MODEL_VERSION}")
        min_n, max_n = struct.unpack("<BB", _read_exact(fh, 2))
        (alpha,) = struct.unpack("<d", _read_exact(fh, 8))
        (n_langs,) = struct.unpack("<H", _read_exact(fh, 2))
        languages, log_priors, log_unseen = [], {}, {}
        for _ in range(n_langs):
            lang = _read_str(fh)
            prior, unseen = struct.unpack("<dd", _read_exact(fh, 16))
            languages.append(lang)
            log_priors[lang] = prior
            log_unseen[lang] = unseen
        (n_grams,) = struct.unpack("<I", _read_exact(fh, 4))
        log_likelihoods: dict[str, dict[str, float]] = {lang: {} for lang in languages}
        vocab = []
        for _ in range(n_grams):
            gram = _read_str(fh)
            vocab.append(gram)
            row = struct.unpack("<%dd" % n_langs, _read_exact(fh, 8 * n_langs))
            for lang, value in zip(languages, row):
                log_likelihoods[lang][gram] = value
    return LangModel(languages, (min_n, max_n), alpha, log_priors,
                     log_likelihoods, log_unseen, frozenset(vocab))


def read_training_corpus(path: str | Path) -> list[tuple[str, str]]:
    """Lines of ``code<TAB>text``."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise CorruptRecord(f"{path}:{lineno}: expected code<TAB>text")
            code, text = line.split("\t", 1)
            samples.append((text, code))
    return samples
