"""Character n-gram language identification.

A multinomial Naive Bayes classifier over character n-grams stands in
for external language detectors; two models trained with different
n-gram ranges form an agreement ensemble, and a tweet passes only when
both rank the target language first with enough posterior mass.

Each model keeps one row table: n-gram -> the tuple of its per-language
log-likelihoods, unseen entries filled in (the dense rows the ``.rlid``
file stores). ``classify`` scores exactly: per language, scores are
summed in a fixed order (n ascending, then first occurrence) from the
same ``count * value`` products, so every probability is reproducible
to the last bit.

The agreement gate needs only a yes or no, and decides a batch of texts
at a time (``agreement_batch``; ``agreement_filter`` is one text). It
decides each model from score margins first (``_margin_verdict``): per
text and other language, the sum of its gram occurrences' difference
entries, taken from packed tables by array passes (``_margin_sums``), in
any order, against a proven bound on how far that sum can be from the
exact scores' difference. Any summation of N terms, however associated,
errs by at most gamma(N-1) times the sum of their magnitudes (Higham,
Accuracy and Stability of Numerical Algorithms, section 4.2), so the
bound holds for every order. Whatever the bound cannot settle goes to
the exact scoring, so every decision is the one the exact posteriors
give. Model B scores only the texts model A accepted. Training prepares
each sample and counts each order once for both models
(``train_models``).
"""

from __future__ import annotations

import math
import re
import struct
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from operator import add
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CorruptRecord, DataError, VersionMismatch
from .normalize import HASHTAG_TOKEN, MENTION_TOKEN, URL_TOKEN, collapse_whitespace, read_text_lines

MODEL_MAGIC = b"RLID"
MODEL_VERSION = 1

_PLACEHOLDER_RE = re.compile(rf"\b({MENTION_TOKEN}|{URL_TOKEN}|{HASHTAG_TOKEN})\b")
_DIGITS_RE = re.compile(r"\d+")


def _prepare(text: str) -> str:
    # placeholders and digits carry no language signal; a placeholder
    # holds no digit and touches none (\b), so two passes strip both
    if MENTION_TOKEN in text or URL_TOKEN in text or HASHTAG_TOKEN in text:
        text = _PLACEHOLDER_RE.sub(" ", text)
    return collapse_whitespace(_DIGITS_RE.sub(" ", text))


def _ngram_orders(text: str, min_n: int) -> Iterator[Sequence[str]]:
    """The n-gram occurrences of ``text``, in text order, for n = min_n,
    min_n + 1, ... (the unigrams are ``text`` itself). An order is built
    only when it is asked for."""
    grams = text
    n = 1
    while True:
        if n >= min_n:
            yield grams
        n += 1
        # the n-grams are the (n-1)-grams each extended by the next character
        grams = list(map(add, grams, text[n - 1:]))


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
                 log_unseen: dict[str, float], rows: dict[str, tuple[float, ...]]):
        self.languages = list(languages)
        self.ngram_range = ngram_range
        self.smoothing_alpha = smoothing_alpha
        self.log_priors = log_priors
        self.log_unseen = log_unseen
        self.rows = rows  # the n-gram vocabulary: gram -> one log-likelihood per language
        self.prior_row = tuple(log_priors[lang] for lang in self.languages)
        self._margins: dict[str, _Margins | None] = {}  # target -> _margins_for(self, target)

    def save(self, path: str | Path) -> None:
        """Versioned binary layout: language table, then an n-gram table of
        float64 little-endian log-likelihood rows (one column per language,
        unseen entries materialized). Grams are sorted, so identical models
        produce identical bytes."""
        vocab = sorted(self.rows)
        if not vocab:
            raise CorruptRecord("refusing to save a model with an empty vocabulary")
        with open(path, "wb") as out:
            out.write(MODEL_MAGIC)
            out.write(struct.pack("<H", MODEL_VERSION))
            out.write(struct.pack("<BB", *self.ngram_range))
            out.write(struct.pack("<d", self.smoothing_alpha))
            out.write(struct.pack("<H", len(self.languages)))
            for lang in self.languages:
                _write_str(out, lang)
                out.write(struct.pack("<dd", self.log_priors[lang], self.log_unseen[lang]))
            out.write(struct.pack("<I", len(vocab)))
            row_format = "<%dd" % len(self.languages)
            for gram in vocab:
                _write_str(out, gram)
                out.write(struct.pack(row_format, *self.rows[gram]))

    @classmethod
    def load(cls, path: str | Path, source: BinaryIO | None = None) -> "LangModel":
        """The model in ``path``, or its open ``source``; no byte may follow the last n-gram."""
        with open(path, "rb") if source is None else source as fh:
            if _read_exact(fh, 4) != MODEL_MAGIC:
                raise CorruptRecord(f"{path}: not a language model file")
            (version,) = struct.unpack("<H", _read_exact(fh, 2))
            if version != MODEL_VERSION:
                raise VersionMismatch(f"{path}: model version {version}, expected {MODEL_VERSION}")
            min_n, max_n = struct.unpack("<BB", _read_exact(fh, 2))
            (alpha,) = struct.unpack("<d", _read_exact(fh, 8))
            (n_langs,) = struct.unpack("<H", _read_exact(fh, 2))
            if n_langs < 2:
                raise CorruptRecord(f"{path}: {n_langs} languages, a model needs at least 2")
            languages, log_priors, log_unseen = [], {}, {}
            for _ in range(n_langs):
                lang = _read_str(fh)
                if lang in log_priors:
                    raise CorruptRecord(f"{path}: language {lang!r} appears twice")
                prior, unseen = struct.unpack("<dd", _read_exact(fh, 16))
                languages.append(lang)
                log_priors[lang] = prior
                log_unseen[lang] = unseen
            (n_grams,) = struct.unpack("<I", _read_exact(fh, 4))
            row_format = "<%dd" % n_langs
            rows = {}
            for _ in range(n_grams):
                gram = _read_str(fh)
                rows[gram] = struct.unpack(row_format, _read_exact(fh, 8 * n_langs))
            if fh.read(1):
                raise CorruptRecord(f"{path}: bytes after the last n-gram")
        return cls(languages, (min_n, max_n), alpha, log_priors, log_unseen, rows)


def train_models(samples: Iterable[tuple[str, str]], ngram_ranges: Sequence[tuple[int, int]],
                 smoothing_alpha: float = 1.0) -> list[LangModel]:
    """One classifier per range of ``ngram_ranges``, fitted from (text,
    language-code) pairs in one pass: each sample is prepared once, and
    each order the ranges span is counted once for them all. Counts are
    integers and every derived float comes from the final tallies, so
    neither sample order nor the other ranges ever change a model.
    """
    for ngram_range in ngram_ranges:
        if not (1 <= ngram_range[0] <= ngram_range[1] <= 5):
            raise ValueError(f"ngram_range must satisfy 1 <= min <= max <= 5, got {ngram_range}")
    if not 0 < smoothing_alpha < math.inf:
        raise ValueError(f"smoothing_alpha must be finite and > 0, got {smoothing_alpha}")

    lo, hi = min(r[0] for r in ngram_ranges), max(r[1] for r in ngram_ranges)
    # per language, one Counter per order lo..hi, each fed its gram list in C
    gram_counts = defaultdict(lambda: [Counter() for _ in range(lo, hi + 1)])
    sample_counts: Counter = Counter()
    for text, lang in samples:
        if not text.strip():
            raise DataError("training sample with empty text")
        stripped = _prepare(text)
        if not stripped:
            raise DataError(f"training sample empty after stripping: {text!r}")
        sample_counts[lang] += 1
        for order_counts, grams in zip(gram_counts[lang], _ngram_orders(stripped, lo)):
            order_counts.update(grams)

    if len(sample_counts) < 2:
        raise DataError(f"need at least 2 languages, got {sorted(sample_counts)}")

    languages = sorted(sample_counts)
    total_samples = sum(sample_counts.values())
    models = []
    for min_n, max_n in ngram_ranges:
        # per language, gram -> count over the range's orders, whose grams differ in length
        lang_counts = [dict(chain.from_iterable(map(dict.items, orders[min_n - lo:max_n - lo + 1])))
                       for orders in map(gram_counts.get, languages)]
        vocab = sorted(set().union(*lang_counts))
        if not (v := len(vocab)):
            raise DataError(f"no n-grams of orders {min_n}..{max_n} in the training samples")
        log_priors, log_unseen, columns = {}, {}, []
        for lang, counts in zip(languages, lang_counts):
            total = sum(counts.values())
            denom = math.log(total + smoothing_alpha * v)
            log_priors[lang] = math.log(sample_counts[lang] / total_samples)
            log_unseen[lang] = unseen = math.log(smoothing_alpha) - denom
            columns.append([math.log(c + smoothing_alpha) - denom if (c := counts.get(gram))
                            else unseen for gram in vocab])
        models.append(LangModel(languages, (min_n, max_n), smoothing_alpha,
                                log_priors, log_unseen, dict(zip(vocab, zip(*columns)))))
    return models


def train(samples: Iterable[tuple[str, str]], ngram_range: tuple[int, int] = (1, 3),
          smoothing_alpha: float = 1.0) -> LangModel:
    """Fit the classifier from (text, language-code) pairs: ``train_models`` over one range."""
    return train_models(samples, [ngram_range], smoothing_alpha)[0]


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


def _counters(model: LangModel, stripped: str) -> list[Counter]:
    """One Counter per order of ``model.ngram_range``, over the prepared text ``stripped``."""
    min_n, max_n = model.ngram_range
    return list(map(Counter, islice(_ngram_orders(stripped, min_n), max_n - min_n + 1)))


def classify(model: LangModel, text: str) -> list[LangScore]:
    """Full posterior over the model's languages, descending.

    Ties break by language code ascending; probabilities sum to 1.
    """
    if not (stripped := _prepare(text)):
        raise DataError(f"nothing classifiable in {text!r}")
    return [LangScore(lang, p) for lang, p in _ranked(model, _counters(model, stripped))]


class _Margins(NamedTuple):
    """``model`` against one target t, over the other languages k, packed
    for the batch gate. A gram of n characters has the exact integer code
    of its alphabet indices, read as n base-``len(points)`` digits; index 0
    is any character outside the alphabet, so no known code has a 0 digit."""
    prior_gaps: np.ndarray    # prior[k] - prior[t]
    points: np.ndarray        # 0, then the alphabet's code points, sorted: index -> point
    low_index: np.ndarray     # point -> index, for the points below _LOW_POINTS
    codes: list[np.ndarray]   # per order of the range, its known grams' codes, sorted
    tables: list[np.ndarray]  # per order, row[k] - row[t] of each code, one row per code
    max_prior: float          # the largest |log prior|
    max_entry: float          # the largest |row entry|


_U = 2.0 ** -53          # the unit roundoff of a float
_MU = 2.0 ** -40         # the least score gap a verdict rests on
_MAX_DELTA = 2.0 ** -10  # a larger error bound goes to the exact path
_MIN_THRESHOLD = 2.0 ** -1000
_LOW_POINTS = 0x800      # the code points that one array maps, ahead of a search
_GATE_TEXTS = 128        # texts per array pass; their temporaries take ~40 bytes a character


def _code_points(text: str) -> np.ndarray:
    """The code points of any ``str``, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4")


def _margins_for(model: LangModel, target: str) -> _Margins | None:
    """The packed difference tables of ``model`` against ``target``, built
    on first use and kept on the model, so a process builds them once (and
    a pool forked after that shares them). None where ``_margin_verdict``'s
    proof does not hold: fewer than two languages, a repeated language, a
    target the model lacks, or a prior or row entry that is not finite or
    is below the normal range; and None where a top-order code would not
    fit an int64."""
    if target in model._margins:
        return model._margins[target]
    languages = model.languages
    entries = list(chain.from_iterable(model.rows.values()))
    min_n, max_n = model.ngram_range
    by_order = defaultdict(list)
    for gram in model.rows:
        by_order[len(gram)].append(gram)
    orders = [by_order[n] for n in range(min_n, max_n + 1)]
    alphabet = _code_points("".join(sorted(set("".join(chain.from_iterable(orders))))))
    base = len(alphabet) + 1
    margins = None
    if (len(set(languages)) == len(languages) >= 2 and target in languages
            and all(v == 0.0 or 2.0 ** -1022 <= abs(v) < math.inf
                    for v in chain(model.prior_row, entries))
            and base ** max_n <= 2 ** 63):
        t = languages.index(target)
        others = [k for k in range(len(languages)) if k != t]
        dtype = np.min_scalar_type(base ** max_n - 1)  # the narrowest that holds every code
        codes, tables = [], []
        for n, grams in enumerate(orders, min_n):
            digits = np.searchsorted(alphabet, _code_points("".join(grams))).astype(dtype) + 1
            code = np.zeros(len(grams), dtype)
            for column in digits.reshape(len(grams), n).T:
                code = code * base + column
            rows = np.array([model.rows[g] for g in grams]).reshape(len(grams), len(languages))
            order = np.argsort(code)
            codes.append(code[order])
            tables.append((rows[:, others] - rows[:, [t]])[order])
        low_index = np.zeros(_LOW_POINTS, dtype)
        low = alphabet[alphabet < _LOW_POINTS]
        low_index[low] = np.arange(1, len(low) + 1)
        prior = np.array(model.prior_row)
        margins = _Margins(prior[others] - prior[t], np.insert(alphabet, 0, 0), low_index,
                           codes, tables, max(map(abs, model.prior_row)),
                           max(map(abs, entries), default=0.0))
    model._margins[target] = margins
    return margins


def _margin_sums(margins: _Margins, min_n: int, texts: Sequence[str]) -> np.ndarray:
    """d_k of each prepared text (one row per text, one column per other
    language k): the prior gap plus the table entry of every gram
    occurrence, 0 for an unknown gram, added in whatever order the arrays
    give. The texts are joined by one separator of index 0, so no gram
    that crosses two texts is known. A gram's key is its code, shifted
    left past the text's number: ``len(points) ** max_n << shift`` must
    fit 64 bits."""
    points = margins.points
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    chars = _code_points("\0".join(texts))
    index = margins.low_index.take(chars, mode="clip")
    far = np.flatnonzero(chars >= _LOW_POINTS)
    found = np.searchsorted(points, chars[far], "right") - 1
    index[far] = found * (points[found] == chars[far])
    index[np.cumsum(lengths + 1)[:-1] - 1] = 0
    shift = (len(texts) - 1).bit_length()
    low = (1 << shift) - 1
    owner = np.repeat(np.arange(len(texts), dtype=np.min_scalar_type(low)), lengths + 1)
    sums = np.zeros((len(margins.prior_gaps), len(texts)))
    codes = index
    for n in range(1, min_n + len(margins.codes)):
        if n > 1:  # the n-grams are the (n-1)-grams each extended by the next character
            codes = codes[:-1] * len(points) + index[n - 1:]
        if n < min_n or not len(known := margins.codes[n - min_n]):
            continue
        # sorted, the keys of one code are one run; runs of no known code
        # and runs of one alternate, and each key takes its run's entry
        keys = codes.astype(np.min_scalar_type((len(points) ** n << shift) - 1))
        keys <<= shift
        keys |= owner[:len(keys)]
        keys.sort()
        first = known.astype(keys.dtype) << shift
        ends = np.column_stack((np.searchsorted(keys, first),
                                np.searchsorted(keys, first | low, "right")))
        runs = np.diff(ends.ravel(), prepend=0, append=len(keys))
        keys &= low
        for total, column in zip(sums, margins.tables[n - min_n].T):
            entries = np.zeros(2 * len(known) + 1)
            entries[1::2] = column
            total += np.bincount(keys, np.repeat(entries, runs), len(texts))
    return sums.T + margins.prior_gaps


def _margin_verdict(margins: _Margins, threshold: float, m: int,
                    gaps: Sequence[float]) -> bool | None:
    """Whether ``_ranked`` over a text's m gram occurrences puts ``target``
    first at or above ``threshold``, from the text's margins ``gaps``
    (``_margin_sums``); None when the margins cannot prove the answer.

    For each other language k, d_k is the prior gap plus every gram's
    table entry row[k] - row[t] (0 for an unknown gram), summed over the
    m occurrences. Let S be the scores ``_ranked`` computes, D_k = S_k -
    S_t, u = 2**-53, P the largest |log prior|, R the largest |row entry|
    and g(n) = 1.01 n u (m u < 0.01 for any text under 10**13 characters).

    Bound. Every prior and row entry is 0 or finite and normal
    (``_margins_for``), a subnormal sum or difference is exact, and
    delta <= 2**-10 keeps all magnitudes far from overflow, so each
    operation rounds by at most u relative. Any summation of N terms, in
    any order and association, errs by at most gamma(N-1) times the sum
    of their magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, section 4.2), and gamma(N-1) <= g(N): so ``_ranked``'s
    left-to-right sums and ``_margin_sums``' bincounts alike. S_k adds the
    prior and at most m products whose counts total at most m: it is
    within g(m+1) (P + m R) of its real value. Each table entry and prior
    gap rounds one difference (errors <= 2uR, 2uP), and d_k sums m+1 terms
    of magnitude at most 2(1+u) P or 2(1+u) R, adding g(m) 2(1+u) (P + m R).
    So |d_k - D_k| <= (4.05 m + 4.1) u (P + m R), and delta = 8 (m+2) u
    (P + m R) is about twice that. The slack absorbs the rounding of delta
    and of d_k +- delta, so a test below that clears +-MU proves D_k
    beyond +-MU/2 on that side.

    Verdicts, assuming ``math.exp`` within one ulp and exp(0.0) == 1.0.
    With L languages, P_t = 1/(1 + sum_k e^D_k) and lam = (L+2) 2**-48:
    a. Some D_k >= MU/2: the peak score beats S_t by MU/2, so ``_ranked``
       gets e^(S_t - peak) <= 1 - MU/4 against 1.0 for the peak language;
       divided by one z and rounded, p_t < p_peak. Not first: False.
    b. Every D_k <= -MU/2: S_t is the peak with e = 1.0 and every other e
       is at most 1 - MU/4, so p_t is strictly the largest and no tie
       reaches the code order. Each other term of z is within 2.4u of
       e^D_k, so p_t = fl(1/z) is within (3.5 L + 1.1) u of P_t, relative.
       P_t >= 1/(1 + sum e^(d_k + delta)), evaluated here within as much
       again; lam = 32 (L+2) u exceeds both plus the last rounding, so
       passing the test proves p_t >= threshold: True.
    c. Once (a)'s test failed, every D_k < 2 MU + 2 delta < 1: S_t is
       within 1 of the peak, e^(S_t - peak) is normal and p_t <= P_t (1 +
       (3.5 L + 4.1) u), with P_t <= 1/(1 + sum e^(d_k - delta)). Failing
       the last test proves p_t < threshold the same way: False.
    Everything else is None and is scored exactly: a thin margin or a
    larger delta here; in ``_model_verdicts``, a threshold below 2**-1000
    (about 1e-300; subnormal thresholds stay on the exact path) or a model
    ``_margins_for`` refuses.
    """
    delta = 8 * (m + 2) * _U * (margins.max_prior + m * margins.max_entry)
    if not delta <= _MAX_DELTA:
        return None
    top = max(gaps)
    if top - delta >= _MU:
        return False
    lam = (len(gaps) + 3) * 2.0 ** -48
    if (top + delta <= -_MU
            and (1 - lam) / (1 + sum(math.exp(d + delta) for d in gaps)) >= threshold):
        return True
    if (1 + lam) / (1 + sum(math.exp(d - delta) for d in gaps)) < threshold:
        return False
    return None


def _model_verdicts(model: LangModel, target: str, threshold: float,
                    texts: Sequence[str]) -> list[bool]:
    """Whether ``model`` ranks ``target`` first at or above ``threshold``,
    for each prepared, non-empty text: from the margins where they prove
    the answer, else by exact scoring."""
    margins = _margins_for(model, target) if threshold >= _MIN_THRESHOLD else None
    verdicts: list[bool | None] = [None] * len(texts)
    min_n, max_n = model.ngram_range
    if margins is not None:
        # at most as many texts at a time as a 64-bit key can tell apart
        step = min(_GATE_TEXTS, 1 << 64 - (len(margins.points) ** max_n - 1).bit_length())
        for lo in range(0, len(texts), step):
            batch = texts[lo:lo + step]
            lengths = np.fromiter(map(len, batch), np.intp, len(batch))[:, None]
            ms = np.maximum(lengths - np.arange(min_n - 1, max_n), 0).sum(1).tolist()
            for j, m, gaps in zip(count(lo), ms, _margin_sums(margins, min_n, batch).tolist()):
                verdicts[j] = _margin_verdict(margins, threshold, m, gaps)
    for j, verdict in enumerate(verdicts):
        if verdict is None:
            language, probability = _ranked(model, _counters(model, texts[j]))[0]
            verdicts[j] = language == target and probability >= threshold
    return verdicts


def agreement_batch(texts: Sequence[str], model_a: LangModel, model_b: LangModel,
                    target: str, threshold: float = 0.5) -> list[bool]:
    """``agreement_filter``'s verdict on each of ``texts``, in one pass of
    array operations per model and n-gram order. Model B scores only the
    texts model A accepted."""
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    live = [(i, stripped) for i, stripped in enumerate(map(_prepare, texts)) if stripped]
    for model in (model_a, model_b):
        live = list(compress(live, _model_verdicts(model, target, threshold,
                                                   [stripped for _, stripped in live])))
    verdicts = [False] * len(texts)
    for i, _ in live:
        verdicts[i] = True
    return verdicts


def agreement_filter(text: str, model_a: LangModel, model_b: LangModel,
                     target: str, threshold: float = 0.5) -> bool:
    """True iff both models rank ``target`` first at or above ``threshold``;
    False for a text with nothing to classify, which ``classify`` rejects.

    Each model is decided from its margins where they prove the answer,
    else by exact scoring; the answer is the same either way."""
    return agreement_batch([text], model_a, model_b, target, threshold)[0]


def _write_str(out, value: str) -> None:
    data = value.encode("utf-8")
    out.write(struct.pack("<H", len(data)))
    out.write(data)


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise CorruptRecord(f"{fh.name}: unexpected end of model file")
    return data


def _read_str(fh) -> str:
    (size,) = struct.unpack("<H", _read_exact(fh, 2))
    data = _read_exact(fh, size)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = fh.tell() - size + exc.start
        raise CorruptRecord(f"{fh.name}: byte 0x{data[exc.start]:02x} at offset {offset} "
                            "is not UTF-8") from None


def read_training_corpus(path: str | Path, source: BinaryIO | None = None) -> list[tuple[str, str]]:
    """Lines of ``code<TAB>text``, from ``path`` or its open binary ``source``."""
    samples = []
    for lineno, line in enumerate(read_text_lines(path, source=source), 1):
        if not line:
            continue
        if "\t" not in line:
            raise CorruptRecord(f"{path}:{lineno}: expected code<TAB>text")
        code, text = line.split("\t", 1)
        samples.append((text, code))
    return samples
