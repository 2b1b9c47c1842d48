"""Downstream task datasets and every reported evaluation metric.

Three tasks: multi-label emotion detection (7 emotions, optional
real-valued intensities), sexist-language identification (5 raw labels
collapsed to binary and three-way views), and BIO named-entity
recognition over 9 entity types with first-subword alignment.

All three score precision/recall/F1 through one function, ``_scores``.
Micro averaging pools the counts; macro is the plain mean over every
label (red_v2) or over the gold and predicted classes (coroseof);
weighted is the support-weighted mean sum(s_i * x_i) / sum(s_i); a zero
denominator scores 0.0.
NER reports the micro average over exact entity spans.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError, InvalidBIO, UnknownLabel
from .normalize import read_text_lines
from .vocab import Vocabulary, wordpiece_tokenize

EMOTIONS = ("anger", "fear", "happiness", "sadness", "surprise", "trust", "neutral")

SEXISM_LABELS = (
    "sexist direct",
    "sexist descriptive",
    "sexist reporting",
    "non-sexist offensive",
    "non-sexist non-offensive",
)
SEXIST_BINARY = "sexist"
NONSEXIST_BINARY = "non-sexist"

ENTITY_TYPES = ("PER", "LOC", "ORG", "TM", "LEG", "DIS", "CHM", "MD", "ANT")


@dataclass(frozen=True)
class EmotionExample:
    text: str
    labels: tuple[int, ...]
    intensities: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SexismExample:
    text: str
    raw_label: str
    binary_label: str
    threeway_label: str | None


@dataclass(frozen=True)
class NerExample:
    words: tuple[str, ...]
    tags: tuple[str, ...]
    first_subword_index: tuple[int, ...]


@dataclass
class MetricReport:
    metrics: dict[str, float]
    per_class: dict[str, dict[str, float]] | None = None

    def to_json(self) -> str:
        payload = {"metrics": self.metrics}
        if self.per_class is not None:
            payload["per_class"] = self.per_class
        return json.dumps(payload, indent=2, sort_keys=True)


def derive_sli_labels(raw_label: str) -> tuple[str, str | None]:
    """Collapse a 5-way sexism label into (binary, optional three-way)."""
    if raw_label not in SEXISM_LABELS:
        raise UnknownLabel(f"unknown sexism label {raw_label!r}")
    if raw_label.startswith("sexist "):
        return SEXIST_BINARY, raw_label.split(" ", 1)[1]
    return NONSEXIST_BINARY, None


def align_first_subwords(words: Sequence[str], vocab: Vocabulary) -> tuple[int, ...]:
    """Index of each word's first WordPiece in the [CLS]-prefixed sequence.

    A word that tokenizes to [UNK] points at that [UNK].
    """
    indices = []
    position = 1  # slot 0 is [CLS]
    for word in words:
        indices.append(position)
        position += len(wordpiece_tokenize(word, vocab))
    return tuple(indices)


# --- multi-label metrics -----------------------------------------------------


def _as_matrix(y, name: str) -> np.ndarray:
    arr = np.asarray(y)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    return arr


def _check_shapes(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    t = _as_matrix(y_true, "y_true")
    p = _as_matrix(y_pred, "y_pred")
    if t.shape != p.shape:
        raise DataError(f"shape mismatch: {t.shape} vs {p.shape}")
    return t, p


def hamming_loss(y_true, y_pred) -> float:
    """Fraction of label positions predicted incorrectly; 0.0 on none."""
    t, p = _check_shapes(y_true, y_pred)
    return float(np.mean(t != p)) if t.size else 0.0


def subset_accuracy(y_true, y_pred) -> float:
    """Fraction of rows whose whole label vector matches; 0.0 on none."""
    t, p = _check_shapes(y_true, y_pred)
    return float(np.mean(np.all(t == p, axis=1))) if len(t) else 0.0


def _prf(tp, n_pred, n_gold) -> dict[str, float]:
    """Precision, recall and F1 from counts; a zero denominator scores 0."""
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def _scores(tp, n_pred, n_gold, classes, averaging: str) -> MetricReport:
    """Per-class ``_prf`` rows with gold support over ``classes``, averaged
    as the module docstring says; ``tp``, ``n_pred`` and ``n_gold`` map a
    class to its true positives, predictions and gold items."""
    rows = [{**_prf(tp[c], n_pred[c], n_gold[c]), "support": float(n_gold[c])} for c in classes]
    if averaging == "micro":
        metrics = _prf(*(sum(counts[c] for c in classes) for counts in (tp, n_pred, n_gold)))
    elif averaging in ("macro", "weighted"):
        # weight 1, not 1/n, so the mean of n equal rows is that row exactly
        weights = [1 if averaging == "macro" else row["support"] for row in rows]
        total = sum(weights)
        metrics = {key: sum(w * row[key] for w, row in zip(weights, rows)) / total if total else 0.0
                   for key in ("precision", "recall", "f1")}
    else:
        raise ValueError(f"averaging must be micro/macro/weighted, got {averaging!r}")
    return MetricReport(metrics, {str(c): row for c, row in zip(classes, rows)})


def f1_multilabel(y_true, y_pred, averaging: str) -> float:
    """F1 under explicit micro/macro/weighted averaging over every label.

    The averaging scheme is a required argument: silent defaults make
    reported numbers irreproducible.
    """
    t, p = _check_shapes(y_true, y_pred)
    tp = ((t == 1) & (p == 1)).sum(axis=0)
    n_pred = tp + ((t == 0) & (p == 1)).sum(axis=0)
    n_gold = tp + ((t == 1) & (p == 0)).sum(axis=0)
    return _scores(tp.tolist(), n_pred.tolist(), n_gold.tolist(), range(t.shape[1]),
                   averaging).metrics["f1"]


def mse(y_true, y_pred, scale: float = 1.0) -> float:
    """Mean squared error over all cells, times an optional report scale;
    0.0 on no cells."""
    t, p = _check_shapes(y_true, y_pred)
    return float(np.mean((t.astype(float) - p.astype(float)) ** 2) * scale) if t.size else 0.0


def threshold_intensities(y_scores, threshold: float = 0.5) -> np.ndarray:
    """Regression-to-classification bridge for the intensity variant."""
    arr = _as_matrix(y_scores, "y_scores")
    return (arr >= threshold).astype(int)


# --- single-label metrics ----------------------------------------------------


def prf_singlelabel(y_true: Sequence, y_pred: Sequence, averaging: str) -> MetricReport:
    """Per-class and averaged precision/recall/F1 for one label per row,
    over the classes that are gold or predicted."""
    if len(y_true) != len(y_pred):
        raise DataError(f"{len(y_true)} gold vs {len(y_pred)} predicted")
    tp = Counter(t for t, p in zip(y_true, y_pred) if t == p)
    n_pred, n_gold = Counter(y_pred), Counter(y_true)
    return _scores(tp, n_pred, n_gold, sorted(n_gold.keys() | n_pred.keys()), averaging)


# --- BIO / entity metrics ----------------------------------------------------


def bio_decode(tags: Sequence[str], repair: bool = False) -> list[tuple[str, int, int]]:
    """(type, start, end-exclusive) spans from a BIO tag sequence.

    Strict mode rejects orphan I- tags; repair mode coerces them to B-.
    """
    spans = []
    current_type = None
    start = 0
    for i, tag in enumerate(tags):
        if tag == "O":
            if current_type is not None:
                spans.append((current_type, start, i))
                current_type = None
            continue
        if len(tag) < 3 or tag[1] != "-" or tag[0] not in "BI":
            raise InvalidBIO(f"position {i}: malformed tag {tag!r}")
        marker, entity = tag[0], tag[2:]
        if marker == "B":
            if current_type is not None:
                spans.append((current_type, start, i))
            current_type, start = entity, i
        else:  # I-
            if current_type == entity:
                continue
            if not repair:
                raise InvalidBIO(f"position {i}: orphan {tag!r}")
            if current_type is not None:
                spans.append((current_type, start, i))
            current_type, start = entity, i
    if current_type is not None:
        spans.append((current_type, start, len(tags)))
    return spans


def _as_sentences(tags) -> list[list[str]]:
    if tags and isinstance(tags[0], str):
        return [list(tags)]
    return [list(t) for t in tags]


def entity_f1(true_tags, pred_tags, repair: bool = False) -> MetricReport:
    """Exact-span entity F1: type and both boundaries must match.

    Accepts one tag sequence or a list of per-sentence sequences;
    reports per-type precision/recall/F1 plus a micro-averaged total.
    """
    gold_sents = _as_sentences(true_tags)
    pred_sents = _as_sentences(pred_tags)
    if len(gold_sents) != len(pred_sents):
        raise DataError(f"{len(gold_sents)} gold vs {len(pred_sents)} predicted sentences")

    gold_count: Counter = Counter()
    pred_count: Counter = Counter()
    match_count: Counter = Counter()
    for gold, pred in zip(gold_sents, pred_sents):
        if len(gold) != len(pred):
            raise DataError(f"sentence length {len(gold)} vs {len(pred)}")
        gold_spans = set(bio_decode(gold, repair=repair))
        pred_spans = set(bio_decode(pred, repair=repair))
        gold_count.update(span[0] for span in gold_spans)
        pred_count.update(span[0] for span in pred_spans)
        match_count.update(span[0] for span in gold_spans & pred_spans)

    return _scores(match_count, pred_count, gold_count,
                   sorted(gold_count.keys() | pred_count.keys()), "micro")


# --- dataset loading ---------------------------------------------------------


def _parse_binary(value: str, path, lineno: int) -> int:
    if value == "0":
        return 0
    if value == "1":
        return 1
    raise DataError(f"{path}:{lineno}: expected 0/1, got {value!r}")


def _parse_intensity(value: str, path, lineno: int) -> float:
    try:
        x = float(value)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: bad intensity {value!r}") from exc
    if not 0.0 <= x <= 1.0:
        raise DataError(f"{path}:{lineno}: intensity {x} outside [0, 1]")
    return x


def read_tsv(path) -> Iterator[tuple[int, list[str]]]:
    """(line number, tab-separated cells) of each non-blank line of ``path``."""
    for lineno, line in enumerate(read_text_lines(path), 1):
        if line:
            yield lineno, line.split("\t")


def load_emotion_dataset(path) -> list[EmotionExample]:
    """TSV rows: text, 7 binary labels, optionally 7 real intensities."""
    n = len(EMOTIONS)
    out = []
    for lineno, cols in read_tsv(path):
        if len(cols) not in (1 + n, 1 + 2 * n):
            raise DataError(
                f"{path}:{lineno}: expected {1 + n} or {1 + 2 * n} columns, got {len(cols)}")
        labels = tuple(_parse_binary(v, path, lineno) for v in cols[1:1 + n])
        intensities = None
        if len(cols) == 1 + 2 * n:
            intensities = tuple(_parse_intensity(v, path, lineno) for v in cols[1 + n:])
        out.append(EmotionExample(cols[0], labels, intensities))
    return out


def load_sexism_dataset(path) -> list[SexismExample]:
    """TSV rows: text, raw 5-way label."""
    out = []
    for lineno, cols in read_tsv(path):
        if len(cols) != 2:
            raise DataError(f"{path}:{lineno}: expected text<TAB>label")
        try:
            binary, threeway = derive_sli_labels(cols[1])
        except UnknownLabel as exc:
            raise UnknownLabel(f"{path}:{lineno}: {exc}") from exc
        out.append(SexismExample(cols[0], cols[1], binary, threeway))
    return out


def _checked_sentence(path, lineno: int, words: list[str], tags: list[str], repair: bool):
    """(lineno, words, tags) once ``tags`` are valid BIO over ENTITY_TYPES."""
    where = f"{path}: sentence ending at line {lineno}"
    try:
        bio_decode(tags, repair=repair)
    except InvalidBIO as exc:
        raise InvalidBIO(f"{where}: {exc}") from exc
    if unknown := [tag for tag in tags if tag != "O" and tag[2:] not in ENTITY_TYPES]:
        raise UnknownLabel(f"{where}: unknown entity type in {unknown[0]!r}")
    return lineno, words, tags


def read_conll(path, repair: bool = False) -> Iterator[tuple[int, list[str], list[str]]]:
    """Sentences of a CoNLL-style two-column file (``word tag`` lines, a
    blank line between sentences) as (line ending it, words, tags), with
    valid BIO tags over ENTITY_TYPES (``repair``: see ``bio_decode``)."""
    words: list[str] = []
    tags: list[str] = []
    lineno = 0
    for lineno, line in enumerate(read_text_lines(path), 1):
        if not line.strip():
            if words:
                yield _checked_sentence(path, lineno, words, tags, repair)
                words, tags = [], []
            continue
        cols = line.split(" ")
        if len(cols) != 2 or not cols[0] or not cols[1]:
            raise DataError(f"{path}:{lineno}: expected 'word tag'")
        words.append(cols[0])
        tags.append(cols[1])
    if words:
        yield _checked_sentence(path, lineno, words, tags, repair)


def load_ner_dataset(path, vocab: Vocabulary, repair: bool = False) -> list[NerExample]:
    """The sentences of a CoNLL-style file (see read_conll), aligned to subwords."""
    return [NerExample(tuple(words), tuple(tags), align_first_subwords(words, vocab))
            for _, words, tags in read_conll(path, repair)]


def load_task_dataset(path, task: str, vocab: Vocabulary | None = None,
                      repair_bio: bool = False):
    if task == "red_v2":
        return load_emotion_dataset(path)
    if task == "coroseof":
        return load_sexism_dataset(path)
    if task == "ner":
        if vocab is None:
            raise ValueError("ner loading needs a vocabulary for subword alignment")
        return load_ner_dataset(path, vocab, repair=repair_bio)
    raise ValueError(f"unknown task {task!r}")
