import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tweetcorpus.errors import (
    InvalidBIO,
    LengthMismatch,
    MalformedRow,
    ShapeMismatch,
    UnknownLabel,
)
from tweetcorpus.tasks import (
    EMOTIONS,
    ENTITY_TYPES,
    SEXISM_LABELS,
    align_first_subwords,
    bio_decode,
    derive_sli_labels,
    entity_f1,
    f1_multilabel,
    hamming_loss,
    load_emotion_dataset,
    load_ner_dataset,
    load_sexism_dataset,
    load_task_dataset,
    mse,
    prf_singlelabel,
    subset_accuracy,
    threshold_intensities,
)


def test_derive_sli_exhaustive():
    expected = {
        "sexist direct": ("sexist", "direct"),
        "sexist descriptive": ("sexist", "descriptive"),
        "sexist reporting": ("sexist", "reporting"),
        "non-sexist offensive": ("non-sexist", None),
        "non-sexist non-offensive": ("non-sexist", None),
    }
    threeway = 0
    for raw in SEXISM_LABELS:
        got = derive_sli_labels(raw)
        assert got == expected[raw]
        threeway += got[1] is not None
    assert threeway == 3


def test_derive_sli_unknown():
    with pytest.raises(UnknownLabel):
        derive_sli_labels("sexist")


def test_align_single_word(toy_vocab):
    assert align_first_subwords(["salut"], toy_vocab) == (1,)


def test_align_multi_piece_word(toy_vocab):
    # "salutare" -> salut ##are (2 pieces), then "lume" starts at 3
    assert align_first_subwords(["salutare", "lume"], toy_vocab) == (1, 3)


def test_align_unk_points_at_unk(toy_vocab):
    assert align_first_subwords(["@@@", "lume"], toy_vocab) == (1, 2)


def test_align_matches_offset_sum_oracle(toy_vocab):
    from tweetcorpus.vocab import wordpiece_tokenize
    rng = random.Random(3)
    stock = ["salut", "salutare", "lume", "Ce", "faci", "azi", "xyz", "una", "vreme"]
    for _ in range(1000):
        words = [rng.choice(stock) for _ in range(rng.randint(1, 8))]
        got = align_first_subwords(words, toy_vocab)
        # oracle: lengths of each word's piece list, prefix-summed
        lengths = [len(wordpiece_tokenize(w, toy_vocab)) for w in words]
        expected, acc = [], 1
        for n in lengths:
            expected.append(acc)
            acc += n
        assert list(got) == expected


def _random_binary(rng, rows, cols):
    return [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]


def test_hamming_identity_and_known_value():
    assert hamming_loss([[1, 0, 1]], [[1, 0, 1]]) == 0.0
    assert hamming_loss([[1, 0, 1]], [[1, 1, 1]]) == pytest.approx(1 / 3)


def test_hamming_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        hamming_loss([[1, 0]], [[1, 0, 1]])
    with pytest.raises(ShapeMismatch):
        hamming_loss([1, 0], [1, 1])


def test_hamming_matches_double_loop_oracle():
    rng = random.Random(1)
    for _ in range(100):
        t = _random_binary(rng, 50, 7)
        p = _random_binary(rng, 50, 7)
        mismatches = 0
        for row_t, row_p in zip(t, p):
            for a, b in zip(row_t, row_p):
                mismatches += a != b
        assert hamming_loss(t, p) == pytest.approx(mismatches / (50 * 7), abs=0)


def test_hamming_plus_positionwise_accuracy_is_one():
    rng = random.Random(2)
    t = _random_binary(rng, 30, 7)
    p = _random_binary(rng, 30, 7)
    matches = sum(a == b for rt, rp in zip(t, p) for a, b in zip(rt, rp))
    assert hamming_loss(t, p) + matches / (30 * 7) == pytest.approx(1.0)


def test_subset_accuracy_basic():
    assert subset_accuracy([[1, 0], [0, 1]], [[1, 0], [0, 1]]) == 1.0
    assert subset_accuracy([[1, 0], [0, 1]], [[1, 0], [1, 1]]) == 0.5


def test_subset_accuracy_matches_row_oracle():
    rng = random.Random(3)
    for _ in range(100):
        t = _random_binary(rng, 40, 7)
        p = _random_binary(rng, 40, 7)
        expected = sum(rt == rp for rt, rp in zip(t, p)) / 40
        assert subset_accuracy(t, p) == pytest.approx(expected, abs=0)


def oracle_f1_multilabel(t, p, averaging):
    """Per-label confusion counting, long-hand."""
    cols = len(t[0])
    stats = []
    for j in range(cols):
        tp = sum(1 for i in range(len(t)) if t[i][j] == 1 and p[i][j] == 1)
        fp = sum(1 for i in range(len(t)) if t[i][j] == 0 and p[i][j] == 1)
        fn = sum(1 for i in range(len(t)) if t[i][j] == 1 and p[i][j] == 0)
        stats.append((tp, fp, fn))

    def f1_of(tp, fp, fn):
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        return 2 * prec * rec / (prec + rec) if prec + rec else 0.0

    if averaging == "micro":
        tp = sum(s[0] for s in stats)
        fp = sum(s[1] for s in stats)
        fn = sum(s[2] for s in stats)
        return f1_of(tp, fp, fn)
    per = [f1_of(*s) for s in stats]
    if averaging == "macro":
        return sum(per) / cols
    support = [s[0] + s[2] for s in stats]
    total = sum(support)
    if not total:
        return 0.0
    return sum(f * s for f, s in zip(per, support)) / total


def test_f1_perfect_and_zero_cases():
    t = [[1, 0, 1], [0, 1, 0]]
    for averaging in ("micro", "macro", "weighted"):
        assert f1_multilabel(t, t, averaging) == 1.0
        assert f1_multilabel(t, [[0, 0, 0], [0, 0, 0]], averaging) == 0.0


def test_f1_matches_confusion_oracle_all_averagings():
    rng = random.Random(4)
    for _ in range(100):
        t = _random_binary(rng, 50, 7)
        p = _random_binary(rng, 50, 7)
        for averaging in ("micro", "macro", "weighted"):
            assert f1_multilabel(t, p, averaging) == pytest.approx(
                oracle_f1_multilabel(t, p, averaging), abs=1e-12)


def test_f1_requires_explicit_averaging():
    with pytest.raises(TypeError):
        f1_multilabel([[1]], [[1]])
    with pytest.raises(ValueError):
        f1_multilabel([[1]], [[1]], "samples")


def test_mse_basic_and_oracle():
    assert mse([[0.0]], [[2.0]]) == 4.0
    assert mse([[1.0, 0.5]], [[1.0, 0.5]]) == 0.0
    rng = random.Random(5)
    for _ in range(100):
        t = [[rng.random() for _ in range(7)] for _ in range(20)]
        p = [[rng.random() for _ in range(7)] for _ in range(20)]
        expected = sum((a - b) ** 2 for rt, rp in zip(t, p)
                       for a, b in zip(rt, rp)) / (20 * 7)
        assert mse(t, p) == pytest.approx(expected, abs=1e-12)
    assert mse([[0.0]], [[2.0]], scale=100.0) == 400.0


def test_threshold_bridge():
    scores = [[0.4, 0.5, 0.61], [0.0, 1.0, 0.49]]
    assert threshold_intensities(scores).tolist() == [[0, 1, 1], [0, 1, 0]]
    assert threshold_intensities(scores, 0.62).tolist() == [[0, 0, 0], [0, 1, 0]]


def oracle_prf(y_true, y_pred, averaging):
    classes = sorted(set(y_true) | set(y_pred))
    rows = {}
    for c in classes:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        rows[c] = (prec, rec, f1, tp, fp, fn)
    if averaging == "micro":
        tp = sum(r[3] for r in rows.values())
        fp = sum(r[4] for r in rows.values())
        fn = sum(r[5] for r in rows.values())
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        return prec, rec, f1
    weights = ([1 / len(classes)] * len(classes) if averaging == "macro" else
               [(r[3] + r[5]) / len(y_true) for r in rows.values()])
    prec = sum(w * r[0] for w, r in zip(weights, rows.values()))
    rec = sum(w * r[1] for w, r in zip(weights, rows.values()))
    f1 = sum(w * r[2] for w, r in zip(weights, rows.values()))
    return prec, rec, f1


def test_prf_perfect():
    report = prf_singlelabel(["a", "b"], ["a", "b"], "macro")
    assert report.metrics == {"precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_prf_single_class_predictions():
    report = prf_singlelabel(["a", "b", "a", "b"], ["a", "a", "a", "a"], "macro")
    assert report.per_class["a"]["recall"] == 1.0
    assert report.per_class["b"]["recall"] == 0.0


def test_prf_matches_oracle():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(2, 60)
        y_true = [rng.choice("abc") for _ in range(n)]
        y_pred = [rng.choice("abc") for _ in range(n)]
        for averaging in ("micro", "macro", "weighted"):
            got = prf_singlelabel(y_true, y_pred, averaging)
            prec, rec, f1 = oracle_prf(y_true, y_pred, averaging)
            assert got.metrics["precision"] == pytest.approx(prec, abs=1e-12)
            assert got.metrics["recall"] == pytest.approx(rec, abs=1e-12)
            assert got.metrics["f1"] == pytest.approx(f1, abs=1e-12)


def test_prf_length_mismatch():
    with pytest.raises(LengthMismatch):
        prf_singlelabel(["a"], ["a", "b"], "macro")


AVERAGINGS = ("micro", "macro", "weighted")


@pytest.mark.parametrize("n_classes", [6, 7, 10])
def test_prf_perfect_predictions_average_to_exactly_one(n_classes):
    y = [c for c in range(n_classes) for _ in range(c + 1)]
    for averaging in AVERAGINGS:
        assert prf_singlelabel(y, y, averaging).metrics == {
            "precision": 1.0, "recall": 1.0, "f1": 1.0}


@pytest.mark.filterwarnings("error")
def test_empty_inputs_score_zero_floats():
    empty = np.zeros((0, len(EMOTIONS)), dtype=int)
    for averaging in AVERAGINGS:
        f1 = f1_multilabel(empty, empty, averaging)
        assert type(f1) is float and f1 == 0.0
        for value in (hamming_loss(empty, empty), subset_accuracy(empty, empty),
                      mse(empty, empty), mse(empty.astype(float), empty, scale=100)):
            assert type(value) is float and value == 0.0
        for metrics in (prf_singlelabel([], [], averaging).metrics,
                        entity_f1([], []).metrics, entity_f1([["O"]], [["O"]]).metrics):
            assert metrics == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
            assert all(type(v) is float for v in metrics.values())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_hot_multilabel_f1_equals_single_label_f1(data):
    """With one label per row and every label gold somewhere, both paths
    see the same classes and counts, so they must agree bit for bit."""
    n = data.draw(st.integers(2, 11), label="labels")
    extra = data.draw(st.lists(st.integers(0, n - 1), max_size=40), label="extra")
    gold = data.draw(st.permutations(list(range(n)) + extra), label="gold")
    pred = data.draw(st.lists(st.integers(0, n - 1), min_size=len(gold), max_size=len(gold)),
                     label="pred")
    one_hot = np.eye(n, dtype=int)
    for averaging in AVERAGINGS:
        assert (f1_multilabel(one_hot[gold], one_hot[pred], averaging)
                == prf_singlelabel(gold, pred, averaging).metrics["f1"])


def test_bio_decode_basic():
    assert bio_decode(["B-PER", "I-PER", "O"]) == [("PER", 0, 2)]
    assert bio_decode(["O", "O"]) == []
    assert bio_decode(["B-PER", "B-LOC"]) == [("PER", 0, 1), ("LOC", 1, 2)]
    assert bio_decode(["O", "B-TM", "I-TM", "I-TM"]) == [("TM", 1, 4)]


def test_bio_decode_strict_rejects_orphans():
    with pytest.raises(InvalidBIO):
        bio_decode(["O", "I-PER"])
    with pytest.raises(InvalidBIO):
        bio_decode(["B-LOC", "I-PER"])
    with pytest.raises(InvalidBIO):
        bio_decode(["X-PER"])


def test_bio_decode_repair_mode():
    assert bio_decode(["O", "I-PER"], repair=True) == [("PER", 1, 2)]
    assert bio_decode(["B-LOC", "I-PER"], repair=True) == [("LOC", 0, 1), ("PER", 1, 2)]


def oracle_spans(tags):
    """Linear state machine."""
    spans, state, start = [], None, None
    for i, tag in enumerate(tags):
        if tag.startswith("B-"):
            if state is not None:
                spans.append((state, start, i))
            state, start = tag[2:], i
        elif tag.startswith("I-") and state == tag[2:]:
            pass
        else:  # O (valid BIO only)
            if state is not None:
                spans.append((state, start, i))
            state, start = None, None
    if state is not None:
        spans.append((state, start, len(tags)))
    return spans


def _random_valid_bio(rng, length):
    tags, current = [], None
    for _ in range(length):
        roll = rng.random()
        if current and roll < 0.4:
            tags.append(f"I-{current}")
        elif roll < 0.7:
            current = rng.choice(ENTITY_TYPES)
            tags.append(f"B-{current}")
        else:
            current = None
            tags.append("O")
    return tags


def test_bio_decode_matches_state_machine_oracle():
    rng = random.Random(7)
    for _ in range(500):
        tags = _random_valid_bio(rng, rng.randint(0, 25))
        assert bio_decode(tags) == oracle_spans(tags)


def test_entity_f1_identity():
    tags = [["B-PER", "I-PER", "O", "B-LOC"]]
    report = entity_f1(tags, tags)
    assert report.metrics["f1"] == 1.0
    assert report.per_class["PER"]["f1"] == 1.0


def test_entity_f1_wrong_type_gets_no_credit():
    gold = [["B-PER", "I-PER", "O"]]
    pred = [["B-LOC", "I-LOC", "O"]]
    report = entity_f1(gold, pred)
    assert report.metrics["f1"] == 0.0
    assert report.per_class["PER"]["recall"] == 0.0
    assert report.per_class["LOC"]["precision"] == 0.0


def oracle_entity_f1(gold_sents, pred_sents):
    gold_spans, pred_spans = [], []
    for i, (g, p) in enumerate(zip(gold_sents, pred_sents)):
        gold_spans += [(i,) + s for s in oracle_spans(g)]
        pred_spans += [(i,) + s for s in oracle_spans(p)]
    matched = set(gold_spans) & set(pred_spans)
    prec = len(matched) / len(pred_spans) if pred_spans else 0.0
    rec = len(matched) / len(gold_spans) if gold_spans else 0.0
    return 2 * prec * rec / (prec + rec) if prec + rec else 0.0


def test_entity_f1_matches_span_set_oracle():
    rng = random.Random(8)
    for _ in range(200):
        n_sent = rng.randint(1, 6)
        lengths = [rng.randint(1, 15) for _ in range(n_sent)]
        gold = [_random_valid_bio(rng, n) for n in lengths]
        pred = [_random_valid_bio(rng, n) for n in lengths]
        got = entity_f1(gold, pred)
        assert got.metrics["f1"] == pytest.approx(oracle_entity_f1(gold, pred), abs=1e-12)


def test_entity_f1_invariant_under_sentence_permutation():
    rng = random.Random(9)
    lengths = [rng.randint(2, 12) for _ in range(8)]
    gold = [_random_valid_bio(rng, n) for n in lengths]
    pred = [_random_valid_bio(rng, n) for n in lengths]
    base = entity_f1(gold, pred).metrics
    order = list(range(8))
    rng.shuffle(order)
    shuffled = entity_f1([gold[i] for i in order], [pred[i] for i in order]).metrics
    assert base == shuffled


def test_entity_f1_length_mismatch():
    with pytest.raises(LengthMismatch):
        entity_f1([["O"]], [["O"], ["O"]])
    with pytest.raises(LengthMismatch):
        entity_f1([["O", "O"]], [["O"]])


# --- loaders -----------------------------------------------------------------


def test_load_emotion_rows(tmp_path):
    path = tmp_path / "red.tsv"
    path.write_text(
        "bucurie mare\t0\t0\t1\t0\t0\t0\t0\n"
        "trist azi\t0\t0\t0\t1\t0\t0\t0\t0.1\t0.0\t0.2\t0.9\t0.3\t0.05\t0.0\n",
        encoding="utf-8")
    examples = load_emotion_dataset(path)
    assert examples[0].labels == (0, 0, 1, 0, 0, 0, 0)
    assert examples[0].intensities is None
    assert examples[1].intensities == (0.1, 0.0, 0.2, 0.9, 0.3, 0.05, 0.0)
    assert len(EMOTIONS) == 7


def test_load_emotion_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("text\t0\t1\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        load_emotion_dataset(path)
    assert ":1:" in str(err.value)
    path.write_text("text\t0\t1\t2\t0\t0\t0\t0\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        load_emotion_dataset(path)


def test_load_emotion_intensity_threshold_consistency(tmp_path):
    path = tmp_path / "red.tsv"
    path.write_text("t\t1\t0\t0\t0\t0\t0\t0\t0.9\t0.1\t0.2\t0.3\t0.4\t0.45\t0.0\n",
                    encoding="utf-8")
    ex = load_emotion_dataset(path)[0]
    bridged = threshold_intensities([ex.intensities])[0]
    assert set(bridged.tolist()) <= {0, 1}


def test_load_sexism_rows(tmp_path):
    path = tmp_path / "sli.tsv"
    path.write_text("un text\tsexist direct\nalt text\tnon-sexist offensive\n",
                    encoding="utf-8")
    examples = load_sexism_dataset(path)
    assert examples[0].binary_label == "sexist"
    assert examples[0].threeway_label == "direct"
    assert examples[1].threeway_label is None


def test_load_sexism_unknown_label(tmp_path):
    path = tmp_path / "sli.tsv"
    path.write_text("text\tfoarte sexist\n", encoding="utf-8")
    with pytest.raises(UnknownLabel) as err:
        load_sexism_dataset(path)
    assert ":1:" in str(err.value)


def test_load_ner_rows(tmp_path, toy_vocab):
    path = tmp_path / "ner.txt"
    path.write_text(
        "salut O\nlume B-PER\n\nazi B-TM\nCe I-TM\n",
        encoding="utf-8")
    examples = load_ner_dataset(path, toy_vocab)
    assert examples[0].words == ("salut", "lume")
    assert examples[0].tags == ("O", "B-PER")
    assert examples[0].first_subword_index == (1, 2)
    assert examples[1].tags == ("B-TM", "I-TM")


def test_load_ner_strict_rejects_orphan(tmp_path, toy_vocab):
    path = tmp_path / "ner.txt"
    path.write_text("salut O\nlume I-PER\n", encoding="utf-8")
    with pytest.raises(InvalidBIO):
        load_ner_dataset(path, toy_vocab)
    assert load_ner_dataset(path, toy_vocab, repair=True)[0].tags == ("O", "I-PER")


def test_load_ner_unknown_entity_type(tmp_path, toy_vocab):
    path = tmp_path / "ner.txt"
    path.write_text("salut B-XYZ\n", encoding="utf-8")
    with pytest.raises(UnknownLabel):
        load_ner_dataset(path, toy_vocab)


def test_load_ner_malformed_row(tmp_path, toy_vocab):
    path = tmp_path / "ner.txt"
    path.write_text("salut\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        load_ner_dataset(path, toy_vocab)


def test_load_task_dispatch(tmp_path, toy_vocab):
    red = tmp_path / "r.tsv"
    red.write_text("t\t0\t0\t0\t0\t0\t0\t1\n", encoding="utf-8")
    assert len(load_task_dataset(red, "red_v2")) == 1
    with pytest.raises(ValueError):
        load_task_dataset(red, "ner")
    with pytest.raises(ValueError):
        load_task_dataset(red, "altceva")
