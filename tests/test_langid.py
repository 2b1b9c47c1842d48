import math
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tweetcorpus import langid
from tweetcorpus.errors import CorruptRecord, DataError
from tweetcorpus.langid import (
    LangModel, LangScore, agreement_filter, classify, train, train_models)
from tweetcorpus.pipeline import build_config, stage_langid_train

from conftest import EN_WORDS, RO_WORDS, make_bilingual_samples, make_text


def test_disjoint_alphabets_force_ranking():
    model = train([("aaaa", "xx"), ("bbbb", "yy")], (1, 1), 1.0)
    scores = classify(model, "aaa")
    assert scores[0].language == "xx"
    assert scores[0].probability > 0.5
    assert scores[1].probability < 0.5


def test_single_language_rejected():
    with pytest.raises(DataError, match="need at least 2 languages"):
        train([("aaa", "xx"), ("aab", "xx")])


def test_empty_sample_rejected():
    with pytest.raises(DataError, match="training sample with empty text"):
        train([("   ", "xx"), ("bbb", "yy")])
    with pytest.raises(DataError, match="training sample empty after stripping: 'USER 42'"):
        train([("USER 42", "xx"), ("bbb", "yy")])


def test_classify_empty_after_stripping():
    model = train([("aaaa", "xx"), ("bbbb", "yy")], (1, 1), 1.0)
    model_b = train([("aaaa", "xx"), ("bbbb", "yy")], (1, 2), 1.0)
    for text in ("", "123 456", "USER HTTPURL HASHTAG", "USER 99"):
        with pytest.raises(DataError, match="nothing classifiable"):
            classify(model, text)
        assert agreement_filter(text, model, model_b, "xx") is False


def oracle_posterior(samples, ngram_range, alpha, text):
    """Independent multinomial NB computation, written long-hand."""
    def grams(s):
        out = {}
        for n in range(ngram_range[0], ngram_range[1] + 1):
            for i in range(len(s) - n + 1):
                g = s[i:i + n]
                out[g] = out.get(g, 0) + 1
        return out

    langs = sorted({lang for _, lang in samples})
    counts = {lang: {} for lang in langs}
    docs = {lang: 0 for lang in langs}
    for sample_text, lang in samples:
        docs[lang] += 1
        for g, c in grams(sample_text).items():
            counts[lang][g] = counts[lang].get(g, 0) + c
    vocab = set()
    for lang in langs:
        vocab.update(counts[lang])

    logp = {}
    for lang in langs:
        total = sum(counts[lang].values())
        lp = math.log(docs[lang] / len(samples))
        for g, c in grams(text).items():
            if g not in vocab:
                continue
            lp += c * math.log((counts[lang].get(g, 0) + alpha)
                               / (total + alpha * len(vocab)))
        logp[lang] = lp
    peak = max(logp.values())
    weights = {lang: math.exp(v - peak) for lang, v in logp.items()}
    z = sum(weights.values())
    return {lang: w / z for lang, w in weights.items()}


def test_posteriors_match_hand_computed_oracle():
    samples = [("abab", "xx"), ("abba", "xx"), ("bbcb", "yy")]
    model = train(samples, (1, 2), 1.0)
    for text in ("ab", "bcb", "aabb", "cab"):
        expected = oracle_posterior(samples, (1, 2), 1.0, text)
        got = {s.language: s.probability for s in classify(model, text)}
        for lang in expected:
            assert got[lang] == pytest.approx(expected[lang], abs=1e-9)


def test_posterior_matches_oracle_on_random_strings():
    rng = random.Random(5)
    samples = make_bilingual_samples(rng, 40)
    model = train(samples, (1, 2), 0.5)
    for _ in range(25):
        raw = "".join(rng.choice("abcdelmnorstu ") for _ in range(20))
        text = " ".join(raw.split()) or "ab"  # classifier canonicalizes whitespace
        expected = oracle_posterior(samples, (1, 2), 0.5, text)
        got = {s.language: s.probability for s in classify(model, text)}
        for lang in expected:
            assert got[lang] == pytest.approx(expected[lang], abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet="abcxyz qr", min_size=1).filter(lambda s: s.strip()))
def test_posterior_sums_to_one(text):
    model = _small_model()
    scores = classify(model, text)
    assert abs(sum(s.probability for s in scores) - 1.0) <= 1e-9
    assert [s.probability for s in scores] == sorted(
        (s.probability for s in scores), reverse=True)


_MODEL_CACHE = {}


def _small_model(key="default"):
    if key not in _MODEL_CACHE:
        rng = random.Random(3)
        _MODEL_CACHE[key] = train(make_bilingual_samples(rng, 30), (1, 2), 1.0)
    return _MODEL_CACHE[key]


def _saved(model, path):
    """The bytes ``model.save`` writes."""
    model.save(path)
    return path.read_bytes()


def test_training_is_permutation_invariant(tmp_path):
    rng = random.Random(9)
    samples = make_bilingual_samples(rng, 50)
    shuffled = samples[:]
    rng.shuffle(shuffled)
    assert shuffled != samples
    assert _saved(train(samples, (1, 2), 1.0), tmp_path / "a.rlid") \
        == _saved(train(shuffled, (1, 2), 1.0), tmp_path / "b.rlid")


def test_agreement_filter_symmetry_and_decision():
    rng = random.Random(7)
    samples = make_bilingual_samples(rng, 60)
    model_a = train(samples, (1, 2), 1.0)
    model_b = train(samples, (2, 3), 1.0)
    ro_text = make_text(rng, RO_WORDS, 8)
    en_text = make_text(rng, EN_WORDS, 8)
    assert agreement_filter(ro_text, model_a, model_b, "ro")
    assert agreement_filter(ro_text, model_b, model_a, "ro")
    assert not agreement_filter(en_text, model_a, model_b, "ro")
    for text in (ro_text, en_text):
        assert (agreement_filter(text, model_a, model_b, "ro")
                == agreement_filter(text, model_b, model_a, "ro"))


def test_agreement_threshold_monotonicity():
    rng = random.Random(13)
    samples = make_bilingual_samples(rng, 60)
    model_a = train(samples, (1, 2), 1.0)
    model_b = train(samples, (2, 3), 1.0)
    texts = [make_text(rng, rng.choice([RO_WORDS, EN_WORDS]), 7) for _ in range(50)]
    thresholds = [0.1, 0.3, 0.5, 0.7, 0.9]
    for text in texts:
        decisions = [agreement_filter(text, model_a, model_b, "ro", t) for t in thresholds]
        # once rejected at some threshold, stays rejected above it
        assert decisions == sorted(decisions, reverse=True)
    for threshold in (0, 1, 1.5):
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\)"):
            agreement_filter(texts[0], model_a, model_b, "ro", threshold)


def test_threshold_sweep_matches_exhaustive_recount():
    rng = random.Random(21)
    samples = make_bilingual_samples(rng, 200)
    model_a = train(samples[:150], (1, 2), 1.0)
    model_b = train(samples[:150], (2, 3), 1.0)
    texts = [text for text, _ in make_bilingual_samples(random.Random(22), 200)]

    for threshold in (0.3, 0.5, 0.8):
        accepted = sum(
            agreement_filter(t, model_a, model_b, "ro", threshold) for t in texts)
        # exhaustive recount straight from the two posterior lists
        expected = 0
        for t in texts:
            ok = True
            for model in (model_a, model_b):
                top = classify(model, t)[0]
                if top.language != "ro" or top.probability < threshold:
                    ok = False
            expected += ok
        assert accepted == expected


def test_model_file_roundtrip(tmp_path):
    rng = random.Random(31)
    samples = make_bilingual_samples(rng, 40)
    model = train(samples, (1, 2), 1.0)
    path = tmp_path / "model.rlid"
    model.save(path)
    loaded = LangModel.load(path)
    assert loaded.languages == model.languages
    assert loaded.ngram_range == model.ngram_range
    text = make_text(rng, RO_WORDS, 6)
    assert [(s.language, s.probability) for s in classify(loaded, text)] \
        == [(s.language, s.probability) for s in classify(model, text)]
    # identical models serialize to identical bytes
    path2 = tmp_path / "model2.rlid"
    model.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_magic_and_version(tmp_path):
    from tweetcorpus.errors import VersionMismatch

    path = tmp_path / "junk.rlid"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CorruptRecord):
        LangModel.load(path)
    model = train([("aaaa", "xx"), ("bbbb", "yy")], (1, 1), 1.0)
    good = tmp_path / "good.rlid"
    model.save(good)
    data = bytearray(good.read_bytes())
    data[4] = 99  # version field
    bad = tmp_path / "bad.rlid"
    bad.write_bytes(bytes(data))
    with pytest.raises(VersionMismatch):
        LangModel.load(bad)


@pytest.mark.parametrize("languages", [[], ["ro"]], ids=["none", "one"])
def test_model_file_with_fewer_than_two_languages_is_corrupt(tmp_path, languages):
    # train() refuses such a model too; with no language the gate's max()
    # over no scores would raise a bare ValueError
    model = LangModel(languages, (1, 1), 1.0, {lang: 0.0 for lang in languages},
                      {lang: -3.0 for lang in languages}, {"a": (-1.0,) * len(languages)})
    path = tmp_path / "few.rlid"
    model.save(path)
    with pytest.raises(CorruptRecord, match=re.escape(str(path))):
        LangModel.load(path)


def test_model_file_with_a_repeated_language_is_corrupt(tmp_path):
    # a dict of priors would keep only the last of the two
    model = LangModel(["ro", "ro"], (1, 1), 1.0, {"ro": -0.7}, {"ro": -3.0},
                      {"a": (-1.0, -2.0)})
    path = tmp_path / "twice.rlid"
    model.save(path)
    with pytest.raises(CorruptRecord, match=re.escape(str(path)) + ".*'ro' appears twice"):
        LangModel.load(path)


@pytest.mark.parametrize("damage, message", [
    (lambda data: data[:20] + b"\xff" + data[21:], "byte 0xff at offset 20 is not UTF-8"),
    (lambda data: data[:-3], "unexpected end of model file"),
    (lambda data: data + b"\x00", "bytes after the last n-gram"),
], ids=["language-code-not-utf8", "truncated", "trailing-bytes"])
def test_a_damaged_model_file_is_named(tmp_path, damage, message):
    # offset 20 is the first byte of the first language code, "en"
    model = train([("aaaa", "en"), ("bbbb", "ro")], (1, 1), 1.0)
    path = tmp_path / "damaged.rlid"
    model.save(path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CorruptRecord, match=f"^{re.escape(f'{path}: {message}')}$"):
        LangModel.load(path)


def test_likelihoods_sum_to_one_per_language():
    import math
    rng = random.Random(51)
    samples = make_bilingual_samples(rng, 30)
    model = train(samples, (1, 2), 0.7)
    for k, lang in enumerate(model.languages):
        mass = sum(math.exp(row[k]) for row in model.rows.values())
        assert mass == pytest.approx(1.0, abs=1e-9), lang


def test_ngram_range_validation():
    samples = [("aaaa", "xx"), ("bbbb", "yy")]
    with pytest.raises(ValueError):
        train(samples, (0, 2))
    with pytest.raises(ValueError):
        train(samples, (3, 2))
    with pytest.raises(ValueError):
        train(samples, (1, 6))
    for alpha in (0, math.inf, math.nan):
        with pytest.raises(ValueError, match="smoothing_alpha must be finite and > 0"):
            train(samples, (1, 1), smoothing_alpha=alpha)


# --- text preparation --------------------------------------------------------


def reference_prepare(text):
    """Placeholders and digit runs stripped by one alternation, then
    whitespace collapsed by ``\\s``."""
    stripped = re.sub(r"\b(USER|HTTPURL|HASHTAG)\b|\d+", " ", text)
    return re.sub(r"\s+", " ", stripped).strip()


# letters, "_", ASCII and non-ASCII digits (ARABIC-INDIC THREE, FULLWIDTH
# ONE) and separators; placeholder words land glued to any of them
PREPARE_TEXT = st.lists(
    st.one_of(st.text(alphabet="abăȘ_09\u0663\uff11 \t\xa0.-", min_size=1, max_size=4),
              st.sampled_from(["USER", "HTTPURL", "HASHTAG", "USERS", "XUSER"])),
    max_size=10,
).map("".join)


@settings(max_examples=600, deadline=None)
@given(PREPARE_TEXT)
def test_prepare_matches_the_one_pass_strip(text):
    assert langid._prepare(text) == reference_prepare(text)


@pytest.mark.parametrize("text", [
    "USER", "USER1", "1USER", "\u0663HASHTAG", "HASHTAG\uff11", "_HTTPURL", "HTTPURL_",
    "aUSER", "USERb", "USER.HASHTAG", "12 USER 34", "HASHTAG-HTTPURL", "USERUSER",
])
def test_prepare_strips_placeholders_only_as_whole_words(text):
    assert langid._prepare(text) == reference_prepare(text)


# --- reference classifier ----------------------------------------------------
# A plain per-language scoring loop over n-grams counted one slice at a time,
# reading the model's rows. Scores must be equal to the last bit, not
# approximately.


def reference_classify(model, text):
    stripped = langid._prepare(text)
    if not stripped:
        raise DataError(text)
    grams = Counter()
    min_n, max_n = model.ngram_range
    for n in range(min_n, max_n + 1):
        for i in range(len(stripped) - n + 1):
            grams[stripped[i:i + n]] += 1
    known = [(model.rows[gram], count) for gram, count in grams.items() if gram in model.rows]
    scores = {}
    for k, lang in enumerate(model.languages):
        total = model.log_priors[lang]
        for row, count in known:
            total += count * row[k]
        scores[lang] = total
    peak = max(scores.values())
    exps = {lang: math.exp(s - peak) for lang, s in scores.items()}
    z = sum(exps.values())
    return sorted(((lang, e / z) for lang, e in exps.items()),
                  key=lambda pair: (-pair[1], pair[0]))


def reference_agreement(text, model_a, model_b, target, threshold=0.5):
    for model in (model_a, model_b):
        language, probability = reference_classify(model, text)[0]
        if language != target or probability < threshold:
            return False
    return True


RANGE_PAIRS = (((1, 2), (2, 3)), ((1, 3), (3, 5)), ((2, 2), (4, 4)))


@pytest.fixture(scope="module")
def model_pairs(tmp_path_factory):
    """Per range pair: the two trained models, then their save/load round trips."""
    samples = make_bilingual_samples(random.Random(41), 80)
    samples += [("ăâîșț", "ro"), ("zz qq", "xx")]  # a third language
    directory = tmp_path_factory.mktemp("models")
    pairs = []
    for k, ngram_ranges in enumerate(RANGE_PAIRS):
        trained = tuple(train(samples, ngrams, 0.5) for ngrams in ngram_ranges)
        loaded = []
        for j, model in enumerate(trained):
            path = directory / f"model-{k}-{j}.rlid"
            model.save(path)
            loaded.append(LangModel.load(path))
        pairs += [trained, tuple(loaded)]
    return pairs


_STOCK_TEXTS = ([make_text(random.Random(s), RO_WORDS, 7) for s in range(5)]
                + [make_text(random.Random(s), EN_WORDS, 7) for s in range(5)]
                + ["USER salut lume HTTPURL 2023", "HASHTAG hello"])


def _boundary_thresholds(model_a, model_b, text):
    """Thresholds that leave a model a margin of about 0: each model's
    exact top probability and its two float neighbours, and a subnormal."""
    thresholds = [1e-310]
    for model in (model_a, model_b):
        top = classify(model, text)[0].probability
        thresholds += [math.nextafter(top, 0.0), top, math.nextafter(top, 1.0)]
    return [t for t in thresholds if 0 < t < 1]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(alphabet="salutmrebinhowdyzq ăâșț1234", min_size=1),
                 st.sampled_from(_STOCK_TEXTS)))
def test_row_tables_match_reference_exactly(model_pairs, text):
    for model_a, model_b in model_pairs:
        try:
            expected = [reference_classify(m, text) for m in (model_a, model_b)]
        except DataError:
            for model in (model_a, model_b):
                with pytest.raises(DataError, match="nothing classifiable"):
                    classify(model, text)
            assert agreement_filter(text, model_a, model_b, "ro") is False
            continue
        for model, ranked in zip((model_a, model_b), expected):
            assert [(s.language, s.probability) for s in classify(model, text)] == ranked
        thresholds = [0.3, 0.5, 0.9, *_boundary_thresholds(model_a, model_b, text)]
        for threshold in thresholds:
            for first, second in ((model_a, model_b), (model_b, model_a)):
                assert agreement_filter(text, first, second, "ro", threshold) \
                    == reference_agreement(text, first, second, "ro", threshold)


# --- the batch gate ----------------------------------------------------------
# ``agreement_batch`` scores many texts with array passes; each verdict must
# be the exact reference's, whatever the batch holds and however it is cut.

# words of both languages, upper-cased words, digits, placeholders, emoji
# and other astral characters, NUL, a lone surrogate, and letters the
# models know only from the third language
_GATE_PIECES = st.one_of(
    st.sampled_from(RO_WORDS + EN_WORDS),
    st.sampled_from(RO_WORDS + EN_WORDS).map(str.upper),
    st.sampled_from(["USER", "HTTPURL", "HASHTAG", "2023", "7", "\x00", "\ud800",
                     "\U0001F600", "\U0001F1F7\U0001F1F4", "\U00010348", "zz qq", "ăâîșț"]),
    st.text(alphabet="salutmrebinhowdyzq ăâșț", max_size=3),
)
# some shorter than the top order (5), some empty once prepared
GATE_TEXT = st.lists(st.tuples(_GATE_PIECES, st.sampled_from(["", " ", "  "])),
                     max_size=8).map(lambda parts: "".join(p + sep for p, sep in parts))


def _reference_verdict(text, model_a, model_b, threshold):
    try:
        return reference_agreement(text, model_a, model_b, "ro", threshold)
    except DataError:  # nothing to classify
        return False


@settings(max_examples=150, deadline=None)
@given(st.lists(GATE_TEXT, min_size=1, max_size=12),
       st.floats(0, 1, exclude_min=True, exclude_max=True), st.data())
@example(["", "a", "ăș", "\x00\x00", "USER 12", "salut\x00lume", "\ud800\ud800ab"], 0.5, None)
def test_the_batch_gate_equals_the_reference_on_every_text(model_pairs, texts, threshold, data):
    cut = data.draw(st.integers(0, len(texts))) if data is not None else len(texts) // 2
    for model_a, model_b in model_pairs:
        expected = [_reference_verdict(text, model_a, model_b, threshold) for text in texts]
        assert langid.agreement_batch(texts, model_a, model_b, "ro", threshold) == expected
        assert (langid.agreement_batch(texts[:cut], model_a, model_b, "ro", threshold)
                + langid.agreement_batch(texts[cut:], model_a, model_b, "ro", threshold)
                == expected)


def test_no_gram_crosses_two_texts_of_a_batch():
    # NUL is English's strongest letter here, and the separator the batch
    # joins texts with: a gram across the join would make "en" win
    samples = make_bilingual_samples(random.Random(43), 40)
    samples += [("\x00" * 8 + " hello\x00\x00world", "en")] * 6
    for ngram_range in ((1, 1), (1, 3), (2, 3)):
        model = train(samples, ngram_range, 1.0)
        texts = ["salut lume", "buna ziua", "s", "inima"] * 3
        expected = [_reference_verdict(text, model, model, 0.5) for text in texts]
        assert expected[:2] == [True, True]
        assert langid.agreement_batch(texts, model, model, "ro", 0.5) == expected


def _packed_arrays(margins):
    arrays = [value for value in margins if isinstance(value, np.ndarray)]
    return arrays + list(margins.codes) + list(margins.tables)


def _spread_alphabet(size):
    """``size`` letters from ASCII, Greek, CJK and an astral plane: no digit,
    no whitespace."""
    ranges = ((0x61, 0x7B), (0x3B1, 0x3C9), (0x4E00, 0x4E96), (0x20000, 0x20200))
    return [chr(c) for lo, hi in ranges for c in range(lo, hi)][:size]


def test_packing_grows_with_the_rows_not_the_alphabet():
    rng = random.Random(5)
    alphabet = _spread_alphabet(300)
    assert len(set(alphabet)) == 300
    samples = [("".join(rng.choice(alphabet) for _ in range(60)), lang)
               for lang in ("en", "ro") for _ in range(40)]
    for ngram_range in ((1, 3), (2, 3), (3, 3)):
        model = train(samples, ngram_range, 1.0)
        margins = langid._margins_for(model, "ro")
        assert margins is not None
        arrays = _packed_arrays(margins)
        rows = len(model.rows)
        # per row a code and one difference (8 bytes at most each), one
        # code point per letter, at most 0x800 map entries and one prior gap
        assert sum(array.nbytes for array in arrays) <= 16 * rows + 4 * 301 + 8 * 0x800 + 8
        assert max(array.size for array in arrays) <= max(rows, 0x800) < 300 ** 2
        for _ in range(3):
            text = "".join(rng.choice(alphabet) for _ in range(30))
            assert agreement_filter(text, model, model, "ro", 0.5) \
                == reference_agreement(text, model, model, "ro", 0.5)


def test_a_model_whose_codes_overflow_int64_is_scored_exactly(exact_calls):
    # 7,200 letters: a 5-gram code needs 7,201 ** 5 > 2 ** 63 values
    letters = [chr(c) for c in range(0x4E00, 0x4E00 + 7200)]
    samples = [("".join(letters[:3600]), "ro"), ("".join(letters[3600:]), "en"),
               ("".join(letters[:3600:2]), "ro")]
    texts = ["".join(letters[10:40]), "".join(letters[4000:4030]),
             "".join(letters[10:20] + letters[4000:4020]), "".join(letters[:4])]
    five, four = train(samples, (5, 5), 1.0), train(samples, (4, 4), 1.0)
    assert len(langid._margins_for(four, "ro").points) ** 5 > 2 ** 63
    assert langid._margins_for(five, "ro") is None
    del exact_calls[:]
    verdicts = langid.agreement_batch(texts, five, four, "ro", 0.5)
    assert verdicts == [reference_agreement(text, five, four, "ro", 0.5) for text in texts]
    assert verdicts[:2] == [True, False]
    # model A on every text; model B, below the limit, from its margins
    assert exact_calls == [five] * len(texts)


# --- reference trainer -------------------------------------------------------
# N-grams counted one slice at a time, as ``reference_classify`` counts
# them, and the priors, unseen masses and rows from the same expressions
# as ``train``. The saved bytes must be equal, not approximately.


def reference_train(samples, ngram_range, alpha):
    min_n, max_n = ngram_range
    docs, grams = Counter(), {}
    for text, lang in samples:
        stripped = langid._prepare(text)
        docs[lang] += 1
        counts = grams.setdefault(lang, Counter())
        for n in range(min_n, max_n + 1):
            for i in range(len(stripped) - n + 1):
                counts[stripped[i:i + n]] += 1
    languages = sorted(docs)
    vocab = sorted(set().union(*grams.values()))
    log_priors, log_unseen, rows = {}, {}, {gram: [] for gram in vocab}
    for lang in languages:
        denom = math.log(sum(grams[lang].values()) + alpha * len(vocab))
        log_priors[lang] = math.log(docs[lang] / len(samples))
        log_unseen[lang] = math.log(alpha) - denom
        for gram in vocab:
            count = grams[lang][gram]
            rows[gram].append(math.log(count + alpha) - denom if count else log_unseen[lang])
    return LangModel(languages, ngram_range, alpha, log_priors, log_unseen,
                     {gram: tuple(row) for gram, row in rows.items()})


# letters, diacritics, digits and placeholders, with something left once stripped
TRAINING_TEXT = st.lists(
    st.one_of(st.text(alphabet="abcxyzăâîșț 09", min_size=1, max_size=5),
              st.sampled_from(["USER", "HTTPURL", "HASHTAG", " 2024 "])),
    min_size=1, max_size=6,
).map("".join).filter(reference_prepare)


@st.composite
def training_samples(draw):
    """Samples of two or three languages, each language at least once, in any order."""
    languages = draw(st.sampled_from([("en", "ro"), ("en", "hu", "ro")]))
    samples = [(draw(TRAINING_TEXT), lang) for lang in languages]
    samples += draw(st.lists(st.tuples(TRAINING_TEXT, st.sampled_from(languages)), max_size=8))
    return draw(st.permutations(samples))


NGRAM_RANGES = [(low, high) for low in range(1, 6) for high in range(low, 6)]
_FEW_SAMPLES = [("ab USER 1", "en"), ("ăâ ba", "ro"), ("c 09 x", "en")]


@settings(max_examples=80, deadline=None)
@given(training_samples(), st.sampled_from(NGRAM_RANGES), st.sampled_from(NGRAM_RANGES),
       st.sampled_from([0.5, 1.0]))
@example(_FEW_SAMPLES, (1, 1), (4, 5), 1.0)
@example(_FEW_SAMPLES, (4, 5), (1, 1), 0.5)
@example(_FEW_SAMPLES, (2, 3), (2, 3), 1.0)
def test_both_models_equal_the_reference_trainer(tmp_path_factory, samples, range_a, range_b,
                                                 alpha):
    """The two files ``stage_langid_train`` writes from one pass, and
    ``train`` over each range alone, are the reference trainer's bytes."""
    root = tmp_path_factory.mktemp("train")
    corpus = root / "langid.tsv"
    corpus.write_text("".join(f"{lang}\t{text}\n" for text, lang in samples), encoding="utf-8")
    cfg = build_config(overrides={
        "io.output_dir": str(root / "models"), "langid.alpha": alpha,
        "langid.ngram_min_a": range_a[0], "langid.ngram_max_a": range_a[1],
        "langid.ngram_min_b": range_b[0], "langid.ngram_max_b": range_b[1]})
    # a range whose least order is longer than every stripped text has nothing to count
    longest = max(len(reference_prepare(text)) for text, _ in samples)
    empty = [ngram_range for ngram_range in (range_a, range_b) if ngram_range[0] > longest]
    if empty:
        with pytest.raises(DataError, match="^no n-grams of orders %d..%d " % empty[0]):
            stage_langid_train(cfg, corpus)
    else:
        stage_langid_train(cfg, corpus)
    for name, ngram_range in (("model-a.rlid", range_a), ("model-b.rlid", range_b)):
        if ngram_range in empty:
            with pytest.raises(DataError, match="^no n-grams of orders %d..%d " % ngram_range):
                train(samples, ngram_range, alpha)
            continue
        expected = _saved(reference_train(samples, ngram_range, alpha), root / "reference.rlid")
        if not empty:
            assert (root / "models" / name).read_bytes() == expected
        assert _saved(train(samples, ngram_range, alpha), root / "train.rlid") == expected


@pytest.mark.parametrize("samples, message, prepared", [
    ([("ab", "ro"), ("  ", "en"), ("USER 42", "en")], "training sample with empty text", 1),
    ([("ab", "ro"), ("USER 42", "en"), ("  ", "en")],
     "training sample empty after stripping: 'USER 42'", 2),
    ([("ab", "ro"), ("ba", "ro"), ("ab", "ro")], "need at least 2 languages, got ['ro']", 3),
    ([("ab", "ro"), ("b a", "en")], "no n-grams of orders 4..5 in the training samples", 2),
], ids=["blank", "empty-after-stripping", "one-language", "no-grams"])
def test_a_bad_corpus_fails_once_for_both_ranges(tmp_path, monkeypatch, samples, message,
                                                 prepared):
    """The first bad sample raises today's message, with every sample
    before it prepared once for both models; the stage keeps the models
    it wrote before."""
    calls = []
    real_prepare = langid._prepare
    monkeypatch.setattr(langid, "_prepare", lambda text: calls.append(text) or real_prepare(text))
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        train_models(samples, [(1, 1), (4, 5)])
    assert len(calls) == prepared
    out = tmp_path / "models"
    cfg = build_config(overrides={"io.output_dir": str(out),
                                  "langid.ngram_min_a": 1, "langid.ngram_max_a": 1,
                                  "langid.ngram_min_b": 4, "langid.ngram_max_b": 5})
    good = tmp_path / "good.tsv"
    good.write_text("ro\tazi plouă\nen\tit rains\n", encoding="utf-8")
    stage_langid_train(cfg, good)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    corpus = tmp_path / "langid.tsv"
    corpus.write_text("".join(f"{lang}\t{text}\n" for text, lang in samples), encoding="utf-8")
    calls.clear()
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        stage_langid_train(cfg, corpus)
    assert len(calls) == prepared
    # the previous models and manifest stay, and no partial file is left
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


# --- margin verdicts ---------------------------------------------------------
# The gate decides from score margins where a proven bound settles the
# answer, and scores exactly otherwise. A spy on ``_ranked`` shows which.


@pytest.fixture
def exact_calls(monkeypatch):
    """The number of exact scorings since the fixture was set up."""
    calls = []
    real_ranked = langid._ranked

    def spy(model, counters):
        calls.append(model)
        return real_ranked(model, counters)

    monkeypatch.setattr(langid, "_ranked", spy)
    return calls


def test_margins_decide_every_plain_case(model_pairs, exact_calls):
    # n up to 5 and a third language take the margin path, not the exact one
    for model_a, model_b in model_pairs:
        for model in (model_a, model_b):
            assert langid._margins_for(model, "ro") is not None
        for text in _STOCK_TEXTS:
            for threshold in (0.3, 0.5, 0.9):
                assert agreement_filter(text, model_a, model_b, "ro", threshold) \
                    == reference_agreement(text, model_a, model_b, "ro", threshold)
    assert exact_calls == []


def test_thin_margins_fall_back_to_exact_scoring(model_pairs, exact_calls):
    checked = 0
    for model_a, model_b in model_pairs:
        for text in _STOCK_TEXTS:
            top = classify(model_a, text)[0]
            if top.language != "ro":
                continue
            for threshold in (top.probability, math.nextafter(top.probability, 0.0),
                              math.nextafter(top.probability, 1.0), 1e-310):
                if not 0 < threshold < 1:
                    continue
                del exact_calls[:]
                got = agreement_filter(text, model_a, model_b, "ro", threshold)
                # model A's own top probability leaves it a margin of about 0
                assert exact_calls[:1] == [model_a]
                assert got == reference_agreement(text, model_a, model_b, "ro", threshold)
                checked += 1
    assert checked >= 20


def test_a_tie_breaks_by_language_code_on_the_exact_path(exact_calls):
    # equal priors and no known gram: every score is the prior, both
    # posteriors are exactly 0.5, and the code order picks the first
    samples = [("aaaa", "xx"), ("bbbb", "yy")]
    model_a, model_b = train(samples, (1, 1), 1.0), train(samples, (1, 2), 1.0)
    assert classify(model_a, "qqq") == [LangScore("xx", 0.5), LangScore("yy", 0.5)]
    del exact_calls[:]
    assert agreement_filter("qqq", model_a, model_b, "xx", 0.5)
    assert exact_calls == [model_a, model_b]
    del exact_calls[:]
    assert not agreement_filter("qqq", model_a, model_b, "yy", 0.5)
    assert exact_calls == [model_a]
    del exact_calls[:]
    # 0.5 is provably short of 0.6, whatever the order
    assert not agreement_filter("qqq", model_a, model_b, "xx", 0.6)
    assert exact_calls == []


def test_a_target_the_model_lacks_is_scored_exactly(model_pairs, exact_calls):
    model_a, model_b = model_pairs[0]
    assert langid._margins_for(model_a, "de") is None
    for text in _STOCK_TEXTS:
        assert not agreement_filter(text, model_a, model_b, "de", 0.3)
    assert exact_calls == [model_a] * len(_STOCK_TEXTS)


def test_margins_hold_where_rounding_decides_the_ranking(exact_calls):
    # two languages whose rows differ by 0 to 2 units of 1e-12, 1e-9 or
    # 1e-6, on scores near -1e5 whose own rounding is about 1e-11: at the
    # smallest unit the exact scores' rounding picks the first language,
    # and only the bound keeps the margins from answering
    rng = random.Random(61)
    decided = 0
    for _ in range(300):
        unit = rng.choice((1e-12, 1e-9, 1e-6))
        rows = {}
        for gram in "abcdefgh":
            value = -rng.uniform(1000, 3000)
            rows[gram] = (value, value + rng.randint(-2, 2) * unit)
        model = LangModel(["xx", "yy"], (1, 1), 1.0, {"xx": math.log(0.5), "yy": math.log(0.5)},
                          {"xx": -1e4, "yy": -1e4}, rows)
        text = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(20, 60)))
        for target in ("xx", "yy"):
            for threshold in (0.3, 0.5):
                before = len(exact_calls)
                assert agreement_filter(text, model, model, target, threshold) \
                    == reference_agreement(text, model, model, target, threshold)
                decided += len(exact_calls) == before
    assert 300 < decided < 900  # both paths answered many of the 1,200 calls


def test_margins_refuse_models_outside_the_proof():
    rows = {"a": (-1.0, -2.0), "b": (-2.0, -1.0)}
    priors = {"xx": -0.7, "yy": -0.7}
    unseen = {"xx": -3.0, "yy": -3.0}
    assert langid._margins_for(LangModel(["xx", "yy"], (1, 1), 1.0, priors, unseen, rows),
                               "xx") is not None
    for bad in (math.nan, math.inf, 1e-310):
        model = LangModel(["xx", "yy"], (1, 1), 1.0, priors, unseen,
                          {**rows, "c": (bad, -1.0)})
        assert langid._margins_for(model, "xx") is None
        assert agreement_filter("ab", model, model, "xx") \
            == reference_agreement("ab", model, model, "xx")
    twice = LangModel(["xx", "xx"], (1, 1), 1.0, priors, unseen, rows)
    assert langid._margins_for(twice, "xx") is None


# --- the benchmark's own traffic ------------------------------------------------


def test_margins_match_exact_scoring_on_benchmark_traffic(tmp_path, monkeypatch, exact_calls):
    """Every ingested tweet of the seed-0 ``archive`` and ``emoji-dense``
    workloads, through models trained as the benchmark's set-up trains
    them: the gate equals the exact reference at every threshold, and the
    margins settle nearly every call."""
    from tweetcorpus.ingest import parse_record
    from tweetcorpus.normalize import unescape_basic_entities
    from tweetcorpus.pipeline import build_config, stage_ingest, stage_langid_train

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    calls = 0
    for name in ("archive", "emoji-dense"):
        root = tmp_path / name
        inputs = workloads.generate(workloads.WORKLOADS[name], 0, root)
        cfg = build_config(overrides={"io.input": str(inputs.archive),
                                      "io.output_dir": str(root / "out")})
        stage_langid_train(cfg, inputs.langid_corpus, root / "models")
        models = [LangModel.load(root / "models" / f"model-{ab}.rlid") for ab in "ab"]
        for shard in stage_ingest(cfg).outputs:
            with open(root / "out" / "ingest" / shard, "rb") as fh:
                texts = [unescape_basic_entities(parse_record(line).text) for line in fh]
            for text in texts:
                try:
                    tops = [reference_classify(model, text)[0] for model in models]
                except DataError:
                    continue
                for threshold in (0.3, 0.5, 0.9):
                    expected = all(lang == "ro" and p >= threshold for lang, p in tops)
                    assert agreement_filter(text, *models, "ro", threshold) == expected
                    calls += 1
    assert calls > 18_000
    assert len(exact_calls) <= calls // 100
