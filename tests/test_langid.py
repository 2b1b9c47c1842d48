import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tweetcorpus import langid
from tweetcorpus.errors import EmptyAfterStripping, EmptySample, InsufficientLanguages
from tweetcorpus.langid import LangModel, agreement_filter, classify, train

from conftest import EN_WORDS, RO_WORDS, make_bilingual_samples, make_text


def test_disjoint_alphabets_force_ranking():
    model = train([("aaaa", "xx"), ("bbbb", "yy")], (1, 1), 1.0)
    scores = classify(model, "aaa")
    assert scores[0].language == "xx"
    assert scores[0].probability > 0.5
    assert scores[1].probability < 0.5


def test_single_language_rejected():
    with pytest.raises(InsufficientLanguages):
        train([("aaa", "xx"), ("aab", "xx")])


def test_empty_sample_rejected():
    with pytest.raises(EmptySample):
        train([("   ", "xx"), ("bbb", "yy")])


def test_classify_empty_after_stripping():
    model = train([("aaaa", "xx"), ("bbbb", "yy")], (1, 1), 1.0)
    model_b = train([("aaaa", "xx"), ("bbbb", "yy")], (1, 2), 1.0)
    for text in ("", "123 456", "USER HTTPURL HASHTAG", "USER 99"):
        with pytest.raises(EmptyAfterStripping):
            classify(model, text)
        with pytest.raises(EmptyAfterStripping):
            agreement_filter(text, model, model_b, "xx")


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


def test_training_is_permutation_invariant():
    rng = random.Random(9)
    samples = make_bilingual_samples(rng, 50)
    shuffled = samples[:]
    rng.shuffle(shuffled)
    a = train(samples, (1, 2), 1.0)
    b = train(shuffled, (1, 2), 1.0)
    text = make_text(rng, RO_WORDS, 6)
    pa = {s.language: s.probability for s in classify(a, text)}
    pb = {s.language: s.probability for s in classify(b, text)}
    for lang in pa:
        assert pa[lang] == pytest.approx(pb[lang], abs=1e-9)


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
    from tweetcorpus.errors import CorruptRecord, VersionMismatch

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


def test_likelihoods_sum_to_one_per_language():
    import math
    rng = random.Random(51)
    samples = make_bilingual_samples(rng, 30)
    model = train(samples, (1, 2), 0.7)
    for lang in model.languages:
        table = model.log_likelihoods[lang]
        unseen = model.log_unseen[lang]
        mass = sum(math.exp(table.get(gram, unseen)) for gram in model.vocabulary)
        assert mass == pytest.approx(1.0, abs=1e-9)


def test_ngram_range_validation():
    samples = [("aaaa", "xx"), ("bbbb", "yy")]
    with pytest.raises(ValueError):
        train(samples, (0, 2))
    with pytest.raises(ValueError):
        train(samples, (3, 2))
    with pytest.raises(ValueError):
        train(samples, (1, 6))
    with pytest.raises(ValueError):
        train(samples, (1, 1), smoothing_alpha=0)


# --- reference classifier ----------------------------------------------------
# The dict-per-language scoring loop the row tables replaced. Scores must be
# equal to the last bit, not approximately.


def reference_classify(model, text):
    stripped = langid._prepare(text)
    if not stripped:
        raise EmptyAfterStripping(text)
    grams = Counter()
    min_n, max_n = model.ngram_range
    for n in range(min_n, max_n + 1):
        for i in range(len(stripped) - n + 1):
            grams[stripped[i:i + n]] += 1
    known = [(gram, count) for gram, count in grams.items() if gram in model.vocabulary]
    scores = {}
    for lang in model.languages:
        table = model.log_likelihoods[lang]
        unseen = model.log_unseen[lang]
        total = model.log_priors[lang]
        for gram, count in known:
            total += count * table.get(gram, unseen)
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


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(alphabet="salutmrebinhowdyzq ăâșț1234", min_size=1),
                 st.sampled_from(_STOCK_TEXTS)))
def test_row_tables_match_reference_exactly(model_pairs, text):
    for model_a, model_b in model_pairs:
        try:
            expected = [reference_classify(m, text) for m in (model_a, model_b)]
        except EmptyAfterStripping:
            for model in (model_a, model_b):
                with pytest.raises(EmptyAfterStripping):
                    classify(model, text)
            with pytest.raises(EmptyAfterStripping):
                agreement_filter(text, model_a, model_b, "ro")
            continue
        for model, ranked in zip((model_a, model_b), expected):
            assert [(s.language, s.probability) for s in classify(model, text)] == ranked
        for threshold in (0.3, 0.5, 0.9):
            for first, second in ((model_a, model_b), (model_b, model_a)):
                assert agreement_filter(text, first, second, "ro", threshold) \
                    == reference_agreement(text, first, second, "ro", threshold)
