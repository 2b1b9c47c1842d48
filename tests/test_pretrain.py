import io
import random
import struct
import zlib
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import tweetcorpus.pretrain as pretrain

from tweetcorpus.errors import (
    ConfigInvalid,
    CorruptRecord,
    DataError,
    VersionMismatch,
)
from tweetcorpus.pretrain import (
    BuildStats,
    PretrainConfig,
    PretrainInstance,
    build_instances,
    build_records,
    mask_sequence,
    mix64,
    read_header,
    read_records,
    tokenize_documents,
    write_records,
    write_records_jsonl,
)
from tweetcorpus.segment import Document
from tweetcorpus.vocab import MAX_WORD_CHARS, encode, wordpiece_tokenize

from conftest import RO_WORDS, make_documents


def test_config_validation():
    PretrainConfig().validate()
    with pytest.raises(ConfigInvalid):
        PretrainConfig(mask_token_frac=0.9).validate()
    with pytest.raises(ConfigInvalid):
        PretrainConfig(masked_lm_prob=0.0).validate()
    with pytest.raises(ConfigInvalid):
        PretrainConfig(dupe_factor=0).validate()
    with pytest.raises(ConfigInvalid):
        PretrainConfig(max_seq_length=4).validate()


def test_mask_requires_candidates(word_vocab):
    rng = random.Random(0)
    with pytest.raises(DataError, match=r"sequence contains only \[CLS\]/\[SEP\]"):
        mask_sequence([word_vocab.cls_id, word_vocab.sep_id],
                      word_vocab, PretrainConfig(), rng)


def test_mask_replay_oracle(word_vocab):
    """Replay the documented RNG protocol step by step: 3 of 17
    candidates, Random.sample's pool branch."""
    _replay_mask_protocol(word_vocab, n_candidates=17, max_predictions=5)


def test_mask_replay_oracle_set_branch(word_vocab):
    """18 of 120 candidates: more than Random.sample's set size of 85,
    so it takes the set branch."""
    _replay_mask_protocol(word_vocab, n_candidates=120, max_predictions=20)


def _replay_mask_protocol(word_vocab, n_candidates, max_predictions):
    cfg = PretrainConfig(max_predictions_per_seq=max_predictions, seed=0)
    v = word_vocab
    words = [v.id_of[t] for t in RO_WORDS]
    body = [words[i % len(words)] for i in range(n_candidates)]
    ids = [v.cls_id] + body[:8] + [v.sep_id] + body[8:] + [v.sep_id]

    rng = random.Random(99)
    got = mask_sequence(ids, v, cfg, rng)
    got_state = rng.getstate()

    rng = random.Random(99)
    candidates = [i for i, t in enumerate(ids) if t not in (v.cls_id, v.sep_id)]
    assert len(candidates) == n_candidates
    k = min(cfg.max_predictions_per_seq,
            max(1, int(round(cfg.masked_lm_prob * len(candidates)))))
    positions = sorted(rng.sample(candidates, k))
    expect_masked = list(ids)
    expect_labels = []
    pool = v.replacement_pool
    for pos in positions:
        expect_labels.append(ids[pos])
        r = rng.random()
        if r < 0.8:
            expect_masked[pos] = v.mask_id
        elif r < 0.9:
            pass
        else:
            expect_masked[pos] = pool[rng.randrange(len(pool))]

    assert got == (expect_masked, positions, expect_labels)
    assert got_state == rng.getstate()


def test_draws_come_from_getrandbits():
    """_below and _sample repeat the draws of Random._randbelow_with_getrandbits;
    if Random._randbelow is anything else, pretrain's in-place draws no
    longer match the random.Random methods they stand for."""
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits, (
        "random.Random draws differently on this interpreter: pretrain._below "
        "and pretrain._sample must be brought in line with it")


def _equal_draws(seed, ours, theirs):
    """``ours(getrandbits)`` and ``theirs(rng)`` from the same seed: their
    results and the generators' states afterwards."""
    mine, reference = random.Random(seed), random.Random(seed)
    got = ours(mine.getrandbits)
    want = theirs(reference)
    return got, want, mine.getstate(), reference.getstate()


def _assert_sample_like_random(seed, n, k):
    population = list(range(1000, 1000 + n))
    got, want, state, reference_state = _equal_draws(
        seed, lambda bits: pretrain._sample(bits, population, k),
        lambda rng: rng.sample(population, k))
    assert got == want
    assert state == reference_state
    assert population == list(range(1000, 1000 + n))


# Random.sample swaps in a pool when n <= 21, or n <= 21 + 4 ** ceil(log(3k, 4))
# for k > 5 (85 for k in 6..21, 277 for k in 22..85), and else rejects
# indices already in a set: n = 1, k = n, and each side of both sizes.
@pytest.mark.parametrize("n, k", [
    (1, 0), (1, 1), (5, 5), (21, 5), (22, 5), (21, 21), (22, 1),
    (85, 6), (86, 6), (85, 21), (86, 21), (120, 18), (277, 22), (278, 22),
])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1))
def test_sample_makes_the_draws_of_random_sample_at_the_edges(n, k, seed):
    _assert_sample_like_random(seed, n, k)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), data=st.data())
def test_sample_makes_the_draws_of_random_sample(seed, data):
    n = data.draw(st.integers(1, 300), label="n")
    _assert_sample_like_random(seed, n, data.draw(st.integers(0, min(n, 40)), label="k"))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(1, 2 ** 40),
       low=st.integers(-5, 5))
@example(seed=0, n=1, low=0)
@example(seed=0, n=2 ** 31, low=1)
def test_below_makes_the_draws_of_randrange_and_randint(seed, n, low):
    for ours, theirs in [
        (lambda bits: pretrain._below(bits, n), lambda rng: rng.randrange(n)),
        (lambda bits: low + pretrain._below(bits, n), lambda rng: rng.randint(low, low + n - 1)),
    ]:
        got, want, state, reference_state = _equal_draws(seed, ours, theirs)
        assert got == want
        assert state == reference_state


@settings(max_examples=300, deadline=None)
@given(data=st.data(), a_len=st.integers(1, 60), b_len=st.integers(1, 60),
       max_predictions=st.integers(1, 40), masked_lm_prob=st.floats(0.01, 0.99),
       seed=st.integers(0, 2 ** 64 - 1))
def test_layout_candidates_mask_like_the_scan(word_vocab, data, a_len, b_len,
                                              max_predictions, masked_lm_prob, seed):
    v = word_vocab
    token = st.integers(0, len(v) - 1).filter(lambda t: t not in (v.cls_id, v.sep_id))
    tokens_a = data.draw(st.lists(token, min_size=a_len, max_size=a_len))
    tokens_b = data.draw(st.lists(token, min_size=b_len, max_size=b_len))
    ids = [v.cls_id, *tokens_a, v.sep_id, *tokens_b, v.sep_id]
    layout = [*range(1, a_len + 1), *range(a_len + 2, len(ids) - 1)]
    cfg = PretrainConfig(max_predictions_per_seq=max_predictions,
                         masked_lm_prob=masked_lm_prob)
    scan_rng, layout_rng = random.Random(seed), random.Random(seed)
    assert (mask_sequence(ids, v, cfg, layout_rng, candidates=layout)
            == mask_sequence(ids, v, cfg, scan_rng))
    assert layout_rng.getstate() == scan_rng.getstate()


def test_mask_statistics_smoke(word_vocab):
    cfg = PretrainConfig(max_predictions_per_seq=40, seed=1)
    v = word_vocab
    rng = random.Random(1)
    pool = [i for i in range(len(v)) if i not in
            (v.cls_id, v.sep_id, v.mask_id, v.pad_id)]
    total_candidates = selected = masked = kept = randomized = 0
    for _ in range(1500):
        body = [rng.choice(pool) for _ in range(100)]
        ids = [v.cls_id] + body[:50] + [v.sep_id] + body[50:] + [v.sep_id]
        out, positions, labels = mask_sequence(ids, v, cfg, rng)
        total_candidates += 100
        selected += len(positions)
        for pos, label in zip(positions, labels):
            if out[pos] == v.mask_id:
                masked += 1
            elif out[pos] == label:
                kept += 1
            else:
                randomized += 1
    assert selected / total_candidates == pytest.approx(0.15, abs=0.01)
    assert masked / selected == pytest.approx(0.8, abs=0.03)
    assert kept / selected == pytest.approx(0.1, abs=0.02)
    assert randomized / selected == pytest.approx(0.1, abs=0.02)


def test_mask_lossless_restoration(word_vocab):
    rng = random.Random(4)
    cfg = PretrainConfig()
    v = word_vocab
    pool = v.replacement_pool
    for _ in range(500):
        body = [rng.choice(pool) for _ in range(rng.randint(4, 60))]
        ids = [v.cls_id] + body + [v.sep_id]
        out, positions, labels = mask_sequence(ids, v, cfg, rng)
        restored = list(out)
        for pos, label in zip(positions, labels):
            restored[pos] = label
        assert restored == ids


def test_too_few_documents(word_vocab):
    docs = [Document(("salut lume",))]
    with pytest.raises(DataError, match="need at least 2 tokenizable documents"):
        list(build_instances(docs, word_vocab, PretrainConfig()))


def test_degenerate_documents_counted(word_vocab):
    # whitespace-only sentences tokenize to nothing; unmatchable words
    # become [UNK] and keep the document alive
    docs = [Document((" ", "  "))] + make_documents(random.Random(0), 3)
    stats = BuildStats()
    list(build_instances(docs, word_vocab, PretrainConfig(max_seq_length=32), stats=stats))
    assert stats.documents == 4
    assert stats.degenerate_documents == 1


def _reference_tokenize(documents, vocab, stats):
    """tokenize_documents as one WordPiece call per sentence."""
    out = []
    for doc in documents:
        stats.documents += 1
        sentences = [ids for ids in (encode(wordpiece_tokenize(s, vocab), vocab)
                                     for s in doc) if ids]
        if sentences:
            out.append(sentences)
        else:
            stats.degenerate_documents += 1
    return out


# Pieces of the toy vocabulary, text no piece covers, literal structural
# tokens, and every kind of whitespace str.split breaks on, U+001C-U+001F
# included.
_FRAGMENTS = ("salut", "are", "ul", "lume", "Ce", "faci", "a", "b", "c", "un", "vrem",
              "x", "ț", "!", "[CLS]", "[SEP]", "[UNK]", "[MASK]", "USER",
              "b" * 60, "salut" * 21, " ", "  ", "\t", "\x0b", "\x0c", "\r",
              "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u00a0", "\u2003", "\u3000")
_SENTENCES = st.lists(st.sampled_from(_FRAGMENTS), min_size=1, max_size=12).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_SENTENCES, min_size=1, max_size=4), max_size=6))
def test_tokenize_documents_matches_per_sentence_wordpiece(toy_vocab, docs):
    documents = [Document(tuple(sentences)) for sentences in docs]
    got_stats, want_stats = BuildStats(), BuildStats()
    got = tokenize_documents(documents, toy_vocab, got_stats)
    assert got == _reference_tokenize(documents, toy_vocab, want_stats)
    assert got_stats == want_stats


def test_tokenize_documents_edge_words(toy_vocab):
    v = toy_vocab
    long_word = "a" * (MAX_WORD_CHARS + 1)
    docs = [Document((f"salutare [CLS] x\x1fsalutul {long_word} salutare",))]
    assert tokenize_documents(docs, v) == [[[
        v.id_of["salut"], v.id_of["##are"], v.cls_id, v.unk_id,
        v.id_of["salut"], v.id_of["##ul"], v.unk_id, v.id_of["salut"], v.id_of["##are"]]]]


def _build(docs, vocab, cfg, workers=1):
    return list(build_instances(docs, vocab, cfg, workers=workers))


def test_rerun_equality(word_vocab):
    docs = make_documents(random.Random(8), 30)
    cfg = PretrainConfig(max_seq_length=48, max_predictions_per_seq=7,
                         dupe_factor=3, seed=7)
    assert _build(docs, word_vocab, cfg) == _build(docs, word_vocab, cfg)


def test_worker_count_does_not_change_output(word_vocab):
    docs = make_documents(random.Random(9), 24)
    cfg = PretrainConfig(max_seq_length=48, max_predictions_per_seq=7,
                         dupe_factor=2, seed=3)
    assert _build(docs, word_vocab, cfg, workers=1) == _build(docs, word_vocab, cfg, workers=3)


def test_seed_changes_output(word_vocab):
    docs = make_documents(random.Random(10), 10)
    a = _build(docs, word_vocab, PretrainConfig(max_seq_length=48, seed=1, dupe_factor=1))
    b = _build(docs, word_vocab, PretrainConfig(max_seq_length=48, seed=2, dupe_factor=1))
    assert a != b


def test_instance_shape_invariants(word_vocab):
    docs = make_documents(random.Random(11), 40)
    cfg = PretrainConfig(max_seq_length=32, max_predictions_per_seq=5,
                         dupe_factor=2, seed=5)
    v = word_vocab
    instances = _build(docs, v, cfg)
    assert instances
    for inst in instances:
        n = len(inst.token_ids)
        assert n <= cfg.max_seq_length
        assert len(inst.segment_ids) == n
        assert inst.token_ids[0] == v.cls_id
        assert inst.token_ids.count(v.sep_id) == 2
        assert inst.token_ids[-1] == v.sep_id
        assert 1 <= len(inst.masked_positions) <= cfg.max_predictions_per_seq
        assert list(inst.masked_positions) == sorted(set(inst.masked_positions))
        for pos in inst.masked_positions:
            assert 0 < pos < n
            assert pos != inst.segment_ids.index(1) - 1  # not the first [SEP]
        # segment ids: zeros then ones
        flips = sum(1 for a, b in zip(inst.segment_ids, inst.segment_ids[1:]) if a != b)
        assert flips == 1


def test_real_next_pairs_are_adjacent(word_vocab):
    """With every sentence one unique token, provenance is decodable."""
    v = word_vocab
    words = sorted(w for w in v.tokens if w.islower() and w.isalpha())
    assert len(words) >= 40
    docs, origin = [], {}
    for d in range(10):
        sentence_words = words[d * 4:(d + 1) * 4]
        for s, w in enumerate(sentence_words):
            origin[v.id_of[w]] = (d, s)
        docs.append(Document(tuple(sentence_words)))

    cfg = PretrainConfig(max_seq_length=9, max_predictions_per_seq=1,
                         masked_lm_prob=0.01, dupe_factor=4, seed=2,
                         short_seq_prob=0.5)
    for inst in build_instances(docs, v, cfg):
        # undo masking for provenance lookup
        ids = list(inst.token_ids)
        for pos, label in zip(inst.masked_positions, inst.masked_label_ids):
            ids[pos] = label
        sep1 = ids.index(v.sep_id)
        a_ids = ids[1:sep1]
        b_ids = ids[sep1 + 1:-1]
        if not inst.is_random_next:
            last_a = origin[a_ids[-1]]
            first_b = origin[b_ids[0]]
            assert first_b == (last_a[0], last_a[1] + 1), (last_a, first_b)


def test_dupe_factor_scales_instance_count(word_vocab):
    docs = make_documents(random.Random(12), 200)
    base = len(_build(docs, word_vocab, PretrainConfig(max_seq_length=48, dupe_factor=1, seed=3)))
    ten = len(_build(docs, word_vocab, PretrainConfig(max_seq_length=48, dupe_factor=10, seed=3)))
    assert abs(ten - 10 * base) <= 0.05 * 10 * base


def test_nsp_balance_rough(word_vocab):
    # short documents skew above the coin rate: every forced-random tail
    # chunk adds a random-next instance, so this is only a sanity band;
    # the calibrated measurement lives in the acceptance suite
    docs = make_documents(random.Random(13), 400, sentences=(3, 5), words=(4, 7))
    cfg = PretrainConfig(max_seq_length=128, dupe_factor=3, seed=11)
    instances = _build(docs, word_vocab, cfg)
    frac = sum(i.is_random_next for i in instances) / len(instances)
    assert 0.45 <= frac <= 0.65


def _records_via_instances(docs, vocab, cfg, workers):
    buf = io.BytesIO()
    stats = BuildStats()
    count = write_records(build_instances(docs, vocab, cfg, workers=workers, stats=stats),
                          buf, cfg)
    return buf.getvalue(), count, stats


@pytest.mark.parametrize("documents, dupe_factor, chunk_pairs", [
    (13, 2, 5),     # 26 pairs: five full chunks and one of one pair
    (24, 3, 512),   # all pairs in one chunk
    (2, 1, 512),    # two pairs, fewer than three workers
    (3, 1, 1),      # one pair per chunk
])
def test_build_records_equals_written_instances(word_vocab, monkeypatch, documents,
                                                dupe_factor, chunk_pairs):
    docs = make_documents(random.Random(documents), documents)
    cfg = PretrainConfig(max_seq_length=32, max_predictions_per_seq=5,
                         dupe_factor=dupe_factor, seed=4)
    monkeypatch.setattr(pretrain, "CHUNK_PAIRS", 10 ** 9)  # the reference: one chunk
    want, want_count, want_stats = _records_via_instances(docs, word_vocab, cfg, 1)
    assert want_count == want_stats.instances > 0
    monkeypatch.setattr(pretrain, "CHUNK_PAIRS", chunk_pairs)
    for workers in (1, 2, 3):
        assert _records_via_instances(docs, word_vocab, cfg, workers) == (
            want, want_count, want_stats)
        buf = io.BytesIO()
        stats = BuildStats()
        assert build_records(docs, word_vocab, cfg, buf, workers=workers,
                             stats=stats) == want_count
        assert buf.getvalue() == want
        assert stats == want_stats
        assert _build(docs, word_vocab, cfg, workers) == list(read_records(io.BytesIO(want)))


def _scanning_mask_sequence(token_ids, vocab, cfg, rng, candidates=None):
    """mask_sequence that ignores the layout candidates it is given."""
    return mask_sequence(token_ids, vocab, cfg, rng)


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       structural=st.sampled_from([(), ("[CLS]",), ("[SEP]",), ("[CLS]", "[SEP]")]),
       max_seq_length=st.integers(5, 40), dupe_factor=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32))
def test_layout_candidates_change_no_record(word_vocab, data, structural, max_seq_length,
                                            dupe_factor, seed):
    """Records are the same bytes whether masking takes its candidates
    from the layout or scans for them, with and without literal
    [CLS]/[SEP] words in the shard."""
    plain = st.sampled_from(RO_WORDS[:8])
    word = st.sampled_from(RO_WORDS[:8] + list(structural))
    sentence = st.builds(lambda first, rest: " ".join([first, *rest]),
                         plain, st.lists(word, max_size=7))
    docs = [Document(tuple(sentences)) for sentences in data.draw(
        st.lists(st.lists(sentence, min_size=1, max_size=4), min_size=2, max_size=6))]
    cfg = PretrainConfig(max_seq_length=max_seq_length, max_predictions_per_seq=6,
                         dupe_factor=dupe_factor, seed=seed)
    fast, scanned = io.BytesIO(), io.BytesIO()
    count = build_records(docs, word_vocab, cfg, fast)
    with mock.patch.object(pretrain, "mask_sequence", _scanning_mask_sequence):
        assert build_records(docs, word_vocab, cfg, scanned) == count
    assert fast.getvalue() == scanned.getvalue()


def test_build_records_needs_two_documents(word_vocab, tmp_path):
    with pytest.raises(DataError, match="need at least 2 tokenizable documents"):
        build_records([Document(("salut lume",))], word_vocab, PretrainConfig(),
                      tmp_path / "out.rbtw")


# --- records -----------------------------------------------------------------


def _random_instance(rng: random.Random, cfg: PretrainConfig) -> PretrainInstance:
    n = rng.randint(5, cfg.max_seq_length)
    a_len = rng.randint(1, n - 4)
    ids = [1] + [rng.randint(5, 5000) for _ in range(n - 3)] + [2, 2]
    segs = [0] * (a_len + 2) + [1] * (n - a_len - 2)
    m = rng.randint(1, min(cfg.max_predictions_per_seq, n - 3))
    positions = sorted(rng.sample(range(1, n - 2), m))
    labels = [rng.randint(5, 5000) for _ in range(m)]
    return PretrainInstance(tuple(ids[:n]), tuple(segs[:n]), bool(rng.getrandbits(1)),
                            tuple(positions), tuple(labels))


def test_records_roundtrip_single():
    cfg = PretrainConfig()
    inst = _random_instance(random.Random(0), cfg)
    buf = io.BytesIO()
    assert write_records([inst], buf, cfg) == 1
    buf.seek(0)
    assert list(read_records(buf)) == [inst]


def test_records_roundtrip_many_and_reserialization():
    cfg = PretrainConfig()
    rng = random.Random(1)
    instances = [_random_instance(rng, cfg) for _ in range(1000)]
    buf = io.BytesIO()
    write_records(instances, buf, cfg)
    data1 = buf.getvalue()
    back = list(read_records(io.BytesIO(data1)))
    assert back == instances
    buf2 = io.BytesIO()
    write_records(back, buf2, cfg)
    assert buf2.getvalue() == data1


def test_records_empty_stream_header_only():
    cfg = PretrainConfig(max_seq_length=64, max_predictions_per_seq=9)
    buf = io.BytesIO()
    assert write_records([], buf, cfg) == 0
    buf.seek(0)
    header = read_header(buf)
    assert header.max_seq_length == 64
    assert header.max_predictions_per_seq == 9
    buf.seek(0)
    assert list(read_records(buf)) == []


def test_records_header_self_describes():
    cfg = PretrainConfig(max_seq_length=32, max_predictions_per_seq=4)
    rng = random.Random(2)
    buf = io.BytesIO()
    write_records([_random_instance(rng, cfg) for _ in range(3)], buf, cfg)
    buf.seek(0)
    out = []
    next(read_records(buf, header_out=out))  # filled before the first instance
    assert out[0].max_seq_length == 32
    assert out[0].max_predictions_per_seq == 4


def test_every_byte_flip_is_detected():
    cfg = PretrainConfig(max_seq_length=24, max_predictions_per_seq=4)
    rng = random.Random(3)
    buf = io.BytesIO()
    write_records([_random_instance(rng, cfg) for _ in range(4)], buf, cfg)
    data = buf.getvalue()
    for offset in range(len(data)):
        corrupted = bytearray(data)
        corrupted[offset] ^= 0x40
        with pytest.raises(CorruptRecord):
            list(read_records(io.BytesIO(bytes(corrupted))))


def test_version_mismatch_with_valid_header_crc():
    import struct
    import zlib
    header = struct.pack("<4sHII", b"RBTW", 2, 128, 20)
    data = header + struct.pack("<I", zlib.crc32(header))
    with pytest.raises(VersionMismatch):
        list(read_records(io.BytesIO(data)))


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
def test_reading_in_blocks_gives_the_same_instances(monkeypatch, block):
    cfg = PretrainConfig(max_seq_length=48, max_predictions_per_seq=6)
    rng = random.Random(6)
    instances = [_random_instance(rng, cfg) for _ in range(40)]
    buf = io.BytesIO()
    write_records(instances, buf, cfg)
    monkeypatch.setattr(pretrain, "RECORD_BLOCK", block)
    assert list(read_records(io.BytesIO(buf.getvalue()))) == instances


def test_truncated_file_detected(monkeypatch):
    cfg = PretrainConfig()
    buf = io.BytesIO()
    write_records([_random_instance(random.Random(4), cfg)], buf, cfg)
    data = buf.getvalue()
    with pytest.raises(CorruptRecord):
        list(read_records(io.BytesIO(data[:len(data) - 3])))
    with pytest.raises(CorruptRecord):
        list(read_records(io.BytesIO(data[:10])))

    # a cut at every offset of a 3-record file, whatever the read size
    cfg = PretrainConfig(max_seq_length=12, max_predictions_per_seq=3)
    instances = [_random_instance(random.Random(k), cfg) for k in range(3)]
    buf = io.BytesIO()
    write_records(instances, buf, cfg)
    data = buf.getvalue()
    starts, at = [], 18  # the header and its CRC
    while at < len(data):
        starts.append(at)
        at += 8 + struct.unpack_from("<I", data, at)[0]
    for block in (1, 7, 64, 1 << 20):
        monkeypatch.setattr(pretrain, "RECORD_BLOCK", block)
        for cut in range(len(data)):
            whole = sum(1 for start in starts if start <= cut)
            if cut < 18:
                message = "file too short for a record header"
            elif cut in starts:
                assert list(read_records(io.BytesIO(data[:cut]))) == instances[:whole - 1]
                continue
            elif cut - starts[whole - 1] < 4:
                message = "truncated record length prefix"
            else:
                message = "truncated record body"
            with pytest.raises(CorruptRecord, match=f"^{message}$"):
                list(read_records(io.BytesIO(data[:cut])))


def _frame(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload + struct.pack("<I", zlib.crc32(payload))


def _payload(ids, segs, flag, positions, labels) -> bytes:
    n, m = len(ids), len(positions)
    return struct.pack(f"<I{n}I{n}BBI{m}I{m}I", n, *ids, *segs, flag, m, *positions, *labels)


@pytest.mark.parametrize("payload", [
    _payload((1, 7, 2), (0, 0, 1), 1, (1,), (9,)) + b"\x00",  # trailing byte
    _payload((1, 7, 2), (0, 0, 1), 1, (1,), (9,))[:-1],       # label cut short
    struct.pack("<I", 50) + bytes(20),                          # n beyond the payload
    b"\x03\x00",                                                # no room for n
    _payload((1,) * 9, (0,) * 9, 0, (1,), (9,)),               # n > max_seq_length
    _payload((1, 7, 7, 2), (0, 0, 0, 1), 0, (1, 2, 3), (9, 9, 9)),  # m > max predictions
])
def test_reader_rejects_inconsistent_payload_with_valid_crc(payload):
    header = struct.pack("<4sHII", b"RBTW", 1, 8, 2)
    data = header + struct.pack("<I", zlib.crc32(header)) + _frame(payload)
    with pytest.raises(CorruptRecord):
        list(read_records(io.BytesIO(data)))


def test_reader_accepts_a_handmade_payload():
    header = struct.pack("<4sHII", b"RBTW", 1, 8, 2)
    payload = _payload((1, 7, 2, 8, 2), (0, 0, 0, 1, 1), 1, (1, 3), (9, 4))
    data = header + struct.pack("<I", zlib.crc32(header)) + _frame(payload)
    assert list(read_records(io.BytesIO(data))) == [
        PretrainInstance((1, 7, 2, 8, 2), (0, 0, 0, 1, 1), True, (1, 3), (9, 4))]


def test_write_rejects_oversized_instance():
    cfg = PretrainConfig(max_seq_length=8, max_predictions_per_seq=2)
    big = PretrainInstance(tuple(range(20)), tuple([0] * 20), False, (1,), (1,))
    with pytest.raises(DataError):
        write_records([big], io.BytesIO(), cfg)


def test_write_rejects_segment_ids_not_matching_tokens():
    cfg = PretrainConfig(max_seq_length=8, max_predictions_per_seq=2)
    short = PretrainInstance((1, 7, 2, 8, 2), (0, 0, 1, 1), False, (1,), (9,))
    with pytest.raises(DataError):
        write_records([short], io.BytesIO(), cfg)


def test_write_rejects_labels_not_matching_positions():
    cfg = PretrainConfig(max_seq_length=8, max_predictions_per_seq=2)
    extra = PretrainInstance((1, 7, 2, 8, 2), (0, 0, 0, 1, 1), False, (1,), (9, 4))
    with pytest.raises(DataError):
        write_records([extra], io.BytesIO(), cfg)


def test_jsonl_emitter_mirrors_fields(tmp_path):
    import dataclasses
    import json
    cfg = PretrainConfig()
    rng = random.Random(5)
    instances = [_random_instance(rng, cfg) for _ in range(5)]
    path = tmp_path / "debug.jsonl"
    assert write_records_jsonl(instances, path, cfg) == 5
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["max_seq_length"] == cfg.max_seq_length
    rows = [json.loads(line) for line in lines[1:]]
    assert rows == [json.loads(json.dumps(dataclasses.asdict(inst))) for inst in instances]


def _mix64_bytewise(seed, *parts):
    """mix64 as first written: every part's 8 little-endian bytes folded one at a time."""
    mask, prime = 2 ** 64 - 1, 0x100000001B3
    h = 0xCBF29CE484222325
    for word in (seed, *parts):
        for b in (word & mask).to_bytes(8, "little"):
            h = ((h ^ b) * prime) & mask
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & mask
    h ^= h >> 33
    return h


_MIX_EDGES = (0, 1, 255, 256, 65535, 2 ** 56 - 1, 2 ** 56, 2 ** 63, 2 ** 64 - 1, 2 ** 64,
              2 ** 64 + 255, 2 ** 80 + 3, -1, -255, -256, -(2 ** 56), -(2 ** 63), -(2 ** 64))


@pytest.mark.parametrize("value", _MIX_EDGES)
def test_mix64_equals_bytewise_fold_on_edges(value):
    for args in ((value,), (value, 0), (0, value), (7, value, 3), (value, value, value)):
        assert mix64(*args) == _mix64_bytewise(*args), args


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(-(2 ** 70), 2 ** 70), min_size=1, max_size=5))
def test_mix64_equals_bytewise_fold(args):
    assert mix64(*args) == _mix64_bytewise(*args)


def test_seed_mixing_distinguishes_doc_and_dupe():
    seen = {mix64(7, i, d) for i in range(100) for d in range(10)}
    assert len(seen) == 1000
    assert mix64(7, 1, 2) != mix64(7, 2, 1)
    assert mix64(7, 1, 2) == mix64(7, 1, 2)
