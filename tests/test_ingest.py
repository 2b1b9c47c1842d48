import hashlib
import json
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from tweetcorpus.errors import MalformedRecord
from tweetcorpus.ingest import (
    DedupState,
    IngestStats,
    RawTweet,
    dedup,
    parse_record,
    read_archive,
    serialize_record,
    text_dedup_key,
)
from tweetcorpus.pipeline import build_config, stage_ingest

from conftest import HOSTILE_LINES


def test_parse_basic_fields():
    t = parse_record('{"id":1,"text":"salut","lang":"ro"}')
    assert t == RawTweet(id=1, text="salut", created_at=0, declared_lang="ro")


def test_parse_missing_text_is_malformed():
    with pytest.raises(MalformedRecord):
        parse_record('{"id":2}')


def test_parse_timestamp():
    t = parse_record('{"id":3,"text":"a","created_at":"2008-01-01T00:00:00Z"}')
    assert t.created_at == 1199145600
    # a timestamp with no offset is read as UTC
    t = parse_record('{"id":3,"text":"a","created_at":"2008-01-01T00:00:00"}')
    assert t.created_at == 1199145600


@pytest.mark.parametrize("line", [
    "not json",
    '{"text":"a"}',
    '{"id":-1,"text":"a"}',
    '{"id":1.5,"text":"a"}',
    '{"id":"abc","text":"a"}',
    '{"id":1,"text":""}',
    '{"id":1,"text":42}',
    '{"id":1,"text":"a","created_at":"yesterday"}',
    '{"id":1,"text":"a","created_at":1199145600}',
    '{"id":1,"text":"a","lang":5}',
    '{"id":true,"text":"a"}',
    '[1,2]',
])
def test_parse_rejects_malformed(line):
    with pytest.raises(MalformedRecord):
        parse_record(line)


def test_parse_decimal_string_id():
    assert parse_record('{"id":"99","text":"a"}').id == 99


@pytest.mark.parametrize("tweet_id", ["0", "18446744073709551615", "00000000000000000007"])
def test_parse_accepts_an_id_of_at_most_20_ascii_digits(tweet_id):
    assert parse_record(json.dumps({"id": tweet_id, "text": "a"})).id == int(tweet_id)


@pytest.mark.parametrize("tweet_id", ["000000000000000000007", "18446744073709551616", "+7", " 7"])
def test_parse_rejects_a_longer_or_signed_id_string(tweet_id):
    with pytest.raises(MalformedRecord, match="id must be"):
        parse_record(json.dumps({"id": tweet_id, "text": "a"}))


@pytest.mark.parametrize("name", sorted(HOSTILE_LINES))
def test_parse_rejects_a_hostile_line_as_malformed(name):
    line = HOSTILE_LINES[name]
    for form in (line, line.encode("utf-8")):
        with pytest.raises(MalformedRecord):
            parse_record(form)


@pytest.mark.parametrize("name", sorted(HOSTILE_LINES))
def test_read_archive_counts_a_hostile_line_as_malformed(tmp_path, name):
    path = tmp_path / "archive.jsonl"
    path.write_text('{"id":1,"text":"inainte"}\n' + HOSTILE_LINES[name]
                    + '\n{"id":2,"text":"dupa"}\n', encoding="utf-8")
    stats = IngestStats()
    assert [t.text for t in read_archive(path, stats)] == ["inainte", "dupa"]
    assert (stats.read, stats.malformed) == (3, 1)


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("data", [
    b'  {"id":1,"text":"a"}  \r\n\n\t\nnot json\n{"id":2,"text":"b"}',
    BOM + b'{"id":1,"text":"a"}\n{"id":2,"text":"b"}\n',
], ids=["blank-and-bad-lines", "byte-order-mark"])
def test_the_ingest_manifest_digests_every_byte_of_the_archive(tmp_path, data):
    path = tmp_path / "archive.jsonl"
    path.write_bytes(data)
    out = tmp_path / "out"
    manifest = stage_ingest(build_config(overrides={"io.input": str(path),
                                                    "io.output_dir": str(out)}))
    assert manifest.counts["emitted"] == 2
    expected = {str(path): hashlib.sha256(data).hexdigest()}  # a leading mark included
    assert manifest.inputs == expected
    assert json.loads((out / "ingest" / "manifest-ingest.json").read_text())["inputs"] == expected


def test_read_archive_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "archive.jsonl"
    path.write_bytes(BOM + b'{"id":1,"text":"a"}\n{"id":2,"text":"b"}\n')
    stats = IngestStats()
    assert [t.id for t in read_archive(path, stats)] == [1, 2]
    assert (stats.read, stats.malformed) == (2, 0)


def test_read_archive_counts_a_later_byte_order_mark_as_malformed(tmp_path):
    path = tmp_path / "archive.jsonl"
    path.write_bytes(b'{"id":1,"text":"a"}\n' + BOM + b'{"id":2,"text":"b"}\n')
    stats = IngestStats()
    assert [t.id for t in read_archive(path, stats)] == [1]
    assert (stats.read, stats.malformed) == (2, 1)


@pytest.mark.parametrize("data", [b"", BOM, BOM + b"\r\n", BOM + b"\n\n"])
def test_read_archive_of_a_mark_and_blank_lines_reads_nothing(tmp_path, data):
    path = tmp_path / "archive.jsonl"
    path.write_bytes(data)
    stats = IngestStats()
    assert list(read_archive(path, stats)) == []
    assert stats == IngestStats()


def test_parse_invalid_utf8_bytes():
    with pytest.raises(MalformedRecord, match="can't decode byte 0xff"):
        parse_record(b'{"id":1,"text":"\xff\xfe"}')


# A str line can hold a literal lone surrogate, with no backslash in it;
# UTF-8 bytes can only spell one as an escape.
@pytest.mark.parametrize("line", [
    '{"id":1,"text":"a \ud800 b"}',
    '{"id":1,"text":"a b","lang":"\udc00"}',
    '{"id":1,"text":"a \\ud800 b"}',
    b'{"id":1,"text":"a \\udc00 b"}',
], ids=["str-text", "str-lang", "str-escape", "bytes-escape"])
def test_parse_rejects_a_lone_surrogate(line):
    with pytest.raises(MalformedRecord, match="lone surrogate"):
        parse_record(line)


# created_at of 0001-01-01T00:00:00Z, 1000-01-01T00:00:00Z and
# 9999-12-31T23:59:59Z: parse_record accepts UTC years 1..9999
YEAR_1, YEAR_1000, YEAR_9999_END = -62135596800, -30610224000, 253402300799


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.text(min_size=1).filter(lambda s: s.strip()),
    st.integers(min_value=YEAR_1, max_value=YEAR_9999_END),
    st.one_of(st.none(), st.sampled_from(["ro", "en", "und"])),
)
def test_serialize_parse_roundtrip(tweet_id, text, created_at, lang):
    tweet = RawTweet(tweet_id, text, created_at, lang)
    assert parse_record(serialize_record(tweet)) == tweet


def reference_serialize_record(tweet):
    """json.dumps and strftime per record: what the codec must write."""
    obj = {"id": tweet.id, "text": tweet.text}
    if tweet.created_at:
        dt = datetime.fromtimestamp(tweet.created_at, tz=timezone.utc)
        obj["created_at"] = dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    if tweet.declared_lang is not None:
        obj["lang"] = tweet.declared_lang
    return json.dumps(obj, ensure_ascii=False)


# from the year 1000 on, strftime("%Y") writes 4 digits on every platform
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.text(),
    st.one_of(st.just(0), st.integers(min_value=YEAR_1000, max_value=YEAR_9999_END)),
    st.one_of(st.none(), st.text(max_size=3)),
)
def test_serialize_matches_json_dumps_and_strftime(tweet_id, text, created_at, lang):
    tweet = RawTweet(tweet_id, text, created_at, lang)
    assert serialize_record(tweet) == reference_serialize_record(tweet)


@pytest.mark.parametrize("stamp", [
    "0001-01-01T00:00:00Z", "0009-02-03T04:05:06Z", "0999-06-01T12:00:00Z",
    "0999-12-31T23:59:59Z"])
def test_serialize_pads_years_below_1000(stamp):
    line = json.dumps({"id": 1, "text": "a", "created_at": stamp})
    assert serialize_record(parse_record(line)) == line


@pytest.mark.parametrize("stamp, written", [
    ("1969-12-31T23:59:59.5Z", "1969-12-31T23:59:59Z"),
    ("1969-12-31T23:59:58.5Z", "1969-12-31T23:59:58Z"),
    ("2022-03-01T10:00:00.7Z", "2022-03-01T10:00:00Z"),
    ("9999-12-31T23:59:59.999999Z", "9999-12-31T23:59:59Z"),
])
def test_fractional_seconds_round_down(stamp, written):
    tweet = parse_record(json.dumps({"id": 1, "text": "a", "created_at": stamp}))
    assert json.loads(serialize_record(tweet))["created_at"] == written


@pytest.mark.parametrize("stamp", ["9999-12-31T23:59:59-00:01", "0001-01-01T00:00:00+00:01"])
def test_parse_rejects_an_instant_outside_utc_years_1_to_9999(stamp):
    with pytest.raises(MalformedRecord, match="created_at"):
        parse_record(json.dumps({"id": 1, "text": "a", "created_at": stamp}))


def test_dedup_id_collision_keeps_first():
    stream = [RawTweet(1, "a"), RawTweet(1, "b")]
    assert list(dedup(iter(stream))) == [RawTweet(1, "a")]


def test_dedup_text_collision_is_canonicalized():
    stream = [RawTweet(1, "Salut  lume"), RawTweet(2, "salut lume")]
    assert list(dedup(iter(stream))) == [RawTweet(1, "Salut  lume")]


def test_dedup_all_distinct_retained():
    rng = random.Random(11)
    tweets = [RawTweet(i, f"text unic {i} {rng.random()}") for i in range(1000)]
    assert list(dedup(iter(tweets))) == tweets


def oracle_dedup(tweets):
    """Quadratic pairwise comparison: keep a tweet iff it matches no
    previously kept tweet on id or canonical text."""
    def canon(text):
        return " ".join(text.lower().split())

    kept = []
    for tweet in tweets:
        if any(k.id == tweet.id or canon(k.text) == canon(tweet.text) for k in kept):
            continue
        kept.append(tweet)
    return kept


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dedup_matches_quadratic_oracle(seed):
    rng = random.Random(seed)
    pool = [RawTweet(i, f"mesaj numarul {i % 40} varianta {i % 7}") for i in range(60)]
    stream = [rng.choice(pool) for _ in range(500)]
    # sprinkle case/whitespace variants that must still collide
    stream += [RawTweet(1000 + i, t.text.upper() + "  ") for i, t in enumerate(stream[:30])]
    rng.shuffle(stream)
    assert list(dedup(iter(stream))) == oracle_dedup(stream)


def test_dedup_stats_conservation():
    stats = IngestStats()
    stream = [RawTweet(1, "a b"), RawTweet(1, "c"), RawTweet(2, "A  b"), RawTweet(3, "x")]
    out = list(dedup(iter(stream), stats=stats))
    assert len(out) == 2
    assert stats.emitted == 2
    assert stats.duplicates_id == 1
    assert stats.duplicates_text == 1
    assert stats.emitted + stats.duplicates_id + stats.duplicates_text == len(stream)


def test_dedup_is_streaming():
    # consuming one element must not exhaust the source
    def source():
        yield RawTweet(1, "a")
        yield RawTweet(2, "b")
        raise AssertionError("pulled too far")

    gen = dedup(source())
    assert next(gen).id == 1


def test_dedup_state_growth_matches_unique_count():
    state = DedupState()
    tweets = [RawTweet(i, f"unic {i}") for i in range(100)]
    list(dedup(iter(tweets + tweets), state=state))
    assert len(state.seen_ids) == 100
    assert len(state.seen_text_hashes) == 100


# Pinned: a change of key function fails here, not only in a collision.
@pytest.mark.parametrize("text, key", [
    ("salut lume", 0xD7043B440A000597),
    ("Mâine plouă în Țara Făgărașului", 0xA6275A3307A020FA),
    ("ȘI ĂȘTIA", 0xCE599314DBCB34CE),
    ("\U0001F469\u200D\U0001F469\u200D\U0001F467\u200D\U0001F466 familie", 0x7C5972372C4FF0F5),
], ids=["ascii", "diacritics", "upper_diacritics", "emoji_zwj"])
def test_text_dedup_key_is_pinned(text, key):
    assert text_dedup_key(text) == key


@pytest.mark.parametrize("variant", ["SALUT LUME", "  Salut \t LUME\n", "salut\u00a0\u2003lume"])
def test_case_and_whitespace_variants_share_a_key(variant):
    assert text_dedup_key(variant) == text_dedup_key("salut lume")


def test_diacritic_and_case_variants_of_romanian_share_a_key():
    assert text_dedup_key("și ăștia") == text_dedup_key("ȘI ĂȘTIA")
    assert text_dedup_key("si astia") != text_dedup_key("și ăștia")


TEXTS = st.sampled_from(["salut lume", "Salut  LUME", " salut\tlume ", "ȘI ăștia",
                         "și ĂȘTIA", "\U0001F600 da", "\U0001F600  DA", "altceva"])


@given(st.lists(st.tuples(st.integers(0, 6), TEXTS), max_size=30))
def test_dedup_keeps_what_a_canonical_text_oracle_keeps(pairs):
    tweets = [RawTweet(tweet_id, text) for tweet_id, text in pairs]
    seen_ids, seen_texts, kept = set(), set(), []
    for tweet in tweets:
        canonical = " ".join(tweet.text.split()).lower()
        if tweet.id not in seen_ids and canonical not in seen_texts:
            kept.append(tweet)
            seen_ids.add(tweet.id)
            seen_texts.add(canonical)
    assert list(dedup(iter(tweets))) == kept
