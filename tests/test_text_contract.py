"""Every text layer agrees on whitespace and letters.

Whitespace is ``str.isspace`` (what ``str.split`` breaks on) and a
hashtag letter is ``str.isalnum`` or ``_``, under this Python's
``unicodedata``; the package runs without the ``regex`` engine.
"""

import io
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tweetcorpus
from tweetcorpus.filtering import FilterConfig, apply_filters, word_count
from tweetcorpus.ingest import text_dedup_key
from tweetcorpus.langid import _prepare, read_training_corpus
from tweetcorpus.errors import ConfigInvalid, DataError
from tweetcorpus.normalize import (
    EmojiMap,
    collapse_whitespace,
    count_entities,
    default_emoji_map,
    normalize_entities,
    read_text_lines,
    text_line_blocks,
    translate_emojis,
    unescape_basic_entities,
)
from tweetcorpus.pipeline import parse_config_file
from tweetcorpus.segment import load_abbreviations, split_sentences
from tweetcorpus.tasks import read_conll
from tweetcorpus.vocab import STRUCTURAL_TOKENS, Vocabulary

# every character str.split breaks on that a tweet may plausibly hold,
# U+001C..U+001F (which the third-party regex engine's \s leaves out)
# among them
SEPARATORS = "\t\n\x1c\x1d\x1e\x1f\x85\xa0 　 "
WORD_CHARS = "aăâbcdefgiîlmnoprsștțuzAĂÂBDÎMSȘȚZ0123456789."

CONTRACT_TEXT = st.text(alphabet=WORD_CHARS + SEPARATORS, min_size=1, max_size=60)

EMOJI_MAP = default_emoji_map()


@settings(max_examples=400, deadline=None)
@given(CONTRACT_TEXT.filter(lambda text: text.split()))
def test_layers_agree_on_whitespace(text):
    normalized = normalize_entities(text)
    assert normalized == " ".join(text.split())
    assert translate_emojis(normalized, EMOJI_MAP) == normalized
    assert " ".join(split_sentences(text)) == normalized
    assert word_count(normalized) == word_count(text) == len(text.split())
    assert text_dedup_key(text) == text_dedup_key(normalized)
    assert _prepare(text) == _prepare(normalized)


# entity markers, escapes and emoji (a keycap among them), strung between
# words and separators: every placeholder rewrite and its neighbours
ENTITY_TEXT = st.lists(
    st.sampled_from(["@", "@@", "#", "http://", "https://", "www.", "_", "&amp;", "&lt;",
                     "\U0001F600", "\U0001F468\u200d\U0001F469\u200d\U0001F467",
                     "\U0001F44D\U0001F3FD", "\U0001F1F7\U0001F1F4", "#\ufe0f\u20e3", "1\u20e3"])
    | st.text(alphabet=WORD_CHARS + SEPARATORS, min_size=1, max_size=4),
    max_size=24).map("".join)


@settings(max_examples=1000, deadline=None)
@given(ENTITY_TEXT, st.integers(1, 8), st.integers(0, 8))
def test_normalizing_changes_no_word_count_and_no_verdict(text, min_words, extra):
    # clean filters a tweet before it normalizes it: the verdict must not depend on the order
    cfg = FilterConfig(min_words=min_words, max_words=min_words + extra)
    for raw in (text, unescape_basic_entities(text)):
        normalized = normalize_entities(raw)
        assert word_count(normalized) == word_count(raw)
        counts = count_entities(raw)
        assert apply_filters(normalized, counts, cfg) == apply_filters(raw, counts, cfg)


@settings(max_examples=400, deadline=None)
@given(CONTRACT_TEXT)
def test_collapse_matches_the_whitespace_pattern(text):
    assert collapse_whitespace(text) == re.sub(r"\s+", " ", text).strip()


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab\t\r\n\x85\u2028\u2029\x0b\x0c\x1c", max_size=40))
def test_text_files_split_lines_as_text_mode_does(text):
    # only "\n", "\r" and "\r\n" end a line: not U+2028, U+0085 or the
    # other characters that str.splitlines also breaks on
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            assert read_text_lines(path) == [line.rstrip("\n") for line in fh]


@pytest.mark.parametrize("data, lineno", [
    (b"\xff", 1), (b"a\nb\xc3", 2), (b"a\r\nb\rc\nd\xe2\x82", 4), (b"\xe2\x82\xac\n\x80", 2),
])
@pytest.mark.parametrize("error", [DataError, ConfigInvalid])
def test_a_byte_that_is_not_utf8_names_its_file_and_line(tmp_path, data, lineno, error):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(error, match=re.escape(f"{path}:{lineno}: not UTF-8")):
        read_text_lines(path, error)


def _lines_or_error(source, size):
    try:
        return [line for block in text_line_blocks("f.txt", source, DataError, size)
                for line in block]
    except DataError as exc:
        return str(exc)


# line ends, one- to four-byte characters, and bytes that are not UTF-8
# (a lone continuation byte, 0xff, and a lead byte whose sequence is cut)
TEXT_BYTES = st.lists(st.sampled_from([b"a", b"\r", b"\n", b"\r\n", "\u0103".encode(),
                                       "\u20ac".encode(), "\U0001F600".encode(), b"\x80",
                                       b"\xff", b"\xe2\x82"]), max_size=30).map(b"".join)


@settings(max_examples=400, deadline=None)
@given(TEXT_BYTES, st.integers(1, 9))
def test_text_read_a_block_at_a_time_is_the_text_read_whole(data, size):
    # the lines and the line a bad byte is on do not depend on where blocks end
    whole = _lines_or_error(io.BytesIO(data), -1)
    assert _lines_or_error(io.BytesIO(data), size) == whole
    try:
        expected = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        # text mode reads the good bytes before the bad one; the next line holds it
        read = list(io.TextIOWrapper(io.BytesIO(data[:exc.start]), encoding="utf-8"))
        lineno = len(read) + (not read or read[-1].endswith("\n"))
        assert whole == f"f.txt:{lineno}: not UTF-8 (byte 0x{data[exc.start]:02x})"
    else:
        assert whole == [line.rstrip("\n") for line in io.StringIO(expected, newline=None)]


BOM_MESSAGE = ":1: starts with a byte-order mark (U+FEFF)"


@pytest.mark.parametrize("error", [DataError, ConfigInvalid])
def test_a_leading_byte_order_mark_names_its_file(tmp_path, error):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfa\nb\n")
    with pytest.raises(error, match=re.escape(f"{path}{BOM_MESSAGE}")):
        read_text_lines(path, error)


def test_a_later_zero_width_no_break_space_is_text(tmp_path):
    path = tmp_path / "text.txt"
    path.write_text("a\ufeffb\n\ufeffc\n", encoding="utf-8")
    assert read_text_lines(path) == ["a\ufeffb", "\ufeffc"]


# Each reader of an outside text file, a file it loads, what it loads
# from it, and the error family it raises. The first three once read a
# leading byte-order mark as part of the first line: a language
# "\ufeffro", no "dr.", a key "\ufeff\U0001F600".
TEXT_READERS = {
    "langid_corpus": (read_training_corpus, "ro\tazi plouă\nen\tit rains\n",
                      lambda out: {code for _, code in out} == {"ro", "en"}, DataError),
    "abbreviations": (load_abbreviations, "dr.\nprof\n",
                      lambda out: out == {"dr.", "prof."}, DataError),
    "emoji_map": (EmojiMap.load, "\U0001F600\tfata\n",
                  lambda out: translate_emojis("\U0001F600", out) == ":fata:", DataError),
    "vocabulary": (Vocabulary.load, "\n".join(STRUCTURAL_TOKENS) + "\n",
                   lambda out: out.pad_id == 0, DataError),
    "config": (parse_config_file, "seed = 3\n", lambda out: out == {"seed": "3"}, ConfigInvalid),
    "conll": (lambda path: list(read_conll(path)), "Ion B-PER\n",
              lambda out: out == [(1, ["Ion"], ["B-PER"])], DataError),
}


@pytest.mark.parametrize("name", TEXT_READERS)
def test_every_text_reader_rejects_a_leading_byte_order_mark(tmp_path, name):
    reader, text, loaded, error = TEXT_READERS[name]
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert loaded(reader(path))
    path.write_text("\ufeff" + text, encoding="utf-8")
    with pytest.raises(error, match=re.escape(f"{path}{BOM_MESSAGE}")):
        reader(path)


# Each reader of an outside text file, a file with a bad line, and what it says.
BAD_LINES = {
    "langid-corpus-without-tab": (read_training_corpus, "ro\tazi plouă\nen it rains\n",
                                  "{path}:2: expected code<TAB>text"),
    "emoji-map-without-tab": (EmojiMap.load, "\U0001F600\tfata\n\U0001F680 racheta\n",
                              "{path}:2: expected emoji<TAB>description"),
    "emoji-map-empty-description": (EmojiMap.load, "\U0001F600\t \n",
                                    "empty emoji map entry: '\U0001F600' -> ' '"),
    "vocabulary-repeated-token": (Vocabulary.load, "\n".join([*STRUCTURAL_TOKENS, "a", "a"]),
                                  "duplicate tokens in vocabulary: ['a']"),
}


@pytest.mark.parametrize("name", BAD_LINES)
def test_every_text_reader_rejects_a_bad_line(tmp_path, name):
    reader, text, message = BAD_LINES[name]
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(message.format(path=path))):
        reader(path)


def test_url_ends_at_an_information_separator():
    assert normalize_entities("vezi http://x.ro\x1cacum") == "vezi HTTPURL acum"


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=st.one_of(st.characters(categories=["L", "N"]), st.just("_")),
               min_size=1, max_size=8))
def test_every_letter_and_digit_stays_in_the_hashtag(word):
    assert count_entities("#" + word).hashtags == 1
    assert normalize_entities("#" + word) == "HASHTAG"


def test_one_hashtag_holds_every_letter_and_digit():
    word = "_" + "".join(chr(cp) for cp in range(sys.maxunicode + 1)
                         if unicodedata.category(chr(cp))[0] in "LN")
    assert count_entities("#" + word).hashtags == 1
    assert normalize_entities("#" + word) == "HASHTAG"


_WITHOUT_REGEX = textwrap.dedent("""
    import importlib, pkgutil, sys
    sys.modules["regex"] = None  # any import of regex now raises ImportError
    import tweetcorpus
    for module in pkgutil.iter_modules(tweetcorpus.__path__):
        importlib.import_module(f"tweetcorpus.{module.name}")
    from tweetcorpus.pipeline import _load_clean_context, build_config, clean_tweet_text
    ctx = _load_clean_context(build_config(), None)  # no outside file is set, none is read
    for text in sys.argv[1:]:
        print(clean_tweet_text(text, ctx))
""")


def test_package_runs_without_regex():
    src = str(Path(tweetcorpus.__file__).resolve().parent.parent)
    tweets = ["@ion vezi https://x.ro #știri azi e frumos \U0001F600",
              "Azi\x1cplouă mult la munte, vezi http://x.ro\x1cacum",
              "prea scurt"]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_REGEX, *tweets],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "('USER vezi HTTPURL HASHTAG azi e frumos :grinning face:', 'none')",
        "('Azi plouă mult la munte, vezi HTTPURL acum', 'none')",
        "(None, 'too_short')",
    ]
