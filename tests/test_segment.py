import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from tweetcorpus.errors import DataError
from tweetcorpus.segment import (
    Document,
    default_abbreviations,
    read_document_file,
    read_documents,
    split_sentences,
    write_documents,
)


def test_split_simple_boundary():
    assert split_sentences("Salut. Ce faci?") == ["Salut.", "Ce faci?"]


def test_no_terminator_single_sentence():
    assert split_sentences("fara punct final") == ["fara punct final"]


def test_abbreviation_suppresses_boundary():
    got = split_sentences("Dl. Popescu a venit. Apoi a plecat.", frozenset({"dl."}))
    # hand-enumerated boundaries: only after "venit." and at end
    assert got == ["Dl. Popescu a venit.", "Apoi a plecat."]


def test_default_abbreviations_cover_spec_seed_list():
    abbrevs = default_abbreviations()
    for word in ("dl.", "dna.", "dr.", "nr.", "str.", "etc.", "art.", "pag."):
        assert word in abbrevs


def test_boundary_requires_uppercase_or_digit():
    assert split_sentences("primul. al doilea") == ["primul. al doilea"]
    assert split_sentences("primul. Al doilea") == ["primul.", "Al doilea"]
    assert split_sentences("anul. 2022 a fost") == ["anul.", "2022 a fost"]
    assert split_sentences("vezi! USER a scris") == ["vezi!", "USER a scris"]


def test_terminator_runs_group_as_one():
    assert split_sentences("Serios?! Da.") == ["Serios?!", "Da."]
    # ".." is not a lone period: abbreviation suppression does not apply
    assert split_sentences("Dl.. Popescu vine.", frozenset({"dl.."})) == ["Dl..", "Popescu vine."]


def test_split_empty_raises():
    with pytest.raises(DataError, match="cannot split empty text"):
        split_sentences("   ")


def test_split_never_drops_characters():
    rng = random.Random(3)
    words = ["Ana", "are", "mere.", "Multe!", "croissant?", "dl.", "Nr.", "9"]
    for _ in range(300):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
        sentences = split_sentences(text)
        assert " ".join(sentences) == " ".join(text.split())


def test_write_layout():
    buf = io.StringIO()
    docs = [Document(("A.", "B.")), Document(("C.",))]
    assert write_documents(docs, buf) == 2
    assert buf.getvalue() == "A.\nB.\n\nC.\n"


def test_write_empty_stream():
    buf = io.StringIO()
    assert write_documents([], buf) == 0
    assert buf.getvalue() == ""


def test_read_layout_inverse():
    docs = list(read_documents(io.StringIO("A.\n\nB.\n")))
    assert [d.sentences for d in docs] == [("A.",), ("B.",)]


def test_read_rejects_consecutive_blank_lines():
    with pytest.raises(DataError, match="^line 1: empty document$"):
        list(read_documents(io.StringIO("\n\n\n")))
    with pytest.raises(DataError, match="^line 3: empty document$"):
        list(read_documents(io.StringIO("A.\n\n\nB.\n")))


@pytest.mark.parametrize("data, message", [
    (b"Salut.\n\nCe\xff faci?\n", ":3: not UTF-8 (byte 0xff)"),
    (b"A.\n\n\nB.\n", ": line 3: empty document"),
], ids=["not-utf8", "empty-document"])
def test_a_damaged_document_file_is_named(tmp_path, data, message):
    path = tmp_path / "corpus-00000.txt"
    path.write_bytes(data)
    with pytest.raises(DataError) as err:
        list(read_document_file(path))
    assert str(err.value) == f"{path}{message}"


def test_document_invariants():
    with pytest.raises(DataError, match="document has no sentences"):
        Document(())
    with pytest.raises(DataError, match="bad sentence ''"):
        Document(("ok", ""))
    with pytest.raises(DataError, match=r"bad sentence 'a\\nb'"):
        Document(("a\nb",))


SENTENCE = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    min_size=1, max_size=30,
).filter(lambda s: s.strip())

DOCS = st.lists(
    st.lists(SENTENCE, min_size=1, max_size=5).map(tuple).map(Document),
    max_size=20,
)


@settings(max_examples=200, deadline=None)
@given(DOCS)
def test_write_read_roundtrip(docs):
    buf = io.StringIO()
    count = write_documents(docs, buf)
    assert count == len(docs)
    back = list(read_documents(io.StringIO(buf.getvalue())))
    assert back == docs


def test_roundtrip_thousand_random_documents():
    rng = random.Random(41)
    docs = []
    for _ in range(1000):
        docs.append(Document(tuple(
            "".join(rng.choice("abc xyz.!?") for _ in range(rng.randint(1, 25))).replace("\n", " ").strip() or "x"
            for _ in range(rng.randint(1, 4))
        )))
    buf = io.StringIO()
    write_documents(docs, buf)
    assert list(read_documents(io.StringIO(buf.getvalue()))) == docs
