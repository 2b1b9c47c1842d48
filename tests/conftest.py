import random

import pytest

from tweetcorpus.segment import Document
from tweetcorpus.vocab import STRUCTURAL_TOKENS, TWEET_TOKENS, Vocabulary

# Disjoint word stocks so two synthetic "languages" are separable by
# character statistics alone.
RO_WORDS = (
    "salut lume astazi vreme frumoasa soare multa bucurie prieteni oras "
    "munte mare carte scoala copii paine lapte vorbim despre noapte zi "
    "floare padure drum lung tara veche cantec dulce inima buna gand"
).split()
EN_WORDS = (
    "hello world today weather lovely sunshine joyful friends city "
    "mountain sea book school children bread milk talking about night day "
    "flower forest road long country old song sweet heart good thought"
).split()


# Archive lines that each must count as malformed. The first four once
# escaped parse_record as a bare ValueError or RecursionError; the last
# once parsed as id 3.
HOSTILE_LINES = {
    "integer_over_4300_digits": '{"id":1,"text":"a","n":' + "1" * 4301 + "}",
    "id_over_4300_digits": '{"id":1' + "0" * 4400 + ',"text":"a"}',
    "nested_100000_deep": '{"id":1,"text":"a","n":' + "[" * 100_000 + "]" * 100_000 + "}",
    "superscript_digit_id": '{"id":"\u00b2","text":"a"}',
    "arabic_indic_digit_id": '{"id":"\u0663","text":"a"}',
}


def make_text(rng: random.Random, words, n_words: int) -> str:
    return " ".join(rng.choice(words) for _ in range(n_words))


@pytest.fixture(scope="session")
def toy_vocab() -> Vocabulary:
    pieces = [
        "salut", "##are", "##ul", "lume", "Ce", "faci", "azi", "maine",
        "a", "b", "c", "d", "e", "un", "##a", "##b", "##c", "vrem", "##e",
    ]
    return Vocabulary(list(STRUCTURAL_TOKENS) + list(TWEET_TOKENS) + pieces)


@pytest.fixture(scope="session")
def word_vocab() -> Vocabulary:
    """Every synthetic word is a single token: handy for provenance tests."""
    tokens = list(STRUCTURAL_TOKENS) + list(TWEET_TOKENS) + sorted(set(RO_WORDS + EN_WORDS))
    return Vocabulary(tokens)


def make_documents(rng: random.Random, count: int, sentences=(2, 4),
                   words=(3, 8)) -> list[Document]:
    docs = []
    for _ in range(count):
        n_sent = rng.randint(*sentences)
        doc = tuple(
            make_text(rng, RO_WORDS, rng.randint(*words))
            for _ in range(n_sent)
        )
        docs.append(Document(doc))
    return docs


def make_bilingual_samples(rng: random.Random, count: int) -> list[tuple[str, str]]:
    samples = []
    for i in range(count):
        if i % 2 == 0:
            samples.append((make_text(rng, RO_WORDS, rng.randint(4, 9)), "ro"))
        else:
            samples.append((make_text(rng, EN_WORDS, rng.randint(4, 9)), "en"))
    return samples
