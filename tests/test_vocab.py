import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tweetcorpus.emojidata import EXTENDED_PICTOGRAPHIC
from tweetcorpus.errors import DataError
from tweetcorpus.normalize import unescape_basic_entities
from tweetcorpus.vocab import (
    CONTINUATION_PREFIX,
    MAX_WORD_CHARS,
    STRUCTURAL_TOKENS,
    TWEET_TOKENS,
    UNK_TOKEN,
    Vocabulary,
    count_emoji_frequencies,
    decode,
    encode,
    extend_vocabulary,
    select_top_emojis,
    wordpiece_tokenize,
)


def test_count_frequencies_basic():
    counts = count_emoji_frequencies(["\U0001F600\U0001F600", "\U0001F600\U0001F680"])
    assert counts == Counter({"\U0001F600": 3, "\U0001F680": 1})
    assert len(counts) == 2


def test_count_frequencies_empty_corpus():
    assert len(count_emoji_frequencies(["fara emoji", "text"])) == 0


def test_count_frequencies_matches_planted_recount():
    rng = random.Random(7)
    emojis = ["\U0001F600", "\U0001F680", "❤️",
              "\U0001F468‍\U0001F469‍\U0001F467", "\U0001F525"]
    planted = Counter()
    corpus = []
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.5:
                e = rng.choice(emojis)
                planted[e] += 1
                parts.append(e)
            else:
                parts.append(rng.choice(["text", "alt", "cuvant"]))
        corpus.append(" ".join(parts))
    assert count_emoji_frequencies(corpus) == planted


def _code_points(*ranges):
    return st.sampled_from(ranges).flatmap(lambda r: st.integers(*r)).map(chr)


# What an emoji sequence is built from, beside the entity fragments that
# unescape_basic_entities joins or rewrites.
EMOJI_OR_ENTITY_PIECES = st.one_of(
    st.one_of(_code_points(*EXTENDED_PICTOGRAPHIC),
              _code_points((0x1F3FB, 0x1F3FF)),  # skin tones
              _code_points((0x1F1E6, 0x1F1FF)),  # regional indicators
              _code_points((0xE0020, 0xE007F))),  # tag characters
    # ZWJ, VS16, the keycap mark, the tag run's end and the keycap bases
    st.sampled_from(["\u200d", "\ufe0f", "\u20e3", "\U000E007F", "#", "*", *"0123456789"]),
    st.sampled_from(["&", "amp;", "&amp;", "&lt;", "&gt;", "&amp;gt;", "lt;", " ", "a"]),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(EMOJI_OR_ENTITY_PIECES, max_size=16).map("".join))
def test_unescaping_basic_entities_leaves_the_emoji_counts_alone(text):
    # "&", "<" and ">" are in no emoji sequence and start none, so clean's
    # unescaped text holds the emoji that vocab counts in the parsed text
    assert count_emoji_frequencies([text]) == count_emoji_frequencies(
        [unescape_basic_entities(text)])


def test_select_top_ceil_and_ranking():
    counts = Counter({"\U0001F600": 3, "\U0001F680": 1})
    assert select_top_emojis(counts, 0.25) == ["\U0001F600"]  # ceil(0.5) = 1


def test_select_fraction_one_returns_all_sorted():
    counts = Counter({"a": 1, "b": 5, "c": 3})
    assert select_top_emojis(counts, 1.0) == ["b", "c", "a"]


def test_select_tie_break_by_codepoint():
    counts = Counter({"\U0001F680": 2, "\U0001F600": 2, "\U0001F525": 2})
    assert select_top_emojis(counts, 1.0) == ["\U0001F525", "\U0001F600", "\U0001F680"]


def test_select_empty_table():
    assert select_top_emojis(Counter(), 0.25) == []
    assert select_top_emojis(Counter(), 1.0) == []


@pytest.mark.parametrize("fraction", [0, -0.5, 1.5])
def test_select_rejects_a_fraction_outside_0_1(fraction):
    with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\]"):
        select_top_emojis(Counter({"\U0001F600": 1}), fraction)


def test_select_matches_full_sort_oracle():
    rng = random.Random(13)
    emojis = [chr(0x1F600 + i) for i in range(100)]
    counts = Counter({e: rng.randint(1, 50) for e in emojis})
    full_order = [e for e, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    for fraction in (0.1, 0.25, 0.5, 0.77, 1.0):
        got = select_top_emojis(counts, fraction)
        assert got == full_order[:len(got)]
        import math
        assert len(got) == math.ceil(fraction * 100)


def _base_vocab(n_words: int) -> Vocabulary:
    return Vocabulary(list(STRUCTURAL_TOKENS) + [f"tok{i:05}" for i in range(n_words)])


def test_extension_arithmetic_matches_headline():
    base = _base_vocab(50_000 - len(STRUCTURAL_TOKENS))
    emojis = [chr(0x1F000 + i) for i in range(997)]
    extended = extend_vocabulary(base, TWEET_TOKENS, emojis)
    assert len(base) == 50_000
    assert len(extended) == 51_000
    for token, idx in base.id_of.items():
        assert extended.id_of[token] == idx


def test_extension_identity_when_present():
    base = extend_vocabulary(_base_vocab(10), TWEET_TOKENS, ["\U0001F600"])
    again = extend_vocabulary(base, TWEET_TOKENS, ["\U0001F600"])
    assert again.tokens == base.tokens


def test_extension_rejects_duplicate_additions():
    with pytest.raises(DataError, match=r"repeated additions: \['X'\]"):
        extend_vocabulary(_base_vocab(5), ("X", "X"), [])


def test_extension_rejects_a_token_holding_whitespace():
    with pytest.raises(DataError, match="token contains whitespace: 'A B'"):
        extend_vocabulary(_base_vocab(5), TWEET_TOKENS, ["A B"])


def test_extension_size_matches_set_union_oracle():
    rng = random.Random(31)
    for _ in range(50):
        base_tokens = [f"w{i}" for i in range(rng.randint(0, 40))]
        base = Vocabulary(list(STRUCTURAL_TOKENS) + base_tokens)
        additions = list(dict.fromkeys(
            f"w{rng.randint(0, 60)}" for _ in range(rng.randint(0, 20))))
        extended = extend_vocabulary(base, [], additions)
        assert len(extended) == len(set(base.tokens) | set(additions))
        assert extended.tokens[:len(base)] == base.tokens


def test_tokenize_word_in_vocab(toy_vocab):
    assert wordpiece_tokenize("salut", toy_vocab) == ["salut"]


def test_tokenize_greedy_continuation(toy_vocab):
    assert wordpiece_tokenize("salutare", toy_vocab) == ["salut", "##are"]


def test_tokenize_unmatchable_word(toy_vocab):
    assert wordpiece_tokenize("xyz", toy_vocab) == [UNK_TOKEN]


def test_tokenize_overlong_word(toy_vocab):
    assert wordpiece_tokenize("a" * (MAX_WORD_CHARS + 1), toy_vocab) == [UNK_TOKEN]
    assert wordpiece_tokenize("a" * MAX_WORD_CHARS, toy_vocab) != [UNK_TOKEN]


def test_tokenize_is_cased(toy_vocab):
    assert wordpiece_tokenize("Salut", toy_vocab) == [UNK_TOKEN]


def oracle_greedy(word, vocab_set):
    """Greedy longest-prefix segmentation computed by scanning the whole
    vocabulary set at each step instead of shrinking a window."""
    if len(word) > MAX_WORD_CHARS:
        return [UNK_TOKEN]
    pieces, start = [], 0
    while start < len(word):
        prefix = CONTINUATION_PREFIX if start else ""
        best = None
        for candidate in vocab_set:
            if not candidate.startswith(prefix):
                continue
            body = candidate[len(prefix):]
            if body and word.startswith(body, start):
                if best is None or len(body) > len(best):
                    best = body
        if best is None:
            return [UNK_TOKEN]
        pieces.append(prefix + best)
        start += len(best)
    return pieces


def test_tokenize_matches_exhaustive_oracle():
    rng = random.Random(43)
    alphabet = "abcde"
    word_tokens = set()
    while len(word_tokens) < 30:
        word_tokens.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4))))
    cont_tokens = {CONTINUATION_PREFIX + t for t in list(word_tokens)[:20]}
    vocab = Vocabulary(list(STRUCTURAL_TOKENS) + sorted(word_tokens | cont_tokens))
    vocab_set = set(vocab.tokens)
    for _ in range(10_000):
        word = "".join(rng.choice(alphabet + "fg") for _ in range(rng.randint(1, 12)))
        assert wordpiece_tokenize(word, vocab) == oracle_greedy(word, vocab_set), word


def test_specials_and_added_emojis_are_single_pieces():
    base = _base_vocab(100)
    emojis = ["\U0001F600", "❤️", "\U0001F468‍\U0001F469‍\U0001F467"]
    vocab = extend_vocabulary(base, TWEET_TOKENS, emojis)
    for token in list(TWEET_TOKENS) + emojis:
        assert wordpiece_tokenize(token, vocab) == [token]


def test_encode_decode_roundtrip(toy_vocab):
    assert encode(["[CLS]"], toy_vocab) == [toy_vocab.cls_id]
    tokens = ["salut", "##are", "USER", "[SEP]"]
    assert decode(encode(tokens, toy_vocab), toy_vocab) == tokens


def test_encode_unknown_maps_to_unk(toy_vocab):
    assert encode(["nu_exista"], toy_vocab) == [toy_vocab.unk_id]


def test_decode_out_of_range(toy_vocab):
    with pytest.raises(DataError, match="outside vocabulary of"):
        decode([len(toy_vocab)], toy_vocab)


@settings(max_examples=100, deadline=None)
@given(tokens=st.lists(st.sampled_from(["salut", "##are", "lume", "USER", "[CLS]", "azi"]), max_size=20))
def test_roundtrip_property(toy_vocab, tokens):
    assert decode(encode(tokens, toy_vocab), toy_vocab) == tokens


def test_vocab_file_roundtrip(tmp_path, toy_vocab):
    path = tmp_path / "vocab.txt"
    toy_vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens == toy_vocab.tokens
    # line number equals id
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[toy_vocab.id_of["salut"]] == "salut"


def test_tokenize_concatenation_property():
    rng = random.Random(59)
    alphabet = "abcde"
    word_tokens = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
                   for _ in range(25)}
    cont = {CONTINUATION_PREFIX + t for t in list(word_tokens)[:15]}
    vocab = Vocabulary(list(STRUCTURAL_TOKENS) + sorted(word_tokens | cont))
    for _ in range(2000):
        word = "".join(rng.choice(alphabet + "fg") for _ in range(rng.randint(1, 10)))
        pieces = wordpiece_tokenize(word, vocab)
        if pieces == [UNK_TOKEN]:
            continue
        rebuilt = pieces[0] + "".join(p[len(CONTINUATION_PREFIX):] for p in pieces[1:])
        assert rebuilt == word
