"""Extend a base WordPiece vocabulary with tweet tokens and top emojis.

Counts emoji frequencies over a small corpus, keeps the most frequent
quarter of distinct emojis, appends them after the three placeholder
tokens, and shows how tokenization improves for the added symbols.
"""

from tweetcorpus import (
    count_emoji_frequencies,
    extend_vocabulary,
    select_top_emojis,
    wordpiece_tokenize,
)
from tweetcorpus.vocab import STRUCTURAL_TOKENS, TWEET_TOKENS, Vocabulary

CORPUS = [
    "ce zi frumoasa \U0001F600 \U0001F600",
    "mergem la mare \U0001F30A \U0001F600",
    "felicitari \U0001F389 \U0001F600 \U0001F680",
    "noapte buna \U0001F31A",
    "cafea buna ☕ ☕ \U0001F600",
    "la multi ani \U0001F389 \U0001F389",
]

BASE_WORDS = ["ce", "zi", "frumoasa", "mergem", "la", "mare", "buna",
              "cafea", "noapte", "felicitari", "multi", "ani", "##a", "##e"]


def main():
    base = Vocabulary(list(STRUCTURAL_TOKENS) + BASE_WORDS)
    print(f"base vocabulary: {len(base)} tokens")

    counts = count_emoji_frequencies(CORPUS)
    print(f"distinct emojis in corpus: {len(counts)}")
    for emoji, count in counts.most_common():
        print(f"  {emoji}  x{count}")

    top = select_top_emojis(counts, fraction=0.25)
    print(f"top 25% by frequency: {top}")

    extended = extend_vocabulary(base, TWEET_TOKENS, top)
    print(f"extended vocabulary: {len(extended)} tokens "
          f"(+{len(extended) - len(base)})")

    for token in list(TWEET_TOKENS) + top:
        pieces_before = wordpiece_tokenize(token, base)
        pieces_after = wordpiece_tokenize(token, extended)
        print(f"  {token!r}: {pieces_before} -> {pieces_after}")


if __name__ == "__main__":
    main()
