"""Walk a handful of raw tweets through cleaning and sentence splitting.

Shows the per-tweet transformations in order: HTML unescape, entity
counting, placeholder normalization, length/spam filters, language
agreement gate, emoji translation, sentence segmentation. The gate runs
after the cheap filters, so it scores only tweets they keep; it is given
the unescaped text, not the normalized one.
"""

from tweetcorpus import (
    agreement_filter,
    apply_filters,
    count_entities,
    default_emoji_map,
    normalize_entities,
    split_sentences,
    train,
    translate_emojis,
)
from tweetcorpus.filtering import FilterConfig
from tweetcorpus.normalize import unescape_basic_entities

RAW_TWEETS = [
    "@maria vezi articolul https://stiri.ro/azi #breaking O zi frumoasa! \U0001F600",
    "the weather is lovely today in the city, join us for coffee",
    "@a @b @c @d @e concurs! premii! #spam #spam #noroc",
    "Salut&amp;pa. Dl. Ionescu ajunge maine. Ne vedem la gara!",
    "prea scurt",
]

RO_TRAIN = [
    ("salut lume ce mai faceti astazi vremea este frumoasa", "ro"),
    ("ne vedem maine la scoala dupa cursuri in oras", "ro"),
    ("cartea aceasta despre munte si mare este minunata", "ro"),
    ("o zi buna tuturor prietenilor nostri dragi de aici", "ro"),
]
EN_TRAIN = [
    ("hello world how are you doing today the weather is lovely", "en"),
    ("see you tomorrow at school after classes in the city", "en"),
    ("this book about the mountain and the sea is wonderful", "en"),
    ("a good day to all of our dear friends around here", "en"),
]


def main():
    # two detectors with different n-gram ranges form the agreement gate
    model_a = train(RO_TRAIN + EN_TRAIN, ngram_range=(1, 2))
    model_b = train(RO_TRAIN + EN_TRAIN, ngram_range=(2, 3))
    emoji_map = default_emoji_map()
    filters = FilterConfig()

    for raw in RAW_TWEETS:
        print("=" * 72)
        print("raw:       ", raw)
        text = unescape_basic_entities(raw)

        counts = count_entities(text)
        print("entities:  ", counts)
        normalized = normalize_entities(text)
        print("normalized:", normalized)

        verdict = apply_filters(normalized, counts, filters)
        if not verdict.accepted:
            print("verdict:    rejected (%s)" % verdict.reason.value)
            continue

        if not agreement_filter(text, model_a, model_b, "ro", threshold=0.5):
            print("verdict:    rejected (not the target language)")
            continue

        translated = translate_emojis(normalized, emoji_map)
        print("translated:", translated)
        for i, sentence in enumerate(split_sentences(translated), 1):
            print(f"sentence {i}: {sentence}")
        print("verdict:    accepted")


if __name__ == "__main__":
    main()
