"""Seeded input generation for the three benchmark workloads.

Each workload is a ``Workload`` description plus a ``generate`` function
that writes the raw archive, the language-ID training corpus and the
base WordPiece vocabulary into a directory. The pipeline sees only
those files. The same seed always writes the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Two disjoint-looking word stocks, so character n-grams separate the
# languages. Romanian carries diacritics; the comma-below letters are
# absent from the base vocabulary's single characters, so rare words
# with them fall to [UNK].
RO_WORDS = (
    "acasă afară aici album alege altul amintire an anul apă apoi aproape "
    "astăzi atunci autobuz avion bani bine birou bloc bucurie bunica cafea "
    "cald cale calculator cameră câine cântec carte casă cer ceai ceva cineva "
    "ciocolată clasă coleg concert copil copii corect cuvânt curând dar "
    "deschis despre dimineață drag drum dulce echipă educație emisiune "
    "exemplu fată femeie fereastră film floare foarte frate frig frumos "
    "frumoasă fotbal gând gară greu grădină iarnă iarbă idee inimă joc "
    "joacă lapte lângă lecție liber limbă lucru lume lună lung mâine mamă "
    "mare masă mașină meci mereu minte mult munte muzică noapte nou "
    "oameni oraș orez ospăț pâine parc pădure pentru piață pisică plajă "
    "poate poveste prieten prietenă primăvară proiect rapid râu repede "
    "rochie românesc sară școală scrisoare seară sfârșit soare soră "
    "spital stradă student sunet tată târziu telefon temă timp țară "
    "toamnă tramvai tren tânăr umbră unde vacanță vară vecin vechi vânt "
    "vinerea viață vis vorbă vreme zăpadă zi ziar zâmbet"
).split()

EN_WORDS = (
    "about after again airport always answer apple autumn barely because "
    "before behind between bicycle birthday bright brother building busy "
    "careful chicken children church clever closed coffee cold country "
    "crowded dinner doctor during early evening everyone exactly family "
    "farmer father finally flower forest friendly garden gentle ground "
    "happy harbour heavy holiday hungry island journey kitchen knowledge "
    "laughing library little lovely morning mother mountain nothing "
    "number orange outside painting pencil people perhaps pocket quickly "
    "quiet rather reading really river sandwich school sister sleeping "
    "slowly something sometimes station stormy strange street strong "
    "summer sunshine teacher thought through tomorrow tonight traffic "
    "travel trouble umbrella usually village walking weather weekend "
    "whether window winter without wonderful worried yellow yesterday"
).split()

ABBREVIATIONS = ("dl.", "dna.", "dr.", "nr.", "str.", "etc.", "prof.", "aprox.")
NAMES = ("Popescu", "Ionescu", "Marin", "Dumitru", "Stan", "Georgescu")
TERMINATORS = (".", ".", ".", "!", "?", "…")
DOMAINS = ("exemplu.ro", "stiri.ro", "t.co", "www.ziar.ro", "blog.example.com")

# Emoji sequences by kind. Mapped ones are keys of the packaged emoji
# map; unmapped ones are detected as emoji but have no description.
EMOJI_MAPPED = ("😀", "😂", "😍", "😊", "🙂", "👍", "🎉", "🔥", "🥲", "❤️",
                "❤️‍🔥", "👨‍👩‍👦", "☀️", "✈️")
EMOJI_UNMAPPED = ("🫠", "🧑‍🚀", "🐈‍⬛", "🏳️‍🌈", "👨‍👩‍👧‍👦")
EMOJI_FLAGS = ("🇷🇴", "🇬🇧", "🇫🇷", "🇮🇹")
EMOJI_SKIN = ("👍🏽", "🤌🏼", "👋🏿", "🙏🏻")
EMOJI_KEYCAPS = ("1️⃣", "#️⃣", "3⃣")
EMOJI_TAG_FLAGS = ("🏴\U000E0067\U000E0062\U000E0073\U000E0063\U000E0074\U000E007F",
                   "🏴\U000E0067\U000E0062\U000E0077\U000E006C\U000E0073\U000E007F")
EMOJI_KINDS = (EMOJI_MAPPED, EMOJI_MAPPED, EMOJI_UNMAPPED, EMOJI_FLAGS,
               EMOJI_SKIN, EMOJI_KEYCAPS, EMOJI_TAG_FLAGS)

BASE_VOCAB_SIZE = 30_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tweets: int              # raw archive lines, malformed ones included
    workers: int
    dupe_factor: int
    language_id: bool
    langid_samples: int = 0  # training lines per language


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="archive",
            why=("Mixed two-language archive with sparse emoji, 1 worker: clean "
                 "(language ID first) does most of the work, pretrain-data little."),
            tweets=3000, workers=1, dupe_factor=1, language_id=True,
            langid_samples=300),
        Workload(
            name="emoji-dense",
            why=("Every tweet carries several emoji sequences and about 3 entities, "
                 "2 workers: the emoji scanner, vocab counting and the reject path dominate."),
            tweets=4000, workers=2, dupe_factor=1, language_id=True,
            langid_samples=300),
        Workload(
            name="pretrain",
            why=("Long clean Romanian tweets, no language ID, dupe factor 10: "
                 "pretrain-data (WordPiece, masking, records) and read_records dominate."),
            tweets=1200, workers=1, dupe_factor=10, language_id=False),
    )
}


# --- text pieces ---------------------------------------------------------------


def _words(rng: random.Random, stock, n: int) -> list[str]:
    return [rng.choice(stock) for _ in range(n)]


def _sentence(rng: random.Random, stock, lo: int, hi: int,
              abbreviations: bool) -> str:
    words = _words(rng, stock, rng.randint(lo, hi))
    if abbreviations and rng.random() < 0.25:
        k = rng.randrange(len(words))
        words[k:k] = [rng.choice(ABBREVIATIONS), rng.choice(NAMES)]
    if rng.random() < 0.1:
        words.insert(rng.randrange(len(words)), str(rng.randint(2, 2024)))
    words[0] = words[0].capitalize()
    return " ".join(words) + rng.choice(TERMINATORS)


def _emoji(rng: random.Random) -> str:
    return rng.choice(rng.choice(EMOJI_KINDS))


def _mention(rng: random.Random) -> str:
    return "@" + rng.choice(NAMES).lower() + str(rng.randint(1, 999))


def _url(rng: random.Random) -> str:
    return f"https://{rng.choice(DOMAINS)}/a/{rng.randint(1, 10**6)}"


def _hashtag(rng: random.Random, stock) -> str:
    return "#" + rng.choice(stock) + rng.choice(("", "", str(rng.randint(1, 99))))


def _scatter(rng: random.Random, tokens: list[str], extras: list[str]) -> list[str]:
    for extra in extras:
        tokens.insert(rng.randint(0, len(tokens)), extra)
    return tokens


def _archive_text(rng: random.Random, stock, ro: bool) -> str:
    text = " ".join(_sentence(rng, stock, 4, 11, ro) for _ in range(rng.randint(1, 3)))
    extras = []
    if rng.random() < 0.3:
        extras += [_mention(rng) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.2:
        extras.append(_url(rng))
    if rng.random() < 0.25:
        extras += [_hashtag(rng, stock) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.1:
        extras.append(rng.choice(("&amp;", "&lt;3", "&gt;", "A &amp; B")))
    if rng.random() < 0.1:
        extras += [_emoji(rng) for _ in range(rng.randint(1, 2))]
    return " ".join(_scatter(rng, text.split(" "), extras))


def _emoji_dense_text(rng: random.Random, stock, ro: bool) -> str:
    text = " ".join(_sentence(rng, stock, 4, 10, ro) for _ in range(rng.randint(1, 2)))
    extras = [_mention(rng) for _ in range(rng.randint(1, 4))]
    extras += [_hashtag(rng, stock) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        extras.append(_url(rng))
    if rng.random() < 0.2:
        extras.append("&amp;")
    extras += [_emoji(rng) for _ in range(rng.randint(2, 5))]
    return " ".join(_scatter(rng, text.split(" "), extras))


def _pretrain_text(rng: random.Random) -> str:
    return " ".join(_sentence(rng, RO_WORDS, 6, 14, True)
                    for _ in range(rng.randint(2, 5)))


# --- archive lines -------------------------------------------------------------


def _timestamp(rng: random.Random) -> str:
    return (f"2022-{rng.randint(1, 12):02}-{rng.randint(1, 28):02}"
            f"T{rng.randint(0, 23):02}:{rng.randint(0, 59):02}:{rng.randint(0, 59):02}Z")


_MALFORMED = (
    '{"id": 1, "text": ',                       # truncated JSON
    '{"text": "fara id aici"}',                 # no id
    '{"id": -4, "text": "id negativ"}',         # id out of range
    '{"id": 77, "text": ""}',                   # empty text
    '{"id": 78, "text": "data rea", "created_at": "ieri"}',
    '[1, 2, 3]',
)


def _record(tweet_id: int, text: str, rng: random.Random, lang: str | None) -> str:
    obj: dict = {"id": tweet_id, "text": text}
    if rng.random() < 0.8:
        obj["created_at"] = _timestamp(rng)
    if lang is not None and rng.random() < 0.5:
        obj["lang"] = lang
    return json.dumps(obj, ensure_ascii=False)


def archive_lines(workload: Workload, seed: int) -> list[str]:
    """Raw archive lines: about 3 % id duplicates, 3 % text duplicates
    (case and spacing changed), 1 % malformed, the rest unique."""
    rng = random.Random(f"{workload.name}:{seed}")
    lines: list[str] = []
    texts: list[tuple[int, str]] = []
    next_id = 10**15 + rng.randrange(10**12)
    while len(lines) < workload.tweets:
        roll = rng.random()
        if roll < 0.01:
            lines.append(rng.choice(_MALFORMED))
            continue
        if texts and roll < 0.04:
            old_id, _ = rng.choice(texts)
            lines.append(json.dumps({"id": old_id, "text": "alt text " + str(roll)}))
            continue
        if texts and roll < 0.07:
            _, old_text = rng.choice(texts)
            next_id += rng.randint(1, 1000)
            dupe = "  ".join(old_text.upper().split(" "))
            lines.append(_record(next_id, dupe, rng, None))
            continue
        next_id += rng.randint(1, 1000)
        if workload.name == "pretrain":
            text, lang = _pretrain_text(rng), "ro"
        else:
            ro = rng.random() < 2 / 3
            stock, lang = (RO_WORDS, "ro") if ro else (EN_WORDS, "en")
            make = _emoji_dense_text if workload.name == "emoji-dense" else _archive_text
            text = make(rng, stock, ro)
        texts.append((next_id, text))
        lines.append(_record(next_id, text, rng, lang))
    return lines


def langid_corpus_lines(workload: Workload, seed: int) -> list[str]:
    rng = random.Random(f"{workload.name}:langid:{seed}")
    lines = []
    for _ in range(workload.langid_samples):
        for code, stock in (("ro", RO_WORDS), ("en", EN_WORDS)):
            lines.append(f"{code}\t{' '.join(_words(rng, stock, rng.randint(6, 14)))}")
    return lines


def base_vocab_tokens() -> list[str]:
    """A BERT-like base vocabulary, the same for every seed.

    Half of each word stock is whole tokens (lowercase and capitalized);
    the rest split into two-letter and single-letter ``##`` pieces.
    Reserved ``[unusedN]`` tokens fill it to BASE_VOCAB_SIZE, as in
    published BERT vocabularies.
    """
    tokens = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
    letters = "abcdefghijklmnopqrstuvwxyzăâî"
    chars = list(letters) + list(letters.upper()) + list("0123456789.,!?…:;-'\"()&<>/")
    tokens += chars + ["##" + c for c in chars]
    tokens += ["##" + a + b for a in letters[:26] for b in letters[:26]]
    for stock in (RO_WORDS, EN_WORDS):
        for word in stock[::2]:
            tokens += [word, word.capitalize()]
    seen: set[str] = set()
    tokens = [t for t in tokens if not (t in seen or seen.add(t))]
    tokens += [f"[unused{i}]" for i in range(BASE_VOCAB_SIZE - len(tokens))]
    return tokens


@dataclass(frozen=True)
class Inputs:
    archive: Path
    langid_corpus: Path | None
    base_vocab: Path


def generate(workload: Workload, seed: int, directory: Path) -> Inputs:
    directory.mkdir(parents=True, exist_ok=True)
    archive = directory / "archive.jsonl"
    archive.write_text("\n".join(archive_lines(workload, seed)) + "\n", encoding="utf-8")
    corpus = None
    if workload.language_id:
        corpus = directory / "langid.tsv"
        corpus.write_text("\n".join(langid_corpus_lines(workload, seed)) + "\n",
                          encoding="utf-8")
    base_vocab = directory / "base-vocab.txt"
    base_vocab.write_text("\n".join(base_vocab_tokens()) + "\n", encoding="utf-8")
    return Inputs(archive, corpus, base_vocab)
