"""Rule-based sentence splitting and document-file layout.

Document files feed the pretraining-instance generator: one sentence per
line, one empty line between documents, trailing newline at EOF.
"""

from __future__ import annotations

import functools
import importlib.resources
import re
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, Iterable, Iterator, TextIO

from .errors import CorruptRecord, DataError
from .normalize import collapse_whitespace, read_text_lines, text_line_blocks

# A run of terminators; a boundary can follow it (see split_sentences).
_BOUNDARY_RE = re.compile(r"[!.?…]+")


def load_abbreviations(path, source: BinaryIO | None = None) -> frozenset[str]:
    """One lowercase abbreviation per line of ``path``, or its ``source``; '#' starts a comment."""
    out = set()
    for line in read_text_lines(path, source=source):
        word = line.strip().lower()
        if word and not word.startswith("#"):
            out.add(word if word.endswith(".") else word + ".")
    return frozenset(out)


@functools.cache
def default_abbreviations() -> frozenset[str]:
    ref = importlib.resources.files("tweetcorpus.data") / "abbreviations.txt"
    with importlib.resources.as_file(ref) as path:
        return load_abbreviations(path)


def _starts_sentence(ch: str) -> bool:
    return ch.isupper() or ch.isdigit()


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> list[str]:
    """Split a tweet into sentences.

    A boundary sits after a terminator run that is followed by
    whitespace and an uppercase letter or digit (placeholder tokens are
    uppercase, so they qualify), unless the token holding a lone "." is
    a known abbreviation (``default_abbreviations()`` when
    ``abbreviations`` is None). Whitespace runs are collapsed to single
    spaces first, so no sentence ever contains a newline.
    """
    text = collapse_whitespace(text)
    if not text:
        raise DataError("cannot split empty text")
    if abbreviations is None:
        abbreviations = default_abbreviations()
    sentences = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        end = m.end()
        if end >= len(text):
            break
        # collapsed text never ends in a space, so end+1 is in range
        if text[end] != " " or not _starts_sentence(text[end + 1]):
            continue
        if m.group() == ".":
            token_start = text.rfind(" ", 0, m.start()) + 1
            if text[token_start:end].lower() in abbreviations:
                continue
        sentences.append(text[start:end])
        start = end + 1
    sentences.append(text[start:])  # never empty: start is 0 or at a capital or digit
    return sentences


@dataclass(frozen=True)
class Document:
    """Ordered sentences of one tweet; all non-empty, newline-free."""

    sentences: tuple[str, ...]

    def __post_init__(self):
        if not self.sentences:
            raise DataError("document has no sentences")
        for s in self.sentences:
            if not s or "\n" in s:
                raise DataError(f"bad sentence {s!r}")

    def __iter__(self):
        return iter(self.sentences)

    def __len__(self):
        return len(self.sentences)


def write_documents(documents: Iterable[Document], sink: TextIO) -> int:
    """One sentence per line, one empty line between documents."""
    count = 0
    for doc in documents:
        if count:
            sink.write("\n")
        for sentence in doc.sentences:
            sink.write(sentence)
            sink.write("\n")
        count += 1
    return count


def read_documents(source: Iterable[str]) -> Iterator[Document]:
    """Inverse of write_documents; rejects layout damage early."""
    pending: list[str] = []
    for lineno, line in enumerate(source, 1):
        line = line.rstrip("\n")
        if line:
            pending.append(line)
        else:
            if not pending:
                raise DataError(f"line {lineno}: empty document")
            yield Document(tuple(pending))
            pending = []
    if pending:
        yield Document(tuple(pending))


def read_document_file(path, source: BinaryIO | None = None) -> Iterator[Document]:
    """Stream the documents of the UTF-8 document file ``path``, read from
    ``source``, its open binary stream, if given (and closed at the end);
    damage raises DataError naming the file."""
    with open(path, "rb") if source is None else source as fh:
        lines = chain.from_iterable(text_line_blocks(path, fh, CorruptRecord))
        try:
            # CorruptRecord names path:line itself; read_documents names only the line
            yield from read_documents(lines)
        except CorruptRecord:
            raise
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
