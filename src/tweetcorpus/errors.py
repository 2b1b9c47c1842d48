"""Exception hierarchy shared across the pipeline.

Three families map onto process exit codes: configuration problems (1),
data problems (2), and I/O problems (3). A leaf class names a case that
code catches by name, damage to a file format, or a missing input; any
other check raises its family with a message saying what is wrong.
``check_types`` is the type check every config makes when it is built.
"""

import dataclasses
from functools import cache
from typing import get_type_hints

_field_types = cache(get_type_hints)  # annotations are strings; resolve each class once


class TweetCorpusError(Exception):
    """Base class for all package errors."""

    exit_code = 2
    stage: str | None = None  # the failing stage, once pipeline.run_stage names it


class ConfigInvalid(TweetCorpusError):
    """Invalid configuration or usage."""

    exit_code = 1


class DataError(TweetCorpusError):
    """Malformed or contract-violating input data."""

    exit_code = 2


class IOFailure(TweetCorpusError):
    """Underlying I/O failed (missing files, write errors)."""

    exit_code = 3


class InputMissing(IOFailure):
    """An input file does not exist or is not a file."""


class MalformedRecord(DataError):
    """An archive line that is not a tweet record; ``read_archive`` counts and skips it."""


class CorruptRecord(DataError):
    """A model or record file whose bytes are damaged."""


class VersionMismatch(DataError):
    """A model or record file written in another format version."""


class UnknownLabel(DataError):
    """A task label outside the task's label set."""


class InvalidBIO(DataError):
    """A BIO tag sequence that is malformed; ``read_conll`` adds the file position."""


def check_type(name: str, value, expected: type) -> None:
    """Raise ConfigInvalid unless ``value`` is an ``expected``: a bool is
    not an int, and an int is a float."""
    if not (type(value) is expected or (expected is float and type(value) is int)):
        raise ConfigInvalid(f"bad value for {name}: {value!r} is not {expected.__name__}")


def check_types(config) -> None:
    """``check_type`` on every field of dataclass ``config``, named by its
    ``key`` metadata if it has one."""
    types = _field_types(type(config))
    for f in dataclasses.fields(config):
        check_type(f.metadata.get("key", f.name), getattr(config, f.name), types[f.name])
