"""Exception hierarchy shared across the pipeline.

Three families map onto process exit codes: configuration problems (1),
data problems (2), and I/O problems (3).
"""


class TweetCorpusError(Exception):
    """Base class for all package errors."""

    exit_code = 2
    stage: str | None = None  # the failing stage, once pipeline.run_stage names it


class ConfigError(TweetCorpusError):
    """Invalid configuration or usage."""

    exit_code = 1


class DataError(TweetCorpusError):
    """Malformed or contract-violating input data."""

    exit_code = 2


class IOFailure(TweetCorpusError):
    """Underlying I/O failed (missing files, write errors)."""

    exit_code = 3


# ingest
class MalformedRecord(DataError):
    pass


class InvalidEncoding(DataError):
    pass


# langid
class InsufficientLanguages(DataError):
    pass


class EmptySample(DataError):
    pass


class EmptyAfterStripping(DataError):
    pass


# segment
class EmptyText(DataError):
    pass


class MalformedLayout(DataError):
    pass


class SinkFailure(IOFailure):
    pass


# vocab
class EmptyTable(DataError):
    pass


class DuplicateWithinAdditions(DataError):
    pass


class IdOutOfRange(DataError):
    pass


# pretrain
class NoCandidates(DataError):
    pass


class TooFewDocuments(DataError):
    pass


class CorruptRecord(DataError):
    pass


class VersionMismatch(DataError):
    pass


# tasks
class ShapeMismatch(DataError):
    pass


class LengthMismatch(DataError):
    pass


class UnknownLabel(DataError):
    pass


class MalformedRow(DataError):
    pass


class InvalidBIO(DataError):
    pass


# cli / pipeline
class ConfigInvalid(ConfigError):
    pass


class InputMissing(IOFailure):
    pass
