"""Exception hierarchy shared across the package.

Exit-code contract for the CLI: ValidationError (and subclasses) map to
exit code 1, every other TriageError and I/O failure maps to exit code 2.
"""


class TriageError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TriageError):
    """Bad input data, configuration, or arguments."""


class CorpusFormatError(ValidationError):
    """A corpus file line that cannot be parsed into a valid record."""


class ConfigurationError(ValidationError):
    """Inconsistent tier/backend/run configuration."""


class BaselineFormatError(ValidationError):
    """A persisted baseline model file is unreadable or version-mismatched."""


class TransportError(TriageError):
    """Remote backend unreachable or timed out (retryable)."""


class RemoteStatusError(TriageError):
    """Remote backend answered with a non-success HTTP status."""


class RemoteProtocolError(TriageError):
    """Remote backend response violates the wire contract (shape/count)."""


class ScoreRangeError(TriageError):
    """A classifier score fell outside [0, 1] or was NaN."""


class TierExecutionError(TriageError):
    """A tier member failed while scoring a batch of reports."""
