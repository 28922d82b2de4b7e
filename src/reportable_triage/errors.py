"""Exception hierarchy shared across the package.

Two classes carry the CLI's exit-code contract: ValidationError, bad input
of any kind (arguments, config, corpus, outcomes, model file), exits 1;
every other TriageError, and any OSError, is a runtime failure and exits 2.
Each message starts with where the fault is: a file and line, a config key
path, a model path, or a backend and its reports.

The remote client raises four runtime kinds of its own, one per way the
wire contract can fail, so that a caller can tell a flaky network from a
broken service.
"""


class TriageError(Exception):
    """A runtime failure (exit 2), and the base of every error raised here."""


class ValidationError(TriageError):
    """Bad input data, configuration, or arguments (exit 1)."""


class TransportError(TriageError):
    """Remote backend unreachable or timed out (retryable)."""


class RemoteStatusError(TriageError):
    """Remote backend answered with a non-success HTTP status."""


class RemoteProtocolError(TriageError):
    """Remote backend response violates the wire contract (shape/count)."""


class ScoreRangeError(TriageError):
    """A classifier score fell outside [0, 1] or was NaN."""
