"""Exception types shared across the package.

Everything derives from MulkiError so callers can catch the package's
failures in one clause. The subclasses also inherit the closest builtin
(ValueError, KeyError, RuntimeError) so generic handling keeps working.
"""

from __future__ import annotations


class MulkiError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatchError(MulkiError, ValueError):
    """Operands have incompatible shapes for the requested operation."""


class DegenerateInputError(MulkiError, ValueError):
    """Input is numerically degenerate, e.g. a zero vector fed to a normalizer."""


class ContractError(MulkiError, ValueError):
    """A documented precondition of an operation was violated."""


class ConfigError(MulkiError, ValueError):
    """Invalid or unknown configuration key / value."""


class StreamFormatError(MulkiError, ValueError):
    """A stream file is malformed; the message names the offending field."""


class UnknownTokenError(MulkiError, KeyError):
    """A token id falls outside the model's vocabulary."""


class TrainingDivergedError(MulkiError, RuntimeError):
    """Training produced a non-finite loss; carries the loss breakdown dump, the seed that
    diverged and (from `runner.run_stream`) in `records` the finished runs of the seeds before it."""

    def __init__(self, message: str, breakdown=None, seed=None):
        super().__init__(message)
        self.breakdown = breakdown
        self.seed = seed
        self.records: list = []
