"""Exception types shared across the package.

Everything derives from MulkiError so callers can catch the package's
failures in one clause. A bad config or CLI value is a ConfigError; a
malformed file, a shape mismatch or any other violated precondition is a
ContractError. The subclasses also inherit the closest builtin
(ValueError, RuntimeError) so generic handling keeps working.
"""

from __future__ import annotations


class MulkiError(Exception):
    """Base class for every error raised by this package."""


class ContractError(MulkiError, ValueError):
    """A documented precondition was violated: a malformed stream or checkpoint (naming the
    offending field), operands of incompatible shapes, a degenerate input or an unknown token id."""


class ConfigError(MulkiError, ValueError):
    """Invalid or unknown configuration key / value."""


class TrainingDivergedError(MulkiError, RuntimeError):
    """Training produced a non-finite loss; carries the loss breakdown dump, the seed that diverged, its lane
    (position in the stack) and in `records` the finished runs before it (from `runner.run_arms`, one list per arm)."""

    def __init__(self, message: str, breakdown=None, seed=None, lane=None):
        super().__init__(message)
        self.breakdown = breakdown
        self.seed = seed
        self.lane = lane
        self.records: list = []
