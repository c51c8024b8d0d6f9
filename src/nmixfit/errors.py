"""Exception hierarchy shared across the package.

The command line interface maps each branch to a distinct exit code, so
raising the right subclass matters more than the message wording.
"""


class NmixError(Exception):
    """Base class for all errors raised by this package."""


class DataError(NmixError):
    """Malformed input files or inconsistent user-supplied data."""


class ModelError(NmixError):
    """Invalid model specification: dimension mismatches, rank deficiency."""


class NumericError(NmixError):
    """Numeric failure: overflow, an exhausted term budget, non-finite
    intermediate; the message names the table row or posterior draw at fault."""
