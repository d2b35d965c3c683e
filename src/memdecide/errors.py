"""Exception types shared across the package.

Everything derives from ValueError so that callers who do not care about the
distinction can catch a single built-in class.
"""


class DegenerateDataError(ValueError):
    """Calibration input admits no identifiable fit (e.g. one-sided outcomes)."""


class InsufficientDataError(ValueError):
    """Too few records to fit the requested model."""


class ConfigError(ValueError):
    """A run configuration failed schema validation."""
