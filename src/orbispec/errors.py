"""Exception types shared across the package."""


class UnsupportedGroupError(ValueError):
    """Requested group is outside the supported SL(n,R) product family."""


class ConfigError(ValueError):
    """A job configuration could not be parsed or validated."""


class ResourceLimitError(RuntimeError):
    """A configured resource cap (the element count) was exceeded."""


class NumericalError(RuntimeError):
    """A numerical routine cannot proceed safely (overflow, singular input)."""
