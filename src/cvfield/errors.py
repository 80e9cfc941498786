"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed input file.  Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionError(ValueError):
    """Inconsistent dimensions between related quantities."""


class DataError(ValueError):
    """Structurally valid input that violates a semantic requirement."""


class ConfigError(ValueError):
    """Invalid or unknown configuration value."""


class IntegrationError(RuntimeError):
    """ODE integration failed.  Carries the last valid state and time."""

    def __init__(self, message, last_time=None, last_state=None):
        super().__init__(message)
        self.last_time = last_time
        self.last_state = last_state
