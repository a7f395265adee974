"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside the domain an operation accepts."""


class ConfigError(ValueError):
    """One or more scenario parameters are invalid.

    `errors` carries every violation found, not just the first.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class InternalConsistencyError(RuntimeError):
    """A quantity violated an internal sanity condition."""
