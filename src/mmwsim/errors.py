"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An input is outside the domain an operation accepts.

    `errors` carries every violation found, not just the first; a message
    string is one violation.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class InternalConsistencyError(RuntimeError):
    """A quantity violated an internal sanity condition."""
