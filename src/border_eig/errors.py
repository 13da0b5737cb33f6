"""Exception types shared across the package."""


class BorderEigError(Exception):
    """Base class for all library errors."""


class SizeLimitError(BorderEigError):
    """An input's estimated dense cost exceeds the admission budget."""


class LowerSetError(BorderEigError):
    """A candidate index set is not a valid lower set."""


class SchemaError(BorderEigError):
    """A JSON input does not match the expected schema."""

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class UnisolvenceError(BorderEigError):
    """A node set is not poised for interpolation over the given lower set."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class EigenConvergenceError(BorderEigError):
    """The QR eigensolver failed to converge."""
