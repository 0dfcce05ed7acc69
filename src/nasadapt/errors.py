"""Exception types shared across the package."""


class NasAdaptError(Exception):
    """Base class for all package errors."""


class DimensionError(NasAdaptError):
    """Tensor shapes are inconsistent with the requested operation."""


class ParameterError(NasAdaptError):
    """An argument value is outside its legal range."""


class ContractError(NasAdaptError):
    """An API precondition was violated (missing gradient, non-scalar loss, ...)."""


class ParseError(NasAdaptError):
    """A configuration document failed validation.

    Carries the JSON path of the offending element so messages point at
    the exact field.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def in_file(self, file) -> "ParseError":
        """The same error, its path prefixed by the file the document came from."""
        return ParseError(f"{file}:{self.path}", self.message)
