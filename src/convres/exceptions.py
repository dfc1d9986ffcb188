"""Exception types shared across the library."""


class ConvresError(Exception):
    """Base class for all library errors."""


class ShapeError(ConvresError):
    """Operands with non-conforming shapes."""


class TrainingError(ConvresError):
    """Optimization failed (non-finite loss, gradient or parameter)."""


class ParseError(ConvresError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class CapacityError(ConvresError):
    """Requested exact computation exceeds enumeration limits."""


class EmptyDocumentError(ConvresError):
    """Document contains no tokens."""


class LabelMismatchError(ConvresError):
    """Corpus labels incompatible with the model's label vocabulary."""


class ConfigError(ConvresError):
    """Invalid configuration value."""


class MetricError(ConvresError):
    """Metric undefined on the given inputs."""
