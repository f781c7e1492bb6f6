"""Exception types shared across the toolkit, and the integer test that
guards the integer parameters."""

from numbers import Integral


def is_integer(value) -> bool:
    """Whether ``value`` is an integer: a Python or numpy int, never a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class PdimpError(Exception):
    """Base class for all toolkit errors."""


class CsvError(PdimpError):
    """Malformed delimited input. ``row`` is the 1-based data row, when known."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class UnknownFeatureError(PdimpError, KeyError):
    """A feature name that does not exist in the dataset or model."""

    def __str__(self):
        return self.args[0] if self.args else ""


class ValidationError(PdimpError):
    """A dataset or schema invariant was violated."""


class ParameterError(PdimpError, ValueError):
    """An argument is out of its documented range."""


class ContractError(PdimpError):
    """Batch schema does not match what the model expects."""


class SingularDesignError(PdimpError):
    """Design matrix is rank deficient; ``columns`` names the collinear set."""

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


class ExpressionError(PdimpError):
    """Formula text could not be parsed or bound. ``position`` is a 0-based offset."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class GridStrategyError(PdimpError):
    """The grid strategy cannot give a feature finite points."""


class DegenerateGridError(PdimpError):
    """Too few grid points for the requested spread measure."""


class NonFiniteError(PdimpError):
    """A prediction, or a score computed from predictions, is NaN or infinite."""


class BridgeError(PdimpError):
    """Base class for external-model bridge failures."""


class SpawnError(BridgeError):
    """Child process could not be launched or failed its handshake."""


class ProtocolError(BridgeError):
    """Child violated the prediction wire protocol."""


class BridgeTimeoutError(BridgeError):
    """Child did not answer in time. ``received`` counts the partial response."""

    def __init__(self, message, received=0):
        super().__init__(message)
        self.received = received


class UsageError(PdimpError):
    """Bad command-line invocation."""
