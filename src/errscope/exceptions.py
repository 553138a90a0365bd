"""Exception hierarchy shared by all errscope modules."""


class ErrscopeError(ValueError):
    """Base class for all errors raised by errscope."""


class MalformedHeader(ErrscopeError):
    """Not a prediction table: undecodable bytes, bad CSV header or syntax, misshapen JSON."""


class LengthMismatch(ErrscopeError):
    """Row or vector lengths disagree."""


class NonNumeric(ErrscopeError):
    """A cell could not be parsed as a number."""


class NonFinite(ErrscopeError):
    """A value is NaN or infinite."""


class DuplicateModelName(ErrscopeError):
    """Two model columns share the same name."""


class UnknownModel(ErrscopeError):
    """A referenced model name is not present in the prediction set."""


class DegenerateDistribution(ErrscopeError):
    """Too few or fully coincident points for the requested estimate."""


class MissingLayerInput(ErrscopeError):
    """A figure layer was requested without the data it needs."""
