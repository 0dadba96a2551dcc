"""Exception types shared across the engine."""


class SemiqError(Exception):
    """Base class for all engine errors."""


class SingularScalarError(SemiqError, ZeroDivisionError):
    """Division by a scalar whose classical part vanishes."""


class JetDomainError(SemiqError, ValueError):
    """Univariate function applied outside its domain, or jet order exhausted."""


class ParseError(SemiqError, ValueError):
    """Expression text could not be parsed; carries the byte offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class UnknownSymbolError(ParseError):
    """Identifier is not a coordinate, alias, constant or known function."""


class EvalError(SemiqError, ValueError):
    """Expression is well formed but cannot be evaluated as requested."""


class DegenerateMetricError(SemiqError, ValueError):
    """Metric is not invertible at an evaluation point."""


class UnknownCheckError(SemiqError, KeyError):
    """Requested check id is not in the registered catalogue."""


class ConfigError(SemiqError, ValueError):
    """Geometry configuration file is invalid."""
