"""Exception hierarchy shared across the simulator."""


class AirfedError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(AirfedError):
    """Invalid static configuration: dimensions, parameter ranges, schemes."""


class ProtocolError(AirfedError):
    """Runtime federation failure (e.g. a round diverged).

    When it stops a training run, `records` and `ledger` hold the rounds
    finished before it."""

    records = ()
    ledger = None


class SchemeError(AirfedError):
    """Transport scheme could not be realized for the current channel."""
