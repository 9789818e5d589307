"""Exception hierarchy shared by all simulator modules, and the one count check
that the config sections, afc and detection share."""


class AfcmemError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(AfcmemError, ValueError):
    """An argument violates a documented precondition or type invariant."""


class DomainError(AfcmemError, ValueError):
    """A quantity left the mathematical domain of an operation (e.g. p_n = 0)."""


class IntegrationAccuracyError(AfcmemError, RuntimeError):
    """The fixed-step integrator drifted beyond its accuracy budget."""


class CapacityError(AfcmemError, RuntimeError):
    """A schedule or resource limit was exceeded; the message names the constraint."""


class ConfigError(AfcmemError, ValueError):
    """Configuration could not be parsed or validated; carries diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


def check_count(name: str, value, minimum: int = 1, maximum: int | None = None) -> None:
    """Reject a count that is not an integer in [minimum, maximum] (booleans included)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvalidArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise InvalidArgumentError(f"{name} must be <= {maximum}, got {value}")
