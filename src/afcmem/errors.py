"""Exception hierarchy shared by all simulator modules, and the two checks that
the config sections and the domain values share: the count check and the
Python-number rule."""


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


def check_numbers(**values) -> None:
    """Reject each value that is not a Python int or float (booleans included).

    The frozen values that key the package's memos (the comb, the spin line,
    the pulse and the sequence) take their numbers through this check.  A
    numpy scalar other than float64, which subclasses float, compares and
    hashes equal to the Python number but computes at its own precision, so
    a memo would return whichever precision came first.
    """
    for name, value in values.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidArgumentError(f"{name} must be an int or a float, got {value!r}")
