"""Shared exception types and the integer check on outside input.

DomainError marks inputs outside an operation's contract (the CLI maps it to
exit code 2); ToleranceError marks a numerical budget or tolerance that could
not be met (exit code 3).
"""

import numbers


class DomainError(ValueError):
    pass


class PoleError(DomainError):
    """Evaluation point within the pole radius of a mass center."""


class ToleranceError(RuntimeError):
    def __init__(self, message, partial=None):
        super().__init__(message)
        # best value computed before the budget ran out, if any
        self.partial = partial


def as_int(value, what):
    """value as an int; DomainError for fractions, floats, strings and bools.

    bool is an Integral (True == 1), so it is refused by name: a JSON true
    must not be read as a dimension or a coordinate.
    """
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise DomainError("%s must be an integer" % what)
    return int(value)
