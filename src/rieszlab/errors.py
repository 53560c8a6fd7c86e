"""Shared exception types and the checks on outside input.

DomainError marks inputs outside an operation's contract (the CLI maps it to
exit code 2); ToleranceError marks a numerical budget or tolerance that could
not be met (exit code 3).
"""

import math
import numbers

import numpy as np


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


def as_floats(values, what):
    """values (nested lists of numbers) as a float array; DomainError for any
    string, bool or other non-number entry: a JSON "2.5" or true is no 2.5."""
    items = np.asarray(values, dtype=object)
    for v in items.ravel():
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise DomainError("%s must be numbers" % what)
    return items.astype(float)


def as_positive(value, what):
    """value as a positive finite float; DomainError otherwise."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError("%s must be a positive finite number" % what)
    return value


def as_point(x, n, what="point"):
    """x as a finite float vector of shape (n,); DomainError otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        raise DomainError("%s must be a finite vector of shape (n,)" % what)
    return x
