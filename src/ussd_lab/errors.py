"""Exception types raised across the package.

Everything derives from UssdLabError so callers can catch library
failures with a single except clause.
"""

import operator

import numpy as np


class UssdLabError(Exception):
    """Base class for all errors raised by this package."""


class RegisterClash(UssdLabError):
    """Tensor product of registers sharing a qubit label."""


class UnknownQubit(UssdLabError):
    """A qubit label that is not part of the register at hand."""


class ShapeError(UssdLabError):
    """Array dimensions inconsistent with the declared register."""


class DegenerateOverlap(UssdLabError):
    """State overlap of unit modulus: the two inputs cannot be told apart."""


class UndefinedPhase(UssdLabError):
    """Geometric phase requested for a loop with a degenerate vertex."""


class EmbeddingError(UssdLabError):
    """Concrete state vectors do not reproduce the declared overlaps."""


class PartitionError(UssdLabError):
    """Bipartition request that is empty or covers the whole register."""


class RangeError(UssdLabError):
    """Parameter outside its admissible interval."""


class NumericalError(UssdLabError):
    """Internal cross-check failed beyond its tolerance."""


def _count(value, name: str) -> int:
    """An integer count, or RangeError naming it (int() would cut 2.5)."""
    try:
        return operator.index(value)
    except TypeError:
        raise RangeError(f"{name} must be an integer, got {value!r}") from None


def _check(bad, error, message) -> None:
    """Raise error(message(i)) at the first entry i flagged in bad."""
    if np.count_nonzero(bad):
        raise error(message(int(np.flatnonzero(bad)[0])))
