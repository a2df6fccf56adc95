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


class RangeError(UssdLabError):
    """Parameter outside its admissible interval."""


class NumericalError(UssdLabError):
    """Internal cross-check failed beyond its tolerance."""


def _integer(value, name: str) -> int:
    """An integer, or RangeError naming it (int() would cut 2.5, and
    operator.index would take True as 1)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise RangeError(f"{name} must be an integer, got {value!r}")


def _count(value, name: str) -> int:
    """An integer count that numpy can size an array with: at most
    np.iinfo(np.intp).max, or RangeError naming it before any allocation."""
    n = _integer(value, name)
    if n > np.iinfo(np.intp).max:
        raise RangeError(f"{name} must be at most {np.iinfo(np.intp).max}, got {n!r}")
    return n


def _check(bad, error, message) -> None:
    """Raise error(message(i)) at the first entry i flagged in bad."""
    if np.count_nonzero(bad):
        raise error(message(int(np.flatnonzero(bad)[0])))


def _nowhere(i) -> str:
    return ""


def _entries(value, *paired) -> tuple:
    """The one-or-many rule of every stacked entry point: an iterable
    value is a sequence of entries, anything else one entry. Returns
    (single, entries, *paired, where): value and each paired argument as
    a list (of one item for one entry), and where(i) the suffix that
    names entry i in a message, " (inst[i])" for a sequence and none
    for one entry."""
    if not np.iterable(value):
        return (True, [value], *([v] for v in paired), _naming(True))
    return (False, list(value), *(list(v) for v in paired), _naming(False))


def _naming(single: bool):
    """_entries' where for one entry, or for a sequence of them."""
    return _nowhere if single else lambda i: f" (inst[{i}])"
