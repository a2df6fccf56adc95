"""Central tolerance settings.

The numeric guards of the package read their thresholds from a single
Tolerances record; the tolerances of the check battery are written with
its checks, in selftest._CHECKS. The defaults reflect what double
precision actually delivers for 2- and 3-qubit linear algebra; none of
them are tuned per call site. Every field is read somewhere in the
package (tests/test_qcore.py::test_every_tolerance_is_read checks
that).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # state and operator validation
    state_norm: float = 1e-12       # |  ||psi||^2 - 1 |
    unitary: float = 1e-12          # max |U^dag U - 1|

    # coupling unitary
    mapping: float = 1e-10          # | U in_k - out_k |

    # protocol-level checks
    overlap: float = 1e-12          # embedding overlap reproduction
    monogamy: float = 1e-9          # spread of the three tangle sums
    tangle_consistency: float = 1e-9  # polynomial invariant vs residual route


DEFAULT = Tolerances()
