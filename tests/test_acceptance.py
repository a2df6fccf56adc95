"""Acceptance suite: every check of the selftest registry, at the battery
inputs and, where listed in ACCEPTANCE, again at larger acceptance inputs.

The checks are the package's one statement of its guarantees
(``ussd_lab.selftest``), so the -v listing of this file doubles as the
acceptance report. Only what is not one number against a tolerance is
written out as a plain test here.
"""

import math

import numpy as np
import pytest

from ussd_lab import selftest
from ussd_lab.teleport import TeleportInstance, branch_to_ussd
from ussd_lab.ussd import bargmann_phase

CHECKS = {name: (tol, fn) for name, tol, fn in selftest._CHECKS}
OPEN_END = np.linspace(0.0, 1.0 - 1e-9, 101)

ACCEPTANCE = {
    "success_grid_oracle": {"seed": 101, "count": 50, "points": 801},
    "success_born_rule": {"seed": 101, "count": 50, "saturation": (False, True)},
    "separability_zero": {"seed": 102, "count": 50},
    "separability_argmin": {"seeds": (3, 9, 21, 40)},
    "conservation": {"seed": 103, "count": 200},
    "closed_form_ledger_grid": {"ps": np.linspace(0.06, 0.94, 10),
                                "aas": np.linspace(0.05, 0.95, 10),
                                "acs": np.linspace(0.0, 0.95, 10),
                                "gs": np.linspace(0.0, 2.0 * math.pi * 7 / 8, 8)},
    "monogamy_random": {"seed": 105, "count": 1000},
    "fig3_share_monotone_interior": {"aas": OPEN_END},
    "fig3_share_saturated": {"aas": OPEN_END},
    "band_share_closed": {"seed": 111, "count": 20000},
    "teleport_total_closed": {"rhos": np.linspace(0.0, math.pi / 4, 100)},
    "teleport_state_independent": {
        "mus": np.linspace(0.0, math.pi, 20),
        "nus": np.linspace(0.0, 2.0 * math.pi * (1 - 1e-12), 20)},
    "teleport_fidelity": {"instances": ((0.1, 0.8, 0.3), (0.35, 1.1, 2.2),
                                        (0.5, 1.9, 4.0), (0.7, 2.8, 5.5))},
    "teleport_branch_ledger": {"rhos": np.linspace(0.1, 0.7, 4)},
    "fig4_share_profile": {"tangles": np.linspace(0.0, 1.0, 50), "nodes": 64},
    "bargmann_equality": {"seed": 110, "count": 100},
    "bargmann_gauge": {"seed": 110, "count": 100},
    "bargmann_teleport_branches": {"mus": (0.7, math.pi / 2, 2.4)},
}

RUNS = [pytest.param(name, {}, id=f"{name}-battery") for name in CHECKS]
RUNS += [pytest.param(name, kwargs, id=f"{name}-acceptance")
         for name, kwargs in ACCEPTANCE.items()]


@pytest.mark.parametrize("name, kwargs", RUNS)
def test_check(name, kwargs):
    tol, fn = CHECKS[name]
    value, detail = fn(**kwargs)
    assert value <= tol, f"{name}: {value!r} > {tol!r} ({detail})"


def test_acceptance_names_are_registry_checks():
    assert set(ACCEPTANCE) <= set(selftest.available_checks())


def test_g10_carrier_loop_phases_are_exactly_0_or_pi():
    seen = set()
    for rho in (0.2, 0.6):
        for mu in (0.7, math.pi / 2, 2.4):
            for b in (0, 1):
                rec = branch_to_ussd(TeleportInstance(rho, mu, 1.3), b)
                ph = abs(bargmann_phase(rec.ussd_instance))
                assert ph in (0.0, math.pi)
                seen.add(ph)
    assert seen == {0.0, math.pi}

