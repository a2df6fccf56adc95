"""Brute-force oracles versus the closed-form layer."""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest

from ussd_lab.oracle import (
    GridSpec,
    decomposition_check,
    grid_min_concurrence,
    grid_optimize_success,
    quadrature_refine,
)
from ussd_lab.ussd import (
    make_instance,
    optimal_strategy,
    p_suc_max,
    separability_params,
    separable_strategy,
    system_ancilla_density,
)
from ussd_lab import oracle
from ussd_lab.errors import NumericalError, RangeError


def test_oracle_imports_no_closed_form():
    """Agreement with the closed forms is evidence only while the oracles
    do not compute with them: from the package, oracle.py may import the
    errors, the golden-section search and the concurrence, nothing else."""
    allowed = {("coherence", "_golden_min"), ("coherence", "wootters_concurrence")}
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("ussd_lab") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or
                                                   (node.module or "").startswith("ussd_lab")):
            module = (node.module or "").removeprefix("ussd_lab").lstrip(".")
            for alias in node.names:
                seen.add((module, alias.name))
                assert module == "errors" or (module, alias.name) in allowed, \
                    f"oracle.py imports {alias.name} from {module or 'the package'}"
    assert ("errors", "NumericalError") in seen


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(RangeError):
            GridSpec(1.0, 0.0, 10)
        with pytest.raises(RangeError):
            GridSpec(0.0, 1.0, 1)
        with pytest.raises(RangeError):
            GridSpec(0.0, 1.0, 10, refine=-1)

    def test_points_inclusive(self):
        pts = GridSpec(0.0, 1.0, 5).points()
        assert pts[0] == 0.0 and pts[-1] == 1.0 and len(pts) == 5


class TestSuccessSearch:
    def test_matches_closed_form_both_cases(self):
        for inst in (make_instance(0.2, 0.4, 0.0),
                     make_instance(0.4, 0.9, 0.0),
                     make_instance(0.3, 0.5 * np.exp(0.7j), 0.6 * np.exp(1.1j)),
                     make_instance(0.45, 0.97 * np.exp(2.0j), 0.3)):
            res = grid_optimize_success(inst, GridSpec(0.0, 1.0, 4001, 2))
            assert abs(res.value - p_suc_max(inst)) < 1e-9
            assert abs(res.abs_alpha_plus
                       - abs(optimal_strategy(inst).alpha_plus)) < 1e-4

    def test_vanishing_overlap(self):
        inst = make_instance(0.3, 0.0, 0.4)
        res = grid_optimize_success(inst, GridSpec(0.0, 1.0, 501, 1))
        assert abs(res.value - 1.0) < 1e-12
        assert abs(res.abs_alpha_plus) < 1e-6

    def test_respects_grid_bounds(self):
        inst = make_instance(0.2, 0.4, 0.0)
        res = grid_optimize_success(inst, GridSpec(0.95, 1.0, 201, 1))
        assert res.abs_alpha_plus >= 0.95 - 1e-12
        assert res.value < p_suc_max(inst)


class TestConcurrenceSearch:
    def test_argmin_agrees_with_closed_form(self):
        inst = make_instance(0.3, 0.45 * np.exp(0.8j), 0.6 * np.exp(0.4j))
        strat = separable_strategy(inst)
        res = grid_min_concurrence(inst, strat,
                                   GridSpec(0.0, math.pi / 2, 21, 2),
                                   GridSpec(0.0, 2 * math.pi, 41, 2))
        assert res.value < 1e-9
        assert abs(res.beta - strat.beta) < (math.pi / 2) / 20
        d = abs(res.delta - strat.delta) % (2 * math.pi)
        assert min(d, 2 * math.pi - d) < (2 * math.pi) / 40


class TestDecomposition:
    def _setup(self):
        inst = make_instance(0.35, 0.5 * np.exp(0.5j), 0.7 * np.exp(0.9j))
        strat = separable_strategy(inst)
        par = separability_params(inst, strat)
        rho = system_ancilla_density(inst, strat)
        return inst, strat, par, rho

    def test_valid_report_has_tiny_residuals(self):
        inst, strat, par, rho = self._setup()
        rep = decomposition_check(rho, par, inst, strat)
        assert rep.worst < 1e-12

    def test_perturbed_phase_is_caught(self):
        inst, strat, par, rho = self._setup()
        bad = dataclasses.replace(par, gamma2=par.gamma2 + 0.1)
        rep = decomposition_check(rho, bad, inst, strat)
        assert rep.reconstruction > 1e-3

    def test_perturbed_weight_is_caught(self):
        inst, strat, par, rho = self._setup()
        bad = dataclasses.replace(par, q1_plus=par.q1_plus + 0.01)
        rep = decomposition_check(rho, bad, inst, strat)
        assert rep.weight_plus > 1e-4
        assert rep.reconstruction > 1e-4

    def test_shape_guard(self):
        inst, strat, par, _ = self._setup()
        with pytest.raises(RangeError):
            decomposition_check(np.eye(2), par, inst, strat)


class TestQuadrature:
    def test_polar_test_integrals(self):
        t = quadrature_refine(lambda m: math.sin(m) ** 2)
        assert abs(t.value - math.pi / 2) < 1e-12
        assert t.final_delta < 1e-12
        t2 = quadrature_refine(math.sin, node_counts=(16, 64))
        assert abs(t2.value - 2.0) < 1e-12

    def test_table_shape(self):
        t = quadrature_refine(lambda m: m, node_counts=(4, 8, 16))
        assert [r.nodes for r in t.rows] == [4, 8, 16]
        assert math.isnan(t.rows[0].delta)
        assert t.rows[-1].delta >= 0.0

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(NumericalError):
            quadrature_refine(lambda m: float("nan"))

    def test_node_count_validation(self):
        with pytest.raises(RangeError):
            quadrature_refine(math.sin, node_counts=(1,))
        with pytest.raises(RangeError):
            quadrature_refine(math.sin, node_counts=())
