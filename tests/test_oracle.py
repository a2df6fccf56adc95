"""Brute-force oracles versus the closed-form layer, and the oracles'
coarse array passes versus their point-by-point scans."""

import ast
import dataclasses
import itertools
import math
import pathlib
import re

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
    coupled_state,
    make_instance,
    optimal_strategy,
    p_suc_max,
    separability_params,
    separable_strategy,
    system_ancilla_factor,
)
from ussd_lab import oracle
from ussd_lab.errors import NumericalError, RangeError
from ussd_lab.qcore import Unitary
from test_array_chain import recording, reference_golden_min, schedule


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

    @pytest.mark.parametrize("args, field", [
        ((0.0, math.inf, 10), "upper"),
        ((-math.inf, 1.0, 10), "lower"),
        ((math.nan, 1.0, 10), "lower"),
        ((0.0, 1.0, 2.5), "count"),
        ((0.0, 1.0, 10.0), "count"),
        ((0.0, 1.0, 10, 1.5), "refine"),
        ((0.0, 1.0, True), "count"),
        ((0.0, 1.0, np.True_), "count"),
        ((0.0, 1.0, 5, True), "refine"),
        ((0.0, 1.0, 5, False), "refine"),
    ])
    def test_rejects_nonfinite_bounds_and_fractional_counts(self, args, field):
        with pytest.raises(RangeError, match=f"GridSpec.{field} "):
            GridSpec(*args)

    @pytest.mark.parametrize("count", [10 ** 20, 2 ** 63])
    def test_rejects_counts_beyond_the_index_range(self, count):
        with pytest.raises(RangeError, match=rf"^GridSpec.count must be at most "
                                             rf"{np.iinfo(np.intp).max}, got {count}$"):
            GridSpec(0.0, 1.0, count)

    def test_accepts_numpy_scalars(self):
        g = GridSpec(np.float64(0.0), np.float64(1.0), np.int64(3), np.int64(0))
        assert g.points().tolist() == [0.0, 0.5, 1.0]

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
        fac = system_ancilla_factor(coupled_state(inst, strat))
        return inst, strat, par, fac

    def test_valid_report_has_tiny_residuals(self):
        inst, strat, par, fac = self._setup()
        rep = decomposition_check(fac, par, inst, strat)
        assert rep.worst < 1e-12

    def test_perturbed_phase_is_caught(self):
        inst, strat, par, fac = self._setup()
        bad = dataclasses.replace(par, gamma2=par.gamma2 + 0.1)
        rep = decomposition_check(fac, bad, inst, strat)
        assert rep.reconstruction > 1e-3

    def test_perturbed_weight_is_caught(self):
        inst, strat, par, fac = self._setup()
        bad = dataclasses.replace(par, q1_plus=par.q1_plus + 0.01)
        rep = decomposition_check(fac, bad, inst, strat)
        assert rep.weight_plus > 1e-4
        assert rep.reconstruction > 1e-4

    def test_shape_guard(self):
        inst, strat, par, _ = self._setup()
        with pytest.raises(RangeError):
            decomposition_check(np.eye(2), par, inst, strat)

    @pytest.mark.parametrize("bad", [Unitary(("S", "A"), np.eye(4)), "rho", None,
                                     [[1.0] * 4] * 3 + [[1.0]], np.eye(4, dtype=bool)])
    def test_only_a_numeric_matrix_is_read(self, bad):
        inst, strat, par, _ = self._setup()
        with pytest.raises(RangeError, match="^expected a numeric 4 x r factor"):
            decomposition_check(bad, par, inst, strat)

    def test_report_fields_are_floats(self):
        inst, strat, par, fac = self._setup()
        rep = decomposition_check(fac.tolist(), par, inst, strat)
        assert [type(getattr(rep, f.name)) for f in dataclasses.fields(rep)] == [float] * 4
        assert rep.worst < 1e-12


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

    @pytest.mark.parametrize("counts, name", [
        ((8.7, 16), r"node_counts\[0\]"), ((8, 16.0), r"node_counts\[1\]"),
        ((True, 16), r"node_counts\[0\]"), ((8, np.True_), r"node_counts\[1\]")])
    def test_non_integer_node_count_is_named(self, counts, name):
        # int() would have cut 8.7 to 8 nodes without a word
        with pytest.raises(RangeError, match=rf"^{name} must be an integer"):
            quadrature_refine(math.sin, node_counts=counts)
        t = quadrature_refine(math.sin, node_counts=(np.int64(8), 16))
        assert [r.nodes for r in t.rows] == [8, 16]
        with pytest.raises(RangeError):
            quadrature_refine(math.sin, node_counts=())


# ---------------------------------------------------------------------------
# the coarse scans as array passes, held to the point-by-point scans
#
# The point-by-point scans below are the coarse loops the array passes
# replaced, kept as references with their golden-section refinements,
# which run the one-bracket scalar reference_golden_min, not the search
# under test.
# Cells and results are compared with ==: the selftest report prints the
# oracle's winners, and numpy's array complex multiply (which may fuse a
# product into a sum) would already move last bits.

def reference_zeta_pair(alpha_plus, alpha_minus, beta, delta):
    """The coupled sub-states at one failure direction, with scalar
    complex products."""
    ap, am = complex(alpha_plus), complex(alpha_minus)
    bp = math.sqrt(max(0.0, 1.0 - abs(ap) ** 2))
    bm = math.sqrt(max(0.0, 1.0 - abs(am) ** 2))
    e0, e1 = math.cos(beta), math.sin(beta) * np.exp(1j * delta)
    zp = np.array([bp, ap * e0, 0.0, ap * e1], dtype=complex)
    zm = np.array([0.0, am * e0, bm, am * e1], dtype=complex)
    return zp, zm


def reference_rho_sa(inst, strat, beta, delta):
    """The factor V of one system-ancilla state, rho_SA = V V^dag, built
    as a single 4 x 2 matrix, column by column."""
    zp, zm = reference_zeta_pair(strat.alpha_plus, strat.alpha_minus, beta, delta)
    rp, rm = float(inst.r_plus), float(inst.r_minus)
    ac = complex(inst.alpha_c)
    env1 = math.sqrt((1.0 - abs(ac)) * (1.0 + abs(ac)))
    return np.stack([math.sqrt(rp) * zp + math.sqrt(rm) * ac.conjugate() * zm,
                     math.sqrt(rm) * env1 * zm], axis=-1)


def reference_coarse_concurrence(inst, strat, beta_grid, delta_grid):
    """Every coarse cell, one 4 x 2 factor at a time, and the full search
    result (beta, delta, value) with the refinement."""
    betas, deltas = beta_grid.points(), delta_grid.points()

    def conc(beta, delta):
        return oracle.wootters_concurrence(reference_rho_sa(inst, strat, beta, delta))

    cells = np.empty((betas.size, deltas.size))
    best = (math.inf, 0.0, 0.0)
    for i, b in enumerate(betas):
        for j, d in enumerate(deltas):
            v = cells[i, j] = conc(float(b), float(d))
            if v < best[0]:
                best = (v, float(b), float(d))
    value, beta, delta = best
    bcell = (beta_grid.upper - beta_grid.lower) / (beta_grid.count - 1)
    dcell = (delta_grid.upper - delta_grid.lower) / (delta_grid.count - 1)
    for _ in range(max(beta_grid.refine, delta_grid.refine)):
        blo = max(beta_grid.lower, beta - bcell)
        bhi = min(beta_grid.upper, beta + bcell)
        beta, value = reference_golden_min(lambda b: conc(b, delta), blo, bhi, tol=1e-12)
        dlo = max(delta_grid.lower, delta - dcell)
        dhi = min(delta_grid.upper, delta + dcell)
        delta, value = reference_golden_min(lambda d: conc(beta, d), dlo, dhi, tol=1e-12)
        bcell = max(bhi - blo, 1e-9) * 1e-2
        dcell = max(dhi - dlo, 1e-9) * 1e-2
    return cells, (beta, delta, value)


def reference_success_objective(rp, rm, a, m):
    if a == 0.0:
        partner = 0.0
    elif m <= 0.0:
        return -math.inf
    else:
        partner = a / m
    if partner > 1.0 + 1e-12:
        return -math.inf
    return rp * (1.0 - m * m) + rm * (1.0 - partner * partner)


def reference_success_search(inst, grid):
    """grid_optimize_success with the objective evaluated point by point."""
    rp, rm = float(inst.r_plus), float(inst.r_minus)
    a = abs(inst.alpha)
    lo, hi = max(grid.lower, a), min(grid.upper, 1.0)

    def objective(m):
        return reference_success_objective(rp, rm, a, m)

    pts = np.linspace(lo, hi, grid.count)
    vals = np.array([objective(float(m)) for m in pts])
    i = int(np.argmax(vals))
    best_m, best_v = float(pts[i]), float(vals[i])
    cell = (hi - lo) / (grid.count - 1)
    for _ in range(grid.refine):
        wlo, whi = max(lo, best_m - cell), min(hi, best_m + cell)
        x, neg = reference_golden_min(lambda m: -objective(m), wlo, whi, tol=1e-12)
        if -neg >= best_v:
            best_m, best_v = x, -neg
        cell = max((whi - wlo) * 1e-3, 1e-12)
    return best_m, best_v


def _scan_draws(seed, n):
    """n random instances, edges first: alpha_c = 0, alpha = 0, and
    saturated instances whose separable beta is pi/2 (delta degenerate)."""
    rng = np.random.default_rng(seed)

    def phase():
        return np.exp(1j * rng.uniform(0.0, 2 * math.pi))

    draws = [make_instance(rng.uniform(0.05, 0.5), rng.uniform(0.1, 0.9) * phase(), 0.0),
             make_instance(rng.uniform(0.05, 0.5), 0.0, rng.uniform(0.1, 0.9) * phase())]
    while sum(d.case == "saturated" for d in draws) < 3:
        p = rng.uniform(0.05, 0.3)
        draws.append(make_instance(p, rng.uniform(math.sqrt(p / (1 - p)), 0.95) * phase(),
                                   rng.uniform(0.0, 0.95) * phase()))
    while len(draws) < n:
        draws.append(make_instance(rng.uniform(0.02, 0.5), rng.uniform(0.0, 0.95) * phase(),
                                   rng.uniform(0.0, 1.0) * phase()))
    return draws


def assert_same_bits(got, want):
    """== on every entry, and the same sign on every zero."""
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


SCAN_DRAWS = _scan_draws(21, 20)
BETA_GRID = GridSpec(0.0, math.pi / 2, 25, 2)
DELTA_GRID = GridSpec(0.0, 2 * math.pi, 49, 2)


def coarse_pairs():
    """The (beta, delta) pairs of the coarse grid, row-major."""
    betas, deltas = BETA_GRID.points(), DELTA_GRID.points()
    return np.repeat(betas, deltas.size), np.tile(deltas, betas.size)


class TestCoarseScans:
    def test_draws_cover_the_edges(self):
        assert any(abs(d.alpha_c) == 0.0 for d in SCAN_DRAWS)
        assert any(abs(d.alpha) == 0.0 for d in SCAN_DRAWS)
        assert sum(separable_strategy(d).beta == math.pi / 2 for d in SCAN_DRAWS) >= 3

    @pytest.mark.parametrize("inst", SCAN_DRAWS)
    def test_concurrence_scan_is_the_point_loop(self, inst):
        strat = separable_strategy(inst)
        cells, want = reference_coarse_concurrence(inst, strat, BETA_GRID, DELTA_GRID)
        betas, deltas = coarse_pairs()
        got = oracle.wootters_concurrence(oracle._rho_sa_row(inst, strat, betas, deltas))
        assert np.array_equal(got, cells.reshape(-1))
        # the grid form, a column of betas against a row of deltas, as
        # grid_min_concurrence builds it: the same rows, bit for bit
        assert_same_bits(oracle._rho_sa_row(inst, strat, BETA_GRID.points()[:, None],
                                            DELTA_GRID.points()),
                         oracle._rho_sa_row(inst, strat, betas, deltas))
        res = grid_min_concurrence(inst, strat, BETA_GRID, DELTA_GRID)
        assert (res.beta, res.delta, res.value) == want

    def test_row_stack_is_the_point_matrices(self):
        """Paired (beta, delta) rows at grid points, negative phases and
        the separable direction, which decomposition_check reads as a
        stack of one, in one call per draw."""
        grid = np.concatenate([DELTA_GRID.points(), -DELTA_GRID.points()[1:]])
        for inst in SCAN_DRAWS:
            strat = separable_strategy(inst)
            betas, deltas = (np.array(x) for x in zip(*itertools.product(
                (0.0, 0.3, math.pi / 2, strat.beta), np.append(grid, strat.delta).tolist())))
            got = oracle._rho_sa_row(inst, strat, betas, deltas)
            want = np.array([reference_rho_sa(inst, strat, b, d)
                             for b, d in zip(betas.tolist(), deltas.tolist())])
            assert_same_bits(got, want)
            zetas = [reference_zeta_pair(strat.alpha_plus, strat.alpha_minus, b, d)
                     for b, d in zip(betas.tolist(), deltas.tolist())]
            for got_z, want_z in zip(oracle._zeta_rows(strat.alpha_plus, strat.alpha_minus,
                                                       betas, deltas), zip(*zetas)):
                assert_same_bits(got_z, np.array(want_z))

    @pytest.mark.parametrize("inst", SCAN_DRAWS[:4])
    def test_coarse_stack_is_the_point_matrices(self, inst):
        """The coarse pairs four times over, so that the (N, 4) products
        are above the 256 KiB at which numpy turns an operation on a
        temporary into an in-place one, operands swapped."""
        strat = separable_strategy(inst)
        betas, deltas = (np.tile(x, 4) for x in coarse_pairs())
        got = oracle._rho_sa_row(inst, strat, betas, deltas)
        assert got[:, :, 0].nbytes > 256 * 1024
        assert_same_bits(got, np.array([reference_rho_sa(inst, strat, b, d) for b, d
                                        in zip(betas.tolist(), deltas.tolist())]))

    def test_coarse_pass_is_one_stacked_call(self, monkeypatch):
        shapes, conc, search, steps = [], oracle.wootters_concurrence, oracle._golden_min, []

        def counting(fac):
            shapes.append(np.shape(fac))
            return conc(fac)

        def searching(f, lo, hi, tol):
            # the steps of the one-point reference on the same bracket,
            # whose calls are not counted
            visits, n = [], len(shapes)
            reference_golden_min(recording(lambda v: float(f(None, np.array([v]))[0]), visits),
                                 float(lo[0]), float(hi[0]), tol)
            del shapes[n:]
            steps.append(len(visits) - 3)
            return search(f, lo, hi, tol)

        monkeypatch.setattr(oracle, "wootters_concurrence", counting)
        monkeypatch.setattr(oracle, "_golden_min", searching)
        inst = SCAN_DRAWS[-1]
        grid_min_concurrence(inst, separable_strategy(inst), BETA_GRID, DELTA_GRID)
        assert shapes[0] == (25 * 49, 4, 2)
        # the refinement: one call per round of each one-bracket search,
        # up to the 15 points of its four steps, and two more per search
        # (its start points and its midpoint)
        assert len(steps) == 2 * max(BETA_GRID.refine, DELTA_GRID.refine)
        assert len(shapes) == 1 + sum(len(schedule([s])) + 2 for s in steps)
        assert all(len(s) == 3 and 1 <= s[0] <= 15 for s in shapes[1:])

    @pytest.mark.parametrize("inst", SCAN_DRAWS + [make_instance(0.3, 0.0, 0.0)])
    def test_success_search_is_the_point_loop(self, inst):
        grid = GridSpec(0.0, 1.0, 3001, 2)
        res = grid_optimize_success(inst, grid)
        assert (res.abs_alpha_plus, res.value) == reference_success_search(inst, grid)
        rp, rm, a = float(inst.r_plus), float(inst.r_minus), abs(inst.alpha)
        # both domain guards, and the partner's 1e-12 slack at m = a
        edge = a * np.array([1.0 - 1e-11, 1.0 - 5e-13, 1.0, 1.0 + 1e-13])
        m = np.concatenate([np.linspace(-0.5, 1.0, 3001), edge])
        want = [reference_success_objective(rp, rm, a, float(x)) for x in m]
        assert np.array_equal(oracle._success_objective(rp, rm, a, m), want)
        assert [float(oracle._success_objective(rp, rm, a, float(x))) for x in m[::100]] \
            == want[::100]


class TestSuccessStack:
    INSTANCES = SCAN_DRAWS + [make_instance(0.3, 0.0, 0.0)]

    def test_list_is_its_instances(self):
        """One lockstep search over every instance gives each the result
        of a search on it alone, and of the point-by-point reference."""
        grid = GridSpec(0.0, 1.0, 3001, 2)
        got = grid_optimize_success(self.INSTANCES, grid)
        assert isinstance(got, tuple) and len(got) == len(self.INSTANCES)
        for inst, res in zip(self.INSTANCES, got):
            want = grid_optimize_success(inst, grid)
            assert [x.hex() for x in (res.abs_alpha_plus, res.value)] \
                == [x.hex() for x in (want.abs_alpha_plus, want.value)] \
                == [x.hex() for x in reference_success_search(inst, grid)]

    def test_one_golden_section_call_per_round(self, monkeypatch):
        brackets, search = [], oracle._golden_min

        def counting(f, lo, hi, tol=1e-10):
            brackets.append(len(lo))
            return search(f, lo, hi, tol)

        monkeypatch.setattr(oracle, "_golden_min", counting)
        grid_optimize_success(self.INSTANCES, GridSpec(0.0, 1.0, 501, 3))
        assert brackets == [len(self.INSTANCES)] * 3

    def test_sequences_and_errors(self):
        grid = GridSpec(0.0, 0.5, 201, 1)
        inst, beyond = make_instance(0.2, 0.4, 0.0), make_instance(0.2, 0.6, 0.0)
        assert grid_optimize_success([], grid) == ()
        assert grid_optimize_success((inst,), grid) == (grid_optimize_success(inst, grid),)
        with pytest.raises(RangeError, match=r"^search interval is empty for this instance$"):
            grid_optimize_success(beyond, grid)
        with pytest.raises(RangeError, match=re.escape("empty for this instance (inst[1])")):
            grid_optimize_success([inst, beyond, beyond], grid)


class TestNodeCache:
    def test_tables_are_read_only(self):
        x, w = oracle._gauss_legendre(16)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_one_build_per_node_count(self, monkeypatch):
        built = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(n):
            built.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        oracle._gauss_legendre.cache_clear()
        try:
            for _ in range(3):
                quadrature_refine(math.sin, node_counts=(8, 16, 8))
            assert sorted(built) == [8, 16]
        finally:
            oracle._gauss_legendre.cache_clear()

    def test_cached_tables_give_the_uncached_results(self, monkeypatch):
        def f(m):
            return math.sin(m) ** 2 * math.cos(3 * m)

        cached = quadrature_refine(f)
        monkeypatch.setattr(oracle, "_gauss_legendre",
                            lambda n: np.polynomial.legendre.leggauss(n))
        assert quadrature_refine(f) == cached
