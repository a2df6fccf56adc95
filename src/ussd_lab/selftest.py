"""The registry of named checks: the package's one statement of what it
guarantees.

Every check reduces to a single non-negative number compared against a
tolerance, so a run is summarizable as pass/fail lines and the whole
battery can be tightened or loosened with one override. The checks mix
frozen landmark values, closed-form-versus-simulation comparisons, and
brute-force oracle searches; together they exercise every public result
of the package.

A check that samples or sweeps takes its seed, count, grid or node
count as keyword arguments whose defaults are the battery inputs, which
``run_selftest`` (and ``ussd-lab selftest``) uses. The acceptance suite,
``tests/test_acceptance.py``, calls the same functions at the battery
inputs and again at larger acceptance inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RangeError
from .qcore import PureState, apply_rows, unitary_rows
from .coherence import (
    _band_share,
    _factor,
    closed_form_coherences,
    coherence_band,
    ledger,
    three_tangle,
)
from .ussd import (
    SeparablePoints,
    _loop_states,
    _polar,
    _weights,
    bargmann_loop,
    bargmann_phase,
    coupled_amplitudes,
    coupled_state,
    coupling_unitary,
    eval_report,
    fig2_cells,
    make_instance,
    optimal_strategy,
    p_suc_max,
    run_protocol,
    separable_points,
    separable_strategy,
    separability_params,
    system_ancilla_factor,
)
from .oracle import (
    GridSpec,
    decomposition_check,
    grid_min_concurrence,
    grid_optimize_success,
    quadrature_refine,
)
from .teleport import (
    TeleportInstance,
    branch_to_ussd,
    enumerate_runs,
    fig4_sweep,
    run_teleport,
    square_mean_root,
    total_success_probability,
)

_TWO_PI = 2.0 * math.pi


def _wrap(x: float) -> float:
    return (x + math.pi) % _TWO_PI - math.pi


def _circ_dist(a: float, b: float) -> float:
    d = abs(a - b) % _TWO_PI
    return min(d, _TWO_PI - d)


# the ranges of an instance's prior, |alpha|, |alpha_c| and the two phases
_DRAW = ((0.05, 0.5), (0.05, 0.95), (0.0, 0.98), (0.0, _TWO_PI), (0.0, _TWO_PI))


def _random_instances(rng, count: int, extra=()) -> tuple:
    """count admissible instances with uniform-ish parameters, from one
    rng.uniform block: row k holds instance k's five draws, then one
    draw per (low, high) range of extra. The block is filled in C order,
    so it holds the values, and leaves the generator in the state, of a
    loop of scalar draws in that order. Returns the instances and the
    (count, len(extra)) block of extra draws."""
    lo, hi = np.array(_DRAW + tuple(extra), dtype=float).T
    u = rng.uniform(lo, hi, (count, lo.size))
    p, aa, ac, gs, gc = u[:, :5].T
    alpha, alpha_c = aa * np.exp(1j * gs), ac * np.exp(1j * gc)
    return [make_instance(*x) for x in zip(p.tolist(), alpha.tolist(), alpha_c.tolist())], u[:, 5:]


def _random_instance(rng, saturated: Optional[bool] = None):
    """One instance of _random_instances, drawn again until its optimizer
    case is the one saturated picks, when not None."""
    for _ in range(200):
        inst = _random_instances(rng, 1)[0][0]
        if saturated is None or (inst.case == "saturated") == saturated:
            return inst
    raise RangeError("failed to draw a matching instance")  # pragma: no cover


def _haar_unitary(rng, n: int = 2) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _random_pure(rng, labels=("S", "A", "C")) -> PureState:
    v = rng.standard_normal(2 ** len(labels)) + 1j * rng.standard_normal(2 ** len(labels))
    return PureState(tuple(labels), v / np.linalg.norm(v))


# --------------------------------------------------------------------------
# individual checks: each returns (value, detail); pass means value <= tol

def _spot_success_interior():
    v = abs(p_suc_max(make_instance(0.2, 0.4, 0.0)) - 0.68)
    return v, "p=0.2, overlap 0.4, decoupled environment -> 0.68"


def _spot_success_saturated():
    v = abs(p_suc_max(make_instance(0.4, 0.9, 0.0)) - 0.114)
    return v, "p=0.4, overlap 0.9 (saturated case) -> 0.114"


def _spot_optimal_amplitudes():
    s = optimal_strategy(make_instance(0.2, 0.4, 0.0))
    v = max(abs(abs(s.alpha_plus) - math.sqrt(0.8)),
            abs(abs(s.alpha_minus) - math.sqrt(0.2)))
    return v, "optimal flip amplitudes sqrt(0.8), sqrt(0.2)"


def _normalization_identity():
    """r+- of the 50 instances from one _weights pass over their stack,
    each resummed in scalar arithmetic."""
    insts = _random_instances(np.random.default_rng(11), 50)[0]
    p, a, ac = (np.array([getattr(i, name) for i in insts])
                for name in ("p_plus", "alpha", "alpha_c"))
    r_plus, r_minus = _weights(p, *_polar(a), *_polar(ac))[:2]
    worst = 0.0
    for inst, rp, rm in zip(insts, r_plus.tolist(), r_minus.tolist()):
        s = (rp + rm + 2.0 * math.sqrt(rp * rm)
             * abs(inst.alpha) * abs(inst.alpha_c) * math.cos(inst.gamma))
        worst = max(worst, abs(s - 1.0))
    return worst, "posterior weights resum to 1 on 50 random instances"


def _success_grid_oracle(seed=12, count=6, points=3001):
    rng = np.random.default_rng(seed)
    insts = [_random_instance(rng, saturated=bool(k % 2)) for k in range(count)]
    worst = 0.0
    for inst, res in zip(insts, grid_optimize_success(insts, GridSpec(0.0, 1.0, points, 2))):
        worst = max(worst, abs(res.value - p_suc_max(inst)))
    return worst, "closed-form optimum vs brute-force amplitude search"


def _success_born_rule(seed=13, count=6, saturation=(None,)):
    """saturation[k % len(saturation)] picks the optimizer case of the
    k-th instance (None for either)."""
    rng = np.random.default_rng(seed)
    insts = [_random_instance(rng, saturation[k % len(saturation)]) for k in range(count)]
    worst = 0.0
    for inst, r in zip(insts, run_protocol(insts, optimal_strategy(insts))):
        worst = max(worst, abs(r.success_probability - p_suc_max(inst)))
    return worst, "simulated outcome statistics vs closed form"


def _drawn_strategies(rng, count, ancilla_init=None) -> tuple:
    """count instances, each drawn with its failure angles beta, delta,
    and their optimal strategies from one stack."""
    insts, angles = _random_instances(rng, count, ((0.0, math.pi / 2), (0.0, _TWO_PI)))
    return insts, optimal_strategy(insts, angles[:, 0], angles[:, 1], ancilla_init)


def _success_strategy_independent():
    rng = np.random.default_rng(14)
    anc = np.array([math.cos(0.4), math.sin(0.4) * np.exp(0.9j)])
    insts, strats = _drawn_strategies(rng, 5, anc)
    worst = 0.0
    for inst, r in zip(insts, run_protocol(insts, strats)):
        worst = max(worst, abs(r.success_probability - p_suc_max(inst)))
    return worst, "failure direction and ancilla ready state do not move P"


def _report(points) -> dict:
    """eval_report at the separable point of each (p_plus, alpha,
    alpha_c), from one separable_points stack."""
    return eval_report(separable_points(*(np.array(col) for col in zip(*points))))


def _worst_gap(report, *coherences) -> float:
    """The largest |c_<x>_closed - c_<x>_ledger| of an eval_report over
    its entries and the named coherences x."""
    worst = 0.0
    for x in coherences:
        for closed, led in zip(report[f"c_{x}_closed"], report[f"c_{x}_ledger"]):
            worst = max(worst, abs(closed - led))
    return worst


def _separability_zero(seed=15, count=6):
    rng = np.random.default_rng(seed)
    insts = [_random_instance(rng, saturated=bool(k % 3 == 0)) for k in range(count)]
    worst = 0.0
    for c in _report([(i.p_plus, i.alpha, i.alpha_c) for i in insts])["separability_concurrence"]:
        worst = max(worst, c)
    return worst, "system-ancilla concurrence at the tuned failure direction"


def _argmin_instance(seed):
    """The landmark instance for seed None, else one drawn from seed."""
    if seed is None:
        return make_instance(0.3, 0.45 * np.exp(0.8j), 0.6 * np.exp(0.4j))
    rng = np.random.default_rng(seed)
    return make_instance(
        rng.uniform(0.1, 0.45),
        rng.uniform(0.2, 0.7) * np.exp(1j * rng.uniform(0, _TWO_PI)),
        rng.uniform(0.3, 0.9) * np.exp(1j * rng.uniform(0, _TWO_PI)))


def _separability_argmin(seeds=(None,)):
    worst = worst_res = 0.0
    for seed in seeds:
        inst = _argmin_instance(seed)
        strat = separable_strategy(inst)
        res = grid_min_concurrence(inst, strat,
                                   GridSpec(0.0, math.pi / 2, 25, 2),
                                   GridSpec(0.0, _TWO_PI, 49, 2))
        worst_res = max(worst_res, res.value)
        worst = max(worst, abs(res.beta - strat.beta),
                    _circ_dist(res.delta, strat.delta), res.value)
    return worst, f"grid argmin vs closed form (residual concurrence {worst_res:.2e})"


def _decomposition_residuals():
    insts = _random_instances(np.random.default_rng(16), 6)[0]
    strats = separable_strategy(insts)
    factors = _factor(coupled_amplitudes(SeparablePoints.of(insts, strats)),
                      ("S", "A", "C"), ("S", "A"))
    worst = 0.0
    for inst, strat, factor in zip(insts, strats, factors):
        rep = decomposition_check(factor, separability_params(inst, strat), inst, strat)
        worst = max(worst, rep.worst)
    return worst, "rank-two split rebuilt from scalars matches the state"


def _decomposition_sensitivity():
    import dataclasses
    inst = make_instance(0.35, 0.5 * np.exp(0.5j), 0.7)
    strat = separable_strategy(inst)
    par = separability_params(inst, strat)
    bad = dataclasses.replace(par, gamma2=par.gamma2 + 0.1)
    rep = decomposition_check(system_ancilla_factor(coupled_state(inst, strat)),
                              bad, inst, strat)
    v = 0.0 if rep.reconstruction > 1e-3 else 1e-3 - rep.reconstruction
    return v, f"perturbing a split phase by 0.1 leaves residual {rep.reconstruction:.2e}"


def _conservation(seed=17, count=20):
    """total_coherence_conservation over one stack, as eval_report gives
    it for the drawn (instance, strategy) pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for residual in eval_report(SeparablePoints.of(*_drawn_strategies(rng, count)))[
            "conservation_residual"]:
        worst = max(worst, residual)
    return worst, "environment tangle untouched by the system-ancilla coupling"


def _closed_form_ledger_grid(ps=(0.18, 0.33, 0.5), aas=(0.12, 0.45, 0.8),
                             acs=(0.0, 0.55, 0.9), gs=(0.0, 1.1, math.pi)):
    grid = [(float(p), aa * np.exp(1j * 0.6 * g), ac * np.exp(1j * 0.4 * g))
            for p in ps for aa in aas for ac in acs for g in gs]
    worst = _worst_gap(_report(grid), "total", "converted", "genuine")
    shape = "x".join(str(len(axis)) for axis in (ps, aas, acs, gs))
    return worst, f"closed-form coherence triple vs numeric ledger on a {shape} grid"


def _retained_pair_identity():
    grid = [(p, aa * np.exp(0.7j), ac)
            for p in (0.2, 0.42) for aa in (0.15, 0.6, 0.85) for ac in (0.1, 0.75)]
    return _worst_gap(_report(grid), "retained"), "total minus converted equals the retained pair tangle"


def _monogamy_random(seed=18, count=60):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for led in ledger(np.array([_random_pure(rng).amplitudes for _ in range(count)])):
        worst = max(worst, led.monogamy_residual)
        for x, y, z in (("S", "A", "C"), ("A", "S", "C"), ("C", "S", "A")):
            residual = led.bipartite_of(x) - led.pair(x, y) - led.pair(x, z)
            worst = max(worst, abs(residual - led.c_genuine))
    return worst, (f"three monogamy sums agree and every pivot residual equals "
                   f"the genuine tangle on {count} random pure states")


def _ghz_w_landmarks():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    w = np.zeros(8, dtype=complex)
    w[1] = w[2] = w[4] = 1 / math.sqrt(3)
    sg = PureState(("S", "A", "C"), ghz)
    sw = PureState(("S", "A", "C"), w)
    v = max(abs(three_tangle(sg) - 1.0), three_tangle(sw),
            abs(ledger(sw).c_total - 4.0 / 3.0))
    return v, "GHZ genuine tangle 1, W genuine tangle 0, W total 4/3"


def _lu_invariance():
    rng = np.random.default_rng(19)
    states, us = [], []
    for _ in range(10):
        states.append(_random_pure(rng).amplitudes)
        us.append([_haar_unitary(rng) for _ in range(3)])
    us = np.array(us)
    unitary_rows(us.reshape(30, 2, 2))
    psi = np.array(states).reshape(10, 2, 2, 2)
    rotated = psi
    for axis, u in enumerate(us.swapaxes(0, 1), start=1):
        rotated = apply_rows(u, rotated, (axis,))
    leds = ledger(np.stack([psi.reshape(10, 8), rotated.reshape(10, 8)], axis=1).reshape(20, 8))
    worst = 0.0
    for led, led2 in zip(leds[::2], leds[1::2]):
        worst = max(worst, abs(led.c_total - led2.c_total),
                    abs(led.c_genuine - led2.c_genuine),
                    max(abs(led.c_bipartite[k] - led2.c_bipartite[k])
                        for k in led.c_bipartite),
                    max(abs(led.c_pairwise[k] - led2.c_pairwise[k])
                        for k in led.c_pairwise))
    return worst, "every ledger entry survives local basis changes"


def _bargmann_equality(seed=20, count=20):
    insts = _random_instances(np.random.default_rng(seed), count)[0]
    worst = 0.0
    for inst, ph in zip(insts, bargmann_phase(insts)):
        worst = max(worst, _circ_dist(ph, _wrap(inst.gamma)))
    return worst, "loop phase equals the summed overlap phase"


def _bargmann_gauge(seed=21, count=20):
    """Each instance's loop, as bargmann_phase builds it, and again with
    the three states rephased by angles drawn after the instance: one
    bargmann_loop call over both stacks."""
    insts, th = _random_instances(np.random.default_rng(seed), count, ((0.0, _TWO_PI),) * 3)
    loop = np.array(_loop_states(insts))
    turned = np.exp(1j * th.T)[:, :, None] * loop
    base, redone = bargmann_loop(*np.concatenate([loop, turned], axis=1)).reshape(2, -1).tolist()
    worst = 0.0
    for a, b in zip(base, redone):
        worst = max(worst, _circ_dist(a, b))
    return worst, "loop phase ignores independent rephasings"


def _bargmann_teleport_branches(mus=(0.7, 2.4)):
    recs = _branch_records([TeleportInstance(rho, mu, 1.3) for rho in (0.2, 0.6) for mu in mus])
    worst = 0.0
    for ph in bargmann_phase([rec.ussd_instance for rec in recs]):
        worst = max(worst, min(_circ_dist(ph, 0.0), _circ_dist(ph, math.pi)))
    return worst, "carrier branches carry loop phase 0 or pi exactly"


def _fig2_monotone():
    # fig2's array pass: one row per |alpha_c|, columns gamma = 0 and pi
    acs = np.linspace(0.0, 1.0 - 1e-9, 101)
    p0, ppi = fig2_cells(0.2, np.array([0.4, -0.4]), acs[:, None])[1].reshape(-1, 2).T.tolist()
    worst = 0.0
    for a, b in zip(p0, p0[1:]):
        worst = max(worst, b - a)          # must not increase
    for a, b in zip(ppi, ppi[1:]):
        worst = max(worst, a - b)          # must not decrease
    return worst, "success falls with environment overlap in phase, rises out of phase"


def _fig2_limit():
    v = abs(p_suc_max(make_instance(0.2, -0.4, 1.0 - 1e-9)) - 1.0)
    return v, "out-of-phase success reaches 1 as the environment overlap saturates"


_TILDE = math.sqrt(0.4 / 0.6)    # saturation point of the fig3 sweep


def _fig3_shares(aas) -> list:
    """The converted share of the fig3 sweep at each |alpha|, from one
    separable_points stack."""
    aas = np.asarray(aas, dtype=float)
    total, converted, _ = closed_form_coherences(
        separable_points(0.4, aas * np.exp(1j * math.pi / 2), 0.8))
    return (converted / total).tolist()


def _fig3_share_monotone_interior(aas=np.linspace(0.02, _TILDE - 0.02, 40)):
    shares = _fig3_shares([a for a in aas if a < _TILDE])
    worst = max(max(a - b for a, b in zip(shares, shares[1:])), 0.0)
    return worst, "converted share grows with overlap below the saturation point"


def _fig3_share_saturated(aas=np.linspace(_TILDE + 0.01, 0.98, 15)):
    worst = 0.0
    for share in _fig3_shares([a for a in aas if a >= _TILDE]):
        worst = max(worst, abs(share - 1.0))
    return worst, "above saturation the whole coherence is converted"


def _band_argmax():
    scan = coherence_band(0.4, 0.5, 0.8, scan_points=720)
    v = abs(math.cos(scan.argmax) + 0.8)
    return v, "environment-ancilla share peaks where cos gamma = -|alpha_c|"


def _edge_box(rng, count) -> tuple:
    """count draws of (p_plus, |alpha|, |alpha_c|, gamma): each of the
    first three at the end 1e-9 inside its range (0 for the moduli) a
    quarter of the time each, uniform otherwise; gamma uniform."""
    def edged(lo, hi):
        pick = rng.integers(0, 4, count)
        return np.where(pick == 0, lo, np.where(pick == 1, hi, rng.uniform(lo, hi, count)))

    return (edged(1e-9, 1.0 - 1e-9), edged(0.0, 1.0 - 1e-9), edged(0.0, 1.0 - 1e-9),
            rng.uniform(0.0, _TWO_PI, count))


def _band_share_closed(seed=24, count=1000):
    """The band's share on the numeric route against the closed forms,
    tau_CA / tau_C|SA = (c_ancilla - c_genuine) / c_total, over one
    _edge_box stack: at the separable point tau_SA = 0, so
    Coffman-Kundu-Wootters monogamy leaves tau_CA = tau_A|SC - tau_SAC."""
    p, aa, ac, g = _edge_box(np.random.default_rng(seed), count)
    share = _band_share(p, aa, ac, g)
    total, ancilla, genuine = closed_form_coherences(separable_points(p, aa * np.exp(1j * g), ac))
    worst = float(np.max(np.abs(share - (ancilla - genuine) / total)))
    return worst, f"numeric band share vs closed forms on {count} edge-weighted points"


def _band_flat():
    scan = coherence_band(0.3, 0.5, 0.0, scan_points=240)
    v = max(scan.maximum - scan.minimum, abs(scan.argmax - math.pi / 2))
    return v, "decoupled environment flattens the share profile"


def _branch_records(insts) -> tuple:
    """branch_to_ussd of carrier outcomes 0 and 1 of each instance, in
    that order, from one call."""
    return branch_to_ussd([i for i in insts for _ in (0, 1)], [0, 1] * len(insts))


def _teleport_total_closed(rhos=np.linspace(0.0, math.pi / 4, 12)):
    worst = 0.0
    for rho, runs, total in zip(rhos, enumerate_runs([TeleportInstance(float(rho), 1.1, 2.2)
                                                      for rho in rhos]),
                                total_success_probability(np.asarray(rhos, dtype=float))):
        closed = 1.0 - math.sin(2.0 * rho)
        tot = sum(r.probability for r in runs if r.success)
        worst = max(worst, abs(tot - closed), abs(total - closed))
    return worst, "summed success paths and the branch total equal 1 - sin(2 rho)"


def _teleport_state_independent(mus=np.linspace(0.0, math.pi, 5),
                                nus=np.linspace(0.0, _TWO_PI * (1 - 1e-12), 5)):
    rho = 0.35
    closed = 1.0 - math.sin(2.0 * rho)
    recs = _branch_records([TeleportInstance(rho, float(mu), float(nu))
                            for mu in mus for nu in nus])
    worst = 0.0
    base = None
    for plus, minus in zip(recs[::2], recs[1::2]):
        tot = plus.probability * plus.success_probability \
            + minus.probability * minus.success_probability
        base = tot if base is None else base
        worst = max(worst, abs(tot - base), abs(tot - closed))
    return worst, "total success ignores the sent state and equals 1 - sin(2 rho)"


def _teleport_fidelity(instances=((0.2, 0.8, 0.3), (0.5, 1.9, 4.0),
                                  (0.7, 2.8, 5.5))):
    worst = 0.0
    for (rho, _, _), runs in zip(instances, enumerate_runs([TeleportInstance(*i)
                                                            for i in instances])):
        worst = max(worst, abs(sum(r.probability for r in runs) - 1.0),
                    abs(sum(r.probability for r in runs if r.success)
                        - (1.0 - math.sin(2.0 * rho))))
        for r in runs:
            if r.success:
                worst = max(worst, 1.0 - r.fidelity)
    return worst, ("every corrected success path delivers the state exactly; "
                   "path probabilities sum to 1 and 1 - sin(2 rho)")


def _teleport_failure_leak():
    r = run_teleport(TeleportInstance(0.3, 1.1, 0.7), 0, None)
    v = max(0.0, r.fidelity - 0.999)
    return v, f"failure path is not faithful (fidelity {r.fidelity:.4f})"


def _teleport_branch_priors():
    worst = 0.0
    for rec in _branch_records([TeleportInstance(rho, mu, 0.9)
                                for rho in (0.15, 0.45, 0.75) for mu in (0.5, 1.7, 2.9)]):
        ui = rec.ussd_instance
        expected = 1.0 / (4.0 * rec.probability)
        worst = max(worst, abs(ui.r_plus - expected), abs(ui.r_minus - expected))
    return worst, "branch posterior weights are 1/(4 x branch probability)"


def _teleport_branch_ledger(rhos=(0.2, 0.45, 0.7)):
    uis = [rec.ussd_instance for rec in _branch_records(
        [TeleportInstance(float(rho), mu, 0.4) for rho in rhos for mu in (0.5, 1.6, 2.7)])]
    report = _report([(ui.p_plus, ui.alpha, ui.alpha_c) for ui in uis])
    worst = max(_worst_gap(report, "total", "converted", "genuine", "retained"),
                *report["c_env_ancilla_ledger"])
    return worst, "branch coherence formulas vs ledgers, incl. vanishing C-A pair"


def _smr_maximal_channel():
    v = abs(square_mean_root(0.0)[0] - math.pi ** 2 / 16.0)
    return v, "maximally entangled channel averages to pi^2/16"


def _smr_product_channel():
    v = max(square_mean_root(math.pi / 4))
    return v, "product channel carries no coherence"


def _fig4_share_profile(tangles=np.linspace(0.0, 1.0, 21), nodes=32):
    rows = fig4_sweep(tangles, nodes=nodes)
    shares = [r.converted_share for r in rows]
    worst = max(abs(shares[0] - 1.0), abs(shares[-1]))
    for a, b in zip(shares, shares[1:]):
        worst = max(worst, b - a)          # must not increase with tangle
    return worst, "converted share walks from 1 to 0 as channel tangle grows"


def _quadrature_table():
    table = quadrature_refine(lambda m: math.sin(m) ** 2)
    v = max(abs(table.value - math.pi / 2.0), table.final_delta)
    return v, "node-doubling table locks onto the polar test integral"


def _coupling_unitarity():
    insts = _random_instances(np.random.default_rng(22), 5)[0]
    worst = 0.0
    for u in coupling_unitary(insts, separable_strategy(insts)):
        m = u.matrix
        worst = max(worst, float(np.max(np.abs(m.conj().T @ m - np.eye(4)))))
    return worst, "completed coupling is unitary"


def _born_sums():
    inst = _random_instances(np.random.default_rng(23), 1)[0][0]
    res = run_protocol(inst, optimal_strategy(inst))
    s1 = abs(sum(o.probability for o in res.outcomes) - 1.0)
    runs = enumerate_runs(TeleportInstance(0.4, 1.2, 0.8))
    s2 = abs(sum(r.probability for r in runs) - 1.0)
    return max(s1, s2), "outcome probabilities resolve to 1 in both pipelines"


_CHECKS = (
    ("spot_success_interior", 1e-12, _spot_success_interior),
    ("spot_success_saturated", 1e-12, _spot_success_saturated),
    ("spot_optimal_amplitudes", 1e-12, _spot_optimal_amplitudes),
    ("normalization_identity", 1e-12, _normalization_identity),
    ("success_grid_oracle", 1e-6, _success_grid_oracle),
    ("success_born_rule", 1e-10, _success_born_rule),
    ("success_strategy_independent", 1e-10, _success_strategy_independent),
    ("separability_zero", 1e-10, _separability_zero),
    ("separability_argmin", 1e-10, _separability_argmin),
    ("decomposition_residuals", 1e-10, _decomposition_residuals),
    ("decomposition_sensitivity", 1e-12, _decomposition_sensitivity),
    ("conservation", 1e-10, _conservation),
    ("closed_form_ledger_grid", 1e-9, _closed_form_ledger_grid),
    ("retained_pair_identity", 1e-9, _retained_pair_identity),
    ("monogamy_random", 1e-9, _monogamy_random),
    ("ghz_w_landmarks", 1e-9, _ghz_w_landmarks),
    ("lu_invariance", 1e-9, _lu_invariance),
    ("bargmann_equality", 1e-10, _bargmann_equality),
    ("bargmann_gauge", 1e-10, _bargmann_gauge),
    ("bargmann_teleport_branches", 1e-10, _bargmann_teleport_branches),
    ("fig2_monotone", 1e-12, _fig2_monotone),
    ("fig2_limit", 1e-6, _fig2_limit),
    ("fig3_share_monotone_interior", 1e-12, _fig3_share_monotone_interior),
    ("fig3_share_saturated", 1e-10, _fig3_share_saturated),
    ("band_argmax", 1e-3, _band_argmax),
    ("band_flat", 1e-10, _band_flat),
    ("band_share_closed", 1e-9, _band_share_closed),
    ("teleport_total_closed", 1e-12, _teleport_total_closed),
    ("teleport_state_independent", 1e-12, _teleport_state_independent),
    ("teleport_fidelity", 1e-12, _teleport_fidelity),
    ("teleport_failure_leak", 1e-12, _teleport_failure_leak),
    ("teleport_branch_priors", 1e-12, _teleport_branch_priors),
    ("teleport_branch_ledger", 1e-9, _teleport_branch_ledger),
    ("smr_maximal_channel", 1e-8, _smr_maximal_channel),
    ("smr_product_channel", 1e-12, _smr_product_channel),
    ("fig4_share_profile", 1e-12, _fig4_share_profile),
    ("quadrature_table", 1e-12, _quadrature_table),
    ("coupling_unitarity", 1e-10, _coupling_unitarity),
    ("born_sums", 1e-10, _born_sums),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: Optional[float]
    tolerance: float
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "value": self.value,
                "tolerance": self.tolerance, "detail": self.detail}


@dataclass(frozen=True)
class SelftestReport:
    passed: bool
    n_passed: int
    n_failed: int
    checks: tuple

    def to_dict(self) -> dict:
        return {"passed": self.passed, "n_passed": self.n_passed,
                "n_failed": self.n_failed,
                "checks": [c.to_dict() for c in self.checks]}


def available_checks() -> tuple:
    return tuple(name for name, _, _ in _CHECKS)


def run_selftest(tolerance_override: Optional[float] = None,
                 only: Optional[str] = None) -> SelftestReport:
    """Run the verification battery.

    tolerance_override, when given, replaces every per-check tolerance;
    only filters checks to those whose name contains the substring.
    """
    if tolerance_override is not None and not (
            math.isfinite(tolerance_override) and tolerance_override > 0.0):
        raise RangeError(
            f"tolerance must be finite and positive, got {tolerance_override!r}")
    selected = [(n, t, f) for n, t, f in _CHECKS
                if only is None or only in n]
    if not selected:
        raise RangeError(f"no check matches {only!r}; see available_checks()")
    results = []
    for name, tol, fn in selected:
        tol_used = float(tolerance_override if tolerance_override is not None else tol)
        try:
            value, detail = fn()
            value = float(value)
            results.append(CheckResult(name, value <= tol_used, value,
                                       tol_used, detail))
        except Exception as exc:   # a crash is a failed check, not a crash
            results.append(CheckResult(name, False, None, tol_used,
                                       f"raised {type(exc).__name__}: {exc}"))
    n_pass = sum(1 for r in results if r.passed)
    return SelftestReport(passed=(n_pass == len(results)), n_passed=n_pass,
                          n_failed=len(results) - n_pass, checks=tuple(results))
