"""Acceptance suite: the package's advertised guarantees, one test each.

Every test states one end-to-end guarantee at its published tolerance,
so the -v listing doubles as the acceptance report. Numbering fixes the
report order; it carries no other meaning.
"""

import math

import numpy as np

from ussd_lab.cli import main
from ussd_lab.coherence import (
    closed_form_coherences,
    coherence_band,
    ledger,
    three_tangle,
    wootters_concurrence,
)
from ussd_lab.oracle import GridSpec, grid_min_concurrence, grid_optimize_success
from ussd_lab.qcore import PureState
from ussd_lab.teleport import (
    TeleportInstance,
    branch_coherences,
    branch_to_ussd,
    enumerate_runs,
    fig4_sweep,
    square_mean_root,
    total_success_probability,
)
from ussd_lab.ussd import (
    bargmann_loop,
    bargmann_phase,
    build_chi,
    canonical_embedding,
    coupled_state,
    make_instance,
    optimal_strategy,
    p_suc_max,
    run_protocol,
    separable_strategy,
    separability_params,
    system_ancilla_density,
    total_coherence_conservation,
)

TWO_PI = 2.0 * math.pi


def wrap(x):
    return (x + math.pi) % TWO_PI - math.pi


def circ_dist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def random_instance(rng, saturated=None):
    while True:
        p = rng.uniform(0.05, 0.5)
        aa = rng.uniform(0.05, 0.95)
        ac = rng.uniform(0.0, 0.98)
        inst = make_instance(p, aa * np.exp(1j * rng.uniform(0, TWO_PI)),
                             ac * np.exp(1j * rng.uniform(0, TWO_PI)))
        if saturated is None or (inst.case == "saturated") == saturated:
            return inst


def test_g01_success_optimum_matches_oracle_and_born_rule():
    # closed-form optimum vs brute-force search (1e-6) and vs the
    # simulated heralding statistics (1e-10), both optimizer cases
    rng = np.random.default_rng(101)
    worst_grid = worst_born = 0.0
    for k in range(50):
        inst = random_instance(rng, saturated=bool(k % 2))
        res = grid_optimize_success(inst, GridSpec(0.0, 1.0, 801, 2))
        worst_grid = max(worst_grid, abs(res.value - p_suc_max(inst)))
        sim = run_protocol(inst, optimal_strategy(inst))
        worst_born = max(worst_born, abs(sim.success_probability - p_suc_max(inst)))
    assert worst_grid < 1e-6
    assert worst_born < 1e-10
    assert abs(p_suc_max(make_instance(0.2, 0.4, 0.0)) - 0.68) < 1e-12
    assert abs(p_suc_max(make_instance(0.4, 0.9, 0.0)) - 0.114) < 1e-12


def test_g02_tuned_failure_direction_separates_system_and_ancilla():
    # concurrence of the heralded-failure pair vanishes (1e-10), and a
    # blind grid search lands on the same angles within one coarse cell
    rng = np.random.default_rng(102)
    worst = 0.0
    for k in range(50):
        inst = random_instance(rng, saturated=bool(k % 3 == 0))
        rho_sa = system_ancilla_density(inst, separable_strategy(inst))
        worst = max(worst, wootters_concurrence(rho_sa))
    assert worst < 1e-10

    beta_spec = GridSpec(0.0, math.pi / 2, 25, 2)
    delta_spec = GridSpec(0.0, TWO_PI, 49, 2)
    for seed in (3, 9, 21, 40):
        rng = np.random.default_rng(seed)
        inst = make_instance(rng.uniform(0.1, 0.45),
                             rng.uniform(0.2, 0.7) * np.exp(1j * rng.uniform(0, TWO_PI)),
                             rng.uniform(0.3, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI)))
        strat = separable_strategy(inst)
        par = separability_params(inst, strat)
        res = grid_min_concurrence(inst, strat, beta_spec, delta_spec)
        beta_cell = (beta_spec.upper - beta_spec.lower) / (beta_spec.count - 1)
        delta_cell = (delta_spec.upper - delta_spec.lower) / (delta_spec.count - 1)
        assert res.value < 1e-10
        assert abs(res.beta - par.beta_star) <= beta_cell
        assert circ_dist(res.delta, par.delta_star) <= delta_cell


def test_g03_coupling_conserves_total_coherence():
    # environment one-vs-rest tangle before == after, any strategy (1e-10)
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        inst = random_instance(rng)
        strat = optimal_strategy(inst, beta=rng.uniform(0, math.pi / 2),
                                 delta=rng.uniform(0, TWO_PI))
        worst = max(worst, total_coherence_conservation(inst, strat).residual)
    assert worst < 1e-10


def test_g04_closed_forms_match_ledger_on_dense_grid():
    # total / converted / genuine closed forms vs the numeric ledger of
    # the constructed post-coupling state: 10 x 10 x 10 x 8 grid, 1e-9
    worst = 0.0
    for p in np.linspace(0.06, 0.94, 10):
        for aa in np.linspace(0.05, 0.95, 10):
            for ac in np.linspace(0.0, 0.95, 10):
                for g in np.linspace(0.0, TWO_PI * 7 / 8, 8):
                    inst = make_instance(float(p),
                                         aa * np.exp(1j * 0.6 * g),
                                         ac * np.exp(1j * 0.4 * g))
                    strat = separable_strategy(inst)
                    led = ledger(coupled_state(inst, strat))
                    ct, ca, cg = closed_form_coherences(inst, strat)
                    worst = max(worst,
                                abs(ct - led.c_total),
                                abs(ca - led.bipartite_of("A")),
                                abs(cg - led.c_genuine))
    assert worst < 1e-9


def test_g05_monogamy_sums_and_residual_tangle_on_random_states():
    # the three pivot decompositions of the total agree pairwise (1e-9)
    # and the monogamy residual equals the polynomial-invariant genuine
    # tangle for every pivot (1e-9), on 1000 random pure states
    rng = np.random.default_rng(105)
    worst_sum = worst_gen = 0.0
    for _ in range(1000):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(("S", "A", "C"), v / np.linalg.norm(v))
        led = ledger(psi)
        sums = [led.bipartite_of("S") + led.pair("A", "C"),
                led.bipartite_of("A") + led.pair("S", "C"),
                led.bipartite_of("C") + led.pair("S", "A")]
        worst_sum = max(worst_sum, max(sums) - min(sums))
        gen = three_tangle(psi)
        for x, y, z in (("S", "A", "C"), ("A", "S", "C"), ("C", "S", "A")):
            res = led.bipartite_of(x) - led.pair(x, y) - led.pair(x, z)
            worst_gen = max(worst_gen, abs(res - gen))
    assert worst_sum < 1e-9
    assert worst_gen < 1e-9


def test_g06_success_sweep_against_environment_overlap():
    # 101-point sweep at p=0.2, overlap 0.4: in-phase success only falls,
    # out-of-phase only rises and reaches 1 within 1e-6 at the endpoint
    acs = np.linspace(0.0, 1.0 - 1e-9, 101)
    p_in = [p_suc_max(make_instance(0.2, 0.4, float(ac))) for ac in acs]
    p_out = [p_suc_max(make_instance(0.2, -0.4, float(ac))) for ac in acs]
    assert all(b <= a + 1e-12 for a, b in zip(p_in, p_in[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(p_out, p_out[1:]))
    assert abs(p_out[-1] - 1.0) < 1e-6


def test_g07_converted_share_sweep_and_phase_band():
    # at p=0.4, |alpha_c|=0.8, quarter-turn phase: the converted share
    # rises with the overlap below saturation, sits at 1 (1e-10) above
    # it, and the phase-band peak obeys cos(gamma) = -0.8 within 1e-3
    tilde = math.sqrt(0.4 / 0.6)
    aas = np.linspace(0.0, 1.0 - 1e-9, 101)
    shares = []
    for aa in aas:
        inst = make_instance(0.4, float(aa) * np.exp(1j * math.pi / 2), 0.8)
        ct, ca, _ = closed_form_coherences(inst, separable_strategy(inst))
        shares.append(ca / ct)
    interior = [s for aa, s in zip(aas, shares) if aa < tilde]
    saturated = [s for aa, s in zip(aas, shares) if aa >= tilde]
    assert all(b >= a - 1e-12 for a, b in zip(interior, interior[1:]))
    assert all(abs(s - 1.0) < 1e-10 for s in saturated)

    scan = coherence_band(0.4, 0.5, 0.8, scan_points=720)
    assert abs(math.cos(scan.argmax) + 0.8) < 1e-3


def test_g08_teleport_success_total_and_fidelity():
    # success total equals 1 - sin(2 rho) (1e-12, 100 channel angles),
    # is independent of the sent state (20 x 20 grid), and every
    # corrected success path has fidelity above 1 - 1e-10
    for rho in np.linspace(0.0, math.pi / 4, 100):
        assert abs(total_success_probability(float(rho))
                   - (1.0 - math.sin(2.0 * rho))) < 1e-12

    closed = 1.0 - math.sin(0.7)
    for mu in np.linspace(0.0, math.pi, 20):
        for nu in np.linspace(0.0, TWO_PI * (1 - 1e-12), 20):
            inst = TeleportInstance(0.35, float(mu), float(nu))
            tot = sum(branch_to_ussd(inst, b).probability
                      * branch_to_ussd(inst, b).success_probability
                      for b in (0, 1))
            assert abs(tot - closed) < 1e-12

    for (rho, mu, nu) in ((0.1, 0.8, 0.3), (0.35, 1.1, 2.2), (0.5, 1.9, 4.0),
                          (0.7, 2.8, 5.5)):
        runs = enumerate_runs(TeleportInstance(rho, mu, nu))
        assert abs(sum(r.probability for r in runs) - 1.0) < 1e-12
        assert abs(sum(r.probability for r in runs if r.success)
                   - (1.0 - math.sin(2.0 * rho))) < 1e-12
        for r in runs:
            if r.success:
                assert r.fidelity > 1.0 - 1e-10


def test_g09_branch_coherences_and_polar_average():
    # per-branch closed coherences vs ledgers (1e-9); the polar average
    # of the total equals pi^2/16 for the maximal channel (1e-8); the
    # converted proportion walks monotonically from 1 to 0 with tangle
    worst = 0.0
    for rho in np.linspace(0.1, 0.7, 4):
        for mu in (0.5, 1.6, 2.7):
            inst = TeleportInstance(float(rho), mu, 0.4)
            for b in (0, 1):
                ui = branch_to_ussd(inst, b).ussd_instance
                led = ledger(coupled_state(ui, separable_strategy(ui)))
                ct, ca, cg = branch_coherences(inst, b)
                worst = max(worst, abs(ct - led.c_total),
                            abs(ca - led.bipartite_of("A")),
                            abs(cg - led.c_genuine))
    assert worst < 1e-9

    assert abs(square_mean_root(0.0)[0] - math.pi ** 2 / 16.0) < 1e-8

    rows = fig4_sweep(np.linspace(0.0, 1.0, 50), nodes=64)
    shares = [r.converted_share for r in rows]
    assert abs(shares[0] - 1.0) < 1e-12
    assert abs(shares[-1]) < 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(shares, shares[1:]))


def test_g10_loop_phase_value_gauge_and_branches():
    # loop phase == summed overlap phase mod 2 pi (1e-10); invariant
    # under 100 random per-state rephasings; carrier branches give
    # exactly 0 or pi
    rng = np.random.default_rng(110)
    for _ in range(100):
        inst = random_instance(rng)
        if abs(inst.alpha) < 1e-3 or abs(inst.alpha_c) < 1e-3:
            continue
        assert circ_dist(bargmann_phase(inst), wrap(inst.gamma)) < 1e-10
        emb = canonical_embedding(inst)
        v1 = np.kron(emb.xi, emb.phi)
        v3 = np.kron(emb.xi_bar, emb.phi_bar)
        v2 = build_chi(inst, emb).amplitudes
        base = bargmann_loop(v1, v2, v3)
        th = rng.uniform(0, TWO_PI, size=3)
        moved = bargmann_loop(np.exp(1j * th[0]) * v1, np.exp(1j * th[1]) * v2,
                              np.exp(1j * th[2]) * v3)
        assert circ_dist(base, moved) < 1e-10

    seen = set()
    for rho in (0.2, 0.6):
        for mu in (0.7, math.pi / 2, 2.4):
            for b in (0, 1):
                rec = branch_to_ussd(TeleportInstance(rho, mu, 1.3), b)
                ph = abs(bargmann_phase(rec.ussd_instance))
                assert ph in (0.0, math.pi)
                seen.add(ph)
    assert seen == {0.0, math.pi}


def test_g11_cli_output_is_deterministic(tmp_path):
    # identical invocations produce byte-identical files, every command
    cases = [
        ["eval", "--p-plus", "0.3", "--alpha", "0.45", "--alpha-phase", "0.8",
         "--alpha-c", "0.6"],
        ["eval", "--format", "json"],
        ["fig2", "--steps", "7"],
        ["fig3", "--steps", "5", "--band-points", "24"],
        ["fig4", "--steps", "7", "--format", "json"],
        ["teleport", "--rho", "0.3", "--sample", "500", "--seed", "3"],
        ["selftest", "--only", "spot"],
    ]
    for i, args in enumerate(cases):
        a = tmp_path / f"{i}a.out"
        b = tmp_path / f"{i}b.out"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) > 0
