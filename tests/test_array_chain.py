"""The array chain against the scalar chain, float for float.

separable_points, coupled_amplitudes, reduce_stack and a stacked
wootters_concurrence must reproduce make_instance -> separable_strategy
-> coupled_state -> partial_trace -> wootters_concurrence bit for bit,
and so must the band scan and the polar quadrature built on them: the CLI
prints round-off digits (fig3's band_system_split columns), so "close"
would still change its output. Floats are compared with ==, and the
signs of zeros are compared too, since a zero's sign steers np.angle.
"""

import itertools
import math

import numpy as np
import pytest

from ussd_lab.coherence import (
    _YY,
    BandScan,
    _golden_min,
    closed_form_coherences,
    closed_form_total_converted,
    coherence_band,
    wootters_concurrence,
)
from ussd_lab.errors import (
    DegenerateOverlap,
    PartitionError,
    RangeError,
    UssdLabError,
)
from ussd_lab.qcore import PureState, partial_trace, reduce_stack
from ussd_lab.teleport import (
    TeleportInstance,
    branch_coherences,
    branch_probability,
    square_mean_root,
)
from ussd_lab.tolerances import DEFAULT as TOL
from ussd_lab.ussd import (
    coupled_amplitudes,
    coupled_state,
    make_instance,
    separable_points,
    separable_strategy,
)

SAC = ("S", "A", "C")


def assert_same(got, want):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    assert got.shape == want.shape
    assert np.array_equal(got, want), np.max(np.abs(got - want))
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)),
                              np.signbit(getattr(want, part)))


def edge_draws(seed=11, n_random=120):
    """Priors above 1/2 (swapped), at 1/2, at 0 and 1 and inside; |alpha|
    at 0, at 1 - 1e-9 and inside, in both optimizer regimes; real,
    negative and complex alpha_c with |alpha_c| in {0, 1} and inside."""
    rng = np.random.default_rng(seed)
    priors = (0.5, 0.8, 0.97, 0.3, 0.05, 0.0, 1.0)
    moduli = (0.0, 1.0 - 1e-9, 0.15, 0.6, 0.95)
    phases = (0.0, math.pi / 2, math.pi, 2.3)
    envs = (0.0, 1.0, -1.0, 0.55, -0.4j, 0.7 * np.exp(2.0j), np.exp(-1.1j))
    draws = [(p, a * np.exp(1j * g), complex(c))
             for p, a, g, c in itertools.product(priors, moduli, phases, envs)]
    draws += [(0.5, -0.3, 0.6), (0.8, -0.0, -0.0), (0.3, 0.4, 0.0j)]
    for _ in range(n_random):
        p = rng.uniform(0.0, 1.0)
        a = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(-7.0, 7.0))
        c = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(-7.0, 7.0))
        draws.append((p, a, c))
    return draws


def scalar_chain(p, a, c):
    inst = make_instance(p, a, c)
    strat = separable_strategy(inst)
    psi = coupled_state(inst, strat)
    rho_c = partial_trace(psi, ["C"]).matrix
    rho_ca = partial_trace(psi, ["C", "A"]).matrix
    return (inst, strat, psi.amplitudes, rho_c, rho_ca,
            wootters_concurrence(rho_ca), closed_form_coherences(inst, strat))


@pytest.fixture(scope="module")
def chains():
    ok, refs, failures = [], [], []
    for p, a, c in edge_draws():
        try:
            refs.append(scalar_chain(p, a, c))
            ok.append((p, a, c))
        except UssdLabError as exc:
            failures.append(((p, a, c), type(exc)))
    p, a, c = (np.array(col) for col in zip(*ok))
    pts = separable_points(p, a, c)
    amps = coupled_amplitudes(pts)
    return refs, failures, pts, amps


class TestChain:
    def test_draws_cover_the_edges(self, chains):
        refs, failures, _, _ = chains
        insts = [r[0] for r in refs]
        assert len(refs) > 600
        assert any(i.swapped for i in insts) and any(i.p_plus == 0.5 for i in insts)
        assert {i.case for i in insts} == {"interior", "saturated"}
        assert any(abs(i.alpha) == 1.0 - 1e-9 for i in insts)
        assert any(abs(i.alpha_c) == 1.0 for i in insts)
        assert any(i.alpha_c.imag != 0.0 for i in insts)
        assert len(failures) < len(refs) // 10

    def test_instance_and_strategy(self, chains):
        refs, _, pts, _ = chains
        for k, (inst, strat, *_) in enumerate(refs):
            assert_same(pts.alpha[k], inst.alpha)
            assert_same(pts.alpha_c[k], inst.alpha_c)
            assert pts.r_plus[k] == inst.r_plus and pts.r_minus[k] == inst.r_minus
            assert_same(pts.alpha_plus[k], strat.alpha_plus)
            assert_same(pts.alpha_minus[k], strat.alpha_minus)
            assert pts.beta[k] == strat.beta and pts.delta[k] == strat.delta

    def test_amplitudes_reductions_and_concurrence(self, chains):
        refs, _, _, amps = chains
        rho_c = reduce_stack(amps, SAC, ["C"])
        rho_ca = reduce_stack(amps, SAC, ["C", "A"])
        conc = wootters_concurrence(rho_ca)
        for k, (_, _, vec, rc, rca, c, _) in enumerate(refs):
            assert_same(amps[k], vec)
            assert_same(rho_c[k], rc)
            assert_same(rho_ca[k], rca)
            assert conc[k] == c

    def test_closed_total_and_converted(self, chains):
        refs, _, pts, _ = chains
        total, converted = closed_form_total_converted(pts)
        for k, ref in enumerate(refs):
            assert (total[k], converted[k]) == ref[6][:2]

    def test_draws_where_square_and_pow_differ(self):
        # x * x and pow(x, 2) disagree in the last bit on about 0.1 % of
        # inputs, and a later sum often absorbs the difference: too rarely
        # for the draws above to meet. Pick, from a large pool, draws where
        # it shows in 1 - |alpha+|^2 or in (|alpha+| - |alpha-|)^2, so a
        # square written as x**2 fails here.
        rng = np.random.default_rng(12)
        n = 100000
        p = rng.uniform(0.0, 1.0, n)
        a = rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(-7.0, 7.0, n))
        c = rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(-7.0, 7.0, n))
        pts = separable_points(p, a, c)
        mp = np.hypot(pts.alpha_plus.real, pts.alpha_plus.imag)
        d = mp - np.hypot(pts.alpha_minus.real, pts.alpha_minus.imag)
        pick = np.flatnonzero((1.0 - mp * mp != 1.0 - np.float_power(mp, 2))
                              | (d * d != np.float_power(d, 2)))
        assert pick.size >= 20
        sub = separable_points(p[pick], a[pick], c[pick])
        amps = coupled_amplitudes(sub)
        total, converted = closed_form_total_converted(sub)
        for k, i in enumerate(pick):
            _, strat, vec, _, _, _, closed = scalar_chain(p[i], a[i], c[i])
            assert sub.beta[k] == strat.beta
            assert_same(amps[k], vec)
            assert (total[k], converted[k]) == closed[:2]

    def test_inadmissible_draws_fail_alike(self, chains):
        _, failures, _, _ = chains
        for (p, a, c), kind in failures:
            with pytest.raises(kind):
                coupled_amplitudes(separable_points(p, a, c))

    def test_checks_name_the_input(self):
        with pytest.raises(RangeError, match="p_plus"):
            separable_points([0.2, 1.5], 0.3, 0.4)
        with pytest.raises(RangeError, match="alpha_c"):
            separable_points(0.2, 0.3, [0.4, complex("nan")])
        with pytest.raises(DegenerateOverlap, match="alpha"):
            separable_points(0.2, [0.3, 1.0], 0.4)
        with pytest.raises(RangeError, match="alpha_c"):
            separable_points(0.2, 0.3, 1.0 + 1e-9)


def wootters_one(m):
    """The one-matrix factorization, written out as a fixed reference."""
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    w = np.clip(w, 0.0, None)
    keep = w > TOL.rank_cut * max(float(w.max()), 1e-300)
    fac = v[:, keep] * np.sqrt(w[keep])
    lam = np.linalg.svd(fac.T @ _YY @ fac, compute_uv=False)
    lam = np.concatenate([lam, np.zeros(4 - lam.size)])
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


class TestStacks:
    def test_wootters_stack_of_mixed_ranks(self):
        rng = np.random.default_rng(5)
        mats = []
        for rank in (1, 2, 3, 4) * 12:
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = g @ g.conj().T
            mats.append(rho / np.trace(rho).real)
        mats = np.array(mats)
        stacked = wootters_concurrence(mats.reshape(6, 8, 4, 4))
        assert stacked.shape == (6, 8)
        for got, m in zip(stacked.reshape(-1), mats):
            assert got == wootters_one(m) == wootters_concurrence(m)

    def test_reduce_stack_every_proper_keep(self):
        rng = np.random.default_rng(6)
        for reg in (("S", "A"), SAC, ("C", "S", "A")):
            amps = rng.normal(size=(40, 2 ** len(reg))) + 1j * rng.normal(size=(40, 2 ** len(reg)))
            amps /= np.linalg.norm(amps, axis=1)[:, None]
            for k in range(1, len(reg)):
                for keep in itertools.permutations(reg, k):
                    got = reduce_stack(amps, reg, keep)
                    for a, rho in zip(amps, got):
                        assert_same(rho, partial_trace(PureState(reg, a), keep).matrix)
        with pytest.raises(PartitionError):
            reduce_stack(amps, SAC, SAC)


def reference_band(p_plus, abs_alpha, abs_alpha_c, scan_points):
    """coherence_band's scan and refinement, one scalar-chain share at a time."""
    def share(gamma):
        inst = make_instance(p_plus, abs_alpha * np.exp(1j * gamma), abs_alpha_c)
        psi = coupled_state(inst, separable_strategy(inst))
        total = 4.0 * max(float(np.linalg.det(partial_trace(psi, ["C"]).matrix).real), 0.0)
        c_ca = wootters_concurrence(partial_trace(psi, ["C", "A"]).matrix)
        return min(max(float(c_ca * c_ca / total), 0.0), 1.0)

    half = scan_points // 2 + 1
    gammas = np.linspace(0.0, math.pi, half)
    vals = np.array([share(g) for g in gammas])
    vmin, vmax = float(vals.min()), float(vals.max())
    if vmax - vmin < 1e-12 * max(1.0, vmax):
        arg = float(math.acos(max(-1.0, min(1.0, -abs_alpha_c))))
        return BandScan(vmin, vmax, (0.0, math.pi), arg, scan_points)
    k = int(np.argmax(vals))
    arg, neg_peak = _golden_min(lambda g: -share(g), float(gammas[max(k - 1, 0)]),
                                float(gammas[min(k + 1, half - 1)]))
    vmax = max(vmax, -neg_peak)
    tol_min = vmin + 1e-9 * max(1.0, vmax)
    argmin = tuple(float(g) for g, v in zip(gammas, vals) if v <= tol_min)
    return BandScan(vmin, float(vmax), argmin, float(arg), scan_points)


class TestBand:
    @pytest.mark.parametrize("points", [16, 120])
    @pytest.mark.parametrize("p_plus, abs_alpha, abs_alpha_c", [
        (0.4, 0.9, 0.8),          # the |alpha| = 0.9 row of fig3 --steps 11
        (0.4, 1.0 - 1e-9, 0.8),   # fig3's clipped last row
        (0.7, 0.35, 0.55),        # swapped prior
        (0.5, 0.6, 0.999),
        (0.3, 0.5, 0.0),          # flat profile
        (0.4, 0.0, 0.8),
    ])
    def test_band_matches_scalar_reference(self, p_plus, abs_alpha, abs_alpha_c, points):
        got = coherence_band(p_plus, abs_alpha, abs_alpha_c, scan_points=points)
        assert got == reference_band(p_plus, abs_alpha, abs_alpha_c, points)


def reference_smr(channel_angle, nodes):
    """square_mean_root as a loop over branch_coherences, node by node."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    mus = 0.5 * math.pi * (x + 1.0)
    acc = np.zeros(3)
    for mu, wt in zip(mus, w):
        probe = TeleportInstance(channel_angle, float(mu), 0.0)
        val = np.zeros(3)
        for b in (0, 1):
            total, converted, _ = branch_coherences(probe, b)
            c = np.array([total, converted, total - converted])
            val += branch_probability(probe, b) * np.sqrt(np.maximum(c, 0.0))
        acc += wt * 0.5 * val * math.sin(mu)
    acc *= 0.5 * math.pi
    return tuple(float(a) for a in acc * acc)


class TestQuadrature:
    @pytest.mark.parametrize("nodes", [2, 7, 32, 64])
    @pytest.mark.parametrize("angle", [
        0.0, math.pi / 4, *np.random.default_rng(8).uniform(0.0, math.pi / 4, 2)])
    def test_square_mean_root_matches_loop(self, angle, nodes):
        assert square_mean_root(angle, nodes) == reference_smr(angle, nodes)
