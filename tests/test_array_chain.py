"""Stacks of N against stacks of one, float for float.

separable_strategy, coupled_state and the total and converted entries
of closed_form_coherences are the array kernel on a stack of one. A
stack of N must give each entry the same bits: separable_points' own
swap against make_instance and the UssdInstance weights, the reduced
states of coherence._factor's factors against reference_partial_trace
(the tensordot route of the one-state partial trace, kept here), a
stacked wootters_concurrence against one factor at a time and, at a
stated tolerance, against wootters_one (the eigendecomposition route it
replaced, kept here), and the band scan and the polar quadrature
against loops over single entries. coherence_band over a stack of
overlaps, and its
lockstep golden-section search, are held to one call per entry and to
the one-bracket loop kept here as a reference, whose every decision the
search, several steps per call, must repeat at every step count. fig2's array pass is held to
the row-by-row loop it replaced, kept here as reference_fig2_rows. The
tangle ledger of a stack is held to its rows with ==, and to the
eigendecomposition-route ledger kept here as a reference at a stated
tolerance, row by row. Its arithmetic before the one gather of every
qubit's minors (one qubit at a time, np.mean, the polynomial invariant
on numpy scalars) is kept here as frozen_ledgers, which every field of
a stack and of each row must repeat with ==.
The closed-form triple of a stack is held to the scalar triple kept
here as a reference, and optimal_strategy's radii to the scalar regime
split. The instance arithmetic is written once, in helpers the kernel
calls on arrays and the scalar entry points on one instance; the scalar
copies it replaced are kept here as references (reference_weights,
reference_separability_params, reference_zeta_vectors,
reference_pair_with_overlap) and TestOneFormula holds the entry points
to them: with == except the coupled images, partner vectors and what is
built from them, which may move in the last bit (LAST_BIT). The CLI prints round-off digits (fig3's band_system_split
columns), so "close" would still change its output. Floats are compared
with ==, and the signs of zeros are compared too, since a zero's sign
steers np.angle. The loop phase's row kernel is held to the one-loop
bargmann_loop and bargmann_phase kept here as references, and the
sequence forms of optimal_strategy, separable_strategy, branch_to_ussd
(with reference_branch_record, its one-branch body) and
total_success_probability to one call per entry.
"""

import contextlib
import dataclasses
import io
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ussd_lab import cli, coherence, oracle, selftest, teleport, ussd
from ussd_lab.coherence import (
    _YY,
    BandScan,
    CoherenceLedger,
    _band_share,
    _factor,
    _golden_min,
    _hyperdet_tangle,
    _tangles,
    closed_form_coherences,
    coherence_band,
    initial_coherence,
    ledger,
    wootters_concurrence,
)
from ussd_lab.errors import (
    DegenerateOverlap,
    NumericalError,
    RangeError,
    ShapeError,
    UndefinedPhase,
    UssdLabError,
)
from ussd_lab.qcore import PureState, factor_rows, measure_rows
from ussd_lab.teleport import (
    BranchRecord,
    TeleportInstance,
    branch_probability,
    branch_to_ussd,
    fig4_sweep,
    square_mean_root,
    total_success_probability,
)
from ussd_lab.ussd import (
    SeparabilityParams,
    SeparablePoints,
    _kron_rows,
    _zeta,
    bargmann_loop,
    bargmann_phase,
    build_chi,
    canonical_embedding,
    coupled_amplitudes,
    coupled_state,
    coupling_unitary,
    make_instance,
    optimal_strategy,
    p_suc_max,
    separability_params,
    separable_points,
    separable_strategy,
    success_probability,
    system_ancilla_factor,
)
from test_qcore import basis_state
from test_teleport import reference_branch_coherences

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


def reference_partial_trace(state, keep):
    """Reduced density matrix of one PureState on the kept labels, in
    register order, by a tensordot over the traced axes: the route of
    the one-state partial trace before the package moved to factors."""
    reg = state.register
    kept = [q for q in reg if q in keep]
    traced_axes = [i for i, q in enumerate(reg) if q not in keep]
    dk = 2 ** len(kept)
    t = state.as_tensor()
    rho = np.tensordot(t, t.conj(), axes=(traced_axes, traced_axes))
    rho = rho.reshape(dk, dk)
    return 0.5 * (rho + rho.conj().T)  # kill round-off asymmetry


def reference_factor(state, keep):
    """One PureState's factor of its reduction to keep, by a transpose
    of its tensor: kept axes (in register order) as rows, the rest as
    columns."""
    reg = state.register
    axes = ([i for i, q in enumerate(reg) if q in keep]
            + [i for i, q in enumerate(reg) if q not in keep])
    k = sum(q in keep for q in reg)
    return state.as_tensor().transpose(axes).reshape(2 ** k, -1)


def scalar_chain(p, a, c):
    inst = make_instance(p, a, c)
    strat = separable_strategy(inst)
    psi = coupled_state(inst, strat)
    f_c = reference_factor(psi, ["C"])
    f_ca = reference_factor(psi, ["C", "A"])
    return inst, strat, psi.amplitudes, f_c, f_ca, wootters_concurrence(f_ca)


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


# entries at the edges of make_instance's checks: priors at 0, 1/2 and 1
# and 1 ulp either side, moduli of alpha at 1 and of alpha_c at 1 + 1e-15
# and 1 ulp either side, inf and NaN. Phases stay where cos(gamma) >= -0.71,
# away from gamma = pi, where the r+- denominator cancels as |alpha| and
# |alpha_c| go to 1 (and turns negative with |alpha_c| above 1).
_edge_priors = st.sampled_from(
    [0.0, -5e-324, 5e-324, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
     1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), math.nan]) | st.floats(0.0, 1.0)
_ALPHA_EDGES = [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), math.inf, math.nan]
_ALPHA_C_EDGES = [1.0 + 1e-15, math.nextafter(1.0 + 1e-15, 0.0), math.nextafter(1.0 + 1e-15, 2.0),
                  1.0, math.inf, math.nan]


def _edge_overlaps(edges, forms):
    """Complex overlaps with an edge or a uniform modulus m, in one of
    the forms: m ("re"), i m ("im") or m e^{i theta}, theta in [0, pi/4]
    ("phase")."""
    def build(m, form, theta):
        if form == "phase":
            return complex(m * math.cos(theta), m * math.sin(theta))
        return complex(0.0, m) if form == "im" else complex(m, 0.0)
    return st.builds(build, st.sampled_from(edges) | st.floats(0.0, 1.0),
                     st.sampled_from(forms), st.floats(0.0, 0.25 * math.pi))


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
        f_c = _factor(amps, SAC, ["C"])
        f_ca = _factor(amps, SAC, ["C", "A"])
        conc = wootters_concurrence(f_ca)
        for k, (_, _, vec, fc, fca, c) in enumerate(refs):
            assert_same(amps[k], vec)
            assert_same(f_c[k], fc)
            assert_same(f_ca[k], fca)
            assert conc[k] == c

    def test_checks_name_the_input(self):
        with pytest.raises(RangeError, match="p_plus"):
            separable_points([0.2, 1.5], 0.3, 0.4)
        with pytest.raises(RangeError, match="alpha_c"):
            separable_points(0.2, 0.3, [0.4, complex("nan")])
        with pytest.raises(DegenerateOverlap, match="alpha"):
            separable_points(0.2, [0.3, 1.0], 0.4)
        with pytest.raises(RangeError, match="alpha_c"):
            separable_points(0.2, 0.3, 1.0 + 1e-9)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: separable_points([0.2, 0.3, 1.5, 2.5], 0.3, 0.4),
         RangeError, "p_plus must lie in [0, 1], got 1.5"),
        (lambda: separable_points([0.2, 0.7, -0.25], 0.3, 0.4),
         RangeError, "p_plus must lie in [0, 1], got -0.25"),
        (lambda: separable_points(0.2, [0.3, complex(0.1, math.inf), complex("nan")], 0.4),
         RangeError, "alpha must be finite, got (0.1+infj)"),
        (lambda: separable_points(0.2, 0.3, [0.4, 0.5, complex(-math.inf, 0.2), math.nan]),
         RangeError, "alpha_c must be finite, got (-inf+0.2j)"),
        (lambda: separable_points(0.2, [0.3, 0.5, 1.5, 1.0], 0.4),
         DegenerateOverlap, "|alpha| = 1.5 leaves nothing to discriminate"),
        (lambda: separable_points([0.2, 0.8], [0.3, -1.0j], 0.4),
         DegenerateOverlap, "|alpha| = 1.0 leaves nothing to discriminate"),
        (lambda: separable_points(0.2, 0.3, [0.4, 1.0, 1.25j, 2.0]),
         RangeError, "|alpha_c| = 1.25 exceeds 1"),
        (lambda: separable_points(0.5, [0.3, 0.3, -math.nextafter(1.0, 0.0), 0.2],
                                  [0.2, 1.0 + 1e-15, 1.0 + 1e-15, 1.5]),
         RangeError, "|alpha_c| = 1.000000000000001 exceeds 1 and leaves no positive r+- "
                     "denominator with p_plus = 0.5, alpha = (-0.9999999999999999+0j), "
                     "alpha_c = (1.000000000000001+0j)"),
        (lambda: _band_share(0.3, np.array([[0.2], [0.5], [0.7]]),
                             np.array([[0.1], [-1.0], [1.0]]), np.linspace(0.0, 3.0, 4)),
         DegenerateOverlap, "|alpha_c| = -1.0: identical environment states carry no "
                            "coherence, so the band share is undefined"),
        (lambda: _band_share(0.3, np.array([0.2, 0.5]), 1.0, np.array([0.0, 1.0])),
         DegenerateOverlap, "|alpha_c| = 1.0: identical environment states carry no "
                            "coherence, so the band share is undefined"),
        (lambda: _band_share(np.array([[0.3], [1e-300], [1e-310]]), 0.5, 0.4,
                             np.array([0.0, 1.0])),
         NumericalError, "total coherence vanished at p_plus = 1e-300, |alpha| = 0.5, "
                         "|alpha_c| = 0.4, gamma = 0.0; share undefined"),
        (lambda: coherence_band(0.3, [0.2, 0.5, math.nan, math.inf], 0.4, 16),
         RangeError, "abs_alpha[2] must be finite, got nan"),
        (lambda: coherence_band(0.3, [0.2, -1.0, 2.0], 0.4, 16),
         DegenerateOverlap, "abs_alpha[1] = -1.0 leaves nothing to discriminate"),
    ], ids=["p_plus_high", "p_plus_low", "alpha_finite", "alpha_c_finite", "abs_alpha_beyond_1",
            "abs_alpha_1", "abs_alpha_c", "denominator", "band_alpha_c_stack", "band_alpha_c_scalar",
            "band_vanished", "band_not_finite", "band_abs_alpha"])
    def test_stack_checks_name_the_entry(self, call, error, message):
        """The first bad entry of a stack, never its first entry, is the
        one the message names, word for word."""
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message

    def test_stack_names_its_first_failing_entry(self):
        """Among the overlaps, the first entry to fail is named, whichever
        check it fails."""
        with pytest.raises(DegenerateOverlap) as info:
            separable_points(0.2, [1.5, 0.3, 0.3], [0.4, 0.4, math.nan])
        assert str(info.value) == "|alpha| = 1.5 leaves nothing to discriminate"

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.tuples(_edge_priors, _edge_overlaps(_ALPHA_EDGES, ["re", "im", "phase"]),
                              _edge_overlaps(_ALPHA_C_EDGES, ["re", "phase"])),
                    min_size=1, max_size=6))
    def test_stack_raises_as_its_entries_do(self, entries):
        """A stack raises iff make_instance raises on one of its entries,
        with that entry's error and message: the first entry whose prior
        fails if any does (priors are checked first on the whole stack),
        else the first entry that fails."""
        def verdict(call):
            try:
                call()
            except UssdLabError as exc:
                return type(exc), str(exc)
            return None

        scalar = [verdict(lambda e=e: make_instance(*e)) for e in entries]
        failing = ([i for i, (p, _, _) in enumerate(entries) if not 0.0 <= p <= 1.0]
                   or [i for i, v in enumerate(scalar) if v is not None])
        ps, alphas, alpha_cs = (np.array(c) for c in zip(*entries))
        assert verdict(lambda: separable_points(ps, alphas, alpha_cs)) \
            == (scalar[failing[0]] if failing else None)


def wootters_one(m):
    """Concurrence of one density matrix by the eigendecomposition route
    the factor kernel replaced, written out as a fixed reference: a
    factor from the eigenvectors whose eigenvalues pass a relative cut
    of 1e-13, then the singular values of its V^T (sy x sy) V."""
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    w = np.clip(w, 0.0, None)
    keep = w > 1e-13 * max(float(w.max()), 1e-300)
    fac = v[:, keep] * np.sqrt(w[keep])
    lam = np.linalg.svd(fac.T @ _YY @ fac, compute_uv=False)
    lam = np.concatenate([lam, np.zeros(4 - lam.size)])
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


# absolute, on concurrences and tangles in [0, 4/3]: about 450 unit
# roundoffs, against 1e-15 or so measured between the two routes
ROUTES = 1e-13


class TestStacks:
    def test_wootters_stack_of_mixed_ranks(self):
        """Random mixed states of rank 1 to 4, each a 4 x r factor padded
        with zero columns to 4 x 4: the stack equals its factors one at a
        time, and the unpadded factor, the factor times a random unitary
        and the eigendecomposition route of V V^dag agree within ROUTES."""
        rng = np.random.default_rng(5)
        facs, ranks = [], (1, 2, 3, 4) * 12
        for rank in ranks:
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            facs.append(np.pad(g / np.linalg.norm(g), ((0, 0), (0, 4 - rank))))
        facs = np.array(facs)
        stacked = wootters_concurrence(facs.reshape(6, 8, 4, 4))
        assert stacked.shape == (6, 8)
        assert (stacked > 0.0).any() and (stacked == 0.0).any()
        for got, f, rank in zip(stacked.reshape(-1).tolist(), facs, ranks):
            assert got == wootters_concurrence(f)
            for other in (wootters_concurrence(f[:, :rank]),
                          wootters_concurrence(f[:, :rank] @ selftest._haar_unitary(rng, rank)),
                          wootters_one(f @ f.conj().T)):
                assert abs(other - got) <= ROUTES

    def test_factor_shapes(self):
        assert wootters_concurrence(np.array([[1.0], [0.0], [0.0], [0.0]])) == 0.0
        for bad in (np.zeros(4), np.zeros((3, 2)), np.zeros((4, 0)), np.zeros((2, 4, 4, 0))):
            with pytest.raises(ShapeError, match="4 x r factor"):
                wootters_concurrence(bad)

    def test_reduce_stack_every_proper_keep(self):
        """_factor on a stack of 40 rows is reference_factor on each row,
        whatever order the keep is given in, and its V V^dag is the
        tensordot partial trace within a unit roundoff, for every proper
        keep of every register size from two qubits."""
        rng = np.random.default_rng(6)
        for reg in (("S", "A"), SAC, ("C", "S", "A")):
            amps = rng.normal(size=(40, 2 ** len(reg))) + 1j * rng.normal(size=(40, 2 ** len(reg)))
            amps /= np.linalg.norm(amps, axis=1)[:, None]
            for k in range(1, len(reg)):
                for keep in itertools.permutations(reg, k):
                    got = _factor(amps, reg, keep)
                    assert got.shape == (40, 2 ** k, 2 ** (len(reg) - k))
                    for a, f in zip(amps, got):
                        psi = PureState(reg, a)
                        assert_same(f, reference_factor(psi, keep))
                        rho = f @ f.conj().T
                        assert np.max(np.abs(rho - reference_partial_trace(psi, keep))) <= 1.2e-16

    def test_partial_trace_every_proper_keep(self):
        """The factor of one PureState's reduction is _factor on a stack
        of one: reference_factor, with V V^dag the tensordot partial
        trace within a unit roundoff, for every proper keep of every
        register size from two qubits."""
        rng = np.random.default_rng(16)
        for reg in (("C", "S"), ("S", "A"), SAC, ("B", "C", "S")):
            for _ in range(12):
                v = rng.normal(size=2 ** len(reg)) + 1j * rng.normal(size=2 ** len(reg))
                psi = PureState(reg, v / np.linalg.norm(v))
                for k in range(1, len(reg)):
                    for keep in itertools.permutations(reg, k):
                        got = _factor(psi.amplitudes[None], psi.register, keep)
                        assert got.shape == (1, 2 ** k, 2 ** (len(reg) - k))
                        assert_same(got[0], reference_factor(psi, keep))
                        rho = got[0] @ got[0].conj().T
                        assert np.max(np.abs(rho - reference_partial_trace(psi, keep))) <= 1.2e-16

    def test_empty_stacks(self):
        empty = np.empty((0, 8), dtype=complex)
        assert _factor(empty, SAC, ["C"]).shape == (0, 2, 4)
        assert _factor(empty, SAC, ["C", "A"]).shape == (0, 4, 2)
        assert _tangles(empty, SAC, ("C",)).shape == (1, 0)
        assert _tangles(empty, SAC, SAC).shape == (3, 0)
        assert wootters_concurrence(_factor(empty, SAC, ["C", "A"])).shape == (0,)
        assert ledger(empty) == ()
        assert ledger(coupled_amplitudes(separable_points(0.4, [], 0.8))) == ()


def reference_golden_min(f, lo, hi, tol=1e-10):
    """Golden-section search on one bracket, as a scalar loop, one call
    of f per point: the reference whose every decision, point and result
    the stacked _golden_min must repeat."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def recording(f, visits):
    """f, appending each point it is called at to visits."""
    def g(x):
        visits.append(x)
        return f(x)
    return g


def grouping(f, n):
    """A stacked objective f(rows, x) for n brackets, and the per-bracket
    lists of the points each call of it was given for that bracket."""
    groups = [[] for _ in range(n)]

    def g(rows, x):
        for i in range(n):
            groups[i].append([])
        for i, v in zip(rows.tolist(), x.tolist()):
            groups[i][-1].append(v)
        return f(rows, x)
    return g, groups


def steps_per_call(live):
    """The steps one call of f takes for each of live brackets: the most
    whose trees of 2**k - 1 rows fit the row budget, and at least 2."""
    k = 2
    while live * (2 ** (k + 1) - 1) <= coherence._ROW_BUDGET:
        k += 1
    return k


def schedule(steps):
    """The steps each bracket takes in each round of a search whose
    references take steps[i] steps, a list per round: every bracket
    still searching takes up to steps_per_call of its steps. The search
    calls f once per round, once before for the start points and once
    after for the midpoints."""
    left, rounds = list(steps), []
    while any(left):
        k = steps_per_call(sum(map(bool, left)))
        rounds.append([min(k, s) for s in left])
        left = [s - t for s, t in zip(left, rounds[-1])]
    return rounds


def assert_reference_visits(groups, want, takes):
    """groups holds the points one bracket's search sent to f, a list per
    call; want is the reference's points, in order, and takes the steps
    the bracket takes in each round of schedule. A call brings the first
    step's point, then the candidates of each later step of the call, a
    level at a time: two below each node of the level before whose
    bracket is still above tol. The candidate the search took at each
    level is want's next point, so each call opens with want's next point
    and holds the points of its steps in order; every other visit is a
    candidate the search did not take."""
    spans = [2] + [t for t in takes if t] + [1]
    calls = list(filter(None, groups))
    assert len(calls) == len(spans)
    pos = 0
    for g, m in zip(calls, spans):
        path, rest = want[pos:pos + m], iter(g)
        assert g[0] == path[0]
        assert all(any(x == v for x in rest) for v in path)
        pos += m
    assert pos == len(want)


def fig3_rows(steps):
    """The |alpha| column of fig3 --steps steps."""
    return np.minimum(np.linspace(0.0, 1.0, steps), 1.0 - 1e-9)


def reference_band(p_plus, abs_alpha, abs_alpha_c, scan_points):
    """coherence_band's scan and refinement, one scalar-chain share at a
    time: the environment tangle of one coupled state and the
    concurrence of its reference_factor, each a kernel call on one
    state."""
    def share(gamma):
        inst = make_instance(p_plus, abs_alpha * np.exp(1j * gamma), abs_alpha_c)
        psi = coupled_state(inst, separable_strategy(inst))
        total = float(_tangles(psi.amplitudes[None], SAC, ("C",))[0, 0])
        c_ca = wootters_concurrence(reference_factor(psi, ["C", "A"]))
        return min(max(float(c_ca * c_ca / total), 0.0), 1.0)

    half = scan_points // 2 + 1
    gammas = np.linspace(0.0, math.pi, half)
    vals = np.array([share(g) for g in gammas])
    vmin, vmax = float(vals.min()), float(vals.max())
    if vmax - vmin < 1e-12 * max(1.0, vmax):
        arg = float(math.acos(max(-1.0, min(1.0, -abs_alpha_c))))
        return BandScan(vmin, vmax, (0.0, math.pi), arg, scan_points)
    k = int(np.argmax(vals))
    arg, neg_peak = reference_golden_min(lambda g: -share(g), float(gammas[max(k - 1, 0)]),
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

    @pytest.mark.parametrize("p_plus, abs_alpha_c, points", [
        (0.4, 0.8, 120),        # fig3 --steps 11 at its defaults
        (0.4, 0.99999, 16),     # the last row peaks in the end cell k = 0
        (0.7, 0.55, 120),       # swapped prior
        (0.9, 0.999, 60),       # mostly flat rows
    ])
    def test_fig3_rows_match_one_call_per_row(self, p_plus, abs_alpha_c, points):
        rows = fig3_rows(11)
        got = coherence_band(p_plus, rows, abs_alpha_c, scan_points=points)
        want = tuple(coherence_band(p_plus, float(a), abs_alpha_c, scan_points=points)
                     for a in rows)
        assert got == want
        assert any(s.maximum - s.minimum < 1e-12 for s in want)     # a flat row
        assert any(s.maximum - s.minimum > 1e-3 for s in want)

    def test_rows_refined_at_different_depths(self):
        # the first four peak in cell k = 7 of 9; 0.95 peaks at k = 0 but
        # is flat, and 1 - 1e-9 is refined on the one-cell bracket at k = 0
        aa = [0.1, 0.3, 0.5, 0.7, 0.95, 1.0 - 1e-9]
        got = coherence_band(0.4, aa, 0.99999, scan_points=16)
        assert got == tuple(coherence_band(0.4, a, 0.99999, scan_points=16) for a in aa)
        assert coherence_band(0.4, aa[:1], 0.99999, scan_points=16) == got[:1]

    @settings(max_examples=25, deadline=None, database=None)
    @given(p_plus=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           stack=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4),
           abs_alpha_c=st.floats(0.0, 1.0, exclude_max=True),
           points=st.integers(8, 40))
    def test_stack_is_its_rows(self, p_plus, stack, abs_alpha_c, points):
        want, errors = [], []
        for a in stack:
            try:
                want.append(coherence_band(p_plus, a, abs_alpha_c, scan_points=points))
            except UssdLabError as exc:
                errors.append(type(exc))
        if errors:
            # the stack visits every row's points until one of them fails
            with pytest.raises(tuple(errors)):
                coherence_band(p_plus, stack, abs_alpha_c, scan_points=points)
        else:
            assert coherence_band(p_plus, stack, abs_alpha_c, scan_points=points) == tuple(want)


class TestGoldenSection:
    def test_band_brackets_visit_the_reference_points(self):
        p_plus, abs_alpha_c, points = 0.4, 0.99999, 16
        rows = fig3_rows(11)
        gammas = np.linspace(0.0, math.pi, points // 2 + 1)
        k = np.argmax(_band_share(p_plus, rows[:, None], abs_alpha_c, gammas), axis=1)
        lo = gammas[np.maximum(k - 1, 0)]
        hi = gammas[np.minimum(k + 1, gammas.size - 1)]
        f, groups = grouping(lambda idx, g: -_band_share(p_plus, rows[idx], abs_alpha_c, g),
                             rows.size)
        x, fx = _golden_min(f, lo, hi)
        wants = []
        for i, a in enumerate(rows.tolist()):
            wants.append([])
            share = recording(
                lambda g: -float(_band_share(p_plus, a, abs_alpha_c, [g])[0]), wants[-1])
            assert (x[i], fx[i]) == reference_golden_min(share, float(lo[i]), float(hi[i]))
        rounds = schedule([len(w) - 3 for w in wants])
        for i, want in enumerate(wants):
            assert_reference_visits(groups[i], want, [r[i] for r in rounds])
        assert len({sum(map(len, g)) for g in groups}) > 1

    def test_oracle_searches_visit_the_reference_points(self, monkeypatch):
        tols = []

        def spy(f, lo, hi, tol=1e-10):
            def one(x):
                return float(f(np.zeros(1, dtype=int), np.array([x]))[0])

            expected = reference_golden_min(one, float(lo[0]), float(hi[0]), tol)
            x, fx = _golden_min(f, lo, hi, tol)
            assert (np.shape(lo), x[0], fx[0]) == ((1,), *expected)
            tols.append(tol)
            return x, fx

        monkeypatch.setattr(oracle, "_golden_min", spy)
        inst = make_instance(0.3, 0.45 * np.exp(0.8j), 0.6 * np.exp(0.4j))
        oracle.grid_min_concurrence(inst, separable_strategy(inst),
                                    oracle.GridSpec(0.0, math.pi / 2, 21, 2),
                                    oracle.GridSpec(0.0, 2 * math.pi, 41, 2))
        oracle.grid_optimize_success(inst, oracle.GridSpec(0.0, 1.0, 501, 2))
        assert len(tols) == 6 and set(tols) == {1e-12}

    def test_fig3_band_makes_25_share_calls(self, monkeypatch):
        entry, core, calls = coherence._band_share, coherence._band_core, []

        def counting(name, fn):
            def g(*args):
                calls.append(name)
                return fn(*args)
            return g

        monkeypatch.setattr(coherence, "_band_share", counting("checked", entry))
        monkeypatch.setattr(coherence, "_band_core", counting("core", core))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["fig3", "--steps", "11"]) == 0
        # the scan through the checked entry; then, on the core alone, the
        # start points, 22 calls of two steps for nine brackets and the midpoints
        assert calls == ["checked", "core"] + ["core"] * 24

    @pytest.mark.parametrize("seed", range(4))
    def test_calls_per_search_are_bounded(self, seed):
        """Exactly the calls of f scheduled_calls counts from the steps s
        the reference takes on each bracket, each bracket in at most
        ceil(s / 2) + 2 of them, no call above the row budget or three
        rows per bracket searching, and every point inside the search's
        own bracket, speculative ones included."""
        rng = np.random.default_rng(seed)
        n = 6
        lo = rng.uniform(-2.0, 1.0, n)
        hi = lo + 10.0 ** rng.uniform(-9.0, 1.0, n)
        top = rng.uniform(lo - 0.5, hi + 0.5)
        tol = 10.0 ** rng.uniform(-12.0, -6.0)
        calls = []

        def f(rows, x):
            calls.append((rows.size, np.unique(rows).size))
            return (x - top[rows]) * (x - top[rows])
        stacked, groups = grouping(f, n)
        x, fx = _golden_min(stacked, lo, hi, tol)
        wants = []
        for i in range(n):
            wants.append([])
            one = recording(lambda v: (v - top[i]) * (v - top[i]), wants[-1])
            assert (x[i], fx[i]) == reference_golden_min(one, lo[i], hi[i], tol)
            assert all(lo[i] <= v <= hi[i] for g in groups[i] for v in g)
        # two start points, one per step, the midpoint
        steps = [len(w) - 3 for w in wants]
        rounds = schedule(steps)
        for i, want in enumerate(wants):
            assert_reference_visits(groups[i], want, [r[i] for r in rounds])
            assert sum(map(bool, groups[i])) <= math.ceil(steps[i] / 2) + 2
        assert len(calls) == len(rounds) + 2
        assert all(rows <= max(coherence._ROW_BUDGET, 3 * live) for rows, live in calls[1:-1])

    @pytest.mark.parametrize("budget", [3, 7, 15, 31, 63])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_every_step_count_repeats_the_reference(self, monkeypatch, budget, n):
        """With the row budget of one bracket's k = 2 to 6 steps per
        call, and so fewer for more brackets, every bracket's point and
        value are the reference's, bit for bit: random brackets, some
        at ties (a function flat on a stretch, as the band share clipped
        at 1), tolerances that stop brackets mid-tree and at different
        steps, and each call within its row budget."""
        monkeypatch.setattr(coherence, "_ROW_BUDGET", budget)
        rng = np.random.default_rng(budget * 10 + n)
        mixed = tied = pruned = False
        for draw in range(6):
            lo = rng.uniform(-2.0, 1.0, n)
            hi = lo + 10.0 ** rng.uniform(-6.0, 0.5, n)
            top = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo))
            flat = (draw % 2) * rng.uniform(0.1, 0.4, n) * (hi - lo)
            tol = float(10.0 ** rng.uniform(-12.0, -5.0))

            def one(i, v):
                # zero within flat[i] of top[i]: every comparison there a tie
                return max(abs(v - top[i]) - flat[i], 0.0) ** 2

            calls = []

            def f(rows, x):
                calls.append((rows.size, np.unique(rows).size))
                return np.array([one(i, v) for i, v in zip(rows.tolist(), x.tolist())])

            stacked, groups = grouping(f, n)
            x, fx = _golden_min(stacked, lo, hi, tol)
            wants = []
            for i in range(n):
                wants.append([])
                ref = reference_golden_min(recording(lambda v: one(i, v), wants[-1]),
                                           float(lo[i]), float(hi[i]), tol)
                assert (x[i].hex(), fx[i].hex()) == (ref[0].hex(), ref[1].hex())
            steps = [len(w) - 3 for w in wants]
            rounds = schedule(steps)
            for i, want in enumerate(wants):
                assert_reference_visits(groups[i], want, [r[i] for r in rounds])
            assert len(calls) == len(rounds) + 2
            assert all(rows <= live * (2 ** steps_per_call(live) - 1)
                       for rows, live in calls[1:-1])
            mixed |= len(set(steps)) > 1
            tied |= bool(np.any(fx == 0.0))        # ended on the flat stretch
            pruned |= any(0 < len(g[c]) < 2 ** steps_per_call(calls[c][1]) - 1
                          for g in groups for c in range(1, len(calls) - 1))
        assert (mixed or n == 1) and tied and pruned

    def test_error_at_an_untaken_candidate_propagates(self):
        """The search evaluates both candidates of each later step of a
        call, so f's error at one it does not take still reaches the
        caller, although the one-point reference never calls f there."""
        def f(_, x):
            return (x - 3.0) * (x - 3.0)

        stacked, groups = grouping(f, 1)
        _golden_min(stacked, np.array([2.0]), np.array([4.0]))
        want = []
        reference_golden_min(recording(lambda v: (v - 3.0) * (v - 3.0), want), 2.0, 4.0)
        untaken = [v for g in groups[0] for v in g if v not in want]
        assert untaken

        def failing(rows, x):
            if untaken[0] in x.tolist():
                raise NumericalError("no value here")
            return f(rows, x)

        with pytest.raises(NumericalError):
            _golden_min(failing, np.array([2.0]), np.array([4.0]))


def reference_smr(channel_angle, nodes):
    """square_mean_root as a loop over reference_branch_coherences, node
    by node."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    mus = 0.5 * math.pi * (x + 1.0)
    acc = np.zeros(3)
    for mu, wt in zip(mus, w):
        probe = TeleportInstance(channel_angle, float(mu), 0.0)
        val = np.zeros(3)
        for b in (0, 1):
            total, converted, _ = reference_branch_coherences(probe, b)
            c = np.array([total, converted, total - converted])
            val += branch_probability(probe, b) * np.sqrt(np.maximum(c, 0.0))
        acc += wt * 0.5 * val * math.sin(mu)
    acc *= 0.5 * math.pi
    return tuple(float(a) for a in acc * acc)


class TestQuadrature:
    def test_stack_validation(self):
        assert square_mean_root(np.array([]), 8) == ()
        with pytest.raises(RangeError, match=re.escape(
                "channel_angle[1] must lie in [0, pi/4], got 1.0")):
            square_mean_root(np.array([0.1, 1.0, -1.0]))
        with pytest.raises(ShapeError, match=r"^channel_angle must be one angle or a 1-D"):
            square_mean_root(np.zeros((2, 2)))
        with pytest.raises(RangeError, match=r"^tangle must lie in \[0, 1\], got 1.5$"):
            fig4_sweep([0.5, 1.5, -1.0])

    @pytest.mark.parametrize("nodes", [2, 7, 32, 64])
    @pytest.mark.parametrize("angle", [
        0.0, math.pi / 4, *np.random.default_rng(8).uniform(0.0, math.pi / 4, 2)])
    def test_square_mean_root_matches_loop(self, angle, nodes):
        assert square_mean_root(angle, nodes) == reference_smr(angle, nodes)

    @pytest.mark.parametrize("nodes", [7, 64])
    def test_stack_is_its_angles(self, nodes):
        """One call over a stack of angles, the product channel among
        them, gives each angle the triple of a call on it alone, signs
        of zeros included."""
        angles = np.concatenate([[0.0, math.pi / 4, math.pi / 4 - 1e-9],
                                 np.random.default_rng(9).uniform(0.0, math.pi / 4, 12)])
        got = square_mean_root(angles, nodes)
        assert isinstance(got, tuple) and len(got) == angles.size
        for angle, triple in zip(angles.tolist(), got):
            want = square_mean_root(angle, nodes)
            assert [x.hex() for x in triple] == [x.hex() for x in want] \
                == [x.hex() for x in reference_smr(angle, nodes)]


def reference_ledger(psi):
    """The tangle ledger of one PureState by the eigendecomposition
    route the factor kernels replaced, one reference_partial_trace at a
    time: a one-matrix det per one-vs-rest tangle, wootters_one per
    pair. It is held to the kernel within ROUTES, not bit for bit."""
    reg = psi.register
    bipartite = {}
    for q in reg:
        rest = "".join(x for x in reg if x != q)
        det = float(np.linalg.det(reference_partial_trace(psi, [q])).real)
        bipartite[f"{q}:{rest}"] = 4.0 * max(det, 0.0)
    pairwise = {}
    for x, y in itertools.combinations(reg, 2):
        c = wootters_one(reference_partial_trace(psi, [x, y]))
        pairwise[f"{x}:{y}"] = c * c

    def other_pair(pivot):
        x, y = [q for q in reg if q != pivot]
        return pairwise[f"{x}:{y}"]

    sums = [bipartite[f"{q}:{''.join(x for x in reg if x != q)}"] + other_pair(q)
            for q in reg]
    return CoherenceLedger(
        register=reg,
        c_total=float(np.mean(sums)),
        c_bipartite=bipartite,
        c_pairwise=pairwise,
        c_genuine=_hyperdet_tangle(psi.amplitudes),
        monogamy_residual=float(max(sums) - min(sums)),
    )


def ledger_fields(led):
    """Every field of a ledger, keys in order, floats as (value, sign bit)."""
    def bits(x):
        assert type(x) is float
        return x, math.copysign(1.0, x)
    return (led.register,
            [(k, bits(v)) for k, v in led.c_bipartite.items()],
            [(k, bits(v)) for k, v in led.c_pairwise.items()],
            bits(led.c_total), bits(led.c_genuine), bits(led.monogamy_residual))


def assert_close_ledgers(got, want):
    """Same keys in the same order, every entry within ROUTES."""
    def entries(led):
        return ([led.c_total, led.c_genuine, led.monogamy_residual]
                + list(led.c_bipartite.values()) + list(led.c_pairwise.values()))
    assert (got.register, list(got.c_bipartite), list(got.c_pairwise)) == (
        want.register, list(want.c_bipartite), list(want.c_pairwise))
    assert max(abs(x - y) for x, y in zip(entries(got), entries(want))) <= ROUTES


def assert_same_ledgers(got, states):
    """A stacked ledger is the ledger of each state alone, bit for bit,
    and the eigendecomposition route's within ROUTES."""
    assert isinstance(got, tuple) and len(got) == len(states)
    for led, psi in zip(got, states):
        assert ledger_fields(led) == ledger_fields(ledger(psi))
        assert_close_ledgers(led, reference_ledger(psi))


def random_states(seed, count):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(count, 8)) + 1j * rng.normal(size=(count, 8))
    return amps / np.linalg.norm(amps, axis=1)[:, None]


def fig3_ledgers(p_plus, abs_alpha_c, rows):
    """cmd_fig3's ledgers: the stacked call, and the scalar chain row by row."""
    stack = ledger(coupled_amplitudes(
        separable_points(p_plus, rows * np.exp(1j * math.pi / 2), abs_alpha_c)))
    states = []
    for aa in rows:
        inst = make_instance(p_plus, float(aa) * np.exp(1j * math.pi / 2), abs_alpha_c)
        states.append(coupled_state(inst, separable_strategy(inst)))
    return stack, states


class TestLedger:
    def test_random_states(self):
        amps = random_states(31, 400)
        assert_same_ledgers(ledger(amps), [PureState(SAC, a) for a in amps])

    def test_one_state_is_a_stack_of_one(self):
        for a in random_states(32, 5):
            psi = PureState(SAC, a)
            assert_close_ledgers(ledger(psi), reference_ledger(psi))
            assert ledger_fields(ledger(a[None])[0]) == ledger_fields(ledger(psi))
        # a permuted register keeps its own labels
        psi = PureState(("C", "S", "A"), random_states(33, 1)[0])
        assert_close_ledgers(ledger(psi), reference_ledger(psi))

    def test_landmark_states(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / math.sqrt(2)
        w = np.zeros(8, dtype=complex)
        w[1] = w[2] = w[4] = 1 / math.sqrt(3)
        states = [PureState(SAC, ghz), PureState(SAC, w)]
        states += [basis_state(SAC, bits) for bits in ("000", "101", "111")]
        plus = np.full(8, 1 / math.sqrt(8), dtype=complex)
        states.append(PureState(SAC, plus))
        assert_same_ledgers(ledger(np.array([s.amplitudes for s in states])), states)

    @pytest.mark.parametrize("steps", [11, 101])
    @pytest.mark.parametrize("p_plus, abs_alpha_c", [
        (0.4, 0.8),                   # fig3's defaults
        (0.7, 0.55),                  # swapped prior
        (0.5, 0.0),
        (0.9, 0.999),
        (0.999999, 0.999999999),      # swapped, next to both edges
        (0.0, 0.8),                   # an extreme prior: no coherence at all
    ])
    def test_fig3_rows(self, steps, p_plus, abs_alpha_c):
        assert_same_ledgers(*fig3_ledgers(p_plus, abs_alpha_c, fig3_rows(steps)))

    def test_acceptance_grid(self):
        # the closed_form_ledger_grid acceptance inputs; TestChain holds the
        # amplitudes to the scalar chain
        grid = [(float(p), aa * np.exp(1j * 0.6 * g), ac * np.exp(1j * 0.4 * g))
                for p in np.linspace(0.06, 0.94, 10)
                for aa in np.linspace(0.05, 0.95, 10)
                for ac in np.linspace(0.0, 0.95, 10)
                for g in np.linspace(0.0, 2.0 * math.pi * 7 / 8, 8)]
        p, a, ac = (np.array(col) for col in zip(*grid))
        amps = coupled_amplitudes(separable_points(p, a, ac))
        assert_same_ledgers(ledger(amps), [PureState(SAC, v) for v in amps])

    @settings(max_examples=40, deadline=None, database=None)
    @given(rows=st.lists(
        st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
                  st.lists(st.booleans(), min_size=8, max_size=8),
                  st.sampled_from([1.0, 1.0, 1.0, 1.0 + 1e-9, 1.2])),
        min_size=1, max_size=5))
    def test_stack_is_its_rows(self, rows):
        """Random rows, some with zeroed amplitudes, some off unit norm."""
        amps = []
        for parts, zero, scale in rows:
            v = np.array(parts[:8]) + 1j * np.array(parts[8:])
            v[np.array(zero)] = 0.0
            norm = np.linalg.norm(v)
            amps.append(v / norm * scale if norm > 1e-3 else basis_state(SAC, "010").amplitudes)
        amps = np.array(amps)
        want, errors = [], []
        for a in amps:
            try:
                want.append(ledger(a[None])[0])
            except UssdLabError as exc:
                errors.append(type(exc))
        if errors:
            with pytest.raises(tuple(errors)):
                ledger(amps)
        else:
            got = ledger(amps)
            assert [ledger_fields(x) for x in got] == [ledger_fields(x) for x in want]
            assert_same_ledgers(got, [PureState(SAC, a) for a in amps])

    @pytest.mark.parametrize("bad", [
        np.full((3, 4), 0.5, dtype=complex),
        np.zeros((2, 8, 1), dtype=complex),
        np.zeros(8, dtype=complex),
        basis_state(("S", "A"), "01"),
        basis_state(SAC, "000").as_tensor(),
        np.array([["0"] * 8]),
    ])
    def test_shape_errors(self, bad):
        with pytest.raises(ShapeError):
            ledger(bad)

    def test_fig3_builds_its_ledgers_in_one_call(self, monkeypatch):
        calls = []

        def counting(psi):
            calls.append(np.shape(psi))
            return ledger(psi)

        monkeypatch.setattr(cli, "ledger", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["fig3", "--steps", "11", "--band-points", "16"]) == 0
        assert calls == [(11, 8)]



def frozen_tangle(amps, reg, q):
    """The one-vs-rest tangle of qubit q in each row, as the ledger took
    it before its single gather: one qubit's minors at a time, from that
    qubit's own index of W0j, W1k, W0k, W1j."""
    w = _factor(np.arange(8)[None], reg, [q])[0]
    j, k = np.triu_indices(w.shape[-1], 1)
    minor = amps[:, w[0, j]] * amps[:, w[1, k]] - amps[:, w[0, k]] * amps[:, w[1, j]]
    return 4.0 * (minor.real * minor.real + minor.imag * minor.imag).sum(axis=-1)


def frozen_hyperdet(v):
    """The polynomial invariant on the eight numpy scalars of a row."""
    a000, a001, a010, a011, a100, a101, a110, a111 = v
    d1 = (a000 ** 2 * a111 ** 2 + a001 ** 2 * a110 ** 2
          + a010 ** 2 * a101 ** 2 + a100 ** 2 * a011 ** 2)
    d2 = (a000 * a111 * a011 * a100 + a000 * a111 * a101 * a010
          + a000 * a111 * a110 * a001 + a011 * a100 * a101 * a010
          + a011 * a100 * a110 * a001 + a101 * a010 * a110 * a001)
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def frozen_ledgers(reg, amps):
    """The ledger arithmetic of an (N, 8) stack on reg as it was before
    the single gather: three frozen_tangle passes, the monogamy sums
    averaged by np.mean and frozen_hyperdet on numpy scalars. The pair
    concurrences are the one stacked wootters_concurrence call, which
    TestLedgerArithmetic holds to one matrix at a time."""
    tau = np.array([frozen_tangle(amps, reg, q) for q in reg])
    pairs = list(itertools.combinations(reg, 2))
    c = wootters_concurrence(np.concatenate([_factor(amps, reg, p) for p in pairs]))
    c2 = (c * c).reshape(3, -1)
    sums = tau + c2[::-1]
    total = np.mean(sums, axis=0)
    residual = sums.max(axis=0) - sums.min(axis=0)
    return tuple(
        CoherenceLedger(
            register=reg,
            c_total=t,
            c_bipartite={f"{q}:{''.join(x for x in reg if x != q)}": v
                         for q, v in zip(reg, b)},
            c_pairwise={f"{x}:{y}": v for (x, y), v in zip(pairs, pc)},
            c_genuine=frozen_hyperdet(v),
            monogamy_residual=r,
        )
        for v, t, b, pc, r in zip(amps, total.tolist(), tau.T.tolist(),
                                  c2.T.tolist(), residual.tolist()))


def zeroed_states(seed, count):
    """random_states, every other row with up to four entries set to an
    exact zero before it is normalized."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(count, 8)) + 1j * rng.normal(size=(count, 8))
    for row in amps[::2]:
        row[rng.choice(8, rng.integers(1, 5), replace=False)] = 0.0
    return amps / np.linalg.norm(amps, axis=1)[:, None]


def edge_box_states(seed, count):
    """Coupled rows at the separable points of one selftest._edge_box stack."""
    p, aa, ac, g = selftest._edge_box(np.random.default_rng(seed), count)
    return coupled_amplitudes(separable_points(p, aa * np.exp(1j * g), ac))


class TestLedgerArithmetic:
    """The ledger gathers every qubit's minors at once, sums the pivots
    in np.mean's order, and reads each row's amplitudes as Python
    complex numbers; frozen_ledgers keeps the arithmetic it replaced,
    and every field must keep its bits, signs of zeros included, for a
    stack and for each of its rows alone. cmd_eval prints the (S, A)
    entry of the ledger's stacked concurrences as the separability
    concurrence, so those must be the concurrences of one matrix."""

    @staticmethod
    def assert_frozen(reg, amps):
        """Each row as a PureState on reg and, on ("S", "A", "C"), the
        stack and each row as a stack of one, against frozen_ledgers."""
        def fields(leds):
            return [ledger_fields(x) for x in leds]

        for a in amps:
            assert fields([ledger(PureState(reg, a))]) == fields(frozen_ledgers(reg, a[None]))
            if reg == SAC:
                assert fields(ledger(a[None])) == fields(frozen_ledgers(reg, a[None]))
        if reg == SAC:
            assert fields(ledger(amps)) == fields(frozen_ledgers(reg, amps))

    @pytest.mark.parametrize("count", [0, 1, 2, 60])
    def test_random_rows(self, count):
        self.assert_frozen(SAC, zeroed_states(41 + count, count))

    def test_edge_box_rows(self):
        self.assert_frozen(SAC, edge_box_states(43, 200))

    def test_permuted_register(self):
        self.assert_frozen(("A", "C", "S"), zeroed_states(44, 6))

    @pytest.mark.parametrize("amps", [zeroed_states(45, 30), edge_box_states(46, 30)],
                             ids=["random", "edge_box"])
    def test_pair_concurrences_are_one_matrix_each(self, amps):
        leds, conc = coherence._ledger_pass(amps)[:2]
        assert conc.shape == (3 * len(amps),)
        for k, (x, y) in enumerate(itertools.combinations(SAC, 2)):
            for i, a in enumerate(amps):
                one = wootters_concurrence(_factor(a[None], SAC, (x, y))[0])
                assert conc[k * len(amps) + i] == one
                assert leds[i].c_pairwise[f"{x}:{y}"] == one * one

    def test_one_gather_for_every_qubit(self):
        amps = zeroed_states(48, 5)
        got = _tangles(amps, SAC, SAC)
        assert got.shape == (3, 5)
        for row, q in zip(got, SAC):
            assert row.tolist() == frozen_tangle(amps, SAC, q).tolist()
            assert _tangles(amps, SAC, (q,))[0].tolist() == row.tolist()
        assert _tangles(amps, SAC, ("C", "S")).tolist() == got[[2, 0]].tolist()


def reference_closed_form(inst, strat):
    """The closed-form triple of one instance, in scalar arithmetic: the
    reference every row of the stacked triple must repeat. The squares
    of the first two entries are products, as numpy's array ** 2 is; the
    genuine entry's is pow(), as the float ** 2 of a numpy scalar is."""
    aa, ac = abs(inst.alpha), abs(inst.alpha_c)
    mp, mm = abs(strat.alpha_plus), abs(strat.alpha_minus)
    pref = 4.0 * inst.r_plus * inst.r_minus * (1.0 - ac * ac)
    c_total = pref * (1.0 - aa) * (1.0 + aa)
    c_ancilla = pref * ((mp - mm) * (mp - mm) + 2.0 * aa * (1.0 - aa))
    bp = math.sqrt(max(1.0 - mp * mp, 0.0))
    bm = math.sqrt(max(1.0 - mm * mm, 0.0))
    amp = (bp * strat.alpha_minus * math.sin(strat.beta) * np.exp(1j * strat.delta)
           + bm * strat.alpha_plus * math.cos(strat.beta))
    c_genuine = pref * float(abs(amp) ** 2)
    return (float(c_total), float(c_ancilla), float(c_genuine))


def reference_optimal_radii(inst):
    """optimal_strategy's failure overlaps, split by regime in scalar
    arithmetic, with the phase of alpha on the reference side."""
    aa = abs(inst.alpha)
    phase = np.exp(1j * np.angle(inst.alpha))
    if inst.case == "interior":
        mp, mm = math.sqrt(aa / inst.tilde_alpha), math.sqrt(aa * inst.tilde_alpha)
    else:
        mp, mm = 1.0, aa
    return mp * phase, complex(mm)


def bits(x):
    """A float as (value, sign bit), so that == sees the sign of a zero."""
    assert type(x) is float
    return x, math.copysign(1.0, x)


def assert_same_triples(got, pairs):
    """The stacked triple got, three arrays, against the reference triple
    of each (instance, strategy) pair, cell by cell."""
    rows = list(zip(*(c.tolist() for c in got)))
    assert all(c.shape == (len(pairs),) for c in got)
    assert [tuple(map(bits, r)) for r in rows] == \
        [tuple(map(bits, reference_closed_form(i, s))) for i, s in pairs]


def separable_pairs(points):
    """(instance, separable strategy) of each (p_plus, alpha, alpha_c),
    one make_instance at a time."""
    return [(inst, separable_strategy(inst))
            for inst in (make_instance(*pt) for pt in points)]


class TestClosedForm:
    def test_edge_draws(self, chains):
        refs, _, pts, _ = chains
        assert_same_triples(closed_form_coherences(pts), [r[:2] for r in refs])

    def test_one_instance_is_a_stack_of_one(self, chains):
        refs, _, _, _ = chains
        for inst, strat, *_ in refs[::7]:
            got = closed_form_coherences(inst, strat)
            assert type(got) is tuple and len(got) == 3
            assert tuple(map(bits, got)) == tuple(map(bits, reference_closed_form(inst, strat)))

    def test_acceptance_grid(self):
        grid = [(float(p), aa * np.exp(1j * 0.6 * g), ac * np.exp(1j * 0.4 * g))
                for p in np.linspace(0.06, 0.94, 10)
                for aa in np.linspace(0.05, 0.95, 10)
                for ac in np.linspace(0.0, 0.95, 10)
                for g in np.linspace(0.0, 2.0 * math.pi * 7 / 8, 8)]
        p, a, ac = (np.array(col) for col in zip(*grid))
        assert_same_triples(closed_form_coherences(separable_points(p, a, ac)),
                            separable_pairs(grid))

    @pytest.mark.parametrize("steps", [11, 101])
    @pytest.mark.parametrize("p_plus, abs_alpha_c", [
        (0.4, 0.8), (0.7, 0.55), (0.5, 0.0), (0.9, 0.999),
        (0.999999, 0.999999999), (0.0, 0.8),
    ])
    def test_fig3_rows(self, steps, p_plus, abs_alpha_c):
        alpha = fig3_rows(steps) * np.exp(1j * math.pi / 2)
        pts = separable_points(p_plus, alpha, abs_alpha_c)
        assert_same_triples(closed_form_coherences(pts),
                            separable_pairs([(p_plus, a, abs_alpha_c) for a in alpha]))

    def test_angles_off_the_separable_point(self, chains):
        refs, _, pts, _ = chains
        rng = np.random.default_rng(41)
        beta = rng.uniform(0.0, math.pi / 2, pts.beta.size)
        delta = rng.uniform(0.0, 2.0 * math.pi, pts.delta.size)
        beta[:4], delta[:4] = (0.0, math.pi / 2, 0.0, math.pi / 2), (0.0, 0.0, math.pi, 6.0)
        moved = dataclasses.replace(pts, beta=beta, delta=delta)
        assert_same_triples(closed_form_coherences(moved), [
            (r[0], dataclasses.replace(r[1], beta=b, delta=d))
            for r, b, d in zip(refs, beta.tolist(), delta.tolist())])

    @settings(max_examples=40, deadline=None, database=None)
    @given(rows=st.lists(st.tuples(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-7.0, 7.0),
        st.sampled_from([0.0, 0.3, 0.9, 1.0, 1.0 + 1e-9, 1.2]), st.floats(-7.0, 7.0),
        st.none() | st.tuples(st.floats(0.0, math.pi / 2), st.floats(0.0, 6.28))),
        min_size=1, max_size=5))
    def test_stack_is_its_rows(self, rows):
        """Random rows, some outside the domain, some off the separable
        point."""
        points = [(p, a * np.exp(1j * g), c * np.exp(1j * h)) for p, a, g, c, h, _ in rows]
        want, errors = [], []
        for pt, (*_, angles) in zip(points, rows):
            try:
                inst = make_instance(*pt)
                strat = separable_strategy(inst)
                if angles is not None:
                    strat = dataclasses.replace(strat, beta=angles[0], delta=angles[1])
                want.append((inst, strat))
            except UssdLabError as exc:
                errors.append(type(exc))
        p, a, c = (np.array(col) for col in zip(*points))
        if errors:
            with pytest.raises(tuple(errors)):
                separable_points(p, a, c)
            return
        pts = separable_points(p, a, c)
        pts = dataclasses.replace(pts, beta=np.array([s.beta for _, s in want]),
                                  delta=np.array([s.delta for _, s in want]))
        stacked = closed_form_coherences(pts)
        assert_same_triples(stacked, want)
        for (inst, strat), got in zip(want, zip(*(c.tolist() for c in stacked))):
            assert list(map(bits, got)) == list(map(bits, closed_form_coherences(inst, strat)))

    def test_optimal_radii_are_the_kernels(self, chains):
        refs, _, _, _ = chains
        anc = np.array([math.cos(0.4), math.sin(0.4) * np.exp(0.9j)])
        for inst, strat, *_ in refs:
            opt = optimal_strategy(inst, beta=0.3, delta=5.0, ancilla_init=anc)
            for got, sep, ref in zip((opt.alpha_plus, opt.alpha_minus),
                                     (strat.alpha_plus, strat.alpha_minus),
                                     reference_optimal_radii(inst)):
                assert_same(got, sep)
                assert_same(got, ref)
            assert (opt.beta, opt.delta) == (0.3, 5.0)
            assert np.array_equal(opt.ancilla_init, anc)

    @pytest.mark.parametrize("check", [
        "_closed_form_ledger_grid", "_retained_pair_identity", "_teleport_branch_ledger",
        "_fig3_share_monotone_interior", "_fig3_share_saturated"])
    def test_checks_read_one_stack(self, check, monkeypatch):
        """One separable_points call and one closed_form_coherences call,
        the ledger checks' inside ussd.eval_report."""
        calls = {"separable_points": [], "closed_form_coherences": []}
        for name, calls_of in calls.items():
            def counting(*args, _f=getattr(selftest, name), _calls=calls_of):
                _calls.append(len(args))
                return _f(*args)
            for module in (selftest, ussd):
                monkeypatch.setattr(module, name, counting)
        value, _ = getattr(selftest, check)()
        assert math.isfinite(value)
        assert calls == {"separable_points": [3], "closed_form_coherences": [1]}

    @pytest.mark.parametrize("check, module, kernel", [
        ("_success_grid_oracle", selftest, "grid_optimize_success"),
        ("_lu_invariance", selftest, "ledger"),
        ("_separability_zero", coherence, "wootters_concurrence"),
        ("_fig2_monotone", ussd, "_p_suc"),
        ("_fig4_share_profile", teleport, "square_mean_root"),
        ("_success_born_rule", selftest, "optimal_strategy"),
        ("_success_strategy_independent", selftest, "optimal_strategy"),
        ("_conservation", selftest, "optimal_strategy"),
        ("_separability_zero", selftest, "separable_points"),
        ("_decomposition_residuals", selftest, "separable_strategy"),
        ("_coupling_unitarity", selftest, "separable_strategy"),
        ("_bargmann_equality", selftest, "bargmann_phase"),
        ("_bargmann_gauge", selftest, "bargmann_loop"),
        ("_bargmann_teleport_branches", selftest, "bargmann_phase"),
        ("_bargmann_teleport_branches", selftest, "branch_to_ussd"),
        ("_teleport_state_independent", selftest, "branch_to_ussd"),
        ("_teleport_branch_priors", selftest, "branch_to_ussd"),
        ("_teleport_branch_ledger", selftest, "branch_to_ussd"),
        ("_teleport_total_closed", selftest, "total_success_probability")])
    def test_restacked_checks_make_one_kernel_call(self, check, module, kernel, monkeypatch):
        calls = []

        def counting(*args, _f=getattr(module, kernel), **kwargs):
            calls.append(len(args[0]) if isinstance(args[0], (list, np.ndarray)) else 1)
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, kernel, counting)
        value, _ = getattr(selftest, check)()
        assert math.isfinite(value)
        assert len(calls) == 1 and calls[0] > 1


def reference_weights(inst):
    """r_plus, r_minus, tilde_alpha and case as scalar arithmetic on one
    instance."""
    p = inst.p_plus
    den = 1.0 + 2.0 * math.sqrt(p * (1.0 - p)) \
        * abs(inst.alpha) * abs(inst.alpha_c) * math.cos(inst.gamma)
    tilde = math.sqrt(p / (1.0 - p))
    case = "interior" if abs(inst.alpha) < tilde else "saturated"
    return p / den, (1.0 - p) / den, tilde, case


def reference_separability_params(inst, strat):
    """separability_params with its combination amplitudes in scalar
    arithmetic."""
    rp, rm = inst.r_plus, inst.r_minus
    ac = inst.alpha_c
    acm, gc = abs(ac), float(np.angle(ac))
    ap, am = strat.alpha_plus, strat.alpha_minus
    amp_p = math.sqrt(rp) * ap + math.sqrt(rm) * am * acm * np.exp(-1j * gc)
    amp_m = math.sqrt(rm) * am + math.sqrt(rp) * ap * acm * np.exp(+1j * gc)
    qp, qm = float(abs(amp_p) ** 2), float(abs(amp_m) ** 2)
    wp, wm = float(np.angle(amp_p)), float(np.angle(amp_m))
    g2 = (float(np.angle(inst.alpha)) - math.pi) % (2.0 * math.pi)
    fail = 1.0 - success_probability(inst, strat)
    if fail < 1e-15:
        return SeparabilityParams(qp, qm, wp, wm, 0.0, 0.0, 0.0, 0.0, 0.0, g2)
    env_gap = math.sqrt(max(0.0, 1.0 - acm * acm))
    return SeparabilityParams(
        qp, qm, wp, wm, math.sqrt(rp * qp / fail), math.sqrt(rm * qm / fail), wp - wm,
        abs(am) * env_gap * math.sqrt(rp * rm / fail),
        abs(ap) * env_gap * math.sqrt(rp * rm / fail), g2)


def reference_zeta_vectors(strat):
    """The coupled images zeta+- of one strategy, built from np.kron."""
    eta = strat.failure_direction()
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    bp = math.sqrt(max(0.0, 1.0 - abs(strat.alpha_plus) ** 2))
    bm = math.sqrt(max(0.0, 1.0 - abs(strat.alpha_minus) ** 2))
    return (bp * np.kron(e0, e0) + strat.alpha_plus * np.kron(eta, e1),
            bm * np.kron(e1, e0) + strat.alpha_minus * np.kron(eta, e1))


def reference_pair_with_overlap(ov):
    """|0> and its partner v with <v|0> = ov, one overlap at a time."""
    v0 = np.array([1.0, 0.0], dtype=complex)
    v1 = np.array([np.conj(ov), math.sqrt(max(0.0, 1.0 - abs(ov) ** 2))], dtype=complex)
    return v0, v1


def reference_initial_coherence(inst):
    aa, ac = abs(inst.alpha), abs(inst.alpha_c)
    return float(4.0 * inst.r_plus * inst.r_minus * (1.0 - ac * ac) * (1.0 - aa) * (1.0 + aa))


def reference_p_suc_max(inst):
    """p_suc_max as it read before its formula moved into ussd._p_suc."""
    aa = abs(inst.alpha)
    if inst.case == "interior":
        return float(inst.r_plus + inst.r_minus
                     - 2.0 * math.sqrt(inst.r_plus * inst.r_minus) * aa)
    return float(inst.r_minus * (1.0 - aa * aa))


def formula_draws(seed=12, n=3000):
    """(instance, strategy) pairs: priors at 0, 1/2 and 1 (canonical 0)
    and inside, above 1/2 too; |alpha_c| at 0 and 1 and inside; random
    phases; optimal_strategy with random failure angles."""
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(n):
        p = (0.0, 0.5, 1.0)[k % 5] if k % 5 < 3 else rng.uniform(0.0, 1.0)
        acm = (0.0, 1.0)[k % 2] if k % 7 == 0 else rng.uniform(0.0, 1.0)
        inst = make_instance(p, rng.uniform(0.0, 0.999) * np.exp(1j * rng.uniform(0.0, 7.0)),
                             acm * np.exp(1j * rng.uniform(0.0, 7.0)))
        draws.append((inst, optimal_strategy(inst, beta=rng.uniform(0.0, math.pi / 2),
                                             delta=rng.uniform(0.0, 2.0 * math.pi))))
    return draws


# the merged zeta and partner vectors square with numpy's x * x where the
# scalar forms took Python's pow(); the two differ in the last bit on a
# small share of draws
LAST_BIT = 2.5e-16


def assert_close(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= LAST_BIT


class TestOneFormula:
    @pytest.fixture(scope="class")
    def draws(self):
        draws = formula_draws()
        assert {i.case for i, _ in draws} == {"interior", "saturated"}
        assert {i.p_plus for i, _ in draws} >= {0.0, 0.5}
        return draws

    def test_weights_and_regime(self, draws):
        for inst, _ in draws:
            assert (inst.r_plus, inst.r_minus, inst.tilde_alpha, inst.case) \
                == reference_weights(inst)

    def test_weights_are_computed_once(self, monkeypatch):
        calls = []
        weights = ussd._weights
        monkeypatch.setattr(ussd, "_weights", lambda *a: calls.append(a) or weights(*a))
        inst = make_instance(0.3, 0.4, 0.2)
        for _ in range(3):
            inst.r_plus, inst.r_minus, inst.tilde_alpha, inst.case
        assert len(calls) == 1

    def test_separability_params(self, draws):
        for inst, strat in draws:
            assert separability_params(inst, strat) == reference_separability_params(inst, strat)

    def test_initial_coherence(self, draws):
        for inst, _ in draws:
            assert initial_coherence(inst) == reference_initial_coherence(inst)

    def test_p_suc_max(self, draws):
        for inst, _ in draws:
            assert p_suc_max(inst) == reference_p_suc_max(inst)

    def test_zeta_and_embedding(self, draws):
        for inst, strat in draws:
            pts = SeparablePoints.of(inst, strat)
            got = _zeta(pts)
            for (z,), want in zip(got, reference_zeta_vectors(strat)):
                assert_close(z, want)
            emb = canonical_embedding(inst)
            xi, xi_bar = reference_pair_with_overlap(inst.alpha)
            phi, phi_bar = reference_pair_with_overlap(inst.alpha_c)
            assert_same(emb.xi, xi)
            assert_same(emb.phi, phi)
            assert_close(emb.xi_bar, xi_bar)
            assert_close(emb.phi_bar, phi_bar)

    def test_density_and_unitary(self, draws):
        for inst, strat in draws:
            zp, zm = reference_zeta_vectors(strat)
            rp, rm, ac = inst.r_plus, inst.r_minus, inst.alpha_c
            rho = (rp * np.outer(zp, zp.conj()) + rm * np.outer(zm, zm.conj())
                   + math.sqrt(rp * rm) * (ac * np.outer(zp, zm.conj())
                                           + np.conj(ac) * np.outer(zm, zp.conj())))
            # the factor's columns: the environment reads 0 and 1
            ref = np.stack([math.sqrt(rp) * zp + math.sqrt(rm) * np.conj(ac) * zm,
                            math.sqrt(rm) * math.sqrt(1.0 - abs(ac) ** 2) * zm], axis=-1)
            v = system_ancilla_factor(coupled_state(inst, strat))
            assert_close(v, ref)
            # V V^dag takes one rounding more per entry than rho's sum
            assert np.max(np.abs(v @ v.conj().T - rho)) <= 4 * LAST_BIT
            # the coupling is fixed on span(xi k, xi_bar k) only; off it
            # any unitary completion is as good as another. The image of
            # xi_bar k passes through the normalization of its part
            # orthogonal to xi k, of norm sqrt(1 - |alpha|^2), which scales
            # its last-bit error up by the inverse
            xi, xi_bar = reference_pair_with_overlap(inst.alpha)
            k = strat.ancilla_init
            u = coupling_unitary(inst, strat).matrix
            assert_close(u @ np.kron(xi, k), zp)
            gap = math.sqrt(1.0 - abs(inst.alpha) ** 2)
            assert np.max(np.abs(u @ np.kron(xi_bar, k) - zm)) <= 2 * LAST_BIT / gap
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 8 * LAST_BIT


def reference_fig2_rows(p_plus, abs_alpha, steps):
    """fig2's rows as the scalar loop built them, one make_instance and
    two closed forms per cell."""
    def row(ac: float):
        cells = [float(ac)]
        insts = [make_instance(p_plus, abs_alpha * np.exp(1j * g), float(ac))
                 for g in (0.0, math.pi / 2, math.pi)]
        cells.extend(initial_coherence(i) for i in insts)
        cells.extend(p_suc_max(i) for i in insts)
        return cells

    return [row(x) for x in np.minimum(np.linspace(0.0, 1.0, steps), 1.0 - 1e-9)]


def fig2_draws(seed=17, n=200):
    """(p_plus, alpha, steps): priors at 0, 1/2 and 1, inside and above
    1/2 (swapped); |alpha| at 0, inside and within 1e-9 to 1e-1 of 1,
    either sign (the CLI refuses a negative one; -0.0 is a magnitude);
    2, 7 or 101 steps."""
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(n):
        p = (0.0, 0.5, 1.0, rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.0))[k % 5]
        a = (0.0, rng.uniform(0.0, 1.0), 1.0 - 10.0 ** rng.uniform(-9.0, -1.0))[k % 3]
        draws.append((p, a if k % 7 else -a, (2, 7, 101)[k % 11 % 3]))
    return draws


class TestFig2:
    def test_array_pass_is_the_scalar_loop(self, monkeypatch):
        emitted = []
        monkeypatch.setattr(cli, "_emit", lambda args, meta, columns, rows: emitted.append(rows))
        draws = fig2_draws()
        assert {p > 0.5 for p, _, _ in draws} == {False, True}
        assert any(a < 0.0 for _, a, _ in draws)
        assert any(a == 0.0 and math.copysign(1.0, a) < 0.0 for _, a, _ in draws)
        for p, a, steps in draws:
            code = cli.main(["fig2", "--p-plus", repr(p), "--alpha", repr(a),
                             "--steps", str(steps)])
            if a < 0.0:
                assert code == 2 and not emitted
                continue
            assert code == 0
            got = emitted.pop()
            assert got == reference_fig2_rows(p, a, steps)
            assert all(type(c) is float for row in got for c in row)

    @pytest.mark.parametrize("p_plus, abs_alpha", [
        (1.5, 0.4), (-0.1, 0.4), (0.2, 1.0), (0.7, 1.0), (0.2, 1.0 + 1e-12), (1.5, 1.0)])
    def test_errors_are_the_scalar_loops(self, p_plus, abs_alpha, capsys):
        with pytest.raises(UssdLabError) as want:
            reference_fig2_rows(p_plus, abs_alpha, 3)
        assert cli.main(["fig2", "--p-plus", repr(p_plus), "--alpha", repr(abs_alpha),
                         "--steps", "3"]) == 2
        assert capsys.readouterr().err == f"error: {want.value}\n"


# an admissible instance, edges weighted: priors 0, 1/2 and the next float
# above 1/2 (swapped), 1 - |alpha| down to 1e-12, |alpha_c| at 0 and 1
_instances = st.tuples(
    st.sampled_from([0.0, 0.5, math.nextafter(0.5, 1.0)]) | st.floats(0.0, 1.0),
    st.floats(-12.0, 0.0).map(lambda e: 1.0 - 10.0 ** e) | st.floats(0.0, 1.0 - 1e-12),
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    st.floats(-7.0, 7.0), st.floats(-7.0, 7.0))


@st.composite
def _unit_row(draw):
    """A normalized 3-qubit amplitude row: entangled, or a product of
    three qubits, each with one amplitude scaled down to as little as
    1e-8 so that an outcome probability reaches 1e-16."""
    parts = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        row = np.array(draw(st.lists(parts, min_size=16, max_size=16)))
        row = row[:8] + 1j * row[8:]
    else:
        row = np.ones(1, dtype=complex)
        for _ in range(3):
            q = np.array(draw(st.lists(parts, min_size=4, max_size=4)))
            q = q[:2] + 1j * q[2:]
            q[draw(st.integers(0, 1))] *= 10.0 ** -draw(st.floats(0.0, 8.0))
            row = np.kron(row, q)
    nrm = np.linalg.norm(row)
    assume(nrm > 1e-3)
    return row / nrm


class TestBuiltByConstruction:
    """What separable_points, coherence._factor, measure_rows and
    factor_rows build holds its invariants 100 times inside the tolerances of the
    checks they no longer apply to their own outputs (1e-12 each)."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(draws=st.lists(_instances, min_size=1, max_size=8))
    def test_separable_points(self, draws):
        p, aa, acm, g, gc = np.array(draws).T
        pts = separable_points(p, aa * np.exp(1j * g), acm * np.exp(1j * gc))
        assert np.abs(pts.alpha_plus).max() <= 1.0 + 1e-14
        assert np.abs(pts.alpha_minus).max() <= 1.0 + 1e-14
        assert np.abs(pts.alpha_plus * pts.alpha_minus.conj() - pts.alpha).max() <= 1e-14
        assert ((0.0 <= pts.beta) & (pts.beta <= math.pi / 2)).all()
        assert ((0.0 <= pts.delta) & (pts.delta <= 2.0 * math.pi)).all()

    @settings(max_examples=100, deadline=None, database=None)
    @given(rows=st.lists(_unit_row(), min_size=1, max_size=6))
    def test_reductions_and_measurements(self, rows):
        amps = np.array(rows)
        for k in range(1, 3):
            for keep in itertools.combinations(SAC, k):
                v = _factor(amps, SAC, keep)
                assert np.linalg.eigvalsh(v @ v.conj().swapaxes(-1, -2)).min() >= -1e-14
        t = amps.reshape(-1, 2, 2, 2)
        mask = np.ones(len(t), dtype=bool)
        for axis in (1, 2, 3):
            _, live, post = measure_rows(t, axis, mask)
            for k in (0, 1):
                rest = factor_rows(np.take(post[k], k, axis=axis), live[k], "S")
                for out in (post[k], rest):
                    flat = out.reshape(len(t), -1)[live[k]]
                    assert np.abs(np.linalg.norm(flat, axis=1) ** 2 - 1.0).max(initial=0.0) <= 1e-14


def reference_bargmann_loop(psi1, psi2, psi3):
    """bargmann_loop as it read before the row kernel: one loop, six
    np.vdot calls, a 2 x 2 np.linalg.solve and the three edge phases."""
    v1, v2, v3 = (np.asarray(p, dtype=complex).reshape(-1) for p in (psi1, psi2, psi3))
    gram = np.array([[np.vdot(v1, v1), np.vdot(v1, v3)],
                     [np.vdot(v3, v1), np.vdot(v3, v3)]])
    rhs = np.array([np.vdot(v1, v2), np.vdot(v3, v2)])
    try:
        coeff = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise UndefinedPhase("outer loop states are linearly dependent") from exc
    phase = (np.angle(coeff[0]) - np.angle(coeff[1]) + np.angle(np.vdot(v3, v1)))
    return float((phase + math.pi) % (2.0 * math.pi) - math.pi)


def reference_bargmann_phase(inst):
    """bargmann_phase as it read before the row kernel: the loop through
    the canonical embedding's product states and build_chi."""
    if inst.p_plus <= 0.0 or inst.p_plus >= 1.0:
        raise UndefinedPhase("extreme prior collapses the loop")
    emb = canonical_embedding(inst)
    return reference_bargmann_loop(np.kron(emb.xi, emb.phi), build_chi(inst).amplitudes,
                                   np.kron(emb.xi_bar, emb.phi_bar))


def loop_draws(seed=26, n=2000):
    """Instances: priors above 1/2 (swapped) and below, |alpha| within
    1e-9 of 1 or inside, |alpha_c| at 0 and 1 or inside, random phases;
    every eighth a carrier-branch instance of a teleport channel."""
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(n):
        if k % 8 == 7:
            ti = TeleportInstance(rng.uniform(0.0, 0.78), rng.uniform(0.0, math.pi), 0.0)
            draws.append(branch_to_ussd(ti, k % 2).ussd_instance)
            continue
        p = rng.uniform(0.5, 1.0) if k % 2 else rng.uniform(1e-6, 0.5)
        aa = 1.0 - rng.uniform(0.0, 1e-9) if k % 3 == 0 else rng.uniform(0.0, 1.0)
        acm = (0.0, 1.0)[k % 2] if k % 5 == 0 else rng.uniform(0.0, 1.0)
        draws.append(make_instance(p, aa * np.exp(1j * rng.uniform(0.0, 7.0)),
                                   acm * np.exp(1j * rng.uniform(0.0, 7.0))))
    return draws


def verdict(call):
    """A call's value, or the type and message of the UssdLabError it raised."""
    try:
        return call()
    except UssdLabError as exc:
        return type(exc), str(exc)


class TestLoopKernel:
    """bargmann_loop and bargmann_phase are the row kernel on a stack of
    one, and a stack gives each row the bits of the loop kept here as a
    reference."""

    def test_phases_are_the_reference_loops(self):
        draws = loop_draws()
        assert {i.swapped for i in draws} == {False, True}
        assert {abs(i.alpha_c) for i in draws} >= {0.0, 1.0}
        assert min(1.0 - abs(i.alpha) for i in draws) < 1e-9
        want = [verdict(lambda i=i: reference_bargmann_phase(i)) for i in draws]
        assert [verdict(lambda i=i: bargmann_phase(i)) for i in draws] == want
        ok = [k for k, w in enumerate(want) if isinstance(w, float)]
        assert len(ok) > 1900
        assert bargmann_phase([draws[k] for k in ok]) == tuple(want[k] for k in ok)

    def test_rephased_stacks_are_the_reference_loops(self):
        rng = np.random.default_rng(27)
        for d in (2, 4, 8):
            v = rng.standard_normal((3, 50, d)) + 1j * rng.standard_normal((3, 50, d))
            turned = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (3, 50, 1))) * v
            for stack in (v, turned):
                got = bargmann_loop(*stack)
                assert got.shape == (50,)
                assert got.tolist() == [reference_bargmann_loop(*row)
                                        for row in stack.swapaxes(0, 1)]
                assert bargmann_loop(*stack[:, 7]) == got[7]
            dist = np.abs(bargmann_loop(*v) - bargmann_loop(*turned)) % (2.0 * math.pi)
            assert np.minimum(dist, 2.0 * math.pi - dist).max() < 1e-10

    def test_errors_name_the_entry(self):
        inner = make_instance(0.3, 0.5 * np.exp(0.7j), 0.6 * np.exp(1.9j))
        for edge in (0.0, 1.0):
            with pytest.raises(UndefinedPhase) as info:
                bargmann_phase([inner, inner, make_instance(edge, 0.3, 0.2), inner])
            assert str(info.value) == "extreme prior collapses the loop (inst[2])"
        v = np.array([[1.0, 0.0], [0.6, 0.8j], [0.0, 1.0]], dtype=complex)
        loop = np.array([v, v[[1, 2, 0]], v[[2, 0, 1]]])
        loop[2, 1] = 2j * loop[0, 1]
        with pytest.raises(UndefinedPhase) as info:
            bargmann_loop(*loop)
        assert str(info.value) == "outer loop states are linearly dependent (row 1)"
        with pytest.raises(UndefinedPhase) as info:
            bargmann_loop(*loop[:, 1])
        assert str(info.value) == "outer loop states are linearly dependent"

    def test_shapes(self):
        v = np.ones((2, 4), dtype=complex)
        assert bargmann_phase([]) == ()
        for args in ((v, v, v[0]), (v, v, v[:, :2]), (v[None], v[None], v[None])):
            with pytest.raises(ShapeError):
                bargmann_loop(*args)


def reference_branch_record(inst, b):
    """branch_to_ussd as it read on one carrier branch before its
    sequence form: Python-float branch terms and p_suc_max."""
    sign = 1.0 if b == 0 else -1.0
    alpha = sign * math.sin(2.0 * inst.channel_angle)
    alpha_c = math.cos(inst.mu)
    ui = make_instance(0.5, alpha, alpha_c)
    return BranchRecord(b, 0.5 * (1.0 + alpha * alpha_c), ui, p_suc_max(ui))


class TestSequenceEntries:
    """optimal_strategy, separable_strategy, branch_to_ussd and
    total_success_probability take sequences; each entry equals a call
    on it alone, and the one-entry form equals the scalar code kept here
    as a reference."""

    def test_strategies(self):
        def fields(strats):
            return [(s.alpha_plus, s.alpha_minus, s.beta, s.delta, s.ancilla_init.tolist())
                    for s in strats]

        rng = np.random.default_rng(28)
        insts = [inst for inst, _ in formula_draws(seed=28, n=300)]
        betas = rng.uniform(0.0, math.pi / 2, len(insts)).tolist()
        deltas = rng.uniform(0.0, 2.0 * math.pi, len(insts)).tolist()
        anc = np.array([math.cos(0.4), math.sin(0.4) * np.exp(0.9j)])
        assert fields(separable_strategy(insts, anc)) == fields(
            separable_strategy(i, anc) for i in insts)
        assert fields(optimal_strategy(insts, betas, deltas, anc)) == fields(
            optimal_strategy(i, b, d, anc) for i, b, d in zip(insts, betas, deltas))
        assert fields(optimal_strategy(insts, 0.3)) == fields(
            optimal_strategy(i, 0.3) for i in insts)
        assert fields(optimal_strategy(i, b, d) for i, b, d in zip(insts, betas, deltas)) \
            == fields(dataclasses.replace(separable_strategy(i), beta=b, delta=d)
                      for i, b, d in zip(insts, betas, deltas))
        assert separable_strategy([]) == optimal_strategy([]) == ()
        with pytest.raises(ShapeError, match="3 instances"):
            optimal_strategy(insts[:3], betas[:2])

    def test_branch_records(self):
        insts = [TeleportInstance(rho, mu, 0.4) for rho in (0.0, 0.2, 0.5, 0.785)
                 for mu in (0.0, 0.9, math.pi / 2, 2.6, math.pi)]
        outs = [k % 2 for k in range(len(insts))]
        want = [reference_branch_record(i, b) for i, b in zip(insts, outs)]
        assert branch_to_ussd(insts, outs) == tuple(want)
        assert [branch_to_ussd(i, b) for i, b in zip(insts, outs)] == want
        assert branch_to_ussd([], []) == ()
        for call, error, message in (
                (lambda: branch_to_ussd(insts[:3], [0, 1]), ShapeError,
                 "3 instances but 2 carrier outcomes"),
                # a list of outcomes is not read as one bad outcome
                (lambda: branch_to_ussd(insts[0], [0, 1]), ShapeError,
                 "one instance but a sequence of 2 carrier outcomes"),
                (lambda: branch_to_ussd(insts[:2], 0), ShapeError,
                 "2 instances but no sequence of carrier outcomes"),
                (lambda: branch_to_ussd(insts[:3], [0, 1, 2]), RangeError,
                 "b_outcome must be 0 or 1, got 2 (inst[2])"),
                (lambda: branch_to_ussd(insts[:2] + [TeleportInstance(math.pi / 4, 1.0, 0.0)],
                                        [0, 1, 0]), DegenerateOverlap,
                 "channel_angle pi/4 gives |overlap| = 1; discrimination degenerate (inst[2])")):
            with pytest.raises(error) as info:
                call()
            assert str(info.value) == message

    def test_total_success_probability(self):
        angles = np.linspace(0.0, math.pi / 4, 40)
        want = []
        for angle in angles.tolist():
            total = 0.0
            if math.sin(2.0 * angle) < 1.0:
                for b in (0, 1):
                    rec = reference_branch_record(TeleportInstance(angle, math.pi / 2, 0.0), b)
                    total += rec.probability * rec.success_probability
            want.append(float(total))
        assert total_success_probability(angles) == tuple(want)
        assert [total_success_probability(a) for a in angles.tolist()] == want
        with pytest.raises(RangeError, match=r"channel_angle\[1\]"):
            total_success_probability(np.array([0.1, 1.0]))
        with pytest.raises(ShapeError):
            total_success_probability(np.zeros((2, 2)))


def reference_random_instance(rng):
    """The battery's instance draw as a loop of scalar draws: five
    rng.uniform calls, then make_instance."""
    p = rng.uniform(0.05, 0.5)
    aa = rng.uniform(0.05, 0.95)
    ac = rng.uniform(0.0, 0.98)
    gs = rng.uniform(0.0, 2.0 * math.pi)
    gc = rng.uniform(0.0, 2.0 * math.pi)
    return make_instance(p, aa * np.exp(1j * gs), ac * np.exp(1j * gc))


def instance_bits(inst):
    return (inst.p_plus.hex(), inst.alpha.real.hex(), inst.alpha.imag.hex(),
            inst.alpha_c.real.hex(), inst.alpha_c.imag.hex(), inst.swapped)


class TestStackedDraws:
    EXTRAS = [(), ((0.0, math.pi / 2), (0.0, 2.0 * math.pi)), ((0.0, 2.0 * math.pi),) * 3]

    @pytest.mark.parametrize("extra", EXTRAS, ids=["none", "angles", "rephasings"])
    @pytest.mark.parametrize("seed, count", [(11, 50), (13, 6), (20, 20), (23, 1),
                                             (110, 100), (7, 0)])
    def test_block_is_the_scalar_loop(self, seed, count, extra):
        """One rng.uniform block gives the instances and extra draws of a
        loop of scalar draws, bit for bit, and leaves the generator where
        the loop leaves it."""
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        insts, more = selftest._random_instances(rng, count, extra)
        want, want_more = [], []
        for _ in range(count):
            want.append(reference_random_instance(ref))
            want_more.append([ref.uniform(lo, hi) for lo, hi in extra])
        assert [instance_bits(i) for i in insts] == [instance_bits(i) for i in want]
        assert more.shape == (count, len(extra))
        assert [[x.hex() for x in row] for row in more.tolist()] \
            == [[x.hex() for x in row] for row in want_more]
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.uniform() == ref.uniform()

    @pytest.mark.parametrize("saturated", [None, True, False])
    def test_filtered_draw_is_the_scalar_loop(self, saturated):
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(8):
            inst = selftest._random_instance(rng, saturated)
            want = reference_random_instance(ref)
            while saturated is not None and (want.case == "saturated") != saturated:
                want = reference_random_instance(ref)
            assert instance_bits(inst) == instance_bits(want)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_normalization_identity_is_the_scalar_check(self):
        """The weights of one _weights pass are each instance's r+-."""
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            inst = reference_random_instance(rng)
            s = (inst.r_plus + inst.r_minus
                 + 2.0 * math.sqrt(inst.r_plus * inst.r_minus)
                 * abs(inst.alpha) * abs(inst.alpha_c) * math.cos(inst.gamma))
            worst = max(worst, abs(s - 1.0))
        assert selftest._normalization_identity()[0].hex() == worst.hex()


def reference_zeta(ap, am, beta, delta):
    """_zeta as it read the failure overlaps alone, b+- taken from their
    moduli in one pass, kept as the reference of the carried b+-."""
    n = beta.size
    eta = ussd._eta(beta, delta)
    ap, am = ap[:, None], am[:, None]
    bp, bm = np.sqrt(ussd._pymax(0.0, 1.0 - ussd._abs(np.concatenate([ap, am])) ** 2)).reshape(2, n, 1)
    eta_a1 = (eta[:, :, None] * ussd._E1).reshape(n, 4)
    return bp * ussd._E00 + ap * eta_a1, bm * ussd._E10 + am * eta_a1


def reference_partner(ov):
    """_partner as it read the overlaps alone, its |1> component from
    their moduli, kept as the reference of the carried partner rows."""
    out = np.empty((ov.size, 2), dtype=complex)
    out[:, 0] = ov.conj()
    out[:, 1] = np.sqrt(ussd._pymax(0.0, 1.0 - ussd._abs(ov) ** 2))
    return out


def assert_carried(pts):
    """Every array a SeparablePoints stack carries is its recomputation
    from the stack's overlaps, with == and the signs of zeros."""
    for mod, arg, ov in ((pts.abs_alpha, pts.arg_alpha, pts.alpha),
                         (pts.abs_alpha_c, pts.arg_alpha_c, pts.alpha_c)):
        assert_same(mod, ussd._abs(ov))
        assert_same(arg, np.angle(ov))
    assert_same(pts.abs_plus, ussd._abs(pts.alpha_plus))
    assert_same(pts.abs_minus, ussd._abs(pts.alpha_minus))
    n = pts.beta.size
    ap, am = pts.alpha_plus[:, None], pts.alpha_minus[:, None]
    bp, bm = np.sqrt(ussd._pymax(0.0, 1.0 - ussd._abs(np.concatenate([ap, am])) ** 2)).reshape(2, n)
    assert_same(pts.b_plus, bp)
    assert_same(pts.b_minus, bm)
    # closed_form_coherences' form, np.where(0.0 > x, 0.0, x), differs
    # from _pymax only at NaN and -0.0, which 1 - m^2 never gives
    mp, mm = (np.hypot(x.real, x.imag) for x in (pts.alpha_plus, pts.alpha_minus))
    for got, x in ((pts.b_plus, 1.0 - mp * mp), (pts.b_minus, 1.0 - mm * mm)):
        assert_same(got, np.sqrt(np.where(0.0 > x, 0.0, x)))
    assert_same(pts.xi_bar, reference_partner(pts.alpha))
    assert_same(pts.phi_bar, reference_partner(pts.alpha_c))
    for got, want in zip(_zeta(pts), reference_zeta(pts.alpha_plus, pts.alpha_minus,
                                                     pts.beta, pts.delta)):
        assert_same(got, want)


def drawn_pairs(seed, count):
    """count strategies of any radii in [0, 1 + 5e-13], at 0 and at the
    top (inside UssdStrategy's 1 + 1e-12 after rounding) a quarter of the
    time each, any phases and failure angles, each with the instance
    whose alpha is its product alpha_+ conj(alpha_-), so that the pair
    passes check_pair, at the prior and alpha_c of a _random_instances
    draw. Both radii at the top would give |alpha| > 1, which no
    instance admits: there alpha_- takes its uniform radius."""
    rng = np.random.default_rng(seed)
    drawn, _ = selftest._random_instances(rng, count)
    pick = rng.integers(0, 4, (2, count))
    pick[1, (pick[0] == 1) & (pick[1] == 1)] = 2
    mods = np.where(pick == 0, 0.0, np.where(pick == 1, 1.0 + 5e-13, rng.uniform(0.0, 1.0, (2, count))))
    ov = mods * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (2, count)))
    angles = rng.uniform((0.0, 0.0), (math.pi / 2, 2.0 * math.pi), (count, 2))
    strats = [ussd.UssdStrategy(alpha_plus=complex(p), alpha_minus=complex(m), beta=float(b),
                                delta=float(d))
              for p, m, (b, d) in zip(ov[0].tolist(), ov[1].tolist(), angles.tolist())]
    insts = [ussd.UssdInstance(i.p_plus, s.alpha_plus * s.alpha_minus.conjugate(), i.alpha_c)
             for i, s in zip(drawn, strats)]
    return insts, strats


def paired_instance(p_plus, alpha_c, strat):
    """make_instance at p_plus and alpha_c whose canonical alpha is the
    product alpha_+ conj(alpha_-) of strat (make_instance conjugates it
    above p_plus = 1/2)."""
    prod = strat.alpha_plus * strat.alpha_minus.conjugate()
    return make_instance(p_plus, prod.conjugate() if p_plus > 0.5 else prod, alpha_c)


class TestCarriedArrays:
    """SeparablePoints carries the moduli, phases, b+- and partner rows
    its builders compute; each must be bit for bit what a reader would
    compute again from the stack's overlaps."""

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60))
    def test_separable_points_of_edge_box(self, seed, count):
        p, aa, ac, g = selftest._edge_box(np.random.default_rng(seed), count)
        for alpha, alpha_c in ((aa * np.exp(1j * g), ac), (aa, ac * np.exp(1j * g))):
            assert_carried(separable_points(p, alpha, alpha_c))

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
    def test_of_drawn_strategies(self, seed, count):
        insts, strats = drawn_pairs(seed, count)
        assert_carried(SeparablePoints.of(insts, strats))
        assert_carried(SeparablePoints.of(insts))
        assert_carried(SeparablePoints.of(insts[0], strats[0]))

    def test_edges(self):
        """Zero overlaps, unit |alpha_c|, extreme priors and strategy
        radii at 0, 1e-300, exactly 1 and above 1 (1 + 5e-13 and
        1 + 1e-12, where _gap clips), with -0.0 parts, each strategy with
        the instance of its product. The pair of radii (1, 1) is left
        out: its |alpha| = 1 is admitted by no instance."""
        strats = [ussd.UssdStrategy(alpha_plus=ap, alpha_minus=am) for ap, am in (
            (0.0, 0.0), (1.0 + 1e-12, -0.0), (1j, 0.4), (complex(-0.0, 0.5), 1e-300),
            (1.0 + 5e-13, 0.999999999))]
        insts = [paired_instance(p, ac, st) for (p, ac), st in zip(
            ((0.0, 0.0), (1.0, 1.0), (0.5, -1.0), (0.3, 1j), (0.2, 0.3)), strats)]
        assert insts[1].swapped
        assert_carried(SeparablePoints.of(insts, strats))
        assert_carried(SeparablePoints.of(insts))
        assert_carried(separable_points(*(np.array(c) for c in zip(
            *[(i.p_plus, i.alpha, i.alpha_c) for i in insts]))))
