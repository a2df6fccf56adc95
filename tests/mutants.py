"""The mutation audit: a table of wrong programs, and a runner that shows
which checks of the battery tell each from the package.

Each mutant names a file of src/ussd_lab, an anchor string that occurs
there exactly once, its replacement and why the result is wrong. The
runner applies one mutant at a time to a temporary copy of src/ and runs
the battery, run_selftest(), in a fresh interpreter. A mutant is killed
when at least one registry check fails; goldens and the frozen references
of the test suite do not count. A mutant that no check can kill is
declared equivalent, with the reason. Where the battery has no check for
a mutant, tier1 names the tests of the suite that kill it, and --tier1
runs them on the mutated copy too.

    python tests/mutants.py [--tier1] [--only ID ...]

prints one line per mutant: its id, "killed" with the failing checks or
"survives", and with --tier1 the verdict of its tests. Each mutant takes
about 0.5 s of battery. test_mutants.py checks the anchors; the run
itself is not part of the suite. The results at the last change are in
tests/MUTANTS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str
    anchor: str
    replacement: str
    reason: str
    tier1: tuple = ()
    equivalent: str = ""


# 1e-7 and 1e-5 relative errors in the instance arithmetic and the averages
_R = [
    Mutant("R1", "ussd.py", "return 1.0 + 2.0 * np.sqrt(p * (1.0 - p)) * aa * acm * np.cos(ga + gc)",
           "return (1.0 + 2.0 * np.sqrt(p * (1.0 - p)) * aa * acm * np.cos(ga + gc)) "
           "* (1.0 + 1e-7)",
           "branch-weight denominator off by 1e-7"),
    Mutant("R2", "ussd.py", "tilde = np.sqrt(p / q)", "tilde = np.sqrt(p / q) * (1.0 + 1e-7)",
           "prior-ratio threshold off by 1e-7"),
    Mutant("R3", "ussd.py", "t_p, t_m = np.sqrt(rp) * ap, np.sqrt(rm) * am",
           "t_p, t_m = np.sqrt(rp) * ap * (1.0 + 1e-7), np.sqrt(rm) * am",
           "combination amplitude off by 1e-7"),
    Mutant("R4", "ussd.py", "return bp * _E00 + ap * eta_a1, bm * _E10 + am * eta_a1",
           "return bp * (1.0 + 1e-7) * _E00 + ap * eta_a1, bm * _E10 + am * eta_a1",
           "success component b+ of zeta+ off by 1e-7"),
    Mutant("R5", "ussd.py", "out[..., 1] = gap", "out[..., 1] = gap * (1.0 + 1e-7)",
           "partner vector's |1> component off by 1e-7"),
    Mutant("R6", "coherence.py", "pref = 4.0 * rp * rm * (1.0 - ac * ac)",
           "pref = 4.0 * rp * rm * (1.0 - ac * ac) * (1.0 + 1e-7)",
           "closed-form prefactor off by 1e-7"),
    Mutant("R7", "teleport.py", "return 0.5 * (1.0 + alpha * cos_mu), alpha, cos_mu",
           "return 0.5 * (1.0 + alpha * cos_mu) * (1.0 + 1e-7), alpha, cos_mu",
           "carrier-branch probability off by 1e-7"),
    Mutant("R8", "teleport.py", "alpha = sign * s2", "alpha = sign * s2 * (1.0 + 1e-7)",
           "carrier-branch overlap off by 1e-7"),
    Mutant("S1", "coherence.py", "share = c_ca * c_ca / total",
           "share = c_ca * c_ca / total * (1.0 + 1e-5)",
           "band share off by 1e-5"),
    Mutant("S2", "teleport.py", "total - converted], -1)",
           "(total - converted) * (1.0 + 1e-5)], -1)",
           "retained branch coherence off by 1e-5",
           tier1=("tests/test_array_chain.py::TestQuadrature",)),
    Mutant("S3", "teleport.py", "val += prob[..., b, None] * roots[..., b, :]",
           "val += prob[..., b, None] * (1.0 + 1e-7) * roots[..., b, :]",
           "branch weights of the polar average off by 1e-7"),
    Mutant("S4", "teleport.py", "acc *= 0.5 * math.pi", "acc *= 0.5 * math.pi * (1.0 + 1e-7)",
           "polar-average scale off by 1e-7"),
]

# the factor kernel, the tangles and the oracle's system-ancilla factor
_C = [
    Mutant("C1", "coherence.py", "(lam[..., 1] if lam.shape[-1] == 2",
           "(0.5 * lam[..., 1] if lam.shape[-1] == 2",
           "concurrence subtracts half the second singular value"),
    Mutant("C2", "coherence.py", "(minor.real * minor.real + minor.imag * minor.imag)",
           "(minor.real * minor.real)",
           "one-vs-rest tangle drops the imaginary part of each minor"),
    Mutant("C3", "coherence.py", "for i in kept + traced]", "for i in traced + kept]",
           "reduced-state factor with kept and traced axes swapped"),
    Mutant("C4", "oracle.py",
           "v[:, :, 1] = math.sqrt(rm) * math.sqrt((1.0 - mod) * (1.0 + mod)) * zm",
           "v[:, :, 1] = math.sqrt(rm) * zm",
           "oracle's factor column without sqrt(1 - |alpha_c|^2)"),
    Mutant("C5", "coherence.py", "else lam[..., 1:].sum(axis=-1))", "else lam[..., 1])",
           "concurrence of a rank-3 or rank-4 factor subtracts one singular value",
           equivalent="every factor the package builds has r = 2, which takes the other branch"),
    Mutant("C6", "teleport.py", "psi_sc[deg].swapaxes(1, 2) @ psi_sc[deg].conj()",
           "psi_sc[deg] @ psi_sc[deg].conj().swapaxes(1, 2)",
           "degenerate failure path delivers rho_S's eigenvector, not rho_C's",
           tier1=("tests/test_teleport.py::TestDegenerateBranch",)),
    Mutant("C7", "coherence.py", "for q in qubits:", "for q in qubits[1::-1] + qubits[2:]:",
           "the tangle gather index holds the first two qubits' rows swapped",
           tier1=("tests/test_array_chain.py::TestLedgerArithmetic",)),
]

# the protocol's states and the ledger
_P = [
    Mutant("P1", "ussd.py", "(zm[:, :, None] * pts.phi_bar[:, None, :])",
           "(zm[:, :, None] * pts.phi_bar.conj()[:, None, :])",
           "coupled state takes the conjugate environment partner"),
    Mutant("P2", "ussd.py", "eta[:, 1] = np.sin(beta) * np.exp(1j * delta)",
           "eta[:, 1] = np.sin(beta) * np.exp(-1j * delta)",
           "failure direction with the conjugate phase"),
    Mutant("P3", "ussd.py", "mp, mm, b[2], b[3],", "mp, mm, b[2], b[2],",
           "b- of zeta- from |alpha+| in every stack (_stack)"),
    Mutant("P4", "ussd.py", "out[..., 0] = ov.conj()", "out[..., 0] = ov",
           "partner vector without the conjugate overlap"),
    Mutant("P5", "coherence.py", "sums = tau + c2[::-1]", "sums = tau + c2",
           "monogamy sums pair each pivot with the wrong pair tangle"),
    Mutant("P6", "coherence.py", "c2 = (c * c).reshape(3, -1)", "c2 = c.reshape(3, -1)",
           "pair tangles as concurrences, not their squares"),
    Mutant("P7", "oracle.py", "math.sqrt(rm) * ac.conjugate() * zm", "math.sqrt(rm) * ac * zm",
           "oracle's cross term conjugated the wrong way"),
    Mutant("P8", "oracle.py", "v[:, :, 0] = math.sqrt(rp) * zp", "v[:, :, 0] = math.sqrt(rm) * zp",
           "oracle weighs zeta+ with r-"),
]

# the Born route: simulated protocol and teleport circuit
_M = [
    Mutant("M1", "teleport.py", '(0, 1): ("pauli_z", PAULI["Z"]),',
           '(0, 1): ("pauli_z", PAULI["X"]),', "wrong Pauli correction on path (0, 1)"),
    Mutant("M2", "teleport.py", "(post_suc, post_fail) = measure_rows(psi3, 2, True, where)",
           "(post_fail, post_suc) = measure_rows(psi3, 2, True, where)",
           "teleport takes the wrong ancilla outcome as success"),
    Mutant("M3", "ussd.py", "probs, live, post = measure_rows(psi, 2, True, where)",
           "probs, live, post = measure_rows(psi, 1, True, where)",
           "run_protocol measures the system, not the ancilla"),
    Mutant("M4", "ussd.py", "u = outs @ ins.conj().swapaxes(1, 2)", "u = outs @ ins.conj()",
           "coupling built with the input frame transposed"),
    Mutant("M5", "teleport.py", "for b in branches if live_b[b, j]]", "for b in branches]",
           "dead carrier branches are evolved as if live",
           tier1=("tests/test_teleport.py::TestDegenerateBranch",)),
    Mutant("M6", "ussd.py", "y = vdot_rows(_flip(xi_n), xi_bar)",
           "y = vdot_rows(_flip(xi_n), xi_bar.conj())",
           "coupling phase from the conjugate alternative vector",
           equivalent="every embedding the package builds has a real |1> component in xi_bar, "
                      "so xi' and xi_bar have a real inner product; another embedding misses "
                      "zeta- and the mapping check raises"),
    Mutant("M7", "ussd.py", "xi_n, k_n = xi / nx, k / nk", "xi_n, k_n = xi / nx, _E0 / nk",
           "coupling ignores the ancilla's ready state"),
    Mutant("M8", "teleport.py", "along = (_eta(pts.beta, pts.delta).conj()[:, None, :] @ rest)",
           "along = (_eta(pts.beta, pts.delta)[:, None, :] @ rest)",
           "failure path projects on the unconjugated failure direction",
           equivalent="up to rounding: every teleport branch has real overlaps, so delta is 0, "
                      "pi or 2 pi and the failure direction is real but for 1.2e-16"),
]

# the caller-input checks written once: UssdInstance's overlap rule, the
# stack's one array test, the state-norm bound, the ready-state check and
# the name of a sequence's entry
_N = [
    Mutant("N1", "ussd.py", "if aa >= 1.0:", "if aa > 1.0:",
           "|alpha| = 1 admitted by make_instance and by stacks",
           tier1=("tests/test_ussd.py::TestInstance::test_overlap_bounds_are_exact",)),
    Mutant("N2", "ussd.py", "ok = (aa < 1.0) & (acm <= 1.0 + 1e-15)",
           "ok = (aa <= 1.0) & (acm <= 1.0 + 1e-15)",
           "a stack admits |alpha| = 1 that make_instance refuses",
           tier1=("tests/test_ussd.py::TestInstance::test_overlap_bounds_are_exact",)),
    Mutant("N3", "ussd.py", "if acm > 1.0 + 1e-15:", "if acm > 1.0 + 1e-14:",
           "alpha_c slack widened tenfold",
           tier1=("tests/test_ussd.py::TestInstance::test_overlap_bounds_are_exact",)),
    Mutant("N4", "ussd.py", "(acm <= 1.0 + 1e-15)", "(acm <= 1.0 + 1e-14)",
           "a stack admits |alpha_c| that make_instance refuses",
           tier1=("tests/test_ussd.py::TestInstance::test_overlap_bounds_are_exact",)),
    Mutant("N5", "qcore.py", "<= _STATE_NORM), ShapeError", "<= 10 * _STATE_NORM), ShapeError",
           "the one state-norm check, PureState's and the stacks', ten times looser",
           tier1=("tests/test_qcore.py::TestPureState::test_unit_rows_has_the_state_bound",)),
    Mutant("N6", "ussd.py", "unit_rows(k[None])", "pass  # ",
           "ancilla ready state not checked at construction",
           tier1=("tests/test_ussd.py::TestStrategy::"
                  "test_ready_state_checked_as_run_protocol_checks_it",)),
    Mutant("N7", "ussd.py", "ok = (0.0 <= p) & (p <= 1.0)", "ok = 0.0 <= p",
           "a stack admits priors above 1",
           tier1=("tests/test_array_chain.py::TestChain::test_stack_checks_name_the_entry",)),
    Mutant("N8", "ussd.py", "*_polar(self.alpha_c)) > 0.0:", "*_polar(self.alpha_c)) > -1.0:",
           "make_instance admits a negative r+- denominator",
           tier1=("tests/test_ussd.py::TestInstance::test_nonpositive_denominator_is_refused",)),
    Mutant("N9", "ussd.py", "acm[over], gc[over]) > 0.0", "acm[over], gc[over]) > -1.0",
           "a stack admits a negative r+- denominator that make_instance refuses",
           tier1=("tests/test_ussd.py::TestInstance::test_nonpositive_denominator_is_refused",)),
    Mutant("N10", "errors.py", 'lambda i: f" (inst[{i}])"', 'lambda i: f" (inst[{i + 1}])"',
           "a failing entry of a sequence named off by one",
           tier1=("tests/test_ussd.py::TestStacks::test_sequences_name_the_entry",
                  "tests/test_teleport.py::TestStacks::test_empty_and_named",
                  "tests/test_oracle.py::TestSuccessStack::test_sequences_and_errors",
                  "tests/test_array_chain.py::TestLoopKernel::test_errors_name_the_entry",
                  "tests/test_array_chain.py::TestSequenceEntries::test_branch_records",
                  "tests/test_oracle.py::TestSuccessStack::test_any_iterable_is_a_sequence")),
    Mutant("N11", "errors.py", "if many == single:", "if False:",
           "a paired argument of the other one-or-many shape is not refused as such",
           tier1=("tests/test_ussd.py::TestPairedStacks::test_unequal_lengths_are_refused",
                  "tests/test_array_chain.py::TestSequenceEntries::test_branch_records")),
]

# the loop-phase row kernel
_L = [
    Mutant("L1", "ussd.py", "gram = dots[:4].T.reshape(n, 2, 2)",
           "gram = dots[[0, 2, 1, 3]].T.reshape(n, 2, 2)",
           "loop Gram matrix with its off-diagonal entries swapped"),
    Mutant("L2", "ussd.py", "+ np.angle(dots[2])", "+ np.angle(dots[2].conj())",
           "loop closing edge conjugated"),
]

# the multi-step golden-section search and the stacked instance draws
_G = [
    Mutant("G1", "coherence.py", "if fc < fd:", "if fc <= fd:",
           "golden-section tie takes the left child",
           tier1=("tests/test_array_chain.py::TestGoldenSection::"
                  "test_every_step_count_repeats_the_reference",)),
    Mutant("G2", "coherence.py", "t[2] + inv * (t[1] - t[2])", "t[1] - inv * (t[1] - t[2])",
           "speculative point computed as b - inv (b - c), not c + inv (b - c)",
           tier1=("tests/test_array_chain.py::TestGoldenSection",)),
    Mutant("D1", "selftest.py", "u = rng.uniform(lo, hi, (count, lo.size))",
           "u = rng.uniform(lo[:, None], hi[:, None], (lo.size, count)).T",
           "instance draw block read in Fortran order",
           tier1=("tests/test_array_chain.py::TestStackedDraws",)),
]

# eval's one-pass composition, ussd.eval_report, which the battery's
# ledger, separability and conservation checks also read
_E = [
    Mutant("E1", "ussd.py", "conc[:n])", "conc[n:2 * n])",
           "eval's separability concurrence of the system-environment pair",
           tier1=("tests/test_cli.py::TestEvalParity",)),
    Mutant("E2", "ussd.py", "_environment_tangles(loops[1])", "_environment_tangles(loops[2])",
           "eval's conservation reads the loop's product vertex, not the preparation",
           tier1=("tests/test_cli.py::TestEvalParity",)),
    Mutant("E3", "ussd.py", "(0.0 < pts.p_plus) & (pts.p_plus < 1.0)",
           "(0.0 <= pts.p_plus) & (pts.p_plus <= 1.0)",
           "eval's loop phase skips the extreme-prior test",
           tier1=("tests/test_cli.py::TestEvalParity",)),
]

# the one builder of stacks of given strategies, _given, after its pair check
_B = [
    Mutant("B1", "ussd.py", "    return _stack(p, a, ac, polar, _weights(p, *polar),",
           "    ap, am, beta, delta = (np.roll(x, -1) for x in (ap, am, beta, delta))\n"
           "    return _stack(p, a, ac, polar, _weights(p, *polar),",
           "a stack pairs each instance with the next instance's strategy"),
    Mutant("K2", "ussd.py", "_abs(ap), _abs(am), beta, delta)", "_abs(ap), _abs(ap), beta, delta)",
           "|alpha-| and b- of given strategies from alpha+ (_given)"),
]

# one pass per eval op: the subcommand's parser called directly, and the
# eval report's phase
_K = [
    Mutant("K1", "cli.py", "if not rest:", "if True:",
           "a subcommand's leftover tokens are dropped, not reported",
           tier1=("tests/test_cli.py::TestParseParity",)),
    Mutant("K3", "ussd.py", "pts.arg_alpha + pts.arg_alpha_c,", "pts.arg_alpha,",
           "eval's gamma from the phase of alpha alone",
           tier1=("tests/test_cli.py::TestEvalParity",)),
]

# the one-pass forms of eval's stacked kernels: the ledger's pair gather,
# the environment's two-qubit minors, _separable's (2, N) rows and the
# chained deviation
_A = [
    Mutant("A1", "coherence.py", "amps[:, _pair_index(reg)].swapaxes(0, 1).reshape(-1, 4, 2)",
           "amps[:, _pair_index(reg)].reshape(-1, 4, 2)",
           "the ledger's pair factors gathered row-major, not pair-major",
           tier1=("tests/test_array_chain.py::TestStackedPasses::test_pair_gather",)),
    Mutant("A2", "ussd.py", 'return _tangles(chi, ("S", "C"), ("C",))[0]',
           'return _tangles(chi, ("S", "C"), ("S",))[0]',
           "the preparation's tangle taken on pivot S, not the environment",
           tier1=("tests/test_array_chain.py::TestStackedPasses::test_environment_tangles",)),
    Mutant("A3", "ussd.py", "dnm, num = np.sqrt(", "num, dnm = np.sqrt(",
           "the separable angle's numerator and denominator swapped",
           tier1=("tests/test_array_chain.py::TestStackedPasses::test_separable_angles",)),
    Mutant("A4", "ussd.py",
           "np.abs(cg - lg)),\n                     np.abs((ct - ca) - lr))",
           "np.abs(cg - lg)), 0.0)",
           "eval's ledger deviation leaves out the retained entry",
           tier1=("tests/test_ussd.py::TestEvalReport::test_deviation_is_the_largest_gap",)),
]

MUTANTS = _R + _C + _P + _M + _N + _L + _G + _E + _B + _K + _A


def _copy(src: Path, dest: Path) -> None:
    shutil.copytree(src / "ussd_lab", dest / "src" / "ussd_lab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("tests", "bench"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, dest / name)


_BATTERY = ("import json; from ussd_lab.selftest import run_selftest; "
            "print(json.dumps([c.name for c in run_selftest().checks if not c.passed]))")


def run(mutant: Mutant, src: Path, tier1: bool) -> tuple:
    """The verdicts on one mutant of the package under src: the failing
    checks and, with tier1, whether its tests fail (None without)."""
    text = (src / "ussd_lab" / mutant.file).read_text()
    if text.count(mutant.anchor) != 1:
        raise ValueError(f"{mutant.id}: the anchor must occur once in {mutant.file}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _copy(src, tmp)
        (tmp / "src" / "ussd_lab" / mutant.file).write_text(
            text.replace(mutant.anchor, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(tmp / "src")}
        out = subprocess.run([sys.executable, "-c", _BATTERY], cwd=tmp, env=env,
                             capture_output=True, text=True, timeout=600)
        checks = json.loads(out.stdout) if out.returncode == 0 else ["<battery did not run>"]
        killed = None
        if tier1 and mutant.tier1:
            res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                                  "-p", "no:cacheprovider", *mutant.tier1],
                                 cwd=tmp, env=env, capture_output=True, text=True, timeout=600)
            killed = res.returncode != 0
    return checks, killed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tier1", action="store_true", help="also run each mutant's tier1 tests")
    ap.add_argument("--only", nargs="*", help="mutant ids to run (default: all)")
    args = ap.parse_args(argv)
    for m in MUTANTS:
        if args.only and m.id not in args.only:
            continue
        checks, killed = run(m, ROOT / "src", args.tier1)
        line = ("killed: " + ", ".join(checks)) if checks else "survives"
        if killed is not None:
            line += "; tier1 " + ("kills it" if killed else "passes")
        print(f"{m.id:4s} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
