"""Output checks that recompute every figure from the paper's formulas.

Nothing here compares against a stored copy of earlier output. Each
checker takes the CLI's arguments and text output and raises
``CheckFailed`` naming the first cell that disagrees. Tolerances are the
package's published ones; comparisons of printed numbers also allow for
the CLI's rounding to 12 significant digits.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ussd_lab.selftest import available_checks

CLIP = 1.0 - 1e-9          # sweeps stop this short of an open end
ROUND = 1e-11              # relative slack for 12-significant-digit output
LEDGER = 1e-9              # closed forms vs numeric tangle ledger
SEPARABILITY = 1e-10       # concurrence of the heralded-failure pair
CONSERVATION = 1e-10       # environment tangle before vs after coupling
QUADRATURE = 1e-8          # Gauss-Legendre polar average vs pi^2/16
EXACT = 1e-12              # identities the package states at 1e-12
FIDELITY = 1e-10           # corrected teleportation paths
SATURATED_SHARE = 1e-10    # converted share above saturation
SIGMAS = 5.0               # sampled rate vs analytic rate, binomial sigmas


class CheckFailed(AssertionError):
    pass


def _num(cell: str):
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def parse_csv(text: str) -> tuple:
    """(meta, columns, rows) of the CLI's CSV; numbers become floats and
    empty cells None."""
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = _num(val)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([_num(c) for c in line.split(",")])
    if columns is None:
        raise CheckFailed("output has no header line")
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise CheckFailed(f"row {i} has {len(row)} cells, header {len(columns)}")
    return meta, columns, rows


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(got, want: float, tol: float, what: str) -> None:
    _expect(isinstance(got, float), f"{what}: expected a number, got {got!r}")
    slack = tol + ROUND * max(abs(want), abs(got))
    _expect(abs(got - want) <= slack,
            f"{what}: got {got!r}, expected {want!r} (tolerance {slack:.3g})")


def _nonincreasing(values, what: str) -> None:
    for i, (a, b) in enumerate(zip(values, values[1:])):
        _expect(b <= a + EXACT + ROUND * max(abs(a), abs(b)),
                f"{what} rises from {a!r} to {b!r} at row {i + 1}")


def _arg(argv, flag: str, default: float) -> float:
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


# --------------------------------------------------------------------------
# the paper's closed forms, written out afresh

def weights(p: float, abs_alpha: float, abs_alpha_c: float, gamma: float) -> tuple:
    """Canonical prior (p <= 1/2) and effective branch weights r+, r-:
    r+- = p+- / (1 + 2 sqrt(p+ p-) |alpha| |alpha_c| cos gamma)."""
    pc = min(p, 1.0 - p)
    den = 1.0 + 2.0 * math.sqrt(pc * (1.0 - pc)) * abs_alpha * abs_alpha_c \
        * math.cos(gamma)
    return pc, pc / den, (1.0 - pc) / den


def interior(pc: float, abs_alpha: float) -> bool:
    """Both optimal failure overlaps stay below 1 iff |alpha| is below
    sqrt(p+ / p-)."""
    return pc < 1.0 and abs_alpha < math.sqrt(pc / (1.0 - pc))


def optimum(pc: float, rp: float, rm: float, abs_alpha: float) -> float:
    """Unequal-prior optimal success probability (Jaeger-Shimony form)
    on the effective weights."""
    if interior(pc, abs_alpha):
        return rp + rm - 2.0 * math.sqrt(rp * rm) * abs_alpha
    return rm * (1.0 - abs_alpha) * (1.0 + abs_alpha)


def total_coherence(rp: float, rm: float, abs_alpha: float,
                    abs_alpha_c: float) -> float:
    """C_total = 4 r+ r- (1 - |alpha_c|^2)(1 - |alpha|^2)."""
    return (4.0 * rp * rm * (1.0 - abs_alpha_c * abs_alpha_c)
            * (1.0 - abs_alpha) * (1.0 + abs_alpha))


def branch_coherence(rho: float, b: int, mu: float, which: str) -> tuple:
    """(probability, coherence) of carrier outcome b of the teleportation
    channel at angle rho, for a sent state at polar angle mu.

    The branch is an equal-prior instance with alpha = +-sin(2 rho) and
    alpha_c = cos(mu), weighted 1/2 (1 + alpha alpha_c). Equal priors
    give r+ = r-, so the optimal failure overlaps are both sqrt(|alpha|)
    and the ancilla cut takes 4 r+ r- (1 - |alpha_c|^2) 2|alpha|(1 - |alpha|)
    of the total; the system-environment pair keeps the rest,
    4 r+ r- (1 - |alpha_c|^2)(1 - |alpha|)^2.
    """
    alpha = (1.0 if b == 0 else -1.0) * math.sin(2.0 * rho)
    alpha_c = math.cos(mu)
    gamma = 0.0 if alpha * alpha_c >= 0.0 else math.pi
    a, ac = abs(alpha), abs(alpha_c)
    _, rp, rm = weights(0.5, a, ac, gamma)
    total = total_coherence(rp, rm, a, ac)
    converted = 4.0 * rp * rm * (1.0 - ac * ac) * 2.0 * a * (1.0 - a)
    value = {"total": total, "converted": converted,
             "retained": total - converted}[which]
    return 0.5 * (1.0 + alpha * alpha_c), value


def square_mean_root(rho: float, which: str, nodes: int = 64) -> float:
    """Square of the branch-averaged root coherence over the sphere of
    sent states: ((1/2) integral_0^pi sum_b p_b sqrt(C_b) (sin mu / 2) dmu)^2
    by Gauss-Legendre. In closed form this is pi^2/16 times t, (1 - s)^2
    and 2 s (1 - s) for total, retained and converted, with s = sin(2 rho)
    and t = 1 - s^2 the channel tangle."""
    acc = 0.0
    for x, w in zip(*np.polynomial.legendre.leggauss(nodes)):
        mu = 0.5 * math.pi * (x + 1.0)
        val = 0.0
        for b in (0, 1):
            prob, c = branch_coherence(rho, b, mu, which)
            val += prob * math.sqrt(max(c, 0.0))
        acc += w * 0.5 * val * math.sin(mu)
    return float((0.5 * math.pi * acc) ** 2)


# --------------------------------------------------------------------------
# one checker per command

def check_eval(argv, text: str) -> None:
    p = _arg(argv, "--p-plus", 0.2)
    a = _arg(argv, "--alpha", 0.4)
    ga = _arg(argv, "--alpha-phase", 0.0)
    ac = _arg(argv, "--alpha-c", 0.0)
    gc = _arg(argv, "--alpha-c-phase", 0.0)
    _, columns, rows = parse_csv(text)
    _expect(columns == ["quantity", "value"], f"eval columns {columns}")
    q = {r[0]: r[1] for r in rows}
    gamma = (ga if a > 0.0 else 0.0) + (gc if ac > 0.0 else 0.0)
    pc, rp, rm = weights(p, a, ac, gamma)
    _close(q.get("r_plus"), rp, EXACT, "r_plus")
    _close(q.get("r_minus"), rm, EXACT, "r_minus")
    want_case = "interior" if interior(pc, a) else "saturated"
    _expect(q.get("case") == want_case, f"case {q.get('case')!r}, expected {want_case}")
    _close(q.get("p_suc_max"), optimum(pc, rp, rm, a), EXACT, "p_suc_max")
    ct = total_coherence(rp, rm, a, ac)
    _close(q.get("c_total_closed"), ct, EXACT, "c_total_closed")
    _close(q.get("c_total_ledger"), ct, LEDGER, "c_total_ledger")
    for name in ("c_total", "c_converted", "c_retained", "c_genuine"):
        _close(q.get(f"{name}_ledger"), q.get(f"{name}_closed"), LEDGER,
               f"{name} ledger vs closed form")
    _expect(0.0 <= q.get("max_ledger_deviation", -1.0) <= LEDGER,
            f"max_ledger_deviation {q.get('max_ledger_deviation')!r}")
    _expect(0.0 <= q.get("conservation_residual", -1.0) <= CONSERVATION,
            f"conservation_residual {q.get('conservation_residual')!r}")
    _expect(0.0 <= q.get("separability_concurrence", -1.0) <= SEPARABILITY,
            f"separability_concurrence {q.get('separability_concurrence')!r}")
    _expect((q.get("loop_phase") == "undefined") == (pc == 0.0),
            f"loop_phase {q.get('loop_phase')!r} at prior {p!r}")


def check_fig2(argv, text: str) -> None:
    meta, columns, rows = parse_csv(text)
    p, a, steps = meta["p_plus"], meta["abs_alpha"], int(meta["steps"])
    _expect(len(rows) == steps, f"fig2 has {len(rows)} rows, expected {steps}")
    col = {c: i for i, c in enumerate(columns)}
    for k, row in enumerate(rows):
        ac = min(k / (steps - 1), CLIP)
        _close(row[col["abs_alpha_c"]], ac, EXACT, f"fig2 row {k} abs_alpha_c")
        for tag, g in (("0", 0.0), ("half_pi", math.pi / 2), ("pi", math.pi)):
            pc, rp, rm = weights(p, a, ac, g)
            _close(row[col[f"c_total_gamma_{tag}"]], total_coherence(rp, rm, a, ac),
                   EXACT, f"fig2 row {k} c_total_gamma_{tag}")
            _close(row[col[f"p_suc_gamma_{tag}"]], optimum(pc, rp, rm, a),
                   EXACT, f"fig2 row {k} p_suc_gamma_{tag}")
    _nonincreasing([r[col["p_suc_gamma_0"]] for r in rows], "fig2 in-phase success")
    _nonincreasing([-r[col["p_suc_gamma_pi"]] for r in rows],
                   "fig2 out-of-phase success (negated)")


def check_fig3(argv, text: str) -> None:
    meta, columns, rows = parse_csv(text)
    p, ac, steps = meta["p_plus"], meta["abs_alpha_c"], int(meta["steps"])
    _expect(len(rows) == steps, f"fig3 has {len(rows)} rows, expected {steps}")
    col = {c: i for i, c in enumerate(columns)}
    saturation = math.sqrt(p / (1.0 - p))
    for k, row in enumerate(rows):
        cell = {c: row[i] for c, i in col.items()}
        a = min(k / (steps - 1), CLIP)
        _close(cell["abs_alpha"], a, EXACT, f"fig3 row {k} abs_alpha")
        _, rp, rm = weights(p, a, ac, math.pi / 2)
        total = cell["c_total"]
        _close(total, total_coherence(rp, rm, a, ac), LEDGER, f"fig3 row {k} c_total")
        # a share is a ledger entry over the total, good to LEDGER / total
        tol = LEDGER / total + EXACT
        _close(cell["share_converted"], cell["c_converted"] / total, EXACT,
               f"fig3 row {k} share_converted vs c_converted / c_total")
        _close(cell["share_retained"], cell["c_retained_pair"] / total, EXACT,
               f"fig3 row {k} share_retained vs c_retained_pair / c_total")
        _close(cell["share_converted"] + cell["share_retained"], 1.0, tol,
               f"fig3 row {k} share_converted + share_retained")
        env = cell["c_env_ancilla_pair"] / total
        lo, hi = cell["band_env_ancilla_min"], cell["band_env_ancilla_max"]
        _expect(lo - tol <= env <= hi + tol,
                f"fig3 row {k} env-ancilla share {env!r} outside [{lo!r}, {hi!r}]")
        _close(cell["band_system_split_min"], 1.0 - hi, EXACT,
               f"fig3 row {k} band_system_split_min")
        _close(cell["band_system_split_max"], 1.0 - lo, EXACT,
               f"fig3 row {k} band_system_split_max")
        if a >= saturation:
            _close(cell["share_converted"], 1.0, SATURATED_SHARE + tol,
                   f"fig3 row {k} share_converted above saturation")


def check_fig4(argv, text: str) -> None:
    meta, columns, rows = parse_csv(text)
    steps = int(meta["steps"])
    _expect(len(rows) == steps, f"fig4 has {len(rows)} rows, expected {steps}")
    col = {c: i for i, c in enumerate(columns)}
    for k, row in enumerate(rows):
        cell = {c: row[i] for c, i in col.items()}
        t = k / (steps - 1)
        _close(cell["tangle"], t, EXACT, f"fig4 row {k} tangle")
        s = math.sqrt(1.0 - t)
        rho = 0.5 * math.asin(s)
        for which in ("total", "retained", "converted"):
            _close(cell[f"smr_{which}"], square_mean_root(rho, which), QUADRATURE,
                   f"fig4 row {k} smr_{which}")
        if cell["smr_total"] > 1e-14:
            want = cell["smr_converted"] / cell["smr_total"]
        else:   # tangle 0: the ratio's limit, 2 s / (1 + s)
            want = 2.0 * s / (1.0 + s)
        _close(cell["converted_share"], want, EXACT,
               f"fig4 row {k} converted_share vs smr_converted / smr_total")
    shares = [r[col["converted_share"]] for r in rows]
    _close(rows[-1][col["smr_total"]], math.pi ** 2 / 16.0, QUADRATURE,
           "fig4 smr_total at tangle 1")
    _close(shares[0], 1.0, EXACT, "fig4 converted_share at tangle 0")
    _close(shares[-1], 0.0, EXACT, "fig4 converted_share at tangle 1")
    _nonincreasing(shares, "fig4 converted_share")


def check_teleport(argv, text: str) -> None:
    rho = _arg(argv, "--rho", 0.35)
    n = int(_arg(argv, "--sample", 0))
    _, columns, rows = parse_csv(text)
    col = {c: i for i, c in enumerate(columns)}
    by_path = {}
    paths = []
    for row in rows:
        kind = row[col["path"]]
        if kind in ("success", "failure"):
            paths.append(row)
        else:
            by_path[kind] = row[col["probability"]]
    closed = 1.0 - math.sin(2.0 * rho)
    degenerate = abs(rho - math.pi / 4.0) < 1e-12
    _expect(len(paths) == (2 if degenerate else 6),
            f"teleport lists {len(paths)} outcome paths")
    _close(by_path.get("total_success"), closed, EXACT, "teleport total_success")
    _close(by_path.get("closed_form"), closed, EXACT, "teleport closed_form")
    _close(sum(r[col["probability"]] for r in paths), 1.0, EXACT,
           "teleport path probabilities sum")
    for r in paths:
        if r[col["path"]] == "success":
            _close(r[col["fidelity"]], 1.0, FIDELITY,
                   f"teleport fidelity of path b={r[col['b_outcome']]} "
                   f"s={r[col['s_outcome']]}")
    if n:
        sigma = math.sqrt(max(closed * (1.0 - closed), 0.0) / n)
        _close(by_path.get("sample_sigma"), sigma, EXACT, "teleport sample_sigma")
        _close(by_path.get("sampled_rate"), closed, SIGMAS * sigma + EXACT,
               "teleport sampled_rate")


def check_selftest(argv, text: str) -> None:
    doc = json.loads(text)
    names = list(available_checks())
    got = [c["name"] for c in doc["checks"]]
    _expect(got == names, f"selftest ran {len(got)} checks, registry has {len(names)}")
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    _expect(not failed, f"selftest checks failed: {failed}")
    _expect(doc["passed"] is True and doc["n_failed"] == 0
            and doc["n_passed"] == len(names),
            f"selftest summary passed={doc['passed']} n_passed={doc['n_passed']} "
            f"n_failed={doc['n_failed']}")


CHECKERS = {
    "eval": check_eval,
    "fig2": check_fig2,
    "fig3": check_fig3,
    "fig4": check_fig4,
    "teleport": check_teleport,
    "selftest": check_selftest,
}


def check(argv, text: str) -> None:
    """Check one CLI output against the formulas for its command. Output
    too malformed to read fails the check too."""
    try:
        CHECKERS[argv[0]](list(argv), text)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckFailed(f"unreadable {argv[0]} output: "
                          f"{type(exc).__name__}: {exc}") from exc
