"""Workload inputs: one round of CLI argument lists per workload.

A run repeats whole rounds, so every run attempts the same mix of
operations whatever its seed or length. An op is a tuple of argument
lists, each passed to ``ussd_lab.cli.main`` in turn. Only the standard
library is imported here, because the set-up probe times this module's
work as part of a fresh interpreter's start-up.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("figures", "eval", "teleport", "selftest")

# The admissible instance whose r+- denominator cancels to 1e-6: the
# assembled state misses unit norm and the CLI exits 2. Run once per
# eval round so the failed share is the same in every run.
NEAR_CANCELLATION = ("eval", "--p-plus", "0.5", "--alpha", "0.999999",
                     "--alpha-c", "1", "--alpha-phase", "3.141592653589793")

EVAL_ROUND = 50
TELEPORT_ROUND = 20
TELEPORT_SAMPLE = 10000

# Draws whose r+- denominator 1 + 2 sqrt(p(1-p)) |a| |a_c| cos(gamma)
# falls below this get fresh phases: inside that corner the CLI fails
# on some draws and not others (see the FOUND line in CHANGES.md), and
# the benchmark only keeps failures that happen every time.
MIN_DENOMINATOR = 1e-3

_TWO_PI = 2.0 * math.pi


def _g(x: float) -> str:
    return repr(float(x))


def _spread(rng: random.Random, counts: dict, n: int) -> list:
    """Exactly counts[k] copies of each special value k, the rest None,
    shuffled; so every round has the same composition."""
    cells = [k for k, c in counts.items() for _ in range(c)]
    cells += [None] * (n - len(cells))
    rng.shuffle(cells)
    return cells


def eval_round(seed: int) -> list:
    """Admissible instances weighted toward the domain's edges.

    Priors: 5 at p = 0, 5 at p = 1, 7 at p = 1/2, 16 above 1/2 (which
    canonicalization swaps), the rest uniform below 1/2. Overlap
    magnitude: 3 at 0, 12 within 1e-5..1e-1 of 1, the rest uniform up
    to 0.99999. Environment magnitude: 8 at 0, 8 at 1, the rest
    uniform. Both phases uniform on [0, 2 pi). The counts fix which
    code paths a round takes (p in {0, 1} leaves the loop phase
    undefined), so per-op call counts do not depend on the seed.
    """
    rng = random.Random(f"eval:{seed}")
    n = EVAL_ROUND - 1
    ps = _spread(rng, {"0": 5, "1": 5, "half": 7, "high": 16}, n)
    aas = _spread(rng, {"zero": 3, "edge": 12}, n)
    acs = _spread(rng, {"zero": 8, "one": 8}, n)
    ops = []
    for pk, ak, ck in zip(ps, aas, acs):
        p = {"0": 0.0, "1": 1.0, "half": 0.5}.get(pk)
        if p is None:
            p = rng.uniform(0.5, 1.0) if pk == "high" else rng.uniform(0.0, 0.5)
        if ak == "zero":
            a = 0.0
        elif ak == "edge":
            a = 1.0 - 10.0 ** rng.uniform(-5.0, -1.0)
        else:
            a = rng.uniform(0.0, 0.99999)
        ac = {"zero": 0.0, "one": 1.0}.get(ck)
        if ac is None:
            ac = rng.uniform(0.0, 1.0)
        while True:
            ga, gc = rng.uniform(0.0, _TWO_PI), rng.uniform(0.0, _TWO_PI)
            g = (ga if a > 0.0 else 0.0) + (gc if ac > 0.0 else 0.0)
            den = 1.0 + 2.0 * math.sqrt(p * (1.0 - p)) * a * ac * math.cos(g)
            if den >= MIN_DENOMINATOR:
                break
        ops.append((("eval", "--p-plus", _g(p), "--alpha", _g(a),
                     "--alpha-phase", _g(ga), "--alpha-c", _g(ac),
                     "--alpha-c-phase", _g(gc)),))
    ops.append((NEAR_CANCELLATION,))
    return ops


def teleport_round(seed: int) -> list:
    """Random channels and sent states, with one product channel
    (rho = pi/4), one maximal channel (rho = 0) and both poles
    (mu = 0, pi) in every round; each op samples a fixed count."""
    rng = random.Random(f"teleport:{seed}")
    kinds = _spread(rng, {"product": 1, "maximal": 1, "north": 1, "south": 1},
                    TELEPORT_ROUND)
    ops = []
    for kind in kinds:
        rho = rng.uniform(0.0, math.pi / 4.0)
        mu = rng.uniform(0.0, math.pi)
        nu = rng.uniform(0.0, _TWO_PI)
        if kind == "product":
            rho = math.pi / 4.0
        elif kind == "maximal":
            rho = 0.0
        elif kind == "north":
            mu = 0.0
        elif kind == "south":
            mu = math.pi
        ops.append((("teleport", "--rho", _g(rho), "--mu", _g(mu), "--nu", _g(nu),
                     "--sample", str(TELEPORT_SAMPLE),
                     "--seed", str(rng.randrange(2 ** 31))),))
    return ops


# fig2 at its defaults; fig3 and fig4 at their default band resolution
# and quadrature order with the step counts cut to keep one set near 1 s.
FIGURE_SET = (("fig2",), ("fig3", "--steps", "11"), ("fig4", "--steps", "6"))


def make_round(workload: str, seed: int) -> list:
    """The ops of one round. A round is also one timing block."""
    if workload == "figures":
        return [FIGURE_SET]
    if workload == "eval":
        return eval_round(seed)
    if workload == "teleport":
        return teleport_round(seed)
    if workload == "selftest":
        return [(("selftest",),)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
