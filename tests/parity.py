"""Bit-for-bit evidence: SHA-256 digests of the package's outputs at fixed
inputs, so that "every output is the same bit for bit" is a command and
not a claim.

Each digest feeds the UTF-8 of one repr per item, in order, to one
SHA-256:

battery  every registry check of run_selftest() at its battery inputs,
         repr((name, repr(value), detail)) per check, in registry order;
eval     the eval round of bench seeds 0 to 39 (2000 ops, the argv of
         bench/workloads.eval_round, loaded read-only),
         repr((argv, exit code, stdout, stderr)) per op, each op run
         through ussd_lab.cli.main as the benchmark runs it;
box      the 2000 draws of the near-cancellation box: p = 1/2,
         |alpha_c| = 1, |alpha| = 1 - 10^U(-9,-2) and gamma = pi -
         10^U(-6,-1) on the system overlap, drawn from
         np.random.default_rng(0) as TestEvalParity's slice draws them,
         each written into argv with repr,
         repr((exit code, stdout, stderr)) per draw;
teleport the near-pole sweep: enumerate_runs(TeleportInstance(pi/4 - d,
         mu, 0)) at 400 log-spaced d in [1e-10, 10^-1.5], at mu = 0 and
         at mu = pi, repr of the tuple of each run's fields in order,
         final_c as .tolist() (an array's repr keeps 8 digits), or of
         (error type name, message), per instance.

    PYTHONPATH=src python tests/parity.py [--check] [battery] [eval] [box] [teleport]

prints one line per digest: its name, the hex digest and the counts of
its items (failed ops, exit 0 and exit 2 draws, or instances that
raised). The digests recorded
at the last change, with the numpy version and the host, are in
tests/PARITY.md; with --check the script exits 1 when a digest differs
from that record. tests/test_parity.py holds the cheap ones to it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ("battery", "eval", "box", "teleport")
RECORD = Path(__file__).with_name("PARITY.md")


def _main_run(argv) -> tuple:
    """(exit code, stdout, stderr) of one ussd_lab.cli.main call."""
    from ussd_lab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _workloads():
    """bench/workloads.py, loaded from its file under a private name."""
    spec = importlib.util.spec_from_file_location("_parity_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def battery_items() -> list:
    from ussd_lab.selftest import run_selftest

    return [(c.name, repr(c.value), c.detail) for c in run_selftest().checks]


def eval_items() -> list:
    rounds = _workloads().eval_round
    return [(argv, *_main_run(argv)) for seed in range(40)
            for op in rounds(seed) for argv in op]


def box_argvs() -> list:
    rng = np.random.default_rng(0)
    aa = 1.0 - 10.0 ** rng.uniform(-9.0, -2.0, 2000)
    gamma = np.pi - 10.0 ** rng.uniform(-6.0, -1.0, 2000)
    return [["eval", "--p-plus", repr(0.5), "--alpha", repr(a), "--alpha-phase", repr(g),
             "--alpha-c", repr(1.0), "--alpha-c-phase", repr(0.0)]
            for a, g in zip(aa.tolist(), gamma.tolist())]


def box_items() -> list:
    return [_main_run(argv) for argv in box_argvs()]


def teleport_items() -> list:
    from ussd_lab.errors import UssdLabError
    from ussd_lab.teleport import TeleportInstance, enumerate_runs

    items = []
    for mu in (0.0, np.pi):
        for d in np.logspace(-10, -1.5, 400).tolist():
            try:
                runs = enumerate_runs(TeleportInstance(np.pi / 4 - d, mu, 0.0))
            except UssdLabError as exc:
                items.append((type(exc).__name__, str(exc)))
                continue
            items.append(tuple((r.b_outcome, r.s_outcome, r.probability, r.success,
                                None if r.final_c is None else r.final_c.tolist(),
                                r.correction, r.fidelity) for r in runs))
    return items


def sha256(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode("utf-8"))
    return h.hexdigest()


def digest(name: str) -> tuple:
    """The hex digest of one of DIGESTS, and a note on its items."""
    items = {"battery": battery_items, "eval": eval_items, "box": box_items,
             "teleport": teleport_items}[name]()
    if name == "battery":
        note = f"{len(items)} checks"
    elif name == "eval":
        note = f"{len(items)} ops, {sum(code != 0 for _, code, _, _ in items)} failed"
    elif name == "box":
        codes = [code for code, _, _ in items]
        note = f"{len(items)} draws, {codes.count(0)} exit 0, {codes.count(2)} exit 2"
    else:
        raised = sum(isinstance(item[0], str) for item in items)
        note = f"{len(items)} instances, {raised} raised"
    return sha256(items), note


def recorded() -> dict:
    """The digests of the table in PARITY.md, by name."""
    return dict(re.findall(r"^\| (\w+) \| `([0-9a-f]{64})` \|", RECORD.read_text(), re.M))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    check = "--check" in args
    names = [a for a in args if a != "--check"] or DIGESTS
    unknown = sorted(set(names) - set(DIGESTS))
    if unknown:
        print(f"unknown digests {unknown}; choose from {DIGESTS}", file=sys.stderr)
        return 2
    differ = []
    for name in names:
        hexdigest, note = digest(name)
        print(f"{name:8s} {hexdigest}  {note}", flush=True)
        if hexdigest != recorded()[name]:
            differ.append(name)
    if check and differ:
        print(f"differ from {RECORD.name}: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
