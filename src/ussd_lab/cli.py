"""Command-line front end.

Six subcommands: eval (one instance, every derived quantity), fig2 /
fig3 / fig4 (the three parameter sweeps), teleport (branch bookkeeping
for the channel application, optionally sampled), and selftest (the
verification battery). Output is CSV with a commented metadata header
or a JSON document with the same content; both are deterministic byte
for byte, use 12 significant digits, and never include timestamps.

This module parses and formats; the library computes. Each subcommand
calls public library functions (eval prints ussd.eval_report, which the
battery also reads) and imports no private kernel. An argv that starts
with a subcommand is parsed once, by that subcommand's parser (_parse);
any other argv, and one the top-level parser would refuse, goes through
the top-level parser, which hands the subcommand's tokens on.

Exit codes: 0 on success, 1 when the selftest battery fails, 2 for
invalid input (the message names the offending field), among it a
count beyond numpy's index range (--steps, --band-points, --sample),
for an --out path that cannot be written and for an internal numeric
failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import RangeError, UssdLabError, _count
from .coherence import coherence_band, ledger
from .ussd import coupled_amplitudes, eval_report, fig2_cells, separable_points
from .teleport import (
    TeleportInstance,
    enumerate_runs,
    fig4_sweep,
    sample_teleport,
)
from .selftest import run_selftest

_CLIP = 1.0 - 1e-9


def _r12(x):
    """Round a float to 12 significant digits (and kill negative zero)."""
    if isinstance(x, float):
        if not math.isfinite(x):
            return x
        if x == 0.0:
            return 0.0
        return float(f"{x:.12g}")
    return x


def _csv_cell(v) -> str:
    """One CSV cell: floats at 12 significant digits, zero unsigned."""
    if v is None:
        return ""
    if isinstance(v, float):
        return "0" if v == 0.0 else f"{v:.12g}"
    return str(v)


def _emit(args, meta: dict, columns: list, rows: list) -> None:
    if args.format == "csv":
        lines = [f"# {k}: {_csv_cell(v)}" for k, v in sorted(meta.items())]
        lines.append(",".join(columns))
        lines.extend([",".join([_csv_cell(c) for c in row]) for row in rows])
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "meta": {k: _r12(v) for k, v in meta.items()},
            "columns": columns,
            "rows": [[_r12(c) for c in row] for row in rows],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _write(args.out, text)


class _OutError(UssdLabError):
    """An --out path that cannot be written; main reports it, exit 2. Its
    own class, as the package raises the base class nowhere."""


def _write(out, text: str) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise _OutError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _meta(command: str, **params) -> dict:
    meta = {"tool": "ussd-lab", "version": __version__, "command": command}
    meta.update(params)
    return meta


# --------------------------------------------------------------------------
# subcommands

def cmd_eval(args) -> int:
    alpha = args.alpha * np.exp(1j * args.alpha_phase)
    alpha_c = args.alpha_c * np.exp(1j * args.alpha_c_phase)
    report = eval_report(separable_points(args.p_plus, alpha, alpha_c))
    rows = [(k, "undefined" if v is None else v) for k, (v,) in report.items()]
    meta = _meta("eval", p_plus=args.p_plus, abs_alpha=args.alpha,
                 alpha_phase=args.alpha_phase, abs_alpha_c=args.alpha_c,
                 alpha_c_phase=args.alpha_c_phase)
    _emit(args, meta, ["quantity", "value"], rows)
    return 0


def cmd_fig2(args) -> int:
    pts = np.minimum(np.linspace(0.0, 1.0, args.steps), _CLIP)
    # one instance per |alpha_c| (row) and phase (column), flattened row
    # by row: a failing check names the instance a loop over rows meets first
    alpha = args.alpha * np.exp(1j * np.array([0.0, math.pi / 2, math.pi]))
    c_total, p_suc = fig2_cells(args.p_plus, alpha, pts[:, None])
    cells = (pts[:, None], c_total.reshape(-1, 3), p_suc.reshape(-1, 3))
    columns = ["abs_alpha_c",
               "c_total_gamma_0", "c_total_gamma_half_pi", "c_total_gamma_pi",
               "p_suc_gamma_0", "p_suc_gamma_half_pi", "p_suc_gamma_pi"]
    meta = _meta("fig2", p_plus=args.p_plus, abs_alpha=args.alpha,
                 steps=args.steps)
    _emit(args, meta, columns, np.hstack(cells).tolist())
    return 0


def cmd_fig3(args) -> int:
    pts = np.minimum(np.linspace(0.0, 1.0, args.steps), _CLIP)
    # the ledgers run before the band call, so an input that both reject
    # is reported by the ledger chain; the fig3_p_negative and
    # fig3_env_over1 goldens pin errors of the chain, fig3_env1 and
    # fig3_p0 those of the band
    leds = ledger(coupled_amplitudes(
        separable_points(args.p_plus, pts * np.exp(1j * math.pi / 2), args.alpha_c)))
    scans = coherence_band(args.p_plus, pts, args.alpha_c,
                           scan_points=args.band_points)

    def row(aa: float, led, scan):
        total = led.c_total
        conv = led.bipartite_of("A")
        ret = led.pair("S", "C")
        return [float(aa), total, led.bipartite_of("S"), ret, conv,
                led.pair("C", "A"),
                conv / total if total > 0 else None,
                ret / total if total > 0 else None,
                scan.minimum, scan.maximum,
                1.0 - scan.maximum, 1.0 - scan.minimum]

    columns = ["abs_alpha", "c_total", "c_system_split", "c_retained_pair",
               "c_converted", "c_env_ancilla_pair", "share_converted",
               "share_retained", "band_env_ancilla_min", "band_env_ancilla_max",
               "band_system_split_min", "band_system_split_max"]
    meta = _meta("fig3", p_plus=args.p_plus, abs_alpha_c=args.alpha_c,
                 steps=args.steps, band_points=args.band_points)
    _emit(args, meta, columns, [row(*r) for r in zip(pts, leds, scans)])
    return 0


def cmd_fig4(args) -> int:
    pts = np.linspace(0.0, 1.0, args.steps)
    rows = [[r.tangle, r.smr_total, r.smr_retained, r.smr_converted,
             r.converted_share]
            for r in fig4_sweep(pts)]
    columns = ["tangle", "smr_total", "smr_retained", "smr_converted",
               "converted_share"]
    _emit(args, _meta("fig4", steps=args.steps), columns, rows)
    return 0


def cmd_teleport(args) -> int:
    inst = TeleportInstance(args.rho, args.mu, args.nu)
    runs = enumerate_runs(inst)
    rows = []
    for r in runs:
        kind = "success" if r.s_outcome is not None else "failure"
        rows.append([kind, r.b_outcome, r.s_outcome,
                     r.probability, r.fidelity, r.correction])
    total = sum(r.probability for r in runs if r.success)
    closed = 1.0 - math.sin(2.0 * args.rho)
    rows.append(["total_success", None, None, total, None, None])
    rows.append(["closed_form", None, None, closed, None, None])
    meta = _meta("teleport", rho=args.rho, mu=args.mu, nu=args.nu)
    if args.sample is not None:
        rep = sample_teleport(inst, args.sample, args.seed)
        rows.append(["sampled_rate", None, None, rep.empirical_rate, None, None])
        rows.append(["sample_sigma", None, None, rep.binomial_sigma, None, None])
        meta.update(sample=args.sample, seed=args.seed)
    columns = ["path", "b_outcome", "s_outcome", "probability", "fidelity",
               "correction"]
    _emit(args, meta, columns, rows)
    return 0


def cmd_selftest(args) -> int:
    report = run_selftest(tolerance_override=args.tolerance, only=args.only)
    meta = _meta("selftest", n_passed=report.n_passed,
                 n_failed=report.n_failed, passed=report.passed)
    if args.tolerance is not None:
        meta["tolerance"] = args.tolerance
    if args.only is not None:
        meta["only"] = args.only
    if args.format == "csv":
        rows = [[c.name, "pass" if c.passed else "FAIL", c.value, c.tolerance,
                 c.detail.replace(",", ";")] for c in report.checks]
        _emit(args, meta, ["check", "status", "value", "tolerance", "detail"],
              rows)
    else:
        doc = {"meta": {k: _r12(v) for k, v in meta.items()}}
        doc.update(report.to_dict())
        doc["checks"] = [
            {**c, "value": _r12(c["value"]) if c["value"] is not None else None,
             "tolerance": _r12(c["tolerance"])}
            for c in doc["checks"]
        ]
        _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if report.passed else 1


# --------------------------------------------------------------------------
# argument plumbing

def _add_output_flags(p) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write to a file instead of stdout")


_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ussd-lab",
        description="Ancilla-assisted sub-state discrimination: success "
                    "optima, coherence ledgers, and the teleportation "
                    "application. All angles are radians.")
    ap.add_argument("--version", action="version",
                    version=f"ussd-lab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="every derived quantity for one instance")
    p.add_argument("--p-plus", type=float, default=0.2,
                   help="prior weight of the first sub-state (default 0.2)")
    p.add_argument("--alpha", type=float, default=0.4,
                   help="system overlap magnitude (default 0.4)")
    p.add_argument("--alpha-phase", type=float, default=0.0,
                   help="system overlap phase in radians (default 0)")
    p.add_argument("--alpha-c", type=float, default=0.0,
                   help="environment overlap magnitude (default 0)")
    p.add_argument("--alpha-c-phase", type=float, default=0.0,
                   help="environment overlap phase in radians (default 0)")
    _add_output_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("fig2", help="sweep the environment overlap magnitude")
    p.add_argument("--p-plus", type=float, default=0.2)
    p.add_argument("--alpha", type=float, default=0.4,
                   help="system overlap magnitude (default 0.4)")
    p.add_argument("--steps", type=int, default=101,
                   help="sweep points, endpoints included (default 101)")
    _add_output_flags(p)
    p.set_defaults(fn=cmd_fig2)

    p = sub.add_parser("fig3", help="sweep the system overlap magnitude")
    p.add_argument("--p-plus", type=float, default=0.4)
    p.add_argument("--alpha-c", type=float, default=0.8,
                   help="environment overlap magnitude (default 0.8)")
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--band-points", type=int, default=120,
                   help="phase-scan resolution for the band columns")
    _add_output_flags(p)
    p.set_defaults(fn=cmd_fig3)

    p = sub.add_parser("fig4", help="sweep the channel tangle")
    p.add_argument("--steps", type=int, default=51)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_fig4)

    p = sub.add_parser("teleport", help="branch bookkeeping for one channel")
    p.add_argument("--rho", type=float, default=0.35,
                   help="channel angle in [0, pi/4] (default 0.35)")
    p.add_argument("--mu", type=float, default=math.pi / 2,
                   help="polar angle of the sent state (default pi/2)")
    p.add_argument("--nu", type=float, default=0.0,
                   help="azimuthal angle of the sent state (default 0)")
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="also draw N pseudo-random runs")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --sample (default 0)")
    _add_output_flags(p)
    p.set_defaults(fn=cmd_teleport)

    p = sub.add_parser("selftest", help="run the verification battery")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every per-check tolerance")
    p.add_argument("--only", default=None, metavar="SUBSTR",
                   help="run only checks whose name contains SUBSTR")
    p.add_argument("--format", choices=("csv", "json"), default="json",
                   help="output format (default json)")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_selftest)
    # argparse takes only plain decimals such as -0.4 for negative numbers
    # and reads -1e-300 or -inf as an unknown flag; any token that starts
    # with a minus and a digit, a point and a digit, inf or nan is a value
    # here (no option of this parser starts with a single minus and those)
    for parser in sub.choices.values():
        parser._negative_number_matcher = _NEGATIVE_NUMBER
    return ap


# parse_args leaves a parser as it found it, so main builds one per process
_parser = functools.cache(build_parser)


def _parse(parser, argv) -> argparse.Namespace:
    """parser.parse_args(argv), with one pass over the tokens where argv
    starts with a subcommand: that subcommand's parser reads the rest
    into a namespace that already holds command, as the nested route
    sets it. The nested route, which every other argv takes, reads each
    token at the top level before it hands the tokens on. It fails there
    only on an abbreviation that matches two top-level options; of
    --help and --version that is a token, before any "--", that starts
    with "--=". An argv with such a token takes the nested route, and so
    does one with tokens left over, which the top level reports as
    unrecognized arguments."""
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if argv and argv[0] in sub.choices and not any(
            t.startswith("--=") for t in itertools.takewhile(lambda t: t != "--", argv[1:])):
        args, rest = sub.choices[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(_parser(), argv)
    if getattr(args, "steps", None) is not None and args.steps < 2:
        print("error: --steps must be at least 2", file=sys.stderr)
        return 2
    if getattr(args, "band_points", None) is not None and args.band_points < 8:
        print("error: --band-points must be at least 8", file=sys.stderr)
        return 2
    if getattr(args, "sample", None) is not None and args.sample < 1:
        print("error: --sample must be a positive count", file=sys.stderr)
        return 2
    # a count beyond numpy's index range would fail in the allocation
    for dest in ("steps", "band_points", "sample"):
        if getattr(args, dest, None) is not None:
            try:
                _count(getattr(args, dest), f"--{dest.replace('_', '-')}")
            except RangeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            print(f"error: {dest} must be finite, got {value!r}", file=sys.stderr)
            return 2
    # a negative magnitude would silently become a phase of pi, and so
    # would -0.0, which is the magnitude 0
    for dest in ("alpha", "alpha_c"):
        value = getattr(args, dest, None)
        if value is None:
            continue
        if value < 0.0:
            print(f"error: --{dest.replace('_', '-')} must be a non-negative magnitude, "
                  f"got {value!r}", file=sys.stderr)
            return 2
        setattr(args, dest, abs(value))
    try:
        return args.fn(args)
    except UssdLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":          # pragma: no cover
    sys.exit(main())
