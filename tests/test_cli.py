"""Command-line contract: formats, determinism, exit codes."""

import contextlib
import importlib.util
import io
import itertools
import json
import math
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from ussd_lab import __version__, cli
from ussd_lab.cli import _csv_cell, _emit, _meta, _r12, build_parser, main
from ussd_lab.coherence import closed_form_coherences, ledger, wootters_concurrence
from ussd_lab.errors import UndefinedPhase
from ussd_lab.selftest import _edge_box
from ussd_lab.ussd import (
    bargmann_phase,
    coupled_state,
    make_instance,
    p_suc_max,
    separable_strategy,
    system_ancilla_factor,
    total_coherence_conservation,
)


def run_cli(args, tmp_path, name="out"):
    """Run main() writing to a temp file; return (exit code, text)."""
    path = tmp_path / name
    code = main([*args, "--out", str(path)])
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    return code, text


def parse_csv(text):
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition(": ")
            meta[k] = v
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


class TestEval:
    def test_quantities_present(self, tmp_path):
        code, text = run_cli(["eval", "--p-plus", "0.3", "--alpha", "0.45",
                              "--alpha-phase", "0.8", "--alpha-c", "0.6",
                              "--alpha-c-phase", "0.4"], tmp_path)
        assert code == 0
        meta, columns, rows = parse_csv(text)
        assert columns == ["quantity", "value"]
        names = {r[0] for r in rows}
        assert {"r_plus", "case", "p_suc_max", "beta_star",
                "max_ledger_deviation", "loop_phase"} <= names
        table = dict(rows)
        assert table["case"] == "interior"
        assert float(table["max_ledger_deviation"]) < 1e-12
        assert abs(float(table["loop_phase"]) - 1.2) < 1e-10

    def test_json_shape_and_rounding(self, tmp_path):
        code, text = run_cli(["eval", "--format", "json"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert set(doc) == {"meta", "columns", "rows"}
        assert doc["meta"]["version"] == __version__
        for _, v in doc["rows"]:
            if isinstance(v, float):
                assert v == float(f"{v:.12g}")

    @pytest.mark.filterwarnings("error")
    def test_invalid_overlap_is_exit_2(self, tmp_path, capsys):
        assert main(["eval", "--alpha", "1.0"]) == 2
        assert "alpha" in capsys.readouterr().err
        for argv, field in ((["eval", "--alpha", "nan"], "alpha"),
                            (["eval", "--alpha-phase", "inf"], "alpha_phase"),
                            (["eval", "--alpha-c-phase", "nan"], "alpha_c_phase"),
                            (["fig2", "--alpha", "nan"], "alpha"),
                            (["fig2", "--alpha", "inf"], "alpha"),
                            (["eval", "--alpha-c", "nan"], "alpha_c"),
                            (["fig3", "--alpha-c", "nan"], "alpha_c"),
                            (["teleport", "--rho", "nan"], "rho"),
                            (["eval", "--alpha", "-inf"], "alpha"),
                            (["teleport", "--nu", "-NaN"], "nu")):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert re.search(rf"\b{field}\b", err), (argv, err)

    @pytest.mark.parametrize("argv", [
        ["eval", "--alpha", "-0.4"], ["fig2", "--alpha", "-0.4"],
        ["eval", "--alpha-c", "-0.4"], ["fig3", "--alpha-c", "-0.4"],
        ["fig3", "--alpha-c=-1e-300"], ["fig3", "--alpha-c", "-1e-300"],
        ["eval", "--alpha", "-1E-5"], ["fig2", "--alpha", "-.5e1"]])
    def test_negative_magnitude_is_exit_2(self, argv, tmp_path, capsys):
        # read as is, it would be a magnitude with a phase of pi; an
        # exponent-form value reaches the check when space-separated too
        flag, _, value = "=".join(argv[1:]).partition("=")
        assert run_cli(argv, tmp_path) == (2, "")
        assert capsys.readouterr().err == (
            f"error: {flag} must be a non-negative magnitude, got {float(value)!r}\n")

    def test_every_float_option_reads_exponent_negatives(self):
        """Every float option of every subcommand takes -1e-300, -1E-5,
        -.5e1 and -inf as its value, space-separated as with =."""
        sub = next(a for a in build_parser()._actions if a.choices)
        options = [(cmd, a) for cmd, p in sub.choices.items() for a in p._actions
                   if a.type is float]
        assert len(options) == 13
        for (cmd, action), value in itertools.product(options, ("-1e-300", "-1E-5", "-.5e1", "-inf")):
            for argv in ([cmd, action.option_strings[0], value],
                         [cmd, f"{action.option_strings[0]}={value}"]):
                assert getattr(build_parser().parse_args(argv), action.dest) == float(value)

    @pytest.mark.parametrize("argv", [
        ["eval", "--alpha", "-0.0"], ["fig2", "--alpha", "-0.0", "--steps", "3"],
        ["eval", "--alpha-c", "-0.0"], ["fig3", "--alpha-c", "-0.0", "--steps", "3"]])
    def test_negative_zero_is_a_magnitude(self, argv, tmp_path):
        code, text = run_cli(argv, tmp_path)
        plus = run_cli([a.replace("-0.0", "0.0") for a in argv], tmp_path, "plus")
        assert (code, text) == plus and code == 0

    @pytest.mark.filterwarnings("error")
    def test_nonpositive_denominator_is_exit_2(self, capsys):
        assert main(["eval", "--p-plus", "0.5", "--alpha", "0.9999999999999999",
                     "--alpha-phase", "3.141592653589793",
                     "--alpha-c", "1.000000000000001"]) == 2
        assert capsys.readouterr().err == (
            "error: |alpha_c| = 1.000000000000001 exceeds 1 and leaves no positive r+- "
            "denominator with p_plus = 0.5, alpha = (-0.9999999999999999+1.224646799147353e-16j), "
            "alpha_c = (1.000000000000001+0j)\n")

    def test_extreme_prior_leaves_the_loop_phase_undefined(self, tmp_path):
        for p in ("0", "1"):
            code, text = run_cli(["eval", "--p-plus", p], tmp_path)
            assert code == 0 and dict(parse_csv(text)[2])["loop_phase"] == "undefined"

    def test_invalid_prior_is_exit_2(self, tmp_path, capsys):
        assert main(["eval", "--p-plus", "1.5"]) == 2
        assert "p" in capsys.readouterr().err


def bench_workloads():
    """bench/workloads.py, loaded from its file under a private name."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_eval_guard_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eval_workload_ops_exit_zero(seed):
    """Every op of the benchmark's eval round but the near-cancellation
    one is an admissible instance, so it must exit 0: a changed bit near
    a norm or range check shows here first. The near-cancellation op is
    left alone; its exit code is not part of this contract."""
    workloads = bench_workloads()
    for op in workloads.eval_round(seed):
        for argv in op:
            if argv == workloads.NEAR_CANCELLATION:
                continue
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(list(argv))
            assert code == 0, (argv, err.getvalue())


def reference_eval(args) -> int:
    """cmd_eval as the chain of public calls, each a stack of one that
    rebuilds what the one before it built: the separable point three
    times, the preparation twice. The reference of TestEvalParity."""
    alpha = args.alpha * np.exp(1j * args.alpha_phase)
    alpha_c = args.alpha_c * np.exp(1j * args.alpha_c_phase)
    inst = make_instance(args.p_plus, alpha, alpha_c)
    strat = separable_strategy(inst)
    psi = coupled_state(inst, strat)
    led = ledger(psi)
    ct, ca, cg = closed_form_coherences(inst, strat)
    led_total = led.c_total
    led_conv = led.bipartite_of("A")
    led_gen = led.c_genuine
    led_ret = led.pair("S", "C")
    dev = max(abs(ct - led_total), abs(ca - led_conv), abs(cg - led_gen),
              abs((ct - ca) - led_ret))
    cons = total_coherence_conservation(inst, psi)
    sep = wootters_concurrence(system_ancilla_factor(psi))
    try:
        loop = bargmann_phase(inst)
    except UndefinedPhase:
        loop = "undefined"
    rows = [
        ("r_plus", inst.r_plus),
        ("r_minus", inst.r_minus),
        ("gamma", inst.gamma),
        ("case", inst.case),
        ("abs_alpha_plus_opt", abs(strat.alpha_plus)),
        ("abs_alpha_minus_opt", abs(strat.alpha_minus)),
        ("p_suc_max", p_suc_max(inst)),
        ("beta_star", strat.beta),
        ("delta_star", strat.delta),
        ("c_total_closed", ct),
        ("c_total_ledger", led_total),
        ("c_converted_closed", ca),
        ("c_converted_ledger", led_conv),
        ("c_retained_closed", ct - ca),
        ("c_retained_ledger", led_ret),
        ("c_genuine_closed", cg),
        ("c_genuine_ledger", led_gen),
        ("c_env_ancilla_ledger", led.pair("C", "A")),
        ("max_ledger_deviation", dev),
        ("conservation_residual", cons.residual),
        ("separability_concurrence", sep),
        ("loop_phase", loop),
    ]
    meta = _meta("eval", p_plus=args.p_plus, abs_alpha=args.alpha,
                 alpha_phase=args.alpha_phase, abs_alpha_c=args.alpha_c,
                 alpha_c_phase=args.alpha_c_phase)
    _emit(args, meta, ["quantity", "value"], rows)
    return 0


def _reference_parser():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.choices)
    sub.choices["eval"].set_defaults(fn=reference_eval)
    return parser


_REFERENCE_PARSER = _reference_parser()


def eval_run(p_plus, abs_alpha, alpha_phase, abs_alpha_c, alpha_c_phase, reference=False):
    """(exit code, stdout, stderr) of main on one eval argv, through
    cmd_eval or, with reference, through reference_eval."""
    argv = ["eval", "--p-plus", repr(p_plus), "--alpha", repr(abs_alpha),
            "--alpha-phase", repr(alpha_phase), "--alpha-c", repr(abs_alpha_c),
            "--alpha-c-phase", repr(alpha_c_phase)]
    out, err = io.StringIO(), io.StringIO()
    parser = (mock.patch.object(cli, "_parser", lambda: _REFERENCE_PARSER) if reference
              else contextlib.nullcontext())
    with parser, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _edge_point(seed: int) -> tuple:
    """One selftest._edge_box draw, its gamma on the system overlap."""
    p, aa, ac, g = (float(x[0]) for x in _edge_box(np.random.default_rng(seed), 1))
    return p, aa, g, ac, 0.0


_PHASES = st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi]) | st.floats(-10.0, 10.0)
_EVAL_INPUTS = st.tuples(
    st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)
    | st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0 ** e),
    _PHASES,
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    _PHASES,
) | st.integers(0, 2 ** 32 - 1).map(_edge_point)


class TestEvalParity:
    """cmd_eval runs one pass per route on the stacked kernels; the chain
    of public calls it replaces, kept here as reference_eval, must give
    the same exit code, stdout and stderr, so also the same first
    failing check and message."""

    @settings(max_examples=150, deadline=None)
    @given(_EVAL_INPUTS)
    def test_admissible_domain(self, point):
        assert eval_run(*point) == eval_run(*point, reference=True)

    def test_near_cancellation_slice(self):
        """The first 100 draws of the near-cancellation box (p = 1/2,
        |alpha_c| = 1, |alpha| = 1 - 10^U(-9,-2), gamma = pi -
        10^U(-6,-1), seed 0). Its exit counts are those of the norm
        defect ROADMAP item 2 describes: 49 exit 0, and 51 exit 2 with
        "state vector not normalized", 48 of them from the coupled row
        and 3 (draws 15, 24 and 82) from the preparation."""
        rng = np.random.default_rng(0)
        aa = 1.0 - 10.0 ** rng.uniform(-9.0, -2.0, 2000)
        gamma = np.pi - 10.0 ** rng.uniform(-6.0, -1.0, 2000)
        codes = []
        for a, g in zip(aa[:100].tolist(), gamma[:100].tolist()):
            run = eval_run(0.5, a, g, 1.0, 0.0)
            assert run == eval_run(0.5, a, g, 1.0, 0.0, reference=True), (a, g)
            assert run[0] == 0 or "state vector not normalized" in run[2]
            codes.append(run[0])
        assert (codes.count(0), codes.count(2)) == (49, 51)


# argvs that reach each subcommand, the top level, help and version at
# either level, "--", abbreviations, "=" values, leftover tokens and bad values
PARSE_ARGVS = [
    [], ["-h"], ["--version"], ["--version", "eval"], ["evl"], ["ev"], ["--", "eval"],
    ["--bogus", "eval"],
    ["eval"], ["eval", "-h"], ["eval", "--help"], ["eval", "--version"],
    ["eval", "--p-plus", "0.3", "--alpha", "0.45", "--alpha-phase", "0.8",
     "--alpha-c", "0.6", "--alpha-c-phase", "0.4"],
    ["eval", "--p-plus=0.3"], ["eval", "--p-pl", "0.3"], ["eval", "--alph", "0.3"],
    ["eval", "--alpha-c-ph", "1"], ["eval", "--alpha", "-1e-300"], ["eval", "--alpha=-.5e1"],
    ["eval", "--alpha", "x"], ["eval", "--alpha"], ["eval", "--alpha", "--alpha-c", "0.2"],
    ["eval", "--p-plus", "nan"], ["eval", "--p-plus", "0.3", "--p-plus", "0.6"],
    ["eval", "--bogus", "1"], ["eval", "extra"], ["eval", "--", "--alpha", "0.3"],
    ["eval", "--"], ["eval", "--=0.3"], ["eval", "--", "--=0.3"], ["eval", "--format", "json"],
    ["eval", "--format", "xml"], ["eval", "-x"], ["eval", "-"],
    ["fig2", "--steps", "3"], ["fig2", "--steps", "1"], ["fig2", "--ste", "3", "--alpha=0.2"],
    ["fig2", "--steps", "3.5"], ["fig2", "--steps", "3", "--version"],
    ["fig3", "--steps", "3", "--band-points", "8"], ["fig3", "--steps", "3", "--band-points", "4"],
    ["fig3", "-h"],
    ["fig4", "--steps", "3"], ["fig4", "--steps=3", "--format", "json"], ["fig4", "--steps", "0"],
    ["fig4", "--st", "3", "extra"],
    ["teleport", "--rho", "0.2", "--sample", "10", "--seed", "3"], ["teleport", "--sample", "0"],
    ["teleport", "--rho=0.2", "--mu", "-inf"], ["teleport", "--seed", "x"],
    ["selftest", "--only", "spot_success"], ["selftest", "--tolerance", "x"],
    ["selftest", "--only"], ["selftest", "-h"],
]


def _nested_parse(parser, argv):
    return parser.parse_args(argv)


def _outcome(fn, *args) -> tuple:
    """(exit code or None, stdout, stderr, result) of fn(*args), a
    SystemExit's code taken as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got, code = fn(*args), None
        except SystemExit as exc:
            got, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), got


class TestParseParity:
    """main parses an argv that starts with a subcommand with that
    subcommand's parser alone; the nested route, the top-level parser's
    parse_args, kept here as the reference, must give the same
    namespace, attributes in order, and main the same exit code, stdout
    and stderr."""

    @pytest.mark.parametrize("argv", PARSE_ARGVS, ids=" ".join)
    def test_namespace(self, argv):
        code, out, err, got = _outcome(cli._parse, build_parser(), argv)
        want = _outcome(build_parser().parse_args, argv)
        assert (code, out, err) == want[:3]
        assert (got is None) == (want[3] is None)
        if got is not None:
            # repr, as a NaN value is not equal to itself
            assert repr(list(vars(got).items())) == repr(list(vars(want[3]).items()))

    @pytest.mark.parametrize("argv", PARSE_ARGVS, ids=" ".join)
    def test_main(self, argv):
        got = _outcome(main, argv)
        with mock.patch.object(cli, "_parse", _nested_parse):
            want = _outcome(main, argv)
        assert got == want

    def test_top_level_options_share_only_the_double_dash(self):
        """_parse sends a token starting with "--=" to the nested route,
        as the only token the top-level parser's abbreviation rule finds
        ambiguous; that holds while no two of its options share more of
        a prefix than "--"."""
        parser = build_parser()
        names = [o for a in parser._actions for o in a.option_strings if o.startswith("--")]
        assert len(names) >= 2
        for x, y in itertools.combinations(names, 2):
            assert x[2] != y[2], (x, y)

    def test_no_argv_reads_sys_argv(self):
        with mock.patch("sys.argv", ["ussd-lab", "fig4", "--steps", "3"]):
            assert _outcome(main) == _outcome(main, ["fig4", "--steps", "3"])


class TestSweeps:
    def test_fig2_landmark_row(self, tmp_path):
        code, text = run_cli(["fig2", "--steps", "5"], tmp_path)
        assert code == 0
        meta, columns, rows = parse_csv(text)
        assert len(rows) == 5
        assert columns[0] == "abs_alpha_c"
        # decoupled environment: every phase gives the same numbers
        first = dict(zip(columns, rows[0]))
        for c in columns[1:4]:
            assert abs(float(first[c]) - 0.5376) < 1e-12
        for c in columns[4:]:
            assert abs(float(first[c]) - 0.68) < 1e-12

    def test_fig2_endpoint_clipped(self, tmp_path):
        _, text = run_cli(["fig2", "--steps", "3"], tmp_path)
        _, _, rows = parse_csv(text)
        assert abs(float(rows[-1][0]) - (1 - 1e-9)) < 1e-15

    def test_fig3_shares_and_bands(self, tmp_path):
        code, text = run_cli(["fig3", "--steps", "5", "--band-points", "60"],
                             tmp_path)
        assert code == 0
        meta, columns, rows = parse_csv(text)
        assert len(rows) == 5
        i_share = columns.index("share_converted")
        i_bmin = columns.index("band_env_ancilla_min")
        i_bmax = columns.index("band_env_ancilla_max")
        shares = [float(r[i_share]) for r in rows]
        assert shares == sorted(shares)
        for r in rows:
            assert 0.0 <= float(r[i_bmin]) <= float(r[i_bmax]) <= 1.0

    @pytest.mark.parametrize("flag, value, name", [
        ("--alpha-c", "1", "alpha_c"),
        ("--p-plus", "0", "p_plus"),
        ("--p-plus", "1", "p_plus"),
    ])
    def test_fig3_band_edges_name_the_input(self, flag, value, name, capsys):
        # admissible instances whose total coherence vanishes: the ledger
        # columns exist but the band share does not
        assert main(["fig3", "--steps", "3", flag, value]) == 2
        err = capsys.readouterr().err
        assert name in err and "vanished" not in err

    def test_vanished_share_names_the_row(self, capsys):
        # admissible, but at a prior of 1e-25 the total coherence of the
        # |alpha| = 1 - 1e-9 row, about 6e-34, is below the 1e-30 cut;
        # the message names that row
        assert main(["fig3", "--p-plus", "1e-25", "--alpha-c", "0.5"]) == 2
        assert capsys.readouterr().err == (
            "error: total coherence vanished at p_plus = 1e-25, |alpha| = 0.999999999, "
            "|alpha_c| = 0.5, gamma = 0.0; share undefined\n")

    def test_unnormalized_band_row_names_the_row(self, capsys):
        # the band scan's coupled row of |alpha| = 1 - 1e-9 at gamma = pi
        # misses the state-norm bound; the message names that row
        assert main(["fig3", "--p-plus", "0.5", "--alpha-c", "0.999999999999",
                     "--steps", "3", "--band-points", "8"]) == 2
        assert capsys.readouterr().err == (
            "error: state vector not normalized at p_plus = 0.5, |alpha| = 0.999999999, "
            "|alpha_c| = 0.999999999999, gamma = 3.141592653589793: "
            "||psi||^2 = 1.000000110910398\n")

    def test_small_prior_keeps_its_total(self, tmp_path):
        # at a prior of 1e-9 the last row's total, 6e-18, is far above the
        # cut; the ledger total is the closed form 4p(1-p)(1-|a_c|^2)(1-|a|^2)
        # (gamma = pi/2, so r+ = p)
        code, text = run_cli(["fig3", "--p-plus", "1e-9", "--alpha-c", "0.5"], tmp_path)
        assert code == 0
        meta, columns, rows = parse_csv(text)
        p = 1e-9
        aas = np.minimum(np.linspace(0.0, 1.0, int(meta["steps"])), 1.0 - 1e-9)
        for aa, row in zip(aas.tolist(), rows):
            got = {k: float(v) for k, v in zip(columns, row)}
            want = 4.0 * p * (1.0 - p) * 0.75 * (1.0 - aa) * (1.0 + aa)
            assert abs(got["c_total"] - want) <= 1e-7 * want
            assert got["share_converted"] <= 1.0 + 1e-9

    def test_fig4_endpoints(self, tmp_path):
        code, text = run_cli(["fig4", "--steps", "5"], tmp_path)
        assert code == 0
        _, columns, rows = parse_csv(text)
        first = dict(zip(columns, rows[0]))
        last = dict(zip(columns, rows[-1]))
        assert float(first["converted_share"]) == 1.0
        assert float(last["converted_share"]) == 0.0
        assert abs(float(last["smr_total"]) - math.pi ** 2 / 16) < 1e-11

    def test_steps_validation(self, capsys):
        assert main(["fig2", "--steps", "1"]) == 2
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "1.0", "|alpha| = 1.0 leaves nothing to discriminate"),
        ("--p-plus", "1.5", "p_plus must lie in [0, 1], got 1.5"),
    ])
    def test_fig2_rejects_the_instance(self, flag, value, message, tmp_path, capsys):
        assert run_cli(["fig2", flag, value], tmp_path) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


class TestTeleport:
    def test_paths_and_totals(self, tmp_path):
        code, text = run_cli(["teleport", "--rho", "0.3", "--mu", "1.2",
                              "--nu", "0.5"], tmp_path)
        assert code == 0
        _, columns, rows = parse_csv(text)
        table = {}
        for r in rows:
            table.setdefault(r[0], []).append(dict(zip(columns, r)))
        assert len(table["success"]) == 4 and len(table["failure"]) == 2
        total = float(table["total_success"][0]["probability"])
        closed = float(table["closed_form"][0]["probability"])
        assert abs(total - closed) < 1e-12
        assert abs(closed - (1 - math.sin(0.6))) < 1e-12
        for rec in table["success"]:
            assert float(rec["fidelity"]) == 1.0

    def test_nearly_degenerate_channel(self, tmp_path, capsys):
        # 1 - sin 2 rho = 2e-10: the branch overlaps sit within 1e-10 of 1,
        # where a Gram-Schmidt completion of the coupling lost unitarity
        code, text = run_cli(["teleport", "--rho", "0.7853881633974483",
                              "--mu", "0.3"], tmp_path)
        assert (code, capsys.readouterr().err) == (0, "")
        table = {r[0]: float(r[3]) for r in parse_csv(text)[2]
                 if r[0] in ("total_success", "closed_form")}
        assert abs(table["total_success"] - table["closed_form"]) < 1e-12

    def test_sampling_is_seeded(self, tmp_path):
        args = ["teleport", "--rho", "0.3", "--sample", "800", "--seed", "7"]
        _, a = run_cli(args, tmp_path, "a")
        _, b = run_cli(args, tmp_path, "b")
        assert a == b
        _, _, rows = parse_csv(a)
        kinds = {r[0] for r in rows}
        assert {"sampled_rate", "sample_sigma"} <= kinds

    def test_angle_validation(self, capsys):
        assert main(["teleport", "--rho", "2.0"]) == 2
        assert "channel_angle" in capsys.readouterr().err

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert main(["teleport", "--rho", "0.3", "--mu", "1", "--nu", "0",
                     "--sample", "10", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be non-negative")
        assert "Traceback" not in err


class TestSelftest:
    def test_filtered_json_report(self, tmp_path):
        code, text = run_cli(["selftest", "--only", "spot", "--format", "json"],
                             tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert doc["passed"] is True
        assert doc["n_failed"] == 0
        assert all(c["passed"] for c in doc["checks"])
        assert {c["name"] for c in doc["checks"]} == {
            "spot_success_interior", "spot_success_saturated",
            "spot_optimal_amplitudes"}

    def test_forced_failure_is_exit_1(self, tmp_path):
        code, text = run_cli(["selftest", "--only", "spot", "--format", "json",
                              "--tolerance", "1e-30"], tmp_path)
        assert code == 1
        assert json.loads(text)["n_failed"] > 0

    def test_csv_format(self, tmp_path):
        code, text = run_cli(["selftest", "--only", "spot", "--format", "csv"],
                             tmp_path)
        assert code == 0
        _, columns, rows = parse_csv(text)
        assert columns[:2] == ["check", "status"]
        assert all(r[1] == "pass" for r in rows)

    def test_unknown_filter_is_exit_2(self, capsys):
        assert main(["selftest", "--only", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err
        for bad in ("inf", "nan"):
            assert main(["selftest", "--only", "spot", "--tolerance", bad]) == 2
            assert "tolerance" in capsys.readouterr().err


class TestOversizeCounts:
    """A count beyond numpy's index range is refused with exit 2 and the
    option's name, before any allocation (only counts that cannot be
    indexed are tried here: one that can would be allocated)."""

    @pytest.mark.parametrize("value", [str(10 ** 20), str(2 ** 63)])
    @pytest.mark.parametrize("argv, name", [
        (["fig2", "--steps"], "--steps"),
        (["fig3", "--steps"], "--steps"),
        (["fig4", "--steps"], "--steps"),
        (["fig3", "--band-points"], "--band-points"),
        (["teleport", "--sample"], "--sample"),
    ])
    def test_exit_2_names_the_option(self, capsys, argv, name, value):
        assert main([*argv, value]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {name} must be at most {np.iinfo(np.intp).max}, got {value}\n"


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [["eval"], ["selftest", "--only", "spot"]])
    def test_exit_2_names_the_path(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "out.csv"
        assert main([*argv, "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write --out {path}: No such file or directory\n"
        assert not path.parent.exists()


class TestOutputHygiene:
    def test_no_timestamps_in_meta(self, tmp_path):
        for args in (["eval"], ["fig4", "--steps", "3"]):
            _, text = run_cli(args, tmp_path)
            meta, _, _ = parse_csv(text)
            assert not any("time" in k or "date" in k for k in meta)
            assert meta["version"] == __version__

    def test_lf_only(self, tmp_path):
        _, text = run_cli(["fig2", "--steps", "3"], tmp_path)
        assert "\r" not in text and text.endswith("\n")

    def test_twelve_significant_digits(self, tmp_path):
        # every numeric cell survives a parse/format round trip at 12 digits
        _, text = run_cli(["fig2", "--steps", "4"], tmp_path)
        _, _, rows = parse_csv(text)
        for row in rows:
            for cell in row:
                assert cell == f"{float(cell):.12g}"

    def test_csv_cell_is_the_rounded_format(self):
        """One format per float cell gives the text of rounding to 12
        digits first and formatting the result: on random bit patterns,
        signed zeros, infinities, NaN, subnormals and 12-digit ties."""
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64).tolist()
        values += rng.uniform(-1e3, 1e3, 5000).tolist()
        values += [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308,
                   1.0000000000005, 2.5000000000005e-7, 0.1234567890125, 9.999999999995e99,
                   -9.9999999999995, 1e-9, 1.0 - 1e-9]
        for v in values:
            assert _csv_cell(v) == f"{_r12(v):.12g}", v
