"""Command-line contract: formats, determinism, exit codes."""

import contextlib
import importlib.util
import io
import itertools
import json
import math
import re
from pathlib import Path

import pytest

import numpy as np

from ussd_lab import __version__
from ussd_lab.cli import _csv_cell, _r12, build_parser, main


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
