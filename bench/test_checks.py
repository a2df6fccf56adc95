"""Each output checker accepts the CLI's real output and rejects the same
output with one cell perturbed.

Run from the repository root:  python3 -m pytest bench/test_checks.py
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from ussd_lab import cli  # noqa: E402

EVAL = ("eval", "--p-plus", "0.7", "--alpha", "0.45", "--alpha-phase", "0.8",
        "--alpha-c", "0.6", "--alpha-c-phase", "0.4")
SATURATED = ("eval", "--p-plus", "0.1", "--alpha", "0.9")
FIG2 = ("fig2", "--steps", "11")
FIG3 = ("fig3", "--steps", "6", "--band-points", "16")
FIG4 = ("fig4", "--steps", "4")
TELEPORT = ("teleport", "--rho", "0.35", "--mu", "1.2", "--nu", "0.5",
            "--sample", "10000", "--seed", "3")


def output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def outputs():
    return {argv: output(argv)
            for argv in (EVAL, SATURATED, FIG2, FIG3, FIG4, TELEPORT, ("selftest",))}


def set_cell(text: str, row, column: str, change) -> str:
    """Apply `change` to one cell of CSV output. `row` is a data-row
    index or, for two-column tables, the row's first cell."""
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[head].split(",")
    data = list(range(head + 1, len(lines)))
    if isinstance(row, str):
        at = next(i for i in data if lines[i].split(",")[0] == row)
    else:
        at = data[row]
    cells = lines[at].split(",")
    j = columns.index(column)
    cells[j] = change(cells[j])
    lines[at] = ",".join(cells)
    return "\n".join(lines) + "\n"


def plus(delta):
    return lambda cell: repr(float(cell) + delta)


def times(factor):
    return lambda cell: repr(float(cell) * factor)


def value(new):
    return lambda cell: new


def test_every_output_passes(outputs):
    for argv, text in outputs.items():
        checks.check(argv, text)


PERTURBED = [
    (EVAL, "r_plus", "value", times(1 + 1e-9)),
    (EVAL, "r_minus", "value", times(1 - 1e-9)),
    (EVAL, "case", "value", value("saturated")),
    (EVAL, "p_suc_max", "value", plus(1e-9)),
    (EVAL, "c_total_closed", "value", plus(1e-9)),
    (EVAL, "c_total_ledger", "value", plus(3e-9)),
    (EVAL, "c_genuine_ledger", "value", plus(3e-9)),
    (EVAL, "max_ledger_deviation", "value", value("2e-09")),
    (EVAL, "conservation_residual", "value", value("2e-10")),
    (EVAL, "separability_concurrence", "value", value("2e-10")),
    (EVAL, "loop_phase", "value", value("undefined")),
    (SATURATED, "p_suc_max", "value", plus(1e-9)),
    (SATURATED, "case", "value", value("interior")),
    (FIG2, 0, "abs_alpha_c", plus(1e-3)),
    (FIG2, 4, "c_total_gamma_half_pi", plus(1e-9)),
    (FIG2, 5, "p_suc_gamma_0", plus(1e-9)),
    (FIG2, 7, "p_suc_gamma_pi", plus(-1e-9)),
    (FIG3, 2, "c_total", plus(1e-6)),
    (FIG3, 1, "share_converted", plus(1e-6)),
    (FIG3, 2, "share_retained", plus(-1e-6)),
    (FIG3, 3, "band_env_ancilla_max", value("0")),
    (FIG3, 3, "band_env_ancilla_min", value("0.99")),
    (FIG3, 4, "band_system_split_min", plus(1e-6)),
    (FIG3, 0, "abs_alpha", plus(1e-3)),
    (FIG4, 3, "smr_total", plus(1e-6)),
    (FIG4, 1, "smr_total", times(1 + 1e-6)),
    (FIG4, 1, "smr_retained", plus(1e-6)),
    (FIG4, 2, "smr_converted", plus(-1e-6)),
    (FIG4, 0, "converted_share", plus(-1e-6)),
    (FIG4, 3, "converted_share", plus(1e-6)),
    (FIG4, 2, "converted_share", value("0.99999")),
    (FIG4, 1, "tangle", plus(1e-3)),
    (TELEPORT, "total_success", "probability", plus(1e-9)),
    (TELEPORT, "closed_form", "probability", plus(1e-9)),
    (TELEPORT, 1, "fidelity", plus(-1e-6)),
    (TELEPORT, 0, "probability", plus(1e-6)),
    (TELEPORT, "sample_sigma", "probability", times(2.0)),
]


@pytest.mark.parametrize("argv,row,column,change", PERTURBED,
                         ids=[f"{p[0][0]}-{p[1]}-{p[2]}" for p in PERTURBED])
def test_one_perturbed_cell_is_rejected(outputs, argv, row, column, change):
    bad = set_cell(outputs[argv], row, column, change)
    assert bad != outputs[argv]
    with pytest.raises(checks.CheckFailed):
        checks.check(argv, bad)


def swap_cells(text: str, row: int, first: str, second: str) -> str:
    """Swap two cells of one CSV data row."""
    cells = {}
    set_cell(text, row, first, lambda c: cells.setdefault(first, c))
    set_cell(text, row, second, lambda c: cells.setdefault(second, c))
    text = set_cell(text, row, first, value(cells[second]))
    return set_cell(text, row, second, value(cells[first]))


def test_swapped_fig3_shares_are_rejected(outputs):
    # the shares still sum to 1 and stay inside the band
    bad = swap_cells(outputs[FIG3], 2, "share_converted", "share_retained")
    assert bad != outputs[FIG3]
    with pytest.raises(checks.CheckFailed):
        checks.check(FIG3, bad)


def test_monotone_but_wrong_fig4_share_is_rejected(outputs):
    # halfway between the row's share and 1: the column still falls from
    # 1 to 0 without rising, but is no longer smr_converted / smr_total
    bad = set_cell(outputs[FIG4], 1, "converted_share",
                   lambda c: repr((1.0 + float(c)) / 2.0))
    assert bad != outputs[FIG4]
    with pytest.raises(checks.CheckFailed, match="converted_share vs"):
        checks.check(FIG4, bad)


def test_sampled_rate_outside_five_sigma_is_rejected(outputs):
    text = outputs[TELEPORT]
    closed = 1.0 - math.sin(0.7)
    sigma = math.sqrt(closed * (1.0 - closed) / 10000)
    bad = set_cell(text, "sampled_rate", "probability",
                   value(repr(closed + 5.5 * sigma)))
    with pytest.raises(checks.CheckFailed):
        checks.check(TELEPORT, bad)


@pytest.mark.parametrize("edit", ["fail_one", "drop_one", "count"])
def test_selftest_report_edits_are_rejected(outputs, edit):
    doc = json.loads(outputs[("selftest",)])
    if edit == "fail_one":
        doc["checks"][3]["passed"] = False
    elif edit == "drop_one":
        del doc["checks"][-1]
    else:
        doc["n_passed"] -= 1
    with pytest.raises(checks.CheckFailed):
        checks.check(("selftest",), json.dumps(doc))


@pytest.mark.parametrize("argv", [EVAL, FIG3, TELEPORT, ("selftest",)],
                         ids=lambda argv: argv[0])
def test_unreadable_output_is_rejected(outputs, argv):
    for bad in ("", outputs[argv][: len(outputs[argv]) // 2]):
        with pytest.raises(checks.CheckFailed):
            checks.check(argv, bad)


def test_rounds_have_a_seed_independent_composition():
    for seed in (0, 1, 2):
        ev = workloads.make_round("eval", seed)
        assert len(ev) == workloads.EVAL_ROUND
        assert [op[0] for op in ev].count(workloads.NEAR_CANCELLATION) == 1
        priors = [float(op[0][2]) for op in ev[:-1]]
        assert sum(p in (0.0, 1.0) for p in priors) == 10
        tp = workloads.make_round("teleport", seed)
        assert len(tp) == workloads.TELEPORT_ROUND
        assert sum(op[0][2] == repr(math.pi / 4) for op in tp) == 1
    assert workloads.make_round("eval", 5) == workloads.make_round("eval", 5)
    assert workloads.make_round("eval", 5) != workloads.make_round("eval", 6)
