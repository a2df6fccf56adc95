"""Every CLI byte, pinned: the stdout, stderr, exit code and --out file
of a fixed list of invocations, run in-process through
``ussd_lab.cli.main`` and compared byte for byte with the files under
``tests/golden/``.

The goldens were recorded with numpy 2.4.6 on x86-64. Running this file
as a script rewrites them:

    PYTHONPATH=src python tests/test_golden.py

Do that only for a byte change that was accepted and recorded in
CHANGES.md.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from ussd_lab.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
STATUS = GOLDEN / "status.json"
OUT = "<out>"        # stands for a temporary --out path

CASES = {
    "eval": ["eval"],
    "eval_phase": ["eval", "--p-plus", "0.3", "--alpha", "0.45",
                   "--alpha-phase", "0.8", "--alpha-c", "0.6"],
    "eval_env_phase": ["eval", "--p-plus", "0.7", "--alpha", "0.3",
                       "--alpha-phase", "2.1", "--alpha-c", "0.9",
                       "--alpha-c-phase", "1.3"],
    "eval_saturated": ["eval", "--p-plus", "0.4", "--alpha", "0.9",
                       "--alpha-c", "0.5"],
    "eval_json": ["eval", "--format", "json"],
    "eval_cancel_pi": ["eval", "--p-plus", "0.5", "--alpha", "0.999999",
                       "--alpha-c", "1", "--alpha-phase", "3.141592653589793"],
    "eval_cancel": ["eval", "--p-plus", "0.5", "--alpha", "0.99999",
                    "--alpha-c", "1", "--alpha-phase", "3.13"],
    "eval_nan": ["eval", "--alpha", "nan"],
    "fig2": ["fig2"],
    "fig2_steps7": ["fig2", "--steps", "7"],
    "fig3": ["fig3"],
    "fig3_steps11": ["fig3", "--steps", "11"],
    "fig3_steps11_band24": ["fig3", "--steps", "11", "--band-points", "24"],
    "fig3_steps5_band24": ["fig3", "--steps", "5", "--band-points", "24"],
    "fig3_swapped": ["fig3", "--p-plus", "0.7", "--alpha-c", "0.55",
                     "--steps", "41"],
    "fig3_env0": ["fig3", "--p-plus", "0.5", "--alpha-c", "0", "--steps", "21"],
    "fig3_env0999": ["fig3", "--p-plus", "0.9", "--alpha-c", "0.999",
                     "--steps", "21", "--band-points", "60"],
    "fig3_band9": ["fig3", "--p-plus", "0.5", "--alpha-c", "0.3", "--steps", "7",
                   "--band-points", "9"],
    "fig3_env1": ["fig3", "--alpha-c", "1"],
    "fig3_p0": ["fig3", "--p-plus", "0"],
    "fig3_p_negative": ["fig3", "--p-plus", "-0.1"],
    "fig3_env_over1": ["fig3", "--alpha-c", "1.5"],
    "fig3_swapped_edge": ["fig3", "--p-plus", "0.999999", "--alpha-c",
                          "0.999999999", "--steps", "3"],
    "fig4": ["fig4"],
    "fig4_steps6": ["fig4", "--steps", "6"],
    "fig4_json": ["fig4", "--format", "json"],
    "fig4_json_out": ["fig4", "--steps", "7", "--format", "json", "--out", OUT],
    "fig4_steps101": ["fig4", "--steps", "101"],
    "teleport_sample": ["teleport", "--sample", "100000"],
    "teleport_mu": ["teleport", "--rho", "0.2", "--mu", "0.7"],
    "teleport_seed3": ["teleport", "--rho", "0.3", "--sample", "500",
                       "--seed", "3"],
    "teleport_quarter_pi": ["teleport", "--rho", "0.7853981633974483"],
    "teleport_quarter_pi_north": ["teleport", "--rho", "0.7853981633974483",
                                  "--mu", "0"],
    "teleport_quarter_pi_south": ["teleport", "--rho", "0.7853981633974483",
                                  "--mu", "3.141592653589793"],
    "teleport_maximal_south": ["teleport", "--rho", "0", "--mu",
                               "3.141592653589793", "--sample", "1000",
                               "--seed", "5"],
    "selftest": ["selftest"],
    "selftest_spot_csv": ["selftest", "--only", "spot", "--format", "csv"],
}


def run(argv):
    """Exit code, stderr, stdout and the --out file's bytes (or None)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(path) if a == OUT else a for a in argv])
        written = path.read_bytes() if path.exists() else None
    return code, stderr.getvalue(), stdout.getvalue().encode(), written


@pytest.mark.parametrize("name", CASES)
def test_cli_bytes_match_golden(name):
    argv = CASES[name]
    code, stderr, stdout, written = run(argv)
    status = json.loads(STATUS.read_text(encoding="utf-8"))[name]
    assert (argv, code, stderr) == (status["argv"], status["exit"], status["stderr"])
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    file = GOLDEN / f"{name}.file"
    assert written == (file.read_bytes() if file.exists() else None)


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    status = {}
    for name, argv in CASES.items():
        code, stderr, stdout, written = run(argv)
        status[name] = {"argv": argv, "exit": code, "stderr": stderr}
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        if written is not None:
            (GOLDEN / f"{name}.file").write_bytes(written)
    STATUS.write_text(json.dumps(status, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
