"""Closed-loop benchmark of the ussd-lab command line.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One client calls ``ussd_lab.cli.main``
in-process, ops back to back, and checks every output against the
paper's formulas (``checks.py``). Ops run in whole rounds; a round is
one timing block. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, with the
end-to-end metrics of BENCHMARK.json when ``--trace 0`` and its
per-layer metrics when ``--trace 1``. A full record of the run goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import LAYERS, Tracer
from workloads import NEAR_CANCELLATION, WORKLOADS, make_round

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7     # fresh interpreters timed per run, after one warm-up
IMPORT_PROBES = 5    # -X importtime runs per traced run


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# --------------------------------------------------------------------------
# host speed

# On the 2-core VM this benchmark was built on, the same work took up to
# 3.7 times longer in one 20 s run than in another minutes later. Every
# timed round is therefore bracketed by two runs of a fixed reference
# kernel and rescaled to a host on which the kernel takes REF_SECONDS.
# The kernel does the kinds of work the package does (4x4 Hermitian
# eigenvalues and singular values, Kronecker products of 2-vectors, a
# validated frozen dataclass, scalar float math) without calling it, so
# a change to the package cannot move it.
REF_SECONDS = 0.005
# The rescaling was shown to hold only while the run's median kernel
# time stayed inside this range, as multiples of REF_SECONDS: the 80
# runs of the steadiness report, at 0.87x to 1.62x, agreed, while at
# 2.1x selftest slowed by less than the kernel and read 47 % fast. A
# run outside it is marked not comparable in its record and on stderr.
REF_RANGE = (0.8, 1.7)
_REF_MATRIX = np.eye(4) + 0.1j
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.conj().T
_REF_VECTOR = np.array([1.0, 0.5j])


@dataclasses.dataclass(frozen=True)
class _RefRecord:
    p: float
    z: complex

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p out of range: {self.p!r}")


def reference_seconds() -> float:
    t0 = perf_counter()
    for _ in range(150):
        np.linalg.eigvalsh(_REF_MATRIX)
        np.linalg.svd(_REF_MATRIX, compute_uv=False)
        np.kron(_REF_VECTOR, _REF_VECTOR)
        rec = _RefRecord(0.3, complex(0.1, 0.2))
        math.sqrt(rec.p * (1.0 - rec.p)) * abs(rec.z) * math.cos(float(np.angle(rec.z)))
    return perf_counter() - t0


def timed(fn) -> tuple:
    """Run fn between two reference runs; return (its result, the mean
    reference seconds around it)."""
    before = reference_seconds()
    result = fn()
    after = reference_seconds()
    return result, 0.5 * (before + after)


# --------------------------------------------------------------------------
# set-up time and import times, each from fresh interpreters

# A fresh interpreter's start-up drifts with the host too, and the
# compute kernel above does not track it (correlation 0.48 over 48
# probes); an interpreter that only imports numpy does (0.81). Each probe
# is bracketed by two such starts and rescaled to a host on which they
# take SPAWN_REF_SECONDS.
SPAWN_REF_SECONDS = 0.2
SPAWN_REF = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]


class SetupProbes:
    """Seconds for a fresh interpreter to import the CLI and build this
    workload's inputs, rescaled by the start-up reference. The first
    probe fills the bytecode cache and is not kept; the rest are spread
    over the run, between blocks, so their median speaks for the whole
    run."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]
        self.env = _child_env()
        self.times, self.raw = [], []
        self._probe()
        self.times.clear()
        self.raw.clear()

    def _spawn(self, cmd) -> float:
        """Seconds from spawning cmd until it prints its first line, at
        the end of its start-up work. The line is read from a pipe: a
        wait with a timeout polls the child in steps of up to 50 ms,
        which put every time on a 50 ms grid."""
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                              stdout=subprocess.PIPE) as proc:
            watchdog = threading.Timer(60.0, proc.kill)
            watchdog.start()
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
            watchdog.cancel()
        if not line or code != 0:
            raise RuntimeError(f"set-up probe {cmd} exited {code}")
        return elapsed

    def _probe(self) -> None:
        before = self._spawn(SPAWN_REF)
        wall = self._spawn(self.cmd)
        after = self._spawn(SPAWN_REF)
        self.times.append(wall * 2.0 * SPAWN_REF_SECONDS / (before + after))
        self.raw.append(wall)

    def __call__(self, done: float) -> None:
        """Catch up to the share `done` of the run that has passed."""
        while len(self.times) < min(done, 1.0) * SETUP_PROBES:
            self._probe()


IMPORT_NAMES = {
    "numpy": ("numpy", "cumulative"),
    "qcore": ("ussd_lab.qcore", "self"),
    "coherence": ("ussd_lab.coherence", "self"),
    "ussd": ("ussd_lab.ussd", "self"),
    "teleport": ("ussd_lab.teleport", "self"),
    "oracle": ("ussd_lab.oracle", "self"),
    "selftest": ("ussd_lab.selftest", "self"),
    "cli": ("ussd_lab.cli", "self"),
}


def import_times() -> dict:
    """Median milliseconds per module from ``python -X importtime``:
    numpy's cumulative time, each package module's self time."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import ussd_lab.cli"]
    samples = {k: [] for k in IMPORT_NAMES}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True,
                              capture_output=True, text=True, timeout=60)
        rows = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                rows[name.strip()] = {"self": int(self_us), "cumulative": int(cum_us)}
        for key, (module, column) in IMPORT_NAMES.items():
            samples[key].append(rows[module][column] / 1e3)
    return {f"import.{k}_ms": statistics.median(v) for k, v in samples.items()}


# --------------------------------------------------------------------------
# ops

def run_op(cli, op) -> tuple:
    """Call the CLI once per argument list; return (seconds inside
    cli.main, [(argv, exit code, stdout, stderr)])."""
    spent, results = 0.0, []
    for argv in op:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(list(argv))
            except Exception as exc:   # an op that crashes is a failed op
                code = f"{type(exc).__name__}: {exc}"
            spent += perf_counter() - t0
        results.append((argv, code, out.getvalue(), err.getvalue()))
    return spent, results


class Judge:
    """Counts failed ops and checks the outputs of the rest."""

    def __init__(self, checks, expected_failure):
        self.checks = checks
        self.expected_failure = expected_failure
        self.failed = 0
        self.correct = True
        self.problems = []

    def _note(self, msg: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(msg)
            print(f"bench: {msg}", file=sys.stderr)

    def __call__(self, results) -> None:
        bad = [(argv, code, err) for argv, code, _, err in results if code != 0]
        if bad:
            self.failed += 1
            for argv, code, err in bad:
                if not (tuple(argv) == self.expected_failure and code == 2
                        and "not normalized" in err):
                    self._note(f"unexpected failure {code!r} {err.strip()!r} "
                               f"for {' '.join(argv)}")
            return
        for argv, _, text, _ in results:
            try:
                self.checks.check(argv, text)
            except self.checks.CheckFailed as exc:
                self.correct = False
                self._note(f"wrong output for {' '.join(argv)}: {exc}")


def run_rounds(cli, rnd, seconds: float, judge, tracer=None, between=None) -> tuple:
    """Warm up with one round, then repeat whole rounds until `seconds`
    have passed, calling `between` with the share of the run done after
    each round. Return (attempted ops, per-round seconds in cli.main
    rescaled to the reference host, the same unscaled, the reference
    kernel seconds around each round)."""

    def one_round():
        spent = 0.0
        for op in rnd:
            dt, results = run_op(cli, op)
            spent += dt
            judge(results)
            if tracer is not None:
                tracer.end_op()
        return spent

    for op in rnd:
        judge(run_op(cli, op)[1])
    judge.failed = 0
    if tracer is not None:
        tracer.reset()
    blocks, raw, refs = [], [], []
    start = perf_counter()
    while not blocks or perf_counter() - start < seconds:
        spent, ref = timed(one_round)
        # scale the time inside cli.main, not the checks around it
        blocks.append(spent * REF_SECONDS / ref)
        raw.append(spent)
        refs.append(ref)
        if between is not None:
            between((perf_counter() - start) / seconds)
    return len(blocks) * len(rnd), blocks, raw, refs


# --------------------------------------------------------------------------
# metrics

def end_to_end(setup: list, ops_per_block: int, blocks: list) -> dict:
    """Median of the rescaled set-up probes; ops per block over the
    median rescaled block time, a quantile, so it does not drift with
    the number of blocks; the run's peak resident memory."""
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops_per_block / statistics.median(blocks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, ops: int, imports: dict) -> dict:
    calls, incl = tracer.calls, tracer.inclusive

    def per_op(name):
        return calls.get(name, 0) / ops

    def per_call(name, scale):
        n = calls.get(name, 0)
        return incl[name] * scale / n if n else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls_per_op"] = sum(
            c for name, c in calls.items() if name.startswith(layer + ".")) / ops
        m[f"{layer}.self_ms_per_op"] = tracer.self_time.get(layer, 0.0) * 1e3 / ops
    m.update(imports)
    for fig in ("fig2", "fig3", "fig4"):
        m[f"cli.{fig}.ms_per_call"] = per_call(f"cli.cmd_{fig}", 1e3)
    # every cli span nests under cli.main, so this is the cli layer's self time
    m["cli.parse_emit_ms_per_op"] = tracer.self_time.get("cli", 0.0) * 1e3 / ops
    m["coherence.coherence_band.ms_per_call"] = per_call("coherence.coherence_band", 1e3)
    m["teleport.square_mean_root.ms_per_call"] = per_call("teleport.square_mean_root", 1e3)
    bc = "teleport.branch_coherences"
    m[f"{bc}.calls_per_op"] = per_op(bc)
    m[f"{bc}.distinct_share"] = tracer.distinct.get(bc, 0) / calls[bc] if calls.get(bc) else 0.0
    for name in ("ussd.make_instance", "ussd.separable_strategy",
                 "coherence.wootters_concurrence", "qcore.partial_trace",
                 "qcore.apply", "qcore.projective_measure",
                 "oracle.grid_optimize_success"):
        m[f"{name}.calls_per_op"] = per_op(name)
    for name in ("qcore.DensityMatrix", "qcore.PureState"):
        m[f"{name}.built_per_op"] = per_op(name)
    for name in ("ussd.separability_params", "ussd.coupled_state",
                 "coherence.ledger", "qcore.complete_unitary"):
        m[f"{name}.us_per_call"] = per_call(name, 1e6)
    m["oracle.grid_min_concurrence.ms_per_call"] = per_call("oracle.grid_min_concurrence", 1e3)
    return m


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    if not (SRC / "ussd_lab" / "cli.py").is_file():
        return _fail(f"no package source at {SRC}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import ussd_lab.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        return _fail(f"imported ussd_lab from {cli.__file__}, not from {SRC}")
    import checks

    rnd = make_round(args.workload, args.seed)
    judge = Judge(checks, NEAR_CANCELLATION)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "round_ops": len(rnd)}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        imports = import_times()
        tracer = Tracer()
        tracer.install()
        attempted, blocks, raw, refs = run_rounds(cli, rnd, args.seconds, judge,
                                                  tracer)
        values = per_layer(tracer, attempted, imports)
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))
        defs = spec["per_layer"]
    else:
        probes = SetupProbes(args.workload, args.seed)
        attempted, blocks, raw, refs = run_rounds(cli, rnd, args.seconds, judge,
                                                  between=probes)
        probes(1.0)
        values = end_to_end(probes.times, len(rnd), blocks)
        defs = spec["end_to_end"]
        record.update(setup_seconds=probes.times, raw_setup_seconds=probes.raw)
    kernel = statistics.median(refs) / REF_SECONDS
    comparable = REF_RANGE[0] <= kernel <= REF_RANGE[1]
    if not comparable:
        print(f"bench: not comparable: the median reference kernel took "
              f"{kernel:.2f} x REF_SECONDS, outside {REF_RANGE}", file=sys.stderr)
    record.update(block_seconds=blocks, raw_block_seconds=raw,
                  reference_seconds=refs, reference_ratio=kernel,
                  comparable=comparable)

    names = [d["name"] for d in defs]
    if sorted(names) != sorted(values):
        return _fail(f"metrics computed {sorted(values)} differ from "
                     f"BENCHMARK.json {sorted(names)}")
    result = {
        "correct": judge.correct,
        "attempted": attempted,
        "failed": judge.failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                    for d in defs},
    }
    record.update(result, problems=judge.problems)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
