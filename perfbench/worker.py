"""Runs benchmark operations against qtsallis in this process.

Started by ``run.py`` with the job as one JSON argument; prints one JSON
object on its last line of standard output.  Each operation is timed
alone, then its result is checked against ``reference`` outside the timed
interval.  Rounds are whole: the loop stops at the first round boundary
after the time is up.  Between operations, outside the timed intervals, a
reference task samples the machine's speed (``calibrate.py``); the timed
run reports wall times and the same times scaled to the nominal speed.

With tracing on, the named workload runs untraced and then traced, for
the tracing overhead.  Then round 0 of every workload runs traced once, so
that every layer is measured and the per-unit counts come from the same
inputs on every run with the same seed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qtsallis
from qtsallis import cli, oracle, solver
from qtsallis.werner import WernerParams

import reference
from calibrate import Calibrator
from run import child_env, setup_wall
from tracer import Tracer
from workloads import ROUNDS

TRACED_MODULES = ("classical", "quantum", "werner", "solver", "oracle", "cli")
#: Share of the run's seconds spent untraced and traced on the named workload.
UNTRACED_SHARE, TRACED_SHARE = 0.3, 0.4
MAX_REPORTED_ERRORS = 10


def _rows(report) -> list[tuple]:
    return [(c.case, c.quantity, c.closed_form, c.oracle, c.passed)
            for c in report.comparisons]


def execute(op: dict):
    """Call the program for one operation; return its raw result."""
    kind = op["kind"]
    if kind == "solve":
        return solver.threshold_for_q(op["N"], op["n"], op["q"],
                                      conditioned_parties=op["k"])
    if kind == "member":
        grid = [WernerParams(N, n, x) for N, n, x in op["members"]]
        return oracle.verify_family(grid, op["orders"])
    if kind == "witness":
        return oracle.verify_separable_witness(op["trials"], op["seed"])
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(op["argv"])
    return code, buffer.getvalue()


@dataclass
class Segment:
    """Outcome of a stretch of whole rounds of one workload."""

    #: (mid time, seconds) of each operation; the time places it among
    #: the calibration samples.
    stamped: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    rounds: int = 0

    @property
    def latencies(self) -> list[float]:
        return [seconds for _, seconds in self.stamped]


def run_rounds(workload: str, seed: int, seconds: float, first_round: int,
               tracer: Tracer | None = None, max_rounds: int | None = None,
               after_round=None, phase: str = "segment",
               calibrator: Calibrator | None = None) -> Segment:
    segment = Segment()
    deadline = time.perf_counter() + seconds
    round_index = first_round
    while True:
        sweeps = defaultdict(list)
        for op in ROUNDS[workload](seed, round_index):
            gc.collect()  # the checks' garbage is not the operation's
            if tracer is not None:
                tracer.root = (phase, op["kind"])
            start = time.perf_counter()
            try:
                result = execute(op)
                raised = None
            except Exception as exc:  # a failing operation is a result to report
                result, raised = None, exc
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.root = ("none", "none")
                count_work(tracer.counters, (phase, op["kind"]), op, result)
            segment.stamped.append((start + elapsed / 2, elapsed))
            segment.attempted += 1
            problems = [f"{op['kind']} raised {raised!r}"] if raised else check(op, result)
            if op["kind"] == "solve" and not problems:
                sweeps[op["sweep"]].append((op["q"], result.x_star))
            if problems and op["known_fault"]:
                segment.failed += 1
            else:
                segment.errors.extend(problems)
            if calibrator is not None:
                calibrator.sample()
        for points in sweeps.values():
            segment.errors.extend(reference.check_monotone(points))
        round_index += 1
        segment.rounds += 1
        if after_round is not None:
            after_round()
        if max_rounds is not None and segment.rounds >= max_rounds:
            break
        if max_rounds is None and time.perf_counter() >= deadline:
            break
    return segment


def check(op: dict, result) -> list[str]:
    kind = op["kind"]
    if kind == "solve":
        return reference.check_root(op["N"], op["n"], op["k"], op["q"], result.x_star)
    if kind == "member":
        return reference.check_family_rows(op["members"], op["orders"], _rows(result))
    if kind == "witness":
        return reference.check_witness_rows(op["trials"], _rows(result))
    code, stdout = result
    return reference.check_cli(op["expect"], code, stdout)


def count_work(counters, root: tuple, op: dict, result) -> None:
    """Units of work behind each operation, for per-unit layer figures."""
    kind = op["kind"]
    if kind == "solve":
        counters[root + ("queries",)] += 1
    elif kind == "member":
        counters[root + ("members",)] += len(op["members"])
        counters[root + ("rows",)] += len(result.comparisons) if result else 0
    elif kind == "witness":
        counters[root + ("trials",)] += op["trials"]


def layer_metrics(t: Tracer) -> dict:
    """Per-layer figures, each over its own workload's operations: per
    query on solve, per member or trial on certify, per command on cli.
    Times cover every traced operation; counts cover only the fixed probe
    rounds, so they repeat exactly for a given seed."""
    probe = ("probe",)
    queries = t.count("solve", "queries", probe)
    members = t.count("member", "members", probe)
    trials = t.count("witness", "trials", probe)
    spectra = ("werner.joint_spectrum", "werner.marginal_spectrum")
    ms, us = 1e3, 1e6
    return {
        "solver.threshold_for_q.ms_p50":
            statistics.median(t.durations_of("solve", "solver.threshold_for_q")) * ms,
        "solver.self_ms_per_query":
            t.self_time("solve", "solver.threshold_for_q") / t.count("solve", "queries") * ms,
        "solver.entropy_sign.calls_per_query":
            t.calls("solve", "solver.entropy_sign", probe) / queries,
        "solver.entropy_sign.us_mean": t.mean("solve", "solver.entropy_sign") * us,
        "werner.spectra.calls_per_query":
            sum(t.calls("solve", name, probe) for name in spectra) / queries,
        "werner.spectra.us_mean": t.mean("solve", *spectra) * us,
        "werner.conditional_entropy_block.us_mean":
            t.mean("member", "werner.conditional_entropy_block") * us,
        "werner.werner_density.ms_mean": t.mean("member", "werner.werner_density") * ms,
        "quantum.q_trace.calls_per_query": t.calls("solve", "quantum.q_trace", probe) / queries,
        "quantum.q_trace.us_mean": t.mean("solve", "quantum.q_trace") * us,
        "quantum.merge_levels.us_mean": t.mean("solve", "quantum.merge_levels") * us,
        "quantum.DensityMatrix.ms_mean": t.mean("member", "quantum.DensityMatrix") * ms,
        "quantum.partial_trace.ms_mean": t.mean("member", "quantum.partial_trace") * ms,
        "quantum.spectrum_of.ms_mean": t.mean("member", "quantum.spectrum_of") * ms,
        "quantum.eigvalsh.calls_per_member":
            t.calls("member", "quantum.eigvalsh", probe) / members,
        "quantum.eigvalsh.d3_per_member": t.count("member", "eigvalsh_d3", probe) / members,
        "quantum.dense_bytes_per_member": t.count("member", "dense_bytes", probe) / members,
        "quantum.separable_conditional_direct.us_mean":
            t.mean("witness", "quantum.separable_conditional_direct") * us,
        "classical.tsallis_entropy.calls_per_trial":
            t.calls("witness", "classical.tsallis_entropy", probe) / trials,
        "classical.tsallis_entropy.us_mean":
            t.mean("witness", "classical.tsallis_entropy") * us,
        "oracle.verify_family.ms_per_member":
            t.total("member", "oracle.verify_family") / t.count("member", "members") * ms,
        "oracle.rows_per_member": t.count("member", "rows", probe) / members,
        "oracle.verify_separable_witness.ms_per_trial":
            t.total("witness", "oracle.verify_separable_witness")
            / t.count("witness", "trials") * ms,
        "cli.main_ms_p50": statistics.median(t.durations_of("cli", "cli.main")) * ms,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    workload, seed, seconds = job["workload"], job["seed"], job["seconds"]
    execute(ROUNDS[workload](seed, -1)[0])  # warm-up, not measured
    result: dict = {}
    if not job["trace"]:
        root = Path.cwd()
        env = child_env(root)
        op_speed = Calibrator.for_workload(workload)
        # Sampled right after each set-up, which is paired with that sample.
        setup_speed = Calibrator("process", root, env, window=1)
        setups = []

        def time_setup() -> None:
            start = time.perf_counter()
            wall = setup_wall(workload, root, env)
            setups.append((start + wall / 2, wall))
            setup_speed.sample()

        op_speed.warm_up()
        setup_speed.warm_up()
        op_speed.sample()
        segment = run_rounds(workload, seed, seconds, 0, after_round=time_setup,
                             calibrator=op_speed)
        segments, probes = [segment], []
        result["wall_latencies"] = segment.latencies
        result["latencies"] = op_speed.scale(segment.stamped)
        result["setup_walls"] = [wall for _, wall in setups]
        result["setups"] = setup_speed.scale(setups)
        result["slowdown"] = statistics.median(op_speed.seconds) / op_speed.nominal
    else:
        untraced = run_rounds(workload, seed, seconds * UNTRACED_SHARE, 0)
        tracer = Tracer(qtsallis, TRACED_MODULES)
        tracer.install(np)
        try:
            traced = run_rounds(workload, seed, seconds * TRACED_SHARE,
                                untraced.rounds, tracer)
            probes = [run_rounds(kind, seed, 0.0, 0, tracer, max_rounds=1, phase="probe")
                      for kind in ROUNDS]
        finally:
            tracer.uninstall()
        tracer.write(job["trace_path"])
        segments = [untraced, traced]
        layers = layer_metrics(tracer)
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.fmean(traced.latencies) / statistics.fmean(untraced.latencies) - 1.0)
        result["layers"] = layers
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["attempted"] = sum(s.attempted for s in segments)
    result["failed"] = sum(s.failed for s in segments)
    # Probe outcomes count towards correctness but not towards the named
    # workload's attempted and failed operations.
    errors = [e for s in segments + probes for e in s.errors]
    result["error_count"] = len(errors)
    result["errors"] = errors[:MAX_REPORTED_ERRORS]
    result["rounds"] = sum(s.rounds for s in segments)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
