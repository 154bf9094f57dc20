"""Benchmark for qtsallis: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src``).  One client sends one operation at a time; BLAS is pinned to one
thread.  ``solve`` and ``certify`` run in a worker process that calls the
library; ``cli`` runs each command as its own process.  Every output is
checked against the benchmark's own references (see ``reference.py``).
Timings are reported at a nominal machine speed, measured in the same run
by a reference task that does not use qtsallis (see ``calibrate.py``);
the wall times are printed beside them.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from workloads import ROUNDS  # noqa: E402

#: Fresh processes per interpreter and import figure; the median is reported.
SETUP_REPEATS = 9
#: A child process that runs longer than this abandons the run.
CHILD_TIMEOUT_S = 150.0
OUT_DIR = HERE / "out"

#: What a user runs first on each workload: import, then one operation.
#: One set-up is timed after every round, so that the samples spread over
#: the whole run; the machine's speed drifts in phases of a few seconds.
SETUP_COMMANDS = {
    "solve": ["-c", "import qtsallis; qtsallis.threshold_for_q(2, 3, 2.0)"],
    "certify": ["-c", "import qtsallis as qt; "
                      "qt.verify_family([qt.WernerParams(2, 3, 0.5)], (0.5, 1.0, 2.0)); "
                      "qt.verify_separable_witness(10, 0)"],
    "cli": ["-m", "qtsallis.cli", "threshold", "--N", "2", "--n", "3", "--asymptotic"],
}


class BenchError(Exception):
    """The benchmark could not run to a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], root: Path, env: dict) -> tuple[float, int, str]:
    """Run ``python3 <args>`` to its end; return wall seconds, exit code
    and standard output."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=root, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args} timed out") from None
    return time.perf_counter() - start, proc.returncode, proc.stdout


def setup_wall(workload: str, root: Path, env: dict) -> float:
    """Wall time of one fresh-process set-up of the workload."""
    elapsed, code, _ = run_child(SETUP_COMMANDS[workload], root, env)
    if code != 0:
        raise BenchError(f"set-up of {workload} exited with {code}")
    return elapsed


def median_wall(args: list[str], root: Path, env: dict) -> float:
    run_child(args, root, env)  # fills the bytecode cache, not measured
    walls = []
    for _ in range(SETUP_REPEATS):
        elapsed, code, _ = run_child(args, root, env)
        if code != 0:
            raise BenchError(f"set-up command {args} exited with {code}")
        walls.append(elapsed)
    return statistics.median(walls)


def run_worker(job: dict, root: Path, env: dict) -> dict:
    env = dict(env, PYTHONPATH=f"{env['PYTHONPATH']}{os.pathsep}{HERE}")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from None


def run_cli_loop(seed: int, seconds: float, root: Path, env: dict) -> dict:
    """Each command as its own process, one at a time, in whole rounds."""
    ops, errors, setups = [], [], []
    speed = Calibrator.for_workload("cli", root, env)
    speed.warm_up()
    speed.sample()
    round_index = 0
    deadline = time.perf_counter() + seconds
    while True:
        for op in ROUNDS["cli"](seed, round_index):
            start = time.perf_counter()
            elapsed, code, stdout = run_child(["-m", "qtsallis.cli", *op["argv"]], root, env)
            ops.append((start + elapsed / 2, elapsed))
            errors += [f"{' '.join(op['argv'])}: {p}"
                       for p in reference.check_cli(op["expect"], code, stdout)]
            speed.sample()
        round_index += 1
        start = time.perf_counter()
        wall = setup_wall("cli", root, env)
        setups.append((start + wall / 2, wall))
        speed.sample()
        if time.perf_counter() >= deadline:
            break
    # Every child of this process is a CLI process or the calibration
    # process, which imports less, so the peak over all of them is the peak
    # of the largest command.
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"latencies": speed.scale(ops), "wall_latencies": [w for _, w in ops],
            "setups": speed.scale(setups), "setup_walls": [w for _, w in setups],
            "slowdown": statistics.median(speed.seconds) / speed.nominal,
            "attempted": len(ops), "failed": 0, "error_count": len(errors),
            "errors": errors[:10], "rss_kb": peak_kb, "rounds": round_index}


def tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest sample."""
    ordered = sorted(samples)
    return ordered[max(0, len(ordered) - 11)]


def end_to_end(outcome: dict, latencies: str = "latencies", setups: str = "setups") -> dict:
    """The end-to-end metrics, at nominal speed by default; pass the
    ``wall_latencies`` and ``setup_walls`` keys for wall times."""
    lat = outcome[latencies]
    return {
        "setup_s": statistics.median(outcome[setups]),
        "throughput_per_s": len(lat) / sum(lat),
        "latency_ms_p50": statistics.median(lat) * 1e3,
        "latency_ms_tail": tail(lat) * 1e3,
        "peak_rss_mb": outcome["rss_kb"] / 1024.0,
    }


def per_layer(outcome: dict, root: Path, env: dict) -> dict:
    layers = dict(outcome["layers"])
    interpreter = median_wall(["-c", "pass"], root, env)
    imported = median_wall(["-c", "import qtsallis.cli"], root, env)
    layers["cli.interpreter_ms"] = interpreter * 1e3
    layers["cli.import_ms"] = (imported - interpreter) * 1e3
    return layers


def with_units(values: dict, listed: list[dict]) -> dict:
    """Attach the units that BENCHMARK.json lists, in its order."""
    if set(values) != {m["name"] for m in listed}:
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ {m['name'] for m in listed})}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qtsallis" / "__init__.py").is_file():
        print(f"error: no qtsallis sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    controls = reference.negative_controls()
    if controls:
        print("error: a reference check accepts wrong answers: "
              + "; ".join(controls), file=sys.stderr)
        return 3
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = child_env(root)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        if args.trace:
            job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": 1, "trace_path": str(OUT_DIR / f"trace-{tag}.json")}
            outcome = run_worker(job, root, env)
            metrics = with_units(per_layer(outcome, root, env), spec["per_layer"])
        else:
            run_child(SETUP_COMMANDS[args.workload], root, env)  # fills the bytecode cache
            if args.workload == "cli":
                outcome = run_cli_loop(args.seed, args.seconds, root, env)
            else:
                job = {"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": 0}
                outcome = run_worker(job, root, env)
            metrics = with_units(end_to_end(outcome), spec["end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in outcome["errors"]:
        print(f"check failed: {problem}", file=sys.stderr)
    wall = {} if args.trace else end_to_end(outcome, "wall_latencies", "setup_walls")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:14.6g} {metric['unit']}"
              + (f"   wall {wall[name]:.6g}" if name in wall else ""))
    if not args.trace:
        print(f"{'slowdown (reference task, median)':48s} {outcome['slowdown']:14.4f}")
    for name in ("rounds", "attempted", "failed"):
        print(f"{name:48s} {outcome[name]:14d}")
    result = {"correct": outcome["error_count"] == 0,
              "attempted": outcome["attempted"], "failed": outcome["failed"],
              "metrics": metrics}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
