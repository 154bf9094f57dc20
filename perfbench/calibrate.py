"""Reference tasks that time the machine, so that timings can be scaled to
one nominal machine speed.

The benchmark runs on a few vCPUs of a shared host.  How fast the same
code runs there drifts by up to 1.5x, in phases from seconds to many
minutes, and code with a large footprint (the interpreter running many
different paths, dense linear algebra, a fresh process) drifts far more
than a tight loop does.  So each workload is paired with a fixed task of
the same kind that does not touch qtsallis:

- ``interpreter``: high-precision arithmetic in mpmath, which is pure
  Python spread over many functions, like the solver's scan and bisection;
- ``dense``: one ``eigvalsh`` of a fixed 300 x 300 matrix plus the
  interpreter task, like a mix of dense members and witness trials;
- ``process``: a fresh ``python3 -c "import numpy"``, like a CLI command
  or a set-up.

The task is timed between operations, outside every timed interval.  An
operation's local speed is the median of the task's samples nearest to it
in time, over the task's nominal time (its median on the reference
machine, see README.md).  A timing divided by that ratio is what it would
have been at the nominal speed.  A change to qtsallis moves the operation
and not the task, so it shows in full.
"""

from __future__ import annotations

import bisect
import functools
import statistics
import subprocess
import sys
import time

import mpmath
import numpy as np

#: Median seconds of each task on the reference machine (README.md).
NOMINAL_S = {"interpreter": 0.0030, "dense": 0.0085, "process": 0.190}
#: The task of each workload.  The machine's speed changes within a
#: second, so a sample follows every operation.
TASKS = {"solve": "interpreter", "certify": "dense", "cli": "process"}
#: Samples, nearest in time to an operation, whose median gives its speed.
WINDOW = 3


def _interpreter_task() -> None:
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for i in range(1, 80):
            total += mpmath.log(1 + mpmath.mpf(i) / 7) ** mpmath.mpf(2.5)


@functools.cache
def _matrix() -> np.ndarray:
    matrix = np.random.default_rng(20010413).standard_normal((300, 300))
    return matrix + matrix.T


def _dense_task() -> None:
    np.linalg.eigvalsh(_matrix())
    _interpreter_task()


class Calibrator:
    """Samples one reference task over a run and scales timings by it."""

    def __init__(self, task: str, root=None, env=None, window: int = WINDOW):
        self.task, self.window = task, window
        self.nominal = NOMINAL_S[task]
        self.root, self.env = root, env
        self.times: list[float] = []
        self.seconds: list[float] = []

    @classmethod
    def for_workload(cls, workload: str, root=None, env=None) -> "Calibrator":
        return cls(TASKS[workload], root, env)

    def _run(self) -> None:
        if self.task == "interpreter":
            _interpreter_task()
        elif self.task == "dense":
            _dense_task()
        else:
            proc = subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.root,
                                  env=self.env, timeout=60)
            if proc.returncode != 0:
                raise RuntimeError(f"calibration process exited with {proc.returncode}")

    def warm_up(self) -> None:
        """Run the task once, unrecorded, so that caches are filled."""
        self._run()

    def sample(self) -> None:
        start = time.perf_counter()
        self._run()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)

    def slowdown_at(self, when: float) -> float:
        """Local time of the task over its nominal time, around ``when``."""
        i = bisect.bisect_left(self.times, when)
        lo, hi = max(0, i - self.window), min(len(self.times), i + self.window)
        nearest = sorted(range(lo, hi), key=lambda j: abs(self.times[j] - when))[:self.window]
        return statistics.median(self.seconds[j] for j in nearest) / self.nominal

    def scale(self, samples: list[tuple[float, float]]) -> list[float]:
        """Each (time, seconds) sample at the nominal speed."""
        return [seconds / self.slowdown_at(when) for when, seconds in samples]
