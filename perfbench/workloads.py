"""Deterministic inputs for the three benchmark workloads.

Every input is drawn from ``random.Random`` seeded with the workload name,
the run seed and the round index, so a seed always gives the same inputs,
each round gets fresh ones, and every round has the same make-up whatever
the seed.  Nothing here imports the package under test.

An operation is a plain dict; ``known_fault`` marks the fixed ``solve``
queries that the large-dimension fault makes fail on every run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

#: Families at dense scale (N**n <= 81); every k in 1..n-1 is drawn.
DENSE_FAMILIES = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                  (3, 4), (4, 2), (4, 3), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2))
#: Families beyond dense scale.
MID_FAMILIES = ((2, 10), (2, 16), (2, 24), (3, 8), (3, 12), (4, 10), (5, 6),
                (6, 8), (10, 5))
#: Families with N**n near 2**62.
LARGE_FAMILIES = ((2, 61), (2, 62), (3, 39), (4, 31), (5, 27), (7, 22),
                  (8, 20), (16, 15))
#: Seed-drawn sweeps beyond dense scale keep x_inf(k) at or above this, so
#: every drawn root lies where the solver's absolute bracket still gives a
#: relative accuracy far below the check tolerance.
ROOT_FLOOR = 1e-3
#: One order per band, in increasing order; ``None`` stands for q = 1 exactly.
Q_BANDS = ((0.1, 0.9), None, (1.1, 10.0), (10.0, 1e3), (1e3, 1e4), (1e4, 1e6))
#: Sweeps per round: dense, mid and large families.
SWEEP_MIX = ((DENSE_FAMILIES, 4), (MID_FAMILIES, 3), (LARGE_FAMILIES, 3))
#: The fixed sweep whose roots (1e-6 down to 1.9e-9) sit below the solver's
#: absolute resolution; it is the same on every seed and every round.
FAULT_SWEEP = {"N": 2, "n": 30, "k": 29, "qs": (3.0, 10.0, 100.0, 1e3, 1e4, 1e6)}

#: The dense member certified alone (d = 729) and the mixed batch, from
#: d = 625 down to d = 27, whose dense work costs about the same.
CERTIFY_SINGLE = ((3, 6),)
CERTIFY_BATCH = ((5, 4), (2, 9), (2, 8), (4, 4), (3, 4), (2, 5), (3, 3))
#: Order bands of the certification grid; it straddles q = 1.
CERTIFY_Q_BANDS = ((0.2, 0.9), None, (1.2, 3.0), (3.0, 8.0), (8.0, 30.0))
#: Witness trials per batch, chosen so a batch costs about one member op.
WITNESS_TRIALS = 350

#: Families for ``qtsallis threshold`` and ``sweep``, which condition on
#: n - 1 parties: all have x_inf >= ROOT_FLOOR.
CLI_FAMILIES = ((2, 3), (2, 5), (2, 8), (2, 10), (3, 4), (3, 6), (4, 3),
                (5, 4), (10, 3), (31, 2))
#: Orders for single CLI queries (log-uniform).
CLI_Q_RANGE = (0.2, 1e4)
#: Orders for family entropies: up to q = 5 every value stays below 1e11.
#: Plain-decimal output of values from 1e15 up drops trailing zeros (see
#: CHANGES.md), which would fail on some seeds only.
CLI_ENTROPY_Q_RANGE = (0.2, 5.0)
SWEEP_POINTS = 6


def x_inf(levels: int, parties: int, k: int) -> Fraction:
    """Exact large-q bound when conditioning on k parties:
    (N**n - N**k) / (N**k (N**n - 1) - N**n (N**(k-1) - 1))."""
    N, n = levels, parties
    return Fraction(N**n - N**k, N**k * (N**n - 1) - N**n * (N**(k - 1) - 1))


def max_safe_k(levels: int, parties: int) -> int:
    """Largest k whose bound x_inf(k) stays at or above ROOT_FLOOR."""
    k = 1
    while k + 1 <= parties - 1 and x_inf(levels, parties, k + 1) >= ROOT_FLOOR:
        k += 1
    return k


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _orders(rng: random.Random, bands) -> list[float]:
    return [1.0 if band is None else _log_uniform(rng, *band) for band in bands]


def solve_round(seed: int, round_index: int) -> list[dict]:
    """66 single threshold queries: ten seed-drawn sweeps of six increasing
    orders, then the fixed fault sweep."""
    rng = _rng("solve", seed, round_index)
    ops = []
    sweep = 0
    for families, count in SWEEP_MIX:
        for _ in range(count):
            N, n = rng.choice(families)
            k_max = n - 1 if N**n <= 81 else max_safe_k(N, n)
            k = rng.randint(1, k_max)
            for q in _orders(rng, Q_BANDS):
                ops.append({"kind": "solve", "N": N, "n": n, "k": k, "q": q,
                            "sweep": sweep, "known_fault": False})
            sweep += 1
    for q in FAULT_SWEEP["qs"]:
        ops.append({"kind": "solve", "N": FAULT_SWEEP["N"], "n": FAULT_SWEEP["n"],
                    "k": FAULT_SWEEP["k"], "q": q, "sweep": sweep, "known_fault": True})
    return ops


def _mixing(rng: random.Random) -> float:
    return round(rng.uniform(0.05, 0.95), 6)


def certify_round(seed: int, round_index: int) -> list[dict]:
    """Three operations of similar cost: the d = 729 member, the mixed
    batch, and one batch of separable-witness trials."""
    rng = _rng("certify", seed, round_index)
    ops = []
    for group in (CERTIFY_SINGLE, CERTIFY_BATCH):
        members = [(N, n, _mixing(rng)) for N, n in group]
        ops.append({"kind": "member", "members": members,
                    "orders": _orders(rng, CERTIFY_Q_BANDS), "known_fault": False})
    ops.append({"kind": "witness", "trials": WITNESS_TRIALS,
                "seed": rng.randrange(2**31), "known_fault": False})
    return ops


def _num(value: float) -> str:
    return repr(float(value))


def cli_round(seed: int, round_index: int) -> list[dict]:
    """Ten commands: four threshold roots, one asymptotic threshold, two
    family entropies, one classical entropy and two six-point sweeps."""
    rng = _rng("cli", seed, round_index)
    ops = []

    def add(argv, **expect):
        ops.append({"kind": "cli", "argv": argv, "expect": expect, "known_fault": False})

    for _ in range(4):
        N, n = rng.choice(CLI_FAMILIES)
        q = _log_uniform(rng, *CLI_Q_RANGE)
        add(["threshold", "--N", str(N), "--n", str(n), "--q", _num(q)],
            check="threshold", N=N, n=n, k=n - 1, q=q)
    N, n = rng.choice(CLI_FAMILIES)
    add(["threshold", "--N", str(N), "--n", str(n), "--asymptotic"],
        check="asymptotic", N=N, n=n)
    for _ in range(2):
        N, n = rng.choice(CLI_FAMILIES)
        k = rng.randint(1, n - 1)
        x = _mixing(rng)
        q = _log_uniform(rng, *CLI_ENTROPY_Q_RANGE)
        add(["entropy", "--werner", f"{N},{n},{_num(x)}", "--q", _num(q),
             "--condition-on", str(k)],
            check="werner_entropy", N=N, n=n, k=k, x=x, q=q)
    weights = [rng.uniform(0.0, 1.0) for _ in range(rng.randint(2, 8))]
    total = math.fsum(weights)
    probs = [w / total for w in weights]
    q = _log_uniform(rng, 0.2, 20.0)
    add(["entropy", "--dist", ",".join(_num(p) for p in probs), "--q", _num(q)],
        check="dist_entropy", probs=probs, q=q)
    for output_format in ("csv", "json"):
        N, n = rng.choice(CLI_FAMILIES)
        q_min = _log_uniform(rng, 0.1, 1.0)
        q_max = _log_uniform(rng, 1e3, 1e5)
        add(["sweep", "--N", str(N), "--n", str(n), "--q-min", _num(q_min),
             "--q-max", _num(q_max), "--q-points", str(SWEEP_POINTS), "--log-scale",
             "--format", output_format],
            check="sweep", N=N, n=n, k=n - 1, format=output_format)
    return ops


ROUNDS = {"solve": solve_round, "certify": certify_round, "cli": cli_round}
