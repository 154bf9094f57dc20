"""Independent checks of the program's outputs, in mpmath at 60 digits.

Nothing here imports the package under test.  The references are the
paper's closed forms for rho(x) = (1 - x)/N**n I + x |GHZ><GHZ|:

    joint     (1 + (N**n - 1) x)/N**n  once,  (1 - x)/N**n  N**n - 1 times
    marginal  (1 + (N**(k-1) - 1) x)/N**k  N times,  (1 - x)/N**k  N**k - N times

(a single level 1/N of multiplicity N when k = 1).  The sign of the order-q
conditional entropy is the sign of the Renyi gap ln Tr rho_A**q -
ln Tr rho_AB**q for q > 1, its negative for q < 1, and the von Neumann
difference S(AB) - S(A) at q = 1.

Every check returns a list of problems; an empty list means the output
passed.  :func:`negative_controls` shows that each check rejects a wrong
answer.
"""

from __future__ import annotations

import json
import math
import re

import mpmath

from workloads import SWEEP_POINTS, x_inf

mpmath.mp.dps = 60

#: Relative half-width around x* across which the entropy must change sign.
ROOT_EPS = 1e-8
#: Relative tolerance on dense eigenvalues and on entropy values, scaled by
#: the size of the quantity (for an entropy: the size of its terms).
VALUE_TOL = 1e-9
#: The program's own floor for a nonnegative witness value.
NONNEG_FLOOR = -1e-12
#: Printed numbers carry 15 significant digits.
PRINT_TOL = 1e-14


def _spectra(N: int, n: int, k: int, x) -> tuple[list, list]:
    x = mpmath.mpf(x)
    d = mpmath.mpf(N) ** n
    joint = [((1 + (d - 1) * x) / d, 1), ((1 - x) / d, N**n - 1)]
    r = mpmath.mpf(N) ** k
    if k == 1:
        marginal = [(mpmath.mpf(1) / N, N)]
    else:
        marginal = [((1 + (mpmath.mpf(N) ** (k - 1) - 1) * x) / r, N),
                    ((1 - x) / r, N**k - N)]
    return joint, marginal


def _log_trace(levels, q):
    return mpmath.log(mpmath.fsum(m * mpmath.power(v, q) for v, m in levels if v > 0))


def _von_neumann(levels):
    return -mpmath.fsum(m * v * mpmath.log(v) for v, m in levels if v > 0)


def entropy_gap(N: int, n: int, k: int, q: float, x):
    """A quantity with the sign of the conditional entropy of the other
    parties given k of them."""
    joint, marginal = _spectra(N, n, k, x)
    if q == 1.0:
        return _von_neumann(joint) - _von_neumann(marginal)
    gap = _log_trace(marginal, q) - _log_trace(joint, q)
    return gap if q > 1.0 else -gap


def conditional_entropy(N: int, n: int, k: int, q: float, x):
    """Reference value of the conditional entropy and the size of its terms."""
    joint, marginal = _spectra(N, n, k, x)
    if q == 1.0:
        s_joint, s_marginal = _von_neumann(joint), _von_neumann(marginal)
        return s_joint - s_marginal, s_joint + s_marginal
    grown = mpmath.exp(_log_trace(joint, q) - _log_trace(marginal, q))
    return (grown - 1) / (1 - q), (grown + 1) / abs(1 - q)


def _close(value: float, ref, scale) -> bool:
    return math.isfinite(value) and abs(mpmath.mpf(value) - ref) <= VALUE_TOL * scale


def check_root(N: int, n: int, k: int, q: float, x_star) -> list[str]:
    """x* must be a root to within ROOT_EPS relative: the entropy is
    positive at x*(1 - eps) and negative at min(1, x*(1 + eps)).  It must
    also respect the large-q bound x_inf(k) to the same tolerance."""
    label = f"N={N},n={n},k={k},q={q!r}"
    if x_star is None:
        return [f"{label}: no sign change reported"]
    if not (isinstance(x_star, float) and 0.0 < x_star <= 1.0):
        return [f"{label}: x*={x_star!r} outside (0, 1]"]
    problems = []
    bound = float(x_inf(N, n, k))
    if x_star < bound * (1.0 - ROOT_EPS):
        problems.append(f"{label}: x*={x_star!r} below x_inf={bound!r}")
    x = mpmath.mpf(x_star)
    below = entropy_gap(N, n, k, q, x * (1 - ROOT_EPS))
    above = entropy_gap(N, n, k, q, min(mpmath.mpf(1), x * (1 + ROOT_EPS)))
    if not (below > 0 and above < 0):
        problems.append(
            f"{label}: x*={x_star!r} is not a root within {ROOT_EPS:g} "
            f"(entropy signs {int(mpmath.sign(below))}, {int(mpmath.sign(above))})")
    return problems


def check_monotone(points) -> list[str]:
    """x* must not rise with q across a sweep of (q, x*) pairs listed in
    increasing q; each x* is certified only to ROOT_EPS."""
    problems = []
    for (q0, x0), (q1, x1) in zip(points, points[1:]):
        if x1 > x0 * (1.0 + ROOT_EPS):
            problems.append(f"x* rose from {x0!r} at q={q0!r} to {x1!r} at q={q1!r}")
    return problems


# -- dense certification reports ------------------------------------------

_LEVEL = re.compile(r"^(joint_spectrum|marginal_spectrum\[m=(\d+)\])"
                    r"\[level=(\d+)\]\.(eigenvalue|multiplicity)$")
_BLOCK = re.compile(r"^conditional_entropy_block\[k=(\d+),q=([^\]]+)\]$")
_CLOSED = re.compile(r"^conditional_entropy_closed\[q=([^\]]+)\]$")


def _case(N: int, n: int, x: float) -> str:
    return f"N={N},n={n},x={x:g}"


def reference_levels(N: int, n: int, x: float, m: int | None) -> list:
    """Closed-form levels, descending: the joint state when m is None,
    else the marginal on m parties."""
    joint, marginal = _spectra(N, n, n - 1 if m is None else m, x)
    return joint if m is None else marginal


def check_family_rows(members, orders, rows) -> list[str]:
    """Every row passes; every eigenvalue, multiplicity and conditional
    entropy, on the oracle side and the closed-form side, matches the
    references; every required row is present."""
    by_case = {_case(N, n, x): (N, n, x) for N, n, x in members}
    by_order = {f"{q:g}": q for q in orders}
    problems: list[str] = []
    seen = set()
    entropy_cache: dict = {}
    for case, quantity, closed, oracle, passed in rows:
        where = f"{case} {quantity}"
        if not passed:
            problems.append(f"{where}: row failed in the report")
        if case not in by_case:
            problems.append(f"{where}: unknown case")
            continue
        N, n, x = by_case[case]
        level = _LEVEL.match(quantity)
        block = _BLOCK.match(quantity)
        closed_row = _CLOSED.match(quantity)
        if level:
            m = None if level.group(2) is None else int(level.group(2))
            idx = int(level.group(3))
            levels = reference_levels(N, n, x, m)
            seen.add((case, m, idx, level.group(4)))
            if idx >= len(levels):
                problems.append(f"{where}: no such level in the closed form")
                continue
            value, mult = levels[idx]
            if level.group(4) == "multiplicity":
                if closed != mult or oracle != mult:
                    problems.append(f"{where}: multiplicity {closed!r}/{oracle!r}, "
                                    f"expected {mult}")
            elif not (_close(closed, value, value) and _close(oracle, value, value)):
                problems.append(f"{where}: eigenvalue {closed!r}/{oracle!r}, "
                                f"expected {mpmath.nstr(value, 17)}")
        elif block or closed_row:
            q_text = (block or closed_row).group(2 if block else 1)
            k = int(block.group(1)) if block else n - 1
            if q_text not in by_order:
                problems.append(f"{where}: unknown order")
                continue
            q = by_order[q_text]
            if block:
                seen.add((case, "block", k, q_text))
            key = (case, k, q_text)
            if key not in entropy_cache:
                entropy_cache[key] = conditional_entropy(N, n, k, q, x)
            value, scale = entropy_cache[key]
            if not (_close(closed, value, scale) and _close(oracle, value, scale)):
                problems.append(f"{where}: entropy {closed!r}/{oracle!r}, "
                                f"expected {mpmath.nstr(value, 17)}")
    for N, n, x in members:
        case = _case(N, n, x)
        required = set()
        for m in [None, *range(1, n)]:
            for idx in range(len(reference_levels(N, n, x, m))):
                required |= {(case, m, idx, "eigenvalue"), (case, m, idx, "multiplicity")}
        required |= {(case, "block", k, q_text) for k in range(1, n) for q_text in by_order}
        missing = required - seen
        if missing:
            problems.append(f"{case}: {len(missing)} required rows missing")
    return problems


def check_witness_rows(trials: int, rows) -> list[str]:
    """Every row passes; the direct and ratio forms agree and are
    nonnegative; every trial is reported."""
    problems: list[str] = []
    seen = set()
    pairs = nonneg = 0
    for case, quantity, closed, oracle, passed in rows:
        where = f"{case} {quantity}"
        if not passed:
            problems.append(f"{where}: row failed in the report")
        match = re.match(r"^trial=(\d+),", case)
        if match:
            seen.add(int(match.group(1)))
        if quantity.startswith("separable_conditional["):
            pairs += 1
            scale = max(1.0, abs(closed), abs(oracle))
            if not (math.isfinite(closed) and abs(closed - oracle) <= VALUE_TOL * scale):
                problems.append(f"{where}: direct {closed!r} against ratio {oracle!r}")
            if not closed >= NONNEG_FLOOR:
                problems.append(f"{where}: negative conditional entropy {closed!r}")
        elif quantity.startswith("nonnegative["):
            nonneg += 1
    if seen != set(range(trials)):
        problems.append(f"{len(set(range(trials)) - seen)} of {trials} trials not reported")
    if pairs < trials or pairs != nonneg:
        problems.append(f"{pairs} agreement rows and {nonneg} sign rows for {trials} trials")
    return problems


# -- command-line outputs ---------------------------------------------------

def _parse_sweep(stdout: str, output_format: str) -> list[tuple[float, float | None, bool]]:
    if output_format == "json":
        return [(float(r["q"]), None if r["x_star"] is None else float(r["x_star"]),
                 r["converged"] is True) for r in json.loads(stdout)]
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "q,x_star,converged":
        raise ValueError("missing CSV header")
    points = []
    for line in lines[1:]:
        q_text, x_text, conv = line.split(",")
        points.append((float(q_text), float(x_text) if x_text else None, conv == "true"))
    return points


def check_cli(expect: dict, returncode: int, stdout: str) -> list[str]:
    """Parse one command's standard output and apply the checks above."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    kind = expect["check"]
    try:
        if kind == "sweep":
            points = _parse_sweep(stdout, expect["format"])
        else:
            text = stdout.strip()
            value = None if text == "none" else float(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable output {stdout[:80]!r}: {exc}"]
    if kind == "threshold":
        return check_root(expect["N"], expect["n"], expect["k"], expect["q"], value)
    if kind == "asymptotic":
        ref = float(x_inf(expect["N"], expect["n"], expect["n"] - 1))
        if value is None or abs(value - ref) > PRINT_TOL * ref:
            return [f"asymptotic threshold {value!r}, expected {ref!r}"]
        return []
    if kind == "werner_entropy":
        ref, scale = conditional_entropy(expect["N"], expect["n"], expect["k"],
                                         expect["q"], expect["x"])
        if value is None or not _close(value, ref, scale):
            return [f"entropy {value!r}, expected {mpmath.nstr(ref, 17)}"]
        return []
    if kind == "dist_entropy":
        q = expect["q"]
        power_sum = mpmath.fsum(mpmath.power(mpmath.mpf(p), q) for p in expect["probs"] if p > 0)
        ref, scale = (power_sum - 1) / (1 - q), (power_sum + 1) / abs(1 - q)
        if value is None or not _close(value, ref, scale):
            return [f"entropy {value!r}, expected {mpmath.nstr(ref, 17)}"]
        return []
    if kind == "sweep":
        return check_sweep(expect, points)
    return [f"unknown check {kind!r}"]


def check_sweep(expect: dict, points) -> list[str]:
    problems = []
    if len(points) != SWEEP_POINTS:
        problems.append(f"{len(points)} sweep rows, expected {SWEEP_POINTS}")
    for q, x_star, converged in points:
        if not converged:
            problems.append(f"q={q!r}: not converged")
        problems += check_root(expect["N"], expect["n"], expect["k"], q, x_star)
    problems += check_monotone([(q, x) for q, x, _ in points if x is not None])
    return problems


# -- negative controls --------------------------------------------------------

def _reference_rows(members, orders) -> list[tuple]:
    """Report rows as a correct program would produce them."""
    rows = []
    for N, n, x in members:
        case = _case(N, n, x)
        for m in [None, *range(1, n)]:
            label = "joint_spectrum" if m is None else f"marginal_spectrum[m={m}]"
            for idx, (value, mult) in enumerate(reference_levels(N, n, x, m)):
                rows.append((case, f"{label}[level={idx}].eigenvalue",
                             float(value), float(value), True))
                rows.append((case, f"{label}[level={idx}].multiplicity",
                             float(mult), float(mult), True))
        for q in orders:
            for k in range(1, n):
                value = float(conditional_entropy(N, n, k, q, x)[0])
                rows.append((case, f"conditional_entropy_block[k={k},q={q:g}]",
                             value, value, True))
    return rows


def _altered(rows, index: int, factor: float = 1.0 + 1e-6) -> list[tuple]:
    case, quantity, closed, oracle, passed = rows[index]
    out = list(rows)
    out[index] = (case, quantity, closed, oracle * factor, passed)
    return out


def negative_controls() -> list[str]:
    """Feed each check a right answer and a slightly wrong one; return the
    names of controls where a check accepted the wrong answer or rejected
    the right one."""
    failures = []

    def expect(name: str, problems: list[str], should_reject: bool) -> None:
        if bool(problems) != should_reject:
            failures.append(f"{name}: {'accepted' if should_reject else 'rejected'} "
                            f"({problems[:1]})")

    root = 1.0 / math.sqrt(5.0)  # N=2, n=3, k=2, q=2: equal purities
    expect("exact root", check_root(2, 3, 2, 2.0, root), False)
    expect("root raised by 1e-6", check_root(2, 3, 2, 2.0, root * (1 + 1e-6)), True)
    expect("root lowered by 1e-6", check_root(2, 3, 2, 2.0, root * (1 - 1e-6)), True)
    expect("root below x_inf", check_root(2, 30, 29, 1e4, 1.0000565476198466e-09), True)
    expect("no root", check_root(2, 3, 2, 2.0, None), True)
    expect("falling sweep", check_monotone([(1.0, 0.5), (2.0, 0.4)]), False)
    expect("rising sweep", check_monotone([(1.0, 0.5), (2.0, 0.5 * (1 + 1e-6))]), True)

    members, orders = [(2, 3, 0.4), (3, 2, 0.7)], (0.5, 1.0, 2.0)
    rows = _reference_rows(members, orders)
    expect("exact report", check_family_rows(members, orders, rows), False)
    eigen = next(i for i, r in enumerate(rows) if r[1].endswith("].eigenvalue"))
    mult = next(i for i, r in enumerate(rows) if r[1].endswith("multiplicity")
                and r[3] > 1)
    entropy = next(i for i, r in enumerate(rows) if r[1].startswith("conditional"))
    expect("eigenvalue altered", check_family_rows(members, orders, _altered(rows, eigen)), True)
    expect("multiplicity altered",
           check_family_rows(members, orders, _altered(rows, mult, 2.0)), True)
    expect("entropy altered",
           check_family_rows(members, orders, _altered(rows, entropy)), True)
    expect("row missing", check_family_rows(members, orders, rows[1:]), True)
    failed_row = [rows[0][:4] + (False,)] + rows[1:]
    expect("row marked failed", check_family_rows(members, orders, failed_row), True)

    witness = [("trial=0,dims=2x2,terms=1", "separable_conditional[q=2]", 0.3, 0.3, True),
               ("trial=0,dims=2x2,terms=1", "nonnegative[q=2]", 0.3, 0.0, True)]
    expect("exact witness", check_witness_rows(1, witness), False)
    expect("witness altered", check_witness_rows(1, _altered(witness, 0)), True)

    threshold = {"check": "threshold", "N": 2, "n": 3, "k": 2, "q": 2.0}
    expect("cli root", check_cli(threshold, 0, f"{root:.15g}\n"), False)
    expect("cli root altered", check_cli(threshold, 0, f"{root * (1 + 1e-6):.15g}\n"), True)
    expect("cli exit code", check_cli(threshold, 1, f"{root:.15g}\n"), True)
    entropy_expect = {"check": "werner_entropy", "N": 2, "n": 3, "k": 2, "q": 2.0, "x": 0.4}
    value = float(conditional_entropy(2, 3, 2, 2.0, 0.4)[0])
    expect("cli entropy", check_cli(entropy_expect, 0, f"{value:.15g}\n"), False)
    expect("cli entropy altered",
           check_cli(entropy_expect, 0, f"{value * (1 + 1e-6):.15g}\n"), True)
    return failures
