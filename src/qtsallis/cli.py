"""Command-line front end.

Subcommands: ``entropy`` (classical or family conditional entropy),
``threshold`` (boundary point or exact large-q limit), ``sweep``
(boundary curve over a grid of orders, CSV or JSON), and ``verify``
(dense-oracle certification suite).  Data goes to stdout, errors and
diagnostics to stderr; exit codes are 0 on success, 1 on domain errors or
failed verification, 2 on usage errors.  Only ``verify`` imports numpy,
and only the commands that write JSON import ``json``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from ._index import _entropy_of, _order, _probabilities
from .errors import QTsallisError, ValidationError
from .solver import asymptotic_threshold, threshold_curve, threshold_for_q
from .werner import WernerParams, conditional_entropy_block


def format_scalar(value: float, sci: bool = False) -> str:
    """Render with 15 significant digits.

    Plain decimal notation is used even for small and large magnitudes
    unless ``sci`` is set; the decimal separator is always '.'.
    """
    if not math.isfinite(value):
        return str(value)
    if value == 0.0:
        return "0"
    text = f"{value:.15g}"
    if "e" not in text or sci:
        return text
    # Exponent form means below 1e-4 or from 1e15 up: every significant
    # digit lies on one side of the decimal point.
    mantissa, exponent = f"{abs(value):.15g}".split("e")
    digits, point = mantissa.replace(".", ""), int(exponent) + 1
    text = digits.ljust(point, "0") if point > 0 else f"0.{'0' * -point}{digits}"
    return "-" + text if value < 0 else text


def _parse_floats(text: str, count: int | None = None) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"could not parse {text!r} as comma-separated numbers") from exc
    if count is not None and len(values) != count:
        raise ValidationError(f"expected {count} comma-separated values, got {len(values)}")
    return values


def _output(path: str | None):
    """The file at ``path``, opened for writing, or stdout when no path is
    given; an unwritable path fails here."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _cmd_entropy(args) -> int:
    if args.condition_on is not None and args.werner is None:
        print("error: --condition-on requires --werner", file=sys.stderr)
        return 2
    if args.dist is not None:
        value = _entropy_of(_probabilities(_parse_floats(args.dist)), _order(args.q))
    else:
        params = WernerParams(*_parse_floats(args.werner, 3))
        value = conditional_entropy_block(params, args.condition_on, args.q)
    print(format_scalar(value, args.sci))
    return 0


def _cmd_threshold(args) -> int:
    if args.asymptotic:
        print(format_scalar(asymptotic_threshold(args.N, args.n), args.sci))
        return 0
    point = threshold_for_q(args.N, args.n, args.q)
    print(format_scalar(point.x_star, args.sci))
    return 0


def _q_grid(q_min: float, q_max: float, count: int, log_scale: bool) -> list[float]:
    """``count`` orders from ``q_min`` to ``q_max``, ends exact, by the formula
    of numpy's ``linspace`` in q, or of its ``geomspace`` in log10 q."""
    low, high = (math.log10(q_min), math.log10(q_max)) if log_scale else (q_min, q_max)
    step = (high - low) / (count - 1)
    inner = (i * step + low for i in range(1, count - 1))
    return [q_min, *(10.0 ** y if log_scale else y for y in inner), q_max]


def _cmd_sweep(args) -> int:
    # Positive ends and two or more points define the grid; threshold_curve checks the rest.
    q_min, q_max = (_order(q) for q in (args.q_min, args.q_max))
    if args.q_points < 2:
        raise ValidationError("need at least two grid points")
    grid = _q_grid(q_min, q_max, args.q_points, args.log_scale)
    points = threshold_curve(args.N, args.n, grid)

    # The solver locates every root, its bracket at most ROOT_RTOL wide.
    if args.format == "csv":
        lines = ["q,x_star,converged"]
        for point in points:
            lines.append(f"{format_scalar(point.q, args.sci)},"
                         f"{format_scalar(point.x_star, args.sci)},true")
        text = "\n".join(lines) + "\n"
    else:
        import json
        payload = [{"q": point.q, "x_star": point.x_star, "converged": True}
                   for point in points]
        text = json.dumps(payload, indent=2) + "\n"
    with _output(args.out) as handle:
        handle.write(text)
    return 0


def _cmd_verify(args) -> int:
    import json

    from . import oracle
    grid = oracle.default_family_grid(args.max_dim)
    if not grid:
        raise ValidationError(f"no family member has total dimension at most {args.max_dim}")
    with _output(args.json) as handle:  # opened first: a bad path costs no verification
        witness = oracle.verify_separable_witness(1000, args.seed)  # a bad seed fails first
        family = oracle.verify_family(grid, oracle.default_order_grid())
        handle.write(json.dumps(family.to_json_obj() + witness.to_json_obj(), indent=2) + "\n")
    return 0 if family.passed and witness.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtsallis",
        description="Nonadditive entropies and entanglement thresholds for "
                    "GHZ-diluted mixed states.")
    sub = parser.add_subparsers(dest="command", required=True)

    entropy = sub.add_parser("entropy", help="classical or family conditional entropy")
    source = entropy.add_mutually_exclusive_group(required=True)
    source.add_argument("--dist", help="comma-separated probabilities")
    source.add_argument("--werner", help="family coordinates as N,n,x")
    entropy.add_argument("--q", type=float, required=True, help="entropy order")
    entropy.add_argument("--condition-on", type=int, default=None,
                         help="number of conditioned parties (default n-1)")
    entropy.add_argument("--sci", action="store_true", help="allow scientific notation")
    entropy.set_defaults(func=_cmd_entropy)

    threshold = sub.add_parser("threshold", help="boundary point of the family")
    threshold.add_argument("--N", type=int, required=True, help="levels per party")
    threshold.add_argument("--n", type=int, required=True, help="number of parties")
    which = threshold.add_mutually_exclusive_group(required=True)
    which.add_argument("--q", type=float, help="entropy order to solve at")
    which.add_argument("--asymptotic", action="store_true",
                       help="print the exact large-q limit instead")
    threshold.add_argument("--sci", action="store_true", help="allow scientific notation")
    threshold.set_defaults(func=_cmd_threshold)

    sweep = sub.add_parser("sweep", help="boundary curve over a grid of orders")
    sweep.add_argument("--N", type=int, required=True, help="levels per party")
    sweep.add_argument("--n", type=int, required=True, help="number of parties")
    sweep.add_argument("--q-min", type=float, required=True)
    sweep.add_argument("--q-max", type=float, required=True)
    sweep.add_argument("--q-points", type=int, required=True)
    sweep.add_argument("--log-scale", action="store_true",
                       help="space the grid geometrically")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default=None, help="output file (default stdout)")
    sweep.add_argument("--sci", action="store_true", help="allow scientific notation")
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify", help="dense-oracle certification suite")
    verify.add_argument("--seed", type=int, default=42,
                        help="seed for the random witness suite")
    verify.add_argument("--max-dim", type=int, default=4096,
                        help="restrict the family grid to this total dimension")
    verify.add_argument("--json", default=None, help="write the report to this file")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QTsallisError, OSError) as exc:  # OSError: an unwritable --out or --json
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
