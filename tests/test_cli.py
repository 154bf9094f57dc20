"""Command-line interface: formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsallis import oracle, solver
from qtsallis.cli import format_scalar, main
from helpers import mp_threshold


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- number formatting ---------------------------------------------------

@pytest.mark.parametrize("value,text", [
    (0.5, "0.5"),
    (0.2, "0.2"),
    (1 / 3, "0.333333333333333"),
    (0.0, "0"),
    (-1.0, "-1"),
    (10000.0, "10000"),
    (1e16, "10000000000000000"),
    (1.5e15, "1500000000000000"),
    (-5.16041443326932e15, "-5160414433269320"),
])
def test_format_scalar(value, text):
    assert format_scalar(value) == text


def test_format_scalar_small_magnitude_stays_decimal():
    text = format_scalar(1.25e-6)
    assert "e" not in text and "E" not in text
    assert float(text) == pytest.approx(1.25e-6, rel=1e-12)


def test_format_scalar_sci_flag():
    assert "e" in format_scalar(1.25e-6, sci=True)


# -- entropy command -----------------------------------------------------

def test_entropy_dist(capsys):
    code, out, _ = run(capsys, ["entropy", "--dist", "0.5,0.5", "--q", "2"])
    assert code == 0
    assert out == "0.5\n"


def test_entropy_werner_maximally_mixed(capsys):
    code, out, _ = run(capsys, ["entropy", "--werner", "2,3,0", "--q", "2"])
    assert code == 0
    assert out == "0.5\n"


def test_entropy_werner_entangled_point(capsys):
    code, out, _ = run(capsys, ["entropy", "--werner", "2,3,1", "--q", "2",
                                "--condition-on", "2"])
    assert code == 0
    # pure GHZ given two qubits: literal closed form at x=1, q=2
    # numerator 7*0**2 + 1**2 = 1, denominator 2*0**2 + 2*0.5**2 = 0.5
    expected = (1.0 / 0.5 - 1.0) / (1.0 - 2.0)
    assert float(out) == pytest.approx(expected, abs=1e-12)
    assert float(out) < 0


def test_entropy_domain_error_exits_one(capsys):
    code, _, err = run(capsys, ["entropy", "--dist", "0.5,0.6", "--q", "2"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("coordinates", ["2.9,3.7,0.4", "2,3.5,0.4", "nan,3,0.4"])
def test_entropy_non_integral_counts_exit_one(capsys, coordinates):
    code, out, err = run(capsys, ["entropy", "--werner", coordinates, "--q", "2"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "must be an integer" in err


def test_entropy_integral_float_counts_accepted(capsys):
    _, plain, _ = run(capsys, ["entropy", "--werner", "2,3,0.4", "--q", "2"])
    code, out, _ = run(capsys, ["entropy", "--werner", "2.0,3.0,0.4", "--q", "2"])
    assert code == 0
    assert out == plain


def test_entropy_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--q", "2"])  # neither --dist nor --werner
    assert exc.value.code == 2


def test_entropy_condition_on_requires_werner(capsys):
    code, _, err = run(capsys, ["entropy", "--dist", "0.5,0.5", "--q", "2",
                                "--condition-on", "1"])
    assert code == 2
    assert "condition-on" in err


# -- threshold command ---------------------------------------------------

def test_threshold_asymptotic_tripartite(capsys):
    code, out, _ = run(capsys, ["threshold", "--N", "2", "--n", "3", "--asymptotic"])
    assert code == 0
    assert out == "0.2\n"


def test_threshold_asymptotic_two_party(capsys):
    code, out, _ = run(capsys, ["threshold", "--N", "2", "--n", "2", "--asymptotic"])
    assert code == 0
    assert out == "0.333333333333333\n"


def test_threshold_asymptotic_beyond_capacity_exits_one(capsys):
    code, out, err = run(capsys, ["threshold", "--N", "2", "--n", "100", "--asymptotic"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("which", [["--q", "2"], ["--asymptotic"]])
def test_threshold_of_an_oversized_family_exits_one_at_once(capsys, which):
    start = time.perf_counter()
    code, out, err = run(capsys, ["threshold", "--N", "3", "--n", "100000000", *which])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_threshold_large_q(capsys):
    code, out, _ = run(capsys, ["threshold", "--N", "2", "--n", "3", "--q", "10000"])
    assert code == 0
    assert float(out) == pytest.approx(0.2, abs=1e-3)


def test_threshold_at_huge_q_is_the_large_q_bound(capsys):
    # at q = 1e16 rounding leaves the gap one sign over [x_inf, 1]: the root is x_inf
    assert run(capsys, ["threshold", "--N", "2", "--n", "3", "--q", "1e16"]) == (0, "0.2\n", "")


def test_threshold_repeat_is_byte_identical(capsys):
    _, first, _ = run(capsys, ["threshold", "--N", "2", "--n", "3", "--q", "7"])
    _, second, _ = run(capsys, ["threshold", "--N", "2", "--n", "3", "--q", "7"])
    assert first == second


# -- sweep command -------------------------------------------------------

def test_sweep_csv_schema_and_monotone(capsys):
    code, out, err = run(capsys, ["sweep", "--N", "2", "--n", "3",
                                  "--q-min", "1", "--q-max", "2",
                                  "--q-points", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,x_star,converged"
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) >= float(rows[1][1])
    assert all(row[2] == "true" for row in rows)
    assert err == ""  # no monotonicity diagnostics


def test_sweep_json_format(capsys):
    code, out, _ = run(capsys, ["sweep", "--N", "2", "--n", "2",
                                "--q-min", "0.5", "--q-max", "100",
                                "--q-points", "5", "--log-scale",
                                "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [set(row) for row in rows] == [{"q", "x_star", "converged"}] * 5
    assert rows[-1]["x_star"] == pytest.approx(1 / 3, abs=5e-3)


def test_sweep_converged_below_dense_scale(capsys):
    code, out, _ = run(capsys, ["sweep", "--N", "2", "--n", "40",
                                "--q-min", "3", "--q-max", "1e6",
                                "--q-points", "4", "--log-scale"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 4
    assert all(row[2] == "true" for row in rows)
    with mpmath.workdps(50):
        for q, x_star, _ in rows:
            expected = float(mp_threshold(2, 40, 39, float(q)))
            assert float(x_star) == pytest.approx(expected, rel=1e-12, abs=0)


def test_sweep_to_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run(capsys, ["sweep", "--N", "2", "--n", "3",
                                "--q-min", "1", "--q-max", "4",
                                "--q-points", "3", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("q,x_star,converged\n")


def test_sweep_unwritable_out_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "curve.csv"
    code, out, err = run(capsys, ["sweep", "--N", "2", "--n", "3", "--q-min", "1",
                                  "--q-max", "4", "--q-points", "3", "--out", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and str(target) in err and "Traceback" not in err


def test_sweep_invalid_spec_exits_one(capsys):
    code, _, err = run(capsys, ["sweep", "--N", "2", "--n", "3",
                                "--q-min", "5", "--q-max", "1",
                                "--q-points", "3"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("extra", [["--q-min", "0", "--log-scale", "--q-points", "3"],
                                   ["--q-min", "1", "--q-points", "1"],
                                   ["--q-min", "5", "--q-points", "3"],
                                   ["--q-min", "1", "--q-max", "0", "--log-scale",
                                    "--q-points", "3"]])
def test_sweep_bad_grid_exits_one(capsys, extra):
    code, out, err = run(capsys, ["sweep", "--N", "2", "--n", "3", "--q-max", "4", *extra])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def sweep_orders(q_min, q_max, count, log_scale):
    """The orders ``qtsallis sweep --format json`` prints for this grid."""
    argv = ["sweep", "--N", "2", "--n", "3", "--q-min", repr(q_min), "--q-max", repr(q_max),
            "--q-points", str(count), "--format", "json", *(["--log-scale"] if log_scale else [])]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return [row["q"] for row in json.loads(out.getvalue())]


# Ends in (0, 1e6] at least 0.1 % apart, so even 50 points stay distinct floats.
grid_ends = st.tuples(st.floats(1e-3, 1e6), st.floats(1e-3, 1e6)).map(sorted).filter(
    lambda ends: ends[1] >= ends[0] * 1.001)


@settings(max_examples=40, deadline=None)
@given(grid_ends, st.integers(2, 50), st.booleans())
def test_sweep_grid_ends_exact_and_increasing(ends, count, log_scale):
    qs = sweep_orders(*ends, count, log_scale)
    assert len(qs) == count
    assert (qs[0], qs[-1]) == tuple(ends)
    assert all(b > a for a, b in zip(qs, qs[1:]))


@settings(max_examples=40, deadline=None)
@given(grid_ends, st.integers(2, 50))
def test_sweep_linear_grid_is_numpy_linspace(ends, count):
    assert sweep_orders(*ends, count, False) == np.linspace(*ends, count).tolist()


@settings(max_examples=40, deadline=None)
@given(grid_ends, st.integers(2, 50))
def test_sweep_log_grid_is_numpy_geomspace_to_its_exponent(ends, count):
    """Each inner order is 10**y, with y off by a few ulps of the largest
    |log10 q| (numpy's log10 and libm's may round an ulp apart), which
    10**y scales by ln 10; so the grid matches np.geomspace and the exact
    geometric points to that many ulps of y, not of q."""
    y_ulp = math.log(10) * math.ulp(max(abs(math.log10(end)) for end in ends)) + 2**-52
    qs = sweep_orders(*ends, count, True)
    for q, reference in zip(qs, np.geomspace(*ends, count).tolist()):
        assert abs(q - reference) <= 8 * y_ulp * reference
    with mpmath.workdps(30):
        ratio = mpmath.mpf(ends[1]) / ends[0]
        for i, q in enumerate(qs):
            exact = ends[0] * ratio ** (mpmath.mpf(i) / (count - 1))
            assert abs(q - exact) <= 4 * y_ulp * exact


def test_sweep_rise_exits_one(capsys, monkeypatch):
    def rising(levels, parties, q):  # a boundary that grows with q
        return solver.ThresholdPoint(q, 0.01 * q, 0.0)

    monkeypatch.setattr(solver, "threshold_for_q", rising)
    code, out, err = run(capsys, ["sweep", "--N", "2", "--n", "3", "--q-min", "1",
                                  "--q-max", "4", "--q-points", "3"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: boundary rose") and "Traceback" not in err


# -- verify command ------------------------------------------------------

def test_verify_restricted_grid(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "--seed", "42", "--max-dim", "8",
                                "--json", str(target)])
    assert code == 0
    assert out == ""
    rows = json.loads(target.read_text())
    assert all(set(row) == {"case", "quantity", "closed_form", "oracle",
                            "abs_dev", "pass"} for row in rows)
    assert all(row["pass"] for row in rows)


def test_verify_unwritable_json_exits_one(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the suite ran before the report path was opened")

    monkeypatch.setattr(oracle, "verify_family", never)
    monkeypatch.setattr(oracle, "verify_separable_witness", never)
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, ["verify", "--seed", "42", "--max-dim", "8",
                                  "--json", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and str(target) in err and "Traceback" not in err


def test_verify_negative_seed_exits_one_before_the_suite(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the family suite ran before the seed was checked")

    monkeypatch.setattr(oracle, "verify_family", never)
    code, out, err = run(capsys, ["verify", "--seed", "-1", "--max-dim", "8"])
    assert code == 1
    assert out == ""
    assert err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("max_dim", ["3", "0", "-5"])
def test_verify_empty_grid_exits_one(capsys, max_dim):
    code, out, err = run(capsys, ["verify", "--max-dim", max_dim])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
