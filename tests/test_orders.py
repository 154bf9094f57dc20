"""One order check at the public surface: every public function that takes
an entropic index refuses a bad one with the same message, and reads a
numpy float and its float alike."""

import math
import re

import numpy as np
import pytest

from qtsallis import (JointDist, Spectrum, ValidationError, WernerParams,
                      compose_pseudoadditive, conditional_entropy_block,
                      conditional_entropy_def, conditional_entropy_ratio, escort,
                      q_expectation, quantum_conditional, quantum_tsallis, threshold_curve,
                      threshold_for_q, tripartite_chain, tsallis_entropy, verify_family)
from qtsallis.cli import main

BAD_ORDERS = (0, -1.0, math.nan, math.inf, 1e308)
ORDER_MESSAGE = "entropic index must lie in (0, 1e300]"
ORDER_PATTERN = re.escape(ORDER_MESSAGE)
#: Both sides of 1, the limit point and an order right next to it, and large q.
ORDERS = (0.3, 1.0, 1.0 + 1e-10, 2.0, 50.0)

_P = np.array([0.1, 0.2, 0.0, 0.3, 0.4])
_RNG = np.random.default_rng(5)
_PAIR = JointDist((3, 4), _RNG.dirichlet(np.ones(12)))
_TRIPLE = JointDist((2, 3, 2), _RNG.dirichlet(np.ones(12)))
_JOINT = Spectrum(((0.5, 1), (0.25, 2)))
_MARGINAL = Spectrum(((0.5, 2),))
_MEMBER = WernerParams(2, 3, 0.4)

#: Every public function that takes an order, as a call on q.
PUBLIC_CALLS = {
    "tsallis_entropy": lambda q: tsallis_entropy(_P, q),
    "escort": lambda q: escort(_P, q).p.tolist(),
    "q_expectation": lambda q: q_expectation(np.arange(5.0), _P, q),
    "conditional_entropy_def": lambda q: conditional_entropy_def(_PAIR, q),
    "conditional_entropy_ratio": lambda q: conditional_entropy_ratio(_PAIR, q),
    "compose_pseudoadditive": lambda q: compose_pseudoadditive(0.3, 0.4, q),
    "tripartite_chain": lambda q: tripartite_chain(_TRIPLE, q),
    "quantum_tsallis": lambda q: quantum_tsallis(_JOINT, q),
    "quantum_conditional": lambda q: quantum_conditional(_JOINT, _MARGINAL, q),
    "conditional_entropy_block": lambda q: conditional_entropy_block(_MEMBER, 1, q),
    "threshold_for_q": lambda q: threshold_for_q(2, 3, q),
    "threshold_curve": lambda q: threshold_curve(2, 3, [q]),
    "verify_family": lambda q: verify_family([_MEMBER], [q]),
}


@pytest.mark.parametrize("name", PUBLIC_CALLS)
@pytest.mark.parametrize("q", BAD_ORDERS, ids=repr)
def test_every_public_order_is_refused_alike(name, q):
    with pytest.raises(ValidationError, match=f"^{ORDER_PATTERN}, got "):
        PUBLIC_CALLS[name](q)


@pytest.mark.parametrize("argv", [
    ["entropy", "--dist", "0.5,0.5"], ["entropy", "--werner", "2,3,0.4"],
    ["threshold", "--N", "2", "--n", "3"],
])
@pytest.mark.parametrize("q", ["0", "-1", "nan", "inf", "1e308"])
def test_every_command_refuses_a_bad_order_alike(capsys, argv, q):
    assert main([*argv, f"--q={q}"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {ORDER_MESSAGE}, got ")


@pytest.mark.parametrize("end", ["--q-min", "--q-max"])
@pytest.mark.parametrize("q", ["0", "-1", "nan", "inf", "1e308"])
def test_sweep_refuses_a_bad_end_alike(capsys, end, q):
    ends = {"--q-min": "0.5", "--q-max": "5", end: q}
    argv = ["sweep", "--N", "2", "--n", "3", "--q-points", "3"]
    assert main([*argv, *(f"{flag}={value}" for flag, value in ends.items())]) == 1
    assert capsys.readouterr().err.startswith(f"error: {ORDER_MESSAGE}, got ")


@pytest.mark.parametrize("name", PUBLIC_CALLS)
def test_an_index_and_its_float_give_the_same_bits(name):
    # an index given as a numpy float is read as its float: repr round-trips
    # a float exactly, tells -0.0 from 0.0, and names a numpy scalar
    for q in ORDERS:
        assert repr(PUBLIC_CALLS[name](np.float64(q))) == repr(PUBLIC_CALLS[name](q)), q


def test_a_bad_party_count_comes_before_a_bad_order():
    with pytest.raises(ValidationError, match="^conditioned party count"):
        conditional_entropy_block(_MEMBER, 3, math.nan)


@pytest.mark.parametrize("call", [conditional_entropy_def, conditional_entropy_ratio,
                                  tripartite_chain])
def test_a_bad_order_comes_before_a_wrong_subsystem_count(call):
    wrong = _PAIR if call is tripartite_chain else _TRIPLE
    with pytest.raises(ValidationError, match=f"^{ORDER_PATTERN}"):
        call(wrong, -1.0)
    with pytest.raises(ValidationError, match="subsystems"):
        call(wrong, 2.0)


def test_bad_probabilities_or_values_come_before_a_bad_order():
    for call in (tsallis_entropy, escort):
        with pytest.raises(ValidationError, match="probabilities must lie in"):
            call([-0.1, 1.1], math.nan)
    with pytest.raises(ValidationError, match="probabilities must lie in"):
        q_expectation([1.0, 2.0], [-0.1, 1.1], math.nan)
    with pytest.raises(ValidationError, match="one value per outcome"):
        q_expectation([1.0, 2.0, 3.0], [0.5, 0.5], math.nan)


def test_verify_family_reads_an_order_grid_once():
    # the orders are checked and listed up front, so a one-pass grid serves
    # every member, and a bad order costs no dense work
    members = [WernerParams(2, 2, 0.3), WernerParams(2, 3, 0.3)]
    report = verify_family(members, (q for q in (0.5, 2.0)))
    assert report == verify_family(members, [0.5, 2.0])
    assert {c.case for c in report.comparisons if c.quantity.startswith("conditional")} == {
        "N=2,n=2,x=0.3", "N=2,n=3,x=0.3"}
    with pytest.raises(ValidationError, match=ORDER_PATTERN):
        verify_family([WernerParams(2, 13, 0.3)], [2.0, math.nan])
