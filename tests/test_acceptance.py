"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they print."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from qtsallis import (JointDist, WernerParams, asymptotic_threshold,
                      compose_pseudoadditive, conditional_entropy_block,
                      conditional_entropy_def, conditional_entropy_ratio,
                      default_family_grid, default_order_grid,
                      quantum_tsallis, spectrum_of,
                      tensor_product, threshold_curve, threshold_for_q,
                      tripartite_chain, verify_family,
                      verify_separable_witness)
from helpers import random_density, random_joint


@contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, \
        f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_tripartite_threshold():
    with criterion("1 tripartite threshold", 1.0):
        assert asymptotic_threshold(2, 3) == 0.2
        point = threshold_for_q(2, 3, 1e4)
        assert point.x_star == pytest.approx(0.2, abs=1e-3)


def test_criterion_2_general_threshold():
    with criterion("2 general threshold", 5.0):
        for levels, parties in ((2, 2), (3, 2), (2, 4), (3, 3), (5, 2)):
            exact = 1 / (1 + levels ** (parties - 1))
            assert asymptotic_threshold(levels, parties) == exact
            point = threshold_for_q(levels, parties, 1e4)
            assert point.x_star == pytest.approx(exact, abs=1e-3)


def test_criterion_3_closed_forms_vs_oracle():
    with criterion("3 closed form vs oracle", 60.0):
        report = verify_family(default_family_grid(), default_order_grid())
        assert report.passed
        assert report.max_abs_dev <= 1e-10


def test_criterion_4_separable_nonnegativity():
    with criterion("4 separable nonnegativity", 30.0):
        report = verify_separable_witness(1000, 42)
        assert report.passed
        for row in report.comparisons:
            if row.quantity.startswith("nonnegative"):
                assert row.closed_form >= -1e-12
            else:
                assert row.abs_dev <= 1e-10


def test_criterion_5_monotone_boundary():
    with criterion("5 monotone boundary", 10.0):
        grid = np.geomspace(0.1, 1e4, 50)
        for levels, parties in ((2, 3), (3, 2)):
            curve = threshold_curve(levels, parties, grid)  # raises if it rises
            xs = [p.x_star for p in curve]
            assert all(x is not None for x in xs)
            assert all(b <= a + 1e-9 for a, b in zip(xs, xs[1:]))
            limit = asymptotic_threshold(levels, parties)
            assert all(x > limit for x in xs)
            assert xs[-1] - limit < 1e-3


def test_criterion_6_classical_identities():
    with criterion("6 classical identities", 10.0):
        rng = np.random.default_rng(2026)
        orders = (0.3, 1.0, 2.5, 10.0)

        for dims in ((2, 2), (3, 4), (2, 3, 2)):
            for _ in range(100):
                joint = random_joint(rng, dims)
                if len(dims) == 3:
                    pair = JointDist((dims[0], dims[1] * dims[2]), joint.p)
                else:
                    pair = joint
                for q in orders:
                    assert conditional_entropy_def(pair, q) == pytest.approx(
                        conditional_entropy_ratio(pair, q), abs=1e-10)
                if len(dims) == 3:
                    for q in orders:
                        assert tripartite_chain(joint, q).residual <= 1e-10

        for _ in range(100):
            rho = random_density(rng, (2,))
            sigma = random_density(rng, (3,))
            joint_spec = spectrum_of(tensor_product(rho, sigma))
            for q in orders:
                total = quantum_tsallis(joint_spec, q)
                composed = compose_pseudoadditive(
                    quantum_tsallis(spectrum_of(rho), q),
                    quantum_tsallis(spectrum_of(sigma), q), q)
                assert total == pytest.approx(composed, abs=1e-10)


def test_criterion_7_block_conditioning_dominance():
    with criterion("7 block conditioning dominance", 10.0):
        assert asymptotic_threshold(2, 3, 1) == 3 / 7
        assert asymptotic_threshold(2, 3, 1) > asymptotic_threshold(2, 3)
        assert asymptotic_threshold(2, 3) == 0.2
        point = threshold_for_q(2, 3, 1e4, conditioned_parties=1)
        assert point.x_star == pytest.approx(3 / 7, abs=1e-3)


def test_criterion_8_limit_point_continuity():
    with criterion("8 q->1 continuity", 30.0):
        for params in default_family_grid():
            at_one = conditional_entropy_block(params, None, 1.0)
            nearby = 0.5 * (conditional_entropy_block(params, None, 1 - 1e-6)
                            + conditional_entropy_block(params, None, 1 + 1e-6))
            assert at_one == pytest.approx(nearby, abs=1e-5)
