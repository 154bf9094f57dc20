"""Dense-oracle construction and the verification report machinery."""

import copy
import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from qtsallis import (Comparison, DensityMatrix, ValidationError, VerificationReport,
                      WernerParams, conditional_entropy_block, default_family_grid,
                      default_order_grid, joint_spectrum, marginal_spectrum, partial_trace,
                      quantum_conditional, spectrum_of, verify_family, verify_separable_witness,
                      werner_density)
from qtsallis import oracle, quantum, werner
from qtsallis._index import Spectrum, _branch, _conditionals
from qtsallis.oracle import (AGREEMENT_TOL, NONNEG_FLOOR, STRUCTURE_TOL, WITNESS_ORDERS,
                             _deviation, _marginal_diagonals, _witness_rows)
from helpers import record_eigvalsh


def test_marginal_matches_literal_pair_form():
    # two qubits kept out of three: uniform background plus x/2 spikes
    x = 0.35
    params = WernerParams(2, 3, x)
    diagonal = _marginal_diagonals(werner_density(params), params)[0]
    expected = np.full(4, (1 - x) / 4)
    expected[[0, 3]] += x / 2
    npt.assert_allclose(diagonal, expected, atol=1e-14)


def test_marginal_single_party_is_maximally_mixed():
    for x in (0.0, 0.4, 1.0):
        params = WernerParams(2, 3, x)
        diagonal = _marginal_diagonals(werner_density(params), params)[-1]
        npt.assert_allclose(diagonal, np.full(2, 0.5), atol=1e-14)
    params = WernerParams(3, 2, 0.7)
    diagonal = _marginal_diagonals(werner_density(params), params)[-1]
    npt.assert_allclose(diagonal, np.full(3, 1 / 3), atol=1e-14)


def test_marginal_refuses_a_trace_off_the_explicit_form(monkeypatch):
    # the dense first marginal of a foreign member, and a smaller marginal of the chain fed
    # the foreign member's diagonal: x = 0.5 against the explicit form at x = 0.4
    params = WernerParams(2, 4, 0.4)
    foreign = werner_density(WernerParams(2, 4, 0.5))
    with pytest.raises(ValidationError, match=r"explicit marginal form by 0\.0374999"):
        _marginal_diagonals(foreign, params)
    first = _marginal_diagonals(foreign, WernerParams(2, 4, 0.5))[0]
    traced = oracle._leading_trace
    monkeypatch.setattr(oracle, "_leading_trace", lambda diagonal, levels: traced(first, levels))
    with pytest.raises(ValidationError, match="explicit marginal form by 0.025"):
        _marginal_diagonals(werner_density(params), params)


def dense_chain(state):
    """The marginals of a member as dense matrices, each traced from the one
    before with ``_trace_out``, kept parties m = n - 1, ..., 1."""
    levels, parties = state.dims[0], len(state.dims)
    entries, chain = state.entries, []
    for m in range(parties - 1, 0, -1):
        entries = quantum._trace_out(entries, (levels,) * (m + 1), range(1, m + 1))
        chain.append(entries)
    return chain


@pytest.mark.parametrize("x", [0.0, 1e-16, 0.37, 1.0])
def test_member_eigenvalues_from_the_ghz_block_match_the_pattern_path(x):
    # the joint takes its GHZ indices as the coupled block and each marginal its diagonal;
    # the eigenvalues are those that the zero pattern of the public constructor finds on
    # the dense marginals, each traced from the one before, bit for bit
    grid = [WernerParams(p.levels, p.parties, x) for p in default_family_grid()[::11]]
    grid += [WernerParams(levels, parties, x) for levels, parties in CERTIFY_MEMBERS]
    for params in grid:
        state = werner_density(params)
        npt.assert_array_equal(state.eigenvalues, quantum._eigenvalues(np.array(state.entries)))
        diagonals = _marginal_diagonals(state, params)
        assert len(diagonals) == params.parties - 1
        for diagonal, dense in zip(diagonals, dense_chain(state)):
            npt.assert_array_equal(np.sort(diagonal), quantum._eigenvalues(dense))


@pytest.mark.parametrize("x", [0.0, 1e-16, 0.37, 1.0])
def test_vector_chain_is_the_dense_trace_of_the_marginal_before(x):
    # each smaller marginal, traced densely from the one before rebuilt as a diagonal
    # matrix, has exact zeros off its diagonal and the chain's diagonal, bit for bit
    grid = [WernerParams(p.levels, p.parties, x) for p in default_family_grid()]
    grid += [WernerParams(levels, parties, x) for levels, parties in CERTIFY_MEMBERS]
    steps = 0
    for params in grid:
        levels = params.levels
        diagonals = _marginal_diagonals(werner_density(params), params)
        for m, before, diagonal in zip(range(params.parties - 2, 0, -1), diagonals, diagonals[1:]):
            dense = quantum._trace_out(np.diag(before), (levels,) * (m + 1), range(1, m + 1))
            assert np.count_nonzero(dense) == np.count_nonzero(dense.diagonal())
            npt.assert_array_equal(diagonal, dense.diagonal())
            npt.assert_array_equal(np.sort(diagonal), quantum._eigenvalues(dense))
            steps += 1
    assert steps == sum(p.parties - 2 for p in grid)


def off_form(diagonal):  # two entries trade 2 STRUCTURE_TOL: the trace stays 1
    diagonal[-1] += 2 * STRUCTURE_TOL
    diagonal[-2] -= 2 * STRUCTURE_TOL


def nan_first(diagonal):
    diagonal[0] = math.nan


def shifted(diagonal):  # within STRUCTURE_TOL entry by entry, the trace off by side times that
    diagonal += 0.9 * STRUCTURE_TOL


def one_shifted(diagonal):  # the same on one entry alone: the trace off by less than TRACE_TOL
    diagonal[0] += 0.9 * STRUCTURE_TOL


@pytest.mark.parametrize("move, refusal", [
    (off_form, r"^partial trace deviates from the explicit marginal form by "
               r"(2\.0000|1\.9999)\d*e-12$"),
    (nan_first, "^partial trace deviates from the explicit marginal form by nan$"),
    (shifted, r"^trace is \(1\.0000000000\d+\+0j\), expected 1$"),
    (one_shifted, None)], ids=["off-form", "nan", "all-shifted", "one-shifted"])
@pytest.mark.parametrize("levels, parties, kept", [(2, 4, 2), (2, 4, 1), (3, 3, 1), (2, 9, 5)])
def test_smaller_marginal_keeps_every_check_of_an_adopted_state(levels, parties, kept, move,
                                                                refusal, monkeypatch):
    # a marginal of the vector chain moved off its explicit form, or given a nan, is refused
    # as the dense marginal was; moved by 0.9 STRUCTURE_TOL everywhere it passes the explicit
    # form and is refused by the trace check, which a move on one entry alone passes
    params = WernerParams(levels, parties, 0.4)
    traced = oracle._leading_trace

    def moved(diagonal, levels):
        summed = traced(diagonal, levels)
        if len(summed) == levels ** kept:
            move(summed)
        return summed

    monkeypatch.setattr(oracle, "_leading_trace", moved)
    if refusal is None:
        assert len(_marginal_diagonals(werner_density(params), params)) == parties - 1
        return
    with pytest.raises(ValidationError, match=refusal):
        _marginal_diagonals(werner_density(params), params)


def test_werner_density_allocates_about_the_state_alone():
    state_bytes = 729 ** 2 * 8
    tracemalloc.start()
    try:
        werner_density(WernerParams(3, 6, 0.4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * state_bytes, peak / state_bytes


@pytest.mark.parametrize("where, value, drift", [
    ((1, 2), 1e-15, "1e-15"), ((1, 2), math.nan, "nan"), ((3, 3), math.nan, "nan"),
    ((0, 0), 1e-15, None)])
def test_marginal_refuses_any_coherence_but_a_diagonal_within_tolerance(
        where, value, drift, monkeypatch):
    # a member's partial traces add only exact zeros off the diagonal: a symmetric pair far
    # below STRUCTURE_TOL is refused, as is a nan, while the same amount on the diagonal passes
    traced = oracle._trace_out

    def moved(*args):
        entries = traced(*args)
        entries[where] += value
        entries[where[::-1]] += value if where[0] != where[1] else 0.0
        return entries

    params = WernerParams(2, 3, 0.4)
    monkeypatch.setattr(oracle, "_trace_out", moved)
    if drift is None:
        assert _marginal_diagonals(werner_density(params), params)[0][0] != 0.35
        return
    with pytest.raises(ValidationError, match=f"explicit marginal form by {drift}$"):
        _marginal_diagonals(werner_density(params), params)


def test_oracle_self_consistency():
    for levels, parties in ((2, 2), (2, 4), (3, 3), (4, 2), (2, 8), (6, 2)):
        for x in (0.0, 0.5, 1.0):
            params = WernerParams(levels, parties, x)
            closed = joint_spectrum(params)
            oracle = spectrum_of(werner_density(params))
            assert len(closed.levels) == len(oracle.levels)
            for (cv, cm), (ov, om) in zip(closed.levels, oracle.levels):
                assert cm == om
                assert cv == pytest.approx(ov, abs=1e-10)


@pytest.mark.parametrize("levels,parties", [(2, 9), (3, 6), (5, 4)])
def test_chained_marginals_match_marginals_of_the_full_state(levels, parties):
    params = WernerParams(levels, parties, 0.37)
    joint = werner_density(params)
    diagonals = _marginal_diagonals(joint, params)
    for m, diagonal in zip(range(parties - 1, 0, -1), diagonals):
        direct = partial_trace(joint, range(parties - m, parties))
        assert direct.dims == (levels,) * m and diagonal.shape == (levels ** m,)
        chained = DensityMatrix((levels,) * m, np.diag(diagonal))
        assert spectrum_of(chained).levels == spectrum_of(direct).levels


#: The family members of the benchmark's certify workload, beside the default grid.
CERTIFY_MEMBERS = ((3, 6), (5, 4), (2, 9), (2, 8), (4, 4), (3, 4), (2, 5))


@pytest.mark.parametrize("grid", [
    default_family_grid(),
    *([WernerParams(levels, parties, x) for x in (0.05, 0.37, 0.95)]
      for levels, parties in CERTIFY_MEMBERS)],
    ids=["default-grid", *(f"{levels}^{parties}" for levels, parties in CERTIFY_MEMBERS)])
def test_internal_constructions_pass_the_hermitian_check(grid):
    # the runtime check that adopted states skip: each member and its dense first marginal,
    # the only matrices verify_family builds, within the bound of the public constructor
    for params in grid:
        state = werner_density(params)
        quantum._check_hermitian(state.entries)
        first = quantum._trace_out(state.entries, state.dims, range(1, params.parties))
        assert first.shape == (params.levels ** (params.parties - 1),) * 2
        quantum._check_hermitian(first)


@pytest.mark.parametrize("trials", [1, 350])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_witness_stacks_pass_the_hermitian_check(trials, seed, monkeypatch):
    checked, stacks = oracle._checked_eigenvalues, []

    def recording(stack):
        stacks.append(stack)
        return checked(stack)

    monkeypatch.setattr(oracle, "_checked_eigenvalues", recording)
    assert verify_separable_witness(trials, seed).passed
    assert stacks and all(stack.ndim == 3 for stack in stacks)
    assert sum(len(stack) for stack in stacks) == 3 * trials  # joint, closed, traced
    for stack in stacks:
        for member in stack:
            quantum._check_hermitian(member)


def block_means(closed, eigenvalues):
    """The oracle's levels: the eigenvalues, largest first, cut into blocks
    of the closed multiplicities, each at its mean clamped to [0, 1]."""
    values, levels = eigenvalues[::-1].tolist(), []
    for _, mult in closed.levels:
        block, values = values[:mult], values[mult:]
        levels.append((min(max(math.fsum(block) / mult, 0.0), 1.0), mult))
    return levels


@pytest.mark.parametrize("levels,parties", [(2, 4), (3, 3)])
def test_verify_family_oracle_entropies_equal_quantum_conditional(levels, parties):
    # exactly the ratio form on the block means, and within 1e-14 of the folded public spectra
    params = WernerParams(levels, parties, 0.45)
    orders = (0.5, 1.0, 2.0, 50.0)
    joint = werner_density(params)
    oracle = {c.quantity: c.oracle for c in verify_family([params], orders).comparisons}
    blocks = range(1, parties)
    marginals = [partial_trace(joint, range(parties - k, parties)) for k in blocks]
    joint_means = block_means(joint_spectrum(params), joint.eigenvalues)
    means = [block_means(marginal_spectrum(params, k), marginal.eigenvalues)
             for k, marginal in zip(blocks, marginals)]
    for q in orders:
        exact = _conditionals(joint_means, means, q, math.log(joint.side))
        for k, marginal, value in zip(blocks, marginals, exact):
            got = oracle[f"conditional_entropy_block[k={k},q={q:g}]"]
            assert got == value
            public = quantum_conditional(spectrum_of(joint), spectrum_of(marginal), q)
            assert abs(got - public) <= 1e-14 * max(1.0, abs(public)), (k, q, got, public)


def test_verify_family_peak_memory_stays_below_twice_the_state():
    # two members in one grid: each joint and its dense first marginal are released before
    # the next member is built
    state_bytes = 729 ** 2 * 8
    tracemalloc.start()
    try:
        assert verify_family([WernerParams(3, 6, 0.4), WernerParams(3, 6, 0.6)], (2.0,)).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * state_bytes, peak / state_bytes


def test_verify_family_small_grid_passes():
    grid = [WernerParams(2, n, x) for n in (2, 3) for x in (0.0, 0.5, 1.0)]
    report = verify_family(grid, (0.5, 1.0, 2.0))
    assert report.passed
    assert report.max_abs_dev <= 1e-10


@pytest.mark.parametrize("q", [1.0 - 1e-6, 1.0 + 1e-6, 1.0 + 1e-8])
def test_verify_family_passes_next_to_one(q):
    # one order per call: the row labels print 1 + 1e-6 and 1 + 1e-8 alike, as q=1
    failing = [c for c in verify_family(default_family_grid(), (q,)).comparisons
               if not c.passed]
    assert not failing, failing[:3]


@pytest.mark.parametrize("levels, parties", [(2, 9), (3, 6), (5, 4)])
def test_verify_family_traces_and_adopts_once_per_member(levels, parties, monkeypatch):
    # one dense partial trace, of the joint, and one adopted state, the joint; from each
    # marginal's check to the next one's, the traced peak grows by a few vectors of the
    # next side s = N**m and some small objects, a bound that rules out an s x s matrix
    # (8 s**2 bytes) wherever s >= 25: (2, 9) m >= 5, (3, 6) m >= 3 and (5, 4) m = 2
    traced, checked = oracle._trace_out, oracle._checked_diagonal
    adopt = DensityMatrix._adopt.__func__
    traces, adopted, growth, mark = [], [], {}, []

    def tracing(stack, dims, kept):
        traces.append(stack.shape)
        return traced(stack, dims, kept)

    def adopting(cls, dims, entries, coupled=None):
        adopted.append(dims)
        return adopt(cls, dims, entries, coupled)

    def checking(diagonal, params, kept):
        result = checked(diagonal, params, kept)
        if mark:
            growth[kept] = tracemalloc.get_traced_memory()[1] - mark.pop()
        tracemalloc.reset_peak()
        mark.append(tracemalloc.get_traced_memory()[0])
        return result

    monkeypatch.setattr(oracle, "_trace_out", tracing)
    monkeypatch.setattr(DensityMatrix, "_adopt", classmethod(adopting))
    monkeypatch.setattr(oracle, "_checked_diagonal", checking)
    tracemalloc.start()
    try:
        assert verify_family([WernerParams(levels, parties, 0.4)], (0.5, 1.0, 2.0)).passed
    finally:
        tracemalloc.stop()
    side = levels ** parties
    assert traces == [(side, side)] and adopted == [(levels,) * parties]
    assert sorted(growth) == list(range(1, parties - 1))
    for kept, grown in growth.items():
        side = levels ** kept
        assert grown < 4096 + 32 * side, (kept, grown)


def test_verify_family_one_eigendecomposition_per_state(monkeypatch):
    seen = record_eigvalsh(monkeypatch)
    for levels, parties in ((2, 3), (3, 6), (2, 9)):
        seen.clear()
        assert verify_family([WernerParams(levels, parties, 0.4)], (0.5, 1.0, 2.0)).passed
        # the joint's N x N GHZ block only; the decohered marginals are diagonal
        assert [m.shape for m in seen] == [(levels, levels)]
        npt.assert_array_equal(seen[0], np.full((levels, levels), 0.4 / levels)
                               + np.eye(levels) * (0.6 / levels ** parties))
        assert not np.iscomplexobj(seen[0])


@pytest.mark.parametrize("x", [1e-10, 1e-12, 1e-15, 1e-16])
def test_verify_family_separates_levels_a_tiny_weight_apart(x):
    # the raised and background levels lie about x apart: the eigenvalues are cut by the
    # closed multiplicities, so levels closer than the eigensolver's error keep theirs
    report = verify_family([WernerParams(3, 4, x)], (2.0,))
    assert report.passed, [c for c in report.comparisons if not c.passed][:3]


#: Every family shape at dense scale with N <= 16 and N**n <= 729.
DENSE_SHAPES = [(levels, parties) for levels in range(2, 17) for parties in range(2, 10)
                if levels ** parties <= 729]


@pytest.mark.parametrize("levels, parties", DENSE_SHAPES)
def test_levels_within_the_eigensolver_error_of_zero_count_as_zero(levels, parties):
    # at x = 1 the N - 1 zero eigenvalues of the GHZ block come back as noise of either
    # sign; summed positive (N = 6, 7, 16 among others) it would leave a level near 1e-19
    # that weighs a lot at small q, in the oracle and in the public spectrum_of path alike
    params = WernerParams(levels, parties, 1.0)
    orders = (0.1, 0.5, 2.0)
    report = verify_family([params], orders)
    assert report.passed, [c for c in report.comparisons if not c.passed][:3]
    rho = werner_density(params)
    joint = spectrum_of(rho)
    assert joint.levels[-1] == (0.0, rho.side - 1)
    for k in range(1, parties):
        marginal = spectrum_of(partial_trace(rho, range(parties - k, parties)))
        for q in orders:
            closed = conditional_entropy_block(params, k, q)
            public = quantum_conditional(joint, marginal, q)
            assert abs(public - closed) <= 1e-14 * max(1.0, abs(closed)), (k, q, public, closed)


@pytest.mark.parametrize("keep_total", [True, False], ids=["total-kept", "total-off"])
@pytest.mark.parametrize("shift", [1, -1])
def test_verify_family_fails_a_closed_multiplicity_moved_by_one(shift, keep_total, monkeypatch):
    # the m = 2 marginal of (3, 4) has levels of multiplicity 3 and 6; the background one
    # moves by +-1, and with the total kept the raised one takes up the difference; at x = 1
    # the background level is 0
    closed = oracle.marginal_spectrum

    def moved(params, m):
        spectrum = closed(params, m)
        if m != 2:
            return spectrum
        (raised, n_raised), (background, n_background) = spectrum.levels
        assert n_raised == 3 and n_background == 6
        return Spectrum._trusted(((raised, n_raised - (shift if keep_total else 0)),
                                  (background, n_background + shift)))

    monkeypatch.setattr(oracle, "marginal_spectrum", moved)
    for x in (0.4, 1.0):
        failing = {c.quantity for c in verify_family([WernerParams(3, 4, x)], (2.0,)).comparisons
                   if not c.passed}
        assert failing and all(q.startswith("marginal_spectrum[m=2]")
                               or q.startswith("conditional_entropy_block[k=2,") for q in failing)
        assert any(q.endswith(".multiplicity") for q in failing), (x, failing)


def test_verify_family_never_folds_a_spectrum(monkeypatch):
    def refuse(rho):
        raise AssertionError("verify_family folded a dense spectrum")

    monkeypatch.setattr(quantum, "spectrum_of", refuse)
    assert not hasattr(oracle, "spectrum_of")
    assert verify_family([WernerParams(3, 4, x) for x in (0.0, 1e-16, 0.4, 1.0)],
                         (0.5, 1.0, 2.0)).passed


def test_verify_family_rows_without_closed_duplicates():
    orders = (0.5, 1.0, 2.0)
    report = verify_family([WernerParams(2, 3, 0.4)], orders)
    quantities = {c.quantity for c in report.comparisons}
    assert not any(q.startswith("conditional_entropy_closed") for q in quantities)
    for q in orders:
        assert f"conditional_entropy_block[k=2,q={q:g}]" in quantities


def test_verify_family_passes_where_both_sides_overflow():
    # at q = 1e5 and 1e6 many closed and oracle conditionals both overflow to -inf: equal
    # values deviate by 0, so no row turns nan, and the report's worst deviation stays finite;
    # each such row, and no other, has a log_trace_gap row beside it, comparing the finite gaps
    report = verify_family(default_family_grid(), (1e3, 1e5, 1e6))
    assert len(report.comparisons) == 1032 + 223
    assert report.passed, [c for c in report.comparisons if not c.passed][:3]
    assert math.isfinite(report.max_abs_dev), report.max_abs_dev
    overflowed = [c for c in report.comparisons if c.closed_form == -math.inf]
    assert len(overflowed) == 223
    assert all(c.oracle == -math.inf and c.abs_dev == 0.0 for c in overflowed)
    gaps = {(c.case, c.quantity): c for c in report.comparisons
            if c.quantity.startswith("log_trace_gap[")}
    assert set(gaps) == {(c.case, c.quantity.replace("conditional_entropy_block", "log_trace_gap"))
                         for c in overflowed}
    assert all(math.isfinite(c.closed_form) and math.isfinite(c.oracle) and c.closed_form > 700
               for c in gaps.values())


@pytest.mark.parametrize("orders", [default_order_grid(), (1e5, 1e6)],
                         ids=["default-orders", "overflowing-orders"])
def test_verify_family_closed_rows_are_the_public_values(orders):
    # the oracle takes each closed conditional from the prepared gap of its row, not through
    # the public function; each must still be that function's value, bit for bit
    assert not hasattr(oracle, "conditional_entropy_block")
    grid = default_family_grid()
    members = {f"N={p.levels},n={p.parties},x={p.mixing:g}": p for p in grid}
    by_label = {f"{q:g}": q for q in orders}
    label = re.compile(r"(conditional_entropy_block|log_trace_gap)\[k=(\d+),q=(.+)\]$")
    counts = {"conditional_entropy_block": 0, "log_trace_gap": 0}
    for row in verify_family(grid, orders).comparisons:
        match = label.match(row.quantity)
        if match is None:
            continue
        params, k, q = members[row.case], int(match[2]), by_label[match[3]]
        if match[1] == "conditional_entropy_block":
            expected = conditional_entropy_block(params, k, q)
        else:
            expected = werner._prepared_gap(params.levels, params.parties, k, q)(params.mixing)
        assert row.closed_form == expected, (row, expected)
        counts[match[1]] += 1
    assert counts["conditional_entropy_block"] == sum(p.parties - 1 for p in grid) * len(orders)
    assert (counts["log_trace_gap"] > 0) == (max(orders) > 1e3), counts


def test_verify_family_gap_rows_fail_a_closed_gap_moved_by_1e_9(monkeypatch):
    # the moved gap still overflows, so the entropy rows hold -inf against -inf and pass;
    # only the gap rows see it
    prepared = werner._prepared_gap

    def moved(*args):
        gap = prepared(*args)
        return lambda x: gap(x) * (1.0 + 1e-9)

    monkeypatch.setattr(werner, "_prepared_gap", moved)
    monkeypatch.setattr(oracle, "_prepared_gap", moved)
    report = verify_family(default_family_grid(), (1e5, 1e6))
    gaps = [c for c in report.comparisons if c.quantity.startswith("log_trace_gap[")]
    overflowed = [c for c in report.comparisons if c.closed_form == -math.inf]
    assert gaps and len(gaps) == len(overflowed)
    assert not any(c.passed for c in gaps), [c for c in gaps if c.passed][:3]
    assert all(c.passed and c.oracle == -math.inf for c in overflowed)


@pytest.mark.parametrize("a, b, dev", [
    (-math.inf, -math.inf, 0.0), (math.inf, math.inf, 0.0), (2.0, 2.0, 0.0),
    (-math.inf, math.inf, math.nan), (-math.inf, 1e300, math.nan), (5.0, math.inf, math.nan),
    (3.0, 1.0, 2.0 / 3.0), (0.25, 0.5, 0.25)])
def test_deviation_of_equal_values_is_zero_and_of_unequal_infinities_nan(a, b, dev):
    for got in (_deviation(a, b), _deviation(b, a)):
        assert got == dev or (math.isnan(dev) and math.isnan(got)), (a, b, got)
        assert (got <= AGREEMENT_TOL) == (dev == 0.0)


def test_verify_family_empty_grids_trivially_pass():
    report = verify_family([], [])
    assert report.passed
    assert report.max_abs_dev == 0.0
    assert report.comparisons == ()


def test_report_json_schema():
    report = verify_family([WernerParams(2, 2, 0.5)], (2.0,))
    rows = report.to_json_obj()
    assert rows  # nonempty
    for row in rows:
        assert set(row) == {"case", "quantity", "closed_form", "oracle",
                            "abs_dev", "pass"}
    json.dumps(rows)  # serializable


#: A failing comparison and its fields, in order.
ROW_FIELDS = {"case": "N=2,n=2,x=0.5", "quantity": "joint_spectrum[level=0].eigenvalue",
              "closed_form": 0.5, "oracle": 0.25, "abs_dev": 0.25, "passed": False}


def test_comparison_record_contract():
    row = Comparison(*ROW_FIELDS.values())
    assert Comparison._fields == tuple(ROW_FIELDS)
    assert row == Comparison(**ROW_FIELDS)
    assert {name: getattr(row, name) for name in ROW_FIELDS} == ROW_FIELDS
    assert hash(row) == hash(Comparison(**ROW_FIELDS))
    assert len({row, Comparison(**ROW_FIELDS), row._replace(passed=True)}) == 2
    assert repr(row) == ("Comparison(case='N=2,n=2,x=0.5', "
                         "quantity='joint_spectrum[level=0].eigenvalue', "
                         "closed_form=0.5, oracle=0.25, abs_dev=0.25, passed=False)")
    for name, value in ROW_FIELDS.items():
        with pytest.raises(AttributeError):
            setattr(row, name, value)
    with pytest.raises(AttributeError):
        row.extra = 1
    assert list(row.to_dict().items()) == [
        ("case", "N=2,n=2,x=0.5"), ("quantity", "joint_spectrum[level=0].eigenvalue"),
        ("closed_form", 0.5), ("oracle", 0.25), ("abs_dev", 0.25), ("pass", False)]
    for twin in (pickle.loads(pickle.dumps(row)), copy.copy(row), copy.deepcopy(row)):
        assert type(twin) is Comparison
        assert twin == row and hash(twin) == hash(row) and repr(twin) == repr(row)


def test_report_record_contract():
    rows = (Comparison("b", "x", 0.0, 0.0, 0.0, True), Comparison("a", "y", 1.0, 2.0, 0.5, False),
            Comparison("a", "x", 0.0, 0.0, 0.0, True))
    report = VerificationReport(rows)
    assert [(c.case, c.quantity) for c in report.comparisons] == [("a", "x"), ("a", "y"),
                                                                   ("b", "x")]
    assert report == VerificationReport(comparisons=rows[::-1])
    assert hash(report) == hash(VerificationReport(rows[::-1]))
    assert report != VerificationReport(rows[:2])
    assert not report.passed and report.max_abs_dev == 0.5
    assert repr(report) == f"VerificationReport(comparisons={report.comparisons!r})"
    with pytest.raises(AttributeError, match="comparisons"):
        report.comparisons = ()
    for twin in (pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)):
        assert type(twin) is VerificationReport
        assert twin == report and twin.to_json_obj() == report.to_json_obj()


@pytest.mark.parametrize("at", [0, -1], ids=["nan-first", "nan-last"])
def test_report_max_abs_dev_shows_a_nan_row(at):
    rows = [Comparison(f"case={i}", "x", 0.0, 0.0, 0.5 * i, True) for i in range(4)]
    rows[at] = rows[at]._replace(abs_dev=math.nan, passed=False)
    report = VerificationReport._adopt(tuple(rows))
    assert math.isnan(report.max_abs_dev)
    assert math.isnan(VerificationReport(tuple(rows[::-1])).max_abs_dev)
    assert VerificationReport(tuple(rows[1:-1])).max_abs_dev == 1.0


def test_report_adopts_rows_without_sorting_them():
    rows = (Comparison("a", "x", 0.0, 0.0, 0.0, True), Comparison("a", "y", 1.0, 2.0, 0.5, False))
    report = VerificationReport._adopt(rows)
    assert type(report) is VerificationReport and report.comparisons is rows
    assert report == VerificationReport(rows[::-1])
    assert hash(report) == hash(VerificationReport(rows))
    with pytest.raises(AttributeError, match="comparisons"):
        report.comparisons = ()
    assert pickle.loads(pickle.dumps(report)) == report


def test_witness_rejects_zero_trials():
    with pytest.raises(ValidationError):
        verify_separable_witness(0, 42)


def test_witness_refuses_non_integral_trials():
    with pytest.raises(ValidationError, match="must be an integer"):
        verify_separable_witness(2.5, 1)


@pytest.mark.parametrize("seed,message", [(2.5, "must be an integer"),
                                          (float("nan"), "must be an integer"),
                                          (-1, "must be nonnegative")])
def test_witness_refuses_bad_seed(seed, message):
    with pytest.raises(ValidationError, match=message):
        verify_separable_witness(1, seed)


def test_witness_accepts_integral_float_seed():
    assert verify_separable_witness(3, 2.0).to_json_obj() == \
        verify_separable_witness(3, 2).to_json_obj()


def test_witness_small_run_passes():
    report = verify_separable_witness(25, 7)
    assert report.passed
    assert report.max_abs_dev <= 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_witness_passes_every_row_at_full_size(seed):
    report = verify_separable_witness(350, seed)
    assert len(report.comparisons) == 350 * 8
    assert report.passed, [c for c in report.comparisons if not c.passed][:3]


class _CountingGenerator:
    """A numpy Generator that records the name of each method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("trials", [1, 10, 350, 2000])
def test_witness_draws_do_not_grow_with_trials(trials, monkeypatch):
    # the plan in three draws, then one draw per side of each shape, whatever the trial count
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _CountingGenerator(default_rng(seed), calls))
    report = verify_separable_witness(trials, 5)
    assert report.passed
    shapes = {c.case.split(",")[1] for c in report.comparisons}
    assert len(calls) <= 3 + 2 * len(shapes) <= 21
    assert calls == ["integers", "integers", "uniform"] + ["standard_normal"] * 2 * len(shapes)


def test_witness_forms_one_joint_stack_per_shape(monkeypatch):
    calls = []  # the operands and results of each joint product
    mixtures = oracle._mixtures

    def counting(weights, local_a, local_b):
        calls.append(((weights, local_a, local_b), mixtures(weights, local_a, local_b)))
        return calls[-1][1]

    monkeypatch.setattr(oracle, "_mixtures", counting)
    report = verify_separable_witness(10, 7)
    assert report.passed
    shapes = {c.case.split(",")[1] for c in report.comparisons}
    assert len(calls) == len(shapes) < 10  # one product per shape, joints and closed marginals
    # each call holds every trial of its shape, terms padded to six
    assert sum(len(weights) for (weights, _, _), _ in calls) == 10
    for (weights, local_a, local_b), (joints, closed) in calls:
        count, dim_a, dim_b = len(weights), local_a.shape[-1], local_b.shape[-1]
        assert f"dims={dim_a}x{dim_b}" in shapes
        assert weights.shape == (count, 6)
        assert local_a.shape == (count, 6, dim_a, dim_a)
        assert local_b.shape == (count, 6, dim_b, dim_b)
        assert joints.shape == (count, dim_a * dim_b, dim_a * dim_b) and joints.flags.c_contiguous
        assert closed.shape == (count, dim_a, dim_a)


def test_witness_mixtures_are_the_weighted_kronecker_sums():
    rng = np.random.default_rng(3)
    weights = rng.dirichlet(np.ones(6), size=5)
    weights[:, 4:] = 0.0
    local_a, local_b = (oracle._random_states(rng.standard_normal((30, dim, dim))).reshape(
        5, 6, dim, dim) for dim in (3, 2))
    joints, closed = oracle._mixtures(weights, local_a, local_b)
    for t in range(5):
        npt.assert_allclose(joints[t], sum(w * np.kron(a, b) for w, a, b in zip(
            weights[t], local_a[t], local_b[t])), rtol=0, atol=1e-16)
        npt.assert_allclose(closed[t], np.tensordot(weights[t], local_a[t], 1), rtol=0, atol=1e-16)


@pytest.mark.parametrize("trials", [1, 10, 350, 2000])
def test_witness_takes_two_log_traces_per_order_and_branch(trials, monkeypatch):
    # the whole batch at once: one log q-trace of the joints and one of the marginals per
    # order and branch that occurs, whatever the trial count, and the rows built in report order
    traces, log_traces = [], oracle._log_traces

    def counting(logged, order, far):
        traces.append((order, far))
        return log_traces(logged, order, far)

    reported, adopt = [], VerificationReport._adopt

    def capturing(comparisons):
        reported.extend(comparisons)
        return adopt(comparisons)

    monkeypatch.setattr(oracle, "_log_traces", counting)
    monkeypatch.setattr(VerificationReport, "_adopt", capturing)
    report = verify_separable_witness(trials, 5)
    assert report.passed
    sides = {math.prod(map(int, c.case.split(",")[1][len("dims="):].split("x")))
             for c in reported}
    groups = {(q, _branch(q, math.log(side))[1]) for q in WITNESS_ORDERS for side in sides}
    assert sorted(traces) == sorted(2 * list(groups))
    assert len(traces) <= 2 * 2 * len(WITNESS_ORDERS)
    assert len(reported) == 8 * trials
    assert [(c.case, c.quantity) for c in reported] == \
        sorted((c.case, c.quantity) for c in reported)
    assert list(report.comparisons) == reported


@pytest.mark.parametrize("trials", [1, 10, 350, 2000])
def test_witness_rows_come_in_report_order(trials):
    # the witness adopts its rows unsorted: they must already be in (case, quantity) order
    report = verify_separable_witness(trials, 11)
    keys = [(c.case, c.quantity) for c in report.comparisons]
    assert len(keys) == 8 * trials and len(set(keys)) == len(keys)
    assert keys == sorted(keys)
    assert report.comparisons == VerificationReport(report.comparisons).comparisons


#: Largest scaled |whole batch - per shape| allowed on a witness value: numpy sums a row
#: padded to 16 or 4 entries in another association; the worst seen was 1.4e-15, over
#: 60 seeds of 350 trials.
PADDED_TOL = 4e-15


@pytest.mark.parametrize("trials, seed", [(350, 3), (40, 11)])
def test_whole_batch_witness_matches_the_per_shape_log_traces(trials, seed, monkeypatch):
    # each shape's eigenvalue stacks taken alone, as the witness once took them, in the
    # branch of the shape's own side; the whole batch pads them with zeros and sums again
    checked, stacks = oracle._checked_eigenvalues, []

    def recording(stack):
        stacks.append(checked(stack))
        return stacks[-1]

    monkeypatch.setattr(oracle, "_checked_eigenvalues", recording)
    report = verify_separable_witness(trials, seed)
    by_trial = {}
    for c in report.comparisons:
        trial, dims, _ = c.case.split(",")
        by_trial.setdefault(int(trial[len("trial="):]), (dims, {}))[1][c.quantity] = c
    members = {}  # shape -> its trials in order, shapes in order of first appearance
    for trial in sorted(by_trial):
        members.setdefault(by_trial[trial][0], []).append(trial)
    assert len(stacks) == 3 * len(members)
    near_at_half = set()
    for (dims, group), (joint, closed, traced) in zip(members.items(), zip(*[iter(stacks)] * 3)):
        for q in WITNESS_ORDERS:
            order, far = _branch(q, math.log(joint.shape[-1]))
            if q == 0.5:
                near_at_half.add(not far)
            values, oracle_values = quantum._entropies_from_gaps(
                quantum._log_traces(quantum._logged(joint), order, far)
                - quantum._log_traces(quantum._logged(np.stack((closed, traced))), order, far),
                order).tolist()
            for trial, value, oracle_value in zip(group, values, oracle_values):
                row = by_trial[trial][1][f"separable_conditional[q={q:g}]"]
                for got, want in ((row.closed_form, value), (row.oracle, oracle_value)):
                    assert abs(got - want) <= PADDED_TOL * max(1.0, abs(want)), \
                        (dims, trial, q, got, want)
    assert near_at_half == {True, False}  # q = 0.5 splits the batch between the branches


def test_witness_rows_hold_plain_python_values():
    report = verify_separable_witness(40, 3)
    for c in report.comparisons:
        assert type(c) is Comparison
        assert [type(field) for field in c] == [str, str, float, float, float, bool], c
    json.loads(json.dumps(report.to_json_obj()))


def test_witness_states_have_coherences(monkeypatch):
    seen = record_eigvalsh(monkeypatch)
    report = verify_separable_witness(10, 7)
    assert report.passed
    shapes = {c.case.split(",")[1] for c in report.comparisons}
    assert len(seen) <= 3 * len(shapes)  # per shape: the joints, closed and traced marginals
    assert all(stack.ndim == 3 for stack in seen)
    joints, closed, traced = ([m for stack in seen[role::3] for m in stack] for role in range(3))
    assert len(joints) == len(closed) == len(traced) == 10  # 30 matrices: 10 trials x 3

    def coherent(matrices):
        return [m for m in matrices if (m - np.diag(np.diag(m))).any()]

    assert coherent(joints) and coherent(traced)


@pytest.mark.parametrize("q", [2, 10, 100])
def test_witness_rows_fail_on_an_entangled_member(q):
    rho = werner_density(WernerParams(2, 2, 0.9))
    marginal = partial_trace(rho, {0}).eigenvalues[None]
    rows = {c.quantity: c for c in _witness_rows(
        ["x=0.9"], np.array([math.log(4)]), rho.eigenvalues[None], np.stack((marginal, marginal)))}
    assert rows[f"separable_conditional[q={q}]"].passed
    assert rows[f"nonnegative[q={q}]"].closed_form < 0.0
    assert not rows[f"nonnegative[q={q}]"].passed
    assert rows["nonnegative[q=0.5]"].passed  # order 0.5 does not see this member


@pytest.mark.parametrize("closed, traced, passed", [
    (-math.inf, -math.inf, True), (math.inf, math.inf, True), (-math.inf, math.inf, False),
    (-math.inf, 0.5, False), (0.5, 0.5, True)])
def test_witness_deviation_takes_equal_infinities_as_agreement(closed, traced, passed,
                                                              monkeypatch):
    # the element-wise rule of _deviation: every order's closed and traced entropies forced
    rho = werner_density(WernerParams(2, 2, 0.3))
    marginal = partial_trace(rho, {0}).eigenvalues[None]
    monkeypatch.setattr(oracle, "_entropies_from_gaps",
                        lambda gaps, order: np.array([[closed], [traced]]))
    rows = _witness_rows(["x=0.3"], np.array([math.log(4)]), rho.eigenvalues[None],
                         np.stack((marginal, marginal)))
    for q in WITNESS_ORDERS:
        row = next(c for c in rows if c.quantity == f"separable_conditional[q={q:g}]")
        dev = _deviation(closed, traced)
        assert row.abs_dev == dev or math.isnan(row.abs_dev) and math.isnan(dev), row
        assert row.passed is passed
    assert math.isnan(VerificationReport._adopt(rows).max_abs_dev) == (not passed)


def _witness_trial_by_trial(trials, seed):
    """The witness rebuilt one trial at a time, with the same draws: the
    plan in three calls (dims, term counts, six uniform weights per trial),
    then, shape by shape in order of first appearance, six standard normal
    G per trial of the shape for side A in one call and six for side B in
    another.  Each trial keeps only the weights and G of its own terms and
    builds alone: its local states and mixtures through the witness's own
    kernels on a stack of one trial, then through the public API a
    DensityMatrix per state, its partial trace, spectra and conditional
    entropies.  Returns the report and, per trial, its dims, its term count
    and the eigenvalues of its joint, closed marginal and traced marginal."""
    rng = np.random.default_rng(seed)
    dims = [tuple(pair) for pair in rng.integers(2, 5, size=(trials, 2)).tolist()]
    terms = rng.integers(1, 7, size=trials).tolist()
    uniform = rng.uniform(size=(trials, 6))
    normals = {}  # trial -> the six G of side A and the six of side B
    for shape in dict.fromkeys(dims):
        members = [trial for trial in range(trials) if dims[trial] == shape]
        side_a, side_b = (rng.standard_normal((len(members), 6, dim, dim)) for dim in shape)
        normals.update(zip(members, zip(side_a, side_b)))

    rows, states = [], []
    for trial, ((dim_a, dim_b), count) in enumerate(zip(dims, terms)):
        weights = uniform[trial, :count] / uniform[trial, :count].sum()
        local_a, local_b = (oracle._random_states(g[:count])[None] for g in normals[trial])
        (joint_entries,), (closed_entries,) = oracle._mixtures(weights[None], local_a, local_b)
        state = DensityMatrix((dim_a, dim_b), joint_entries)
        closed_state = DensityMatrix((dim_a,), closed_entries)
        trial_states = (state, closed_state, partial_trace(state, {0}))
        states.append(((dim_a, dim_b), count, [s.eigenvalues for s in trial_states]))
        joint, closed, traced = map(spectrum_of, trial_states)
        case = f"trial={trial},dims={dim_a}x{dim_b},terms={count}"
        for q in WITNESS_ORDERS:
            value = quantum_conditional(joint, closed, q)
            oracle_value = quantum_conditional(joint, traced, q)
            dev = abs(value - oracle_value) / max(1.0, abs(value), abs(oracle_value))
            rows.append(Comparison(case, f"separable_conditional[q={q:g}]", value,
                                   oracle_value, dev, dev <= AGREEMENT_TOL))
            rows.append(Comparison(case, f"nonnegative[q={q:g}]", value, 0.0,
                                   max(0.0, -value), value >= NONNEG_FLOOR))
    return VerificationReport(tuple(rows)), states


@pytest.mark.parametrize("trials, seed, plan", [
    (40, 0, None), (40, 7, None), (40, 42, None),
    (350, 3, None),  # every shape mixes 4 to 6 term counts: zero-weight padding
    (1, 1, ((3, 3), 5)),  # stacks of one member: a 3x3 mixture of 5 terms
    (1, 2, ((4, 2), 1)),  # a single 4x2 product, five zero-weight slots
    (1, 4, ((4, 4), 6)),  # a 4x4 mixture of 6 terms, no padding
], ids=["0", "7", "42", "350-trials", "1-trial-3x3", "1-trial-1-term", "1-trial-6-terms"])
def test_batched_witness_matches_trial_by_trial(trials, seed, plan, monkeypatch):
    rebuilt, states = _witness_trial_by_trial(trials, seed)
    if plan is not None:
        assert [(dims, terms) for dims, terms, _ in states] == [plan]
    solver, stacked = np.linalg.eigvalsh, []

    def recording(matrix):
        stacked.append(solver(matrix))
        return stacked[-1]

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    batched = verify_separable_witness(trials, seed)
    # batching keeps every state, bit for bit: one stack per shape and role, in
    # the order the shapes first appear, each row the eigenvalues of one trial
    by_shape = {}
    for dims, _, eigenvalues in states:
        by_shape.setdefault(dims, []).append(eigenvalues)
    assert len(stacked) == 3 * len(by_shape)
    for group, stacks in zip(by_shape.values(), zip(*[iter(stacked)] * 3)):
        for role, stack in enumerate(stacks):
            npt.assert_array_equal(stack, [eigenvalues[role] for eigenvalues in group])
    # the same rows in the same order with the same verdicts; the values are
    # log q-traces summed over stacks by numpy, not by math.fsum level by level
    assert len(rebuilt.comparisons) == trials * 8
    assert [(c.case, c.quantity, c.passed) for c in batched.comparisons] == \
        [(c.case, c.quantity, c.passed) for c in rebuilt.comparisons]
    for got, want in zip(batched.comparisons, rebuilt.comparisons):
        for field in ("closed_form", "oracle", "abs_dev"):
            a, b = getattr(got, field), getattr(want, field)
            assert abs(a - b) / max(1.0, abs(a), abs(b)) <= 1e-14, (got, want)
    if trials == 350:
        terms_by_shape = {}
        for c in batched.comparisons:
            _, dims, terms = c.case.split(",")
            terms_by_shape.setdefault(dims, set()).add(terms)
        assert len(terms_by_shape) == 9
        assert all(len(terms) >= 4 for terms in terms_by_shape.values()), terms_by_shape


def test_witness_reports_eight_rows_per_trial():
    report = verify_separable_witness(3, 5)
    by_case = {}
    for c in report.comparisons:
        by_case.setdefault(c.case, []).append(c.quantity)
    assert [case.split(",")[0] for case in by_case] == ["trial=0", "trial=1", "trial=2"]
    for case, quantities in by_case.items():
        assert re.fullmatch(r"trial=\d,dims=[2-4]x[2-4],terms=[1-6]", case)
        assert quantities == sorted(f"{kind}[q={q:g}]" for q in WITNESS_ORDERS
                                    for kind in ("nonnegative", "separable_conditional"))


def test_witness_deterministic():
    first = verify_separable_witness(10, 42)
    second = verify_separable_witness(10, 42)
    assert first.to_json_obj() == second.to_json_obj()


def test_witness_seeds_differ():
    assert verify_separable_witness(10, 1).to_json_obj() \
        != verify_separable_witness(10, 2).to_json_obj()
