"""Density-matrix algebra, spectra, and quantum conditional entropies."""

import itertools
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtsallis import (CapacityError, DensityMatrix, Spectrum, ValidationError,
                      compose_pseudoadditive, partial_trace,
                      quantum_conditional, quantum_tsallis, spectrum_of,
                      tensor_product, tsallis_entropy, werner_density, WernerParams)
from qtsallis import _index, quantum, werner
from qtsallis._index import _entropy_from_gap, _far, _log_trace
from helpers import (ghz_vector, mp_log_trace, mp_tsallis, random_density, random_separable,
                     record_eigvalsh)


def basis_projector(dim, k):
    m = np.zeros((dim, dim), dtype=complex)
    m[k, k] = 1.0
    return DensityMatrix((dim,), m)


# -- DensityMatrix validation --------------------------------------------

def test_density_rejects_non_hermitian():
    m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValidationError):
        DensityMatrix((2,), m)


def test_density_rejects_bad_trace():
    with pytest.raises(ValidationError):
        DensityMatrix((2,), np.eye(2, dtype=complex))


def test_density_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValidationError):
        DensityMatrix((2,), m)


@pytest.mark.parametrize("entries,message", [
    ([[0.5, 0.0], [0.0, math.nan]], "^matrix entries must be finite$"),
    ([[0.5, math.nan], [math.nan, 0.5]], "^matrix entries must be finite$"),
    ([[0.5, complex(0.1, math.nan)], [complex(0.1, math.nan), 0.5]],
     "^matrix entries must be finite$"),
    ([[0.5, complex(math.nan, 0.1)], [complex(math.nan, -0.1), 0.5]],
     "^matrix entries must be finite$"),
    ([[0.5, math.inf], [math.inf, 0.5]], "^matrix entries must be finite$"),
    ([[0.5, math.inf], [0.0, 0.5]], "^matrix entries must be finite$"),
    ([[0.5, complex(0.0, math.inf)], [complex(0.0, -math.inf), 0.5]],
     "^matrix entries must be finite$"),
], ids=["nan-diagonal", "nan-off-diagonal", "complex-nan-imaginary", "complex-nan-real",
        "inf-off-diagonal", "inf-one-side", "complex-inf"])
def test_density_rejects_non_finite_entries(entries, message):
    # each of these passed every check before, with nan eigenvalues; the refusal comes
    # before eigvalsh, with no numpy warning (tier-1 turns RuntimeWarning into an error)
    with pytest.raises(ValidationError, match=message):
        DensityMatrix((2,), entries)


@pytest.mark.parametrize("first", [True, False])
def test_stacked_check_refuses_nan_eigenvalues_in_any_member(first):
    # Python's min over [nan, 0.4] is nan but over [0.4, nan] is 0.4: the check
    # reduces with numpy, which propagates nan wherever it sits
    spoiled = np.array([[0.5, math.nan], [math.nan, 0.5]])  # unit trace, nan eigenvalues
    members = [spoiled, np.array([[0.5, 0.1], [0.1, 0.5]])]
    with pytest.raises(ValidationError, match="smallest eigenvalue nan"):
        quantum._checked_eigenvalues(np.stack(members if first else members[::-1]))
    with pytest.raises(ValidationError, match="smallest eigenvalue nan"):
        DensityMatrix._adopt((2,), spoiled)
    with pytest.raises(ValidationError, match="trace is"):
        DensityMatrix._adopt((2,), np.diag([0.5, math.nan]))


def _pair_beside_one_index(where, shift):
    """Unit-trace 3 x 3 matrix, a coupled pair beside an isolated index,
    whose smallest eigenvalue is -shift, in the part named by ``where``."""
    if where == "isolated":
        return np.array([[0.5 + shift, 0.1, 0], [0.1, 0.5, 0], [0, 0, -shift]])
    # the pair's eigenvalues are 1 + shift and -shift
    return np.array([[0.5, 0.5 + shift, 0], [0.5 + shift, 0.5, 0], [0, 0, 0]])


@pytest.mark.parametrize("where", ["isolated", "coupled"])
def test_density_rejects_negative_eigenvalue_in_either_part(monkeypatch, where):
    seen = record_eigvalsh(monkeypatch)
    kept = DensityMatrix((3,), _pair_beside_one_index(where, 1e-11))
    assert kept.eigenvalues[0] == pytest.approx(-1e-11, abs=1e-15)
    with pytest.raises(ValidationError, match="positive semidefinite"):
        DensityMatrix((3,), _pair_beside_one_index(where, 1e-9))
    assert [m.shape for m in seen] == [(2, 2), (2, 2)]  # the pair only, never 3 x 3


def _with_lowest_eigenvalue(rng, lowest):
    """Real symmetric unit-trace 3 x 3 matrix with eigenvalues ``lowest``,
    0.3 and the rest, in a random basis."""
    basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    m = basis @ np.diag([lowest, 0.3, 0.7 - lowest]) @ basis.T
    return (m + m.T) / 2


def _off_hermitian(m):
    m[0, 1] += 1e-11
    return m


def _off_trace(m):
    m[0, 0] += 1e-11
    return m


@pytest.mark.parametrize("spoil,message", [
    (_off_trace, "trace is"),
    (lambda m: _with_lowest_eigenvalue(np.random.default_rng(2), -1e-9), "positive semidefinite"),
])
def test_stacked_check_rejects_a_failing_last_member(spoil, message):
    rng = np.random.default_rng(1)
    members = [_with_lowest_eigenvalue(rng, lowest) for lowest in (0.1, 0.05, 0.2)]
    quantum._checked_eigenvalues(np.stack(members))
    members[-1] = spoil(members[-1])
    with pytest.raises(ValidationError, match=message) as stacked:
        quantum._checked_eigenvalues(np.stack(members))
    with pytest.raises(ValidationError) as single:
        DensityMatrix((3,), members[-1])
    assert str(stacked.value) == str(single.value)


def test_stacked_check_keeps_a_tiny_negative_eigenvalue():
    rng = np.random.default_rng(3)
    members = [_with_lowest_eigenvalue(rng, lowest) for lowest in (0.1, 0.05, -1e-11)]
    eigenvalues = quantum._checked_eigenvalues(np.stack(members))
    assert eigenvalues.shape == (3, 3)
    assert eigenvalues[2, 0] == pytest.approx(-1e-11, abs=1e-15)
    npt.assert_array_equal(eigenvalues[2], DensityMatrix((3,), members[2]).eigenvalues)


def test_stacked_eigenvalues_take_the_zero_rule():
    # |a><a| (x) rho_B couples every index and has rank dim_b: a stack of them meets the
    # solver's zero rule as each member alone does, bit for bit
    rng = np.random.default_rng(12)
    dims, members = (3, 4), []
    for _ in range(5):
        a = rng.standard_normal(dims[0])
        a /= np.linalg.norm(a)
        basis, _ = np.linalg.qr(rng.standard_normal((dims[1], dims[1])))
        rho_b = basis @ np.diag(rng.dirichlet(np.ones(dims[1]))) @ basis.T
        members.append(np.kron(np.outer(a, a), (rho_b + rho_b.T) / 2))
    stack = np.stack(members)
    assert np.count_nonzero(stack) == stack.size
    eigenvalues = quantum._checked_eigenvalues(stack)
    for row, member in zip(eigenvalues, members):
        npt.assert_array_equal(row, DensityMatrix(dims, member).eigenvalues)
        bound = quantum.SPECTRUM_MERGE_SCALE * len(row) * np.finfo(float).eps * row[-1]
        near = np.abs(row) <= bound
        assert near.sum() == 8 and not row[near].any()


def _uniform_with(side, where, shift):
    """The maximally mixed side x side state with ``shift`` added at ``where``."""
    m = np.eye(side) / side
    m[where] += shift
    return m


@pytest.mark.parametrize("where", [(727, 728), (728, 727), (0, 728), (728, 0)])
def test_blocked_hermitian_check_reaches_the_last_row_block_and_far_corner(where):
    # one asymmetric entry, |a - a^H| = shift exactly; a check of some blocks only misses it
    above = np.nextafter(quantum.HERMITIAN_TOL, 1.0)
    with pytest.raises(ValidationError, match="not Hermitian"):
        DensityMatrix((3,) * 6, _uniform_with(729, where, above))
    below = np.nextafter(quantum.HERMITIAN_TOL, 0.0)
    assert DensityMatrix((3,) * 6, _uniform_with(729, where, below)).side == 729


def test_blocked_hermitian_check_conjugates_complex_entries():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((243, 243)) + 1j * rng.standard_normal((243, 243))
    hermitian = a @ a.conj().T
    hermitian /= np.trace(hermitian).real
    rho = DensityMatrix((3,) * 5, hermitian)
    assert rho.entries.dtype == np.complex128 and np.abs(rho.entries.imag).min() == 0.0
    assert np.count_nonzero(rho.entries.imag) > 243 * 242 // 2
    # same upper triangle mirrored without conjugation: symmetric, not Hermitian
    twin = np.triu(hermitian) + np.triu(hermitian, 1).T
    with pytest.raises(ValidationError, match="not Hermitian"):
        DensityMatrix((3,) * 5, twin)


def test_tiled_hermitian_check_refuses_one_asymmetry_in_any_tile():
    # side 243 is three full tiles and a ragged one; one entry of each tile pair, either side
    side, tile = 243, quantum._CHECK_TILE
    quantum._check_hermitian(np.eye(side) / side)
    for i in range(0, side, tile):
        for j in range(i, side, tile):
            for where in ((i, min(j + tile, side) - 1), (min(j + tile, side) - 1, i)):
                with pytest.raises(ValidationError, match="not Hermitian"):
                    quantum._check_hermitian(_uniform_with(side, where, 1e-11))


def _permuted_block_state(rng, sizes, zeros, complex_entries):
    """Random PSD blocks of the given sizes and ``zeros`` zero singletons,
    placed on the diagonal, permuted at random and scaled to unit trace."""
    side = sum(sizes) + zeros
    m = np.zeros((side, side), dtype=complex if complex_entries else float)
    start = 0
    for size in sizes:
        g = rng.standard_normal((size, size))
        if complex_entries:
            g = g + 1j * rng.standard_normal((size, size))
        m[start:start + size, start:start + size] = g @ g.conj().T
        start += size
    order = rng.permutation(side)
    m = m[np.ix_(order, order)]
    return m / np.trace(m).real


@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=5),
       zeros=st.integers(0, 3), complex_entries=st.booleans(),
       tiny=st.sampled_from([None, "upper", "lower"]), seed=st.integers(0, 2**32 - 1))
@example(sizes=[1, 1, 1, 1], zeros=0, complex_entries=False, tiny=None, seed=0)
@example(sizes=[6], zeros=0, complex_entries=True, tiny=None, seed=1)
@example(sizes=[3, 2, 4], zeros=0, complex_entries=False, tiny="upper", seed=2)
@example(sizes=[2, 1], zeros=3, complex_entries=True, tiny="upper", seed=3)
@example(sizes=[2, 1], zeros=2, complex_entries=False, tiny="lower", seed=4)
@settings(deadline=None)
def test_split_eigenvalues_match_the_whole_matrix(sizes, zeros, complex_entries, tiny, seed):
    rng = np.random.default_rng(seed)
    m = _permuted_block_state(rng, sizes, zeros, complex_entries)
    # one entry of 1e-13, within the Hermitian tolerance, whose mirror stays 0: eigvalsh
    # reads it from the lower triangle only.  It goes between the two closest diagonal
    # entries (two zeros if there are), where it moves the eigenvalues most.
    pairs = [(i, j) for i in range(len(m)) for j in range(i + 1, len(m)) if m[i, j] == 0]
    if tiny and pairs:
        i, j = min(pairs, key=lambda p: abs(m[p[0], p[0]] - m[p[1], p[1]]))
        m[(i, j) if tiny == "upper" else (j, i)] = 1e-13
    rho = DensityMatrix((len(m),), m)
    whole = np.linalg.eigvalsh(rho.entries)
    npt.assert_allclose(rho.eigenvalues, whole, rtol=0, atol=1e-14 * whole[-1])


def test_fully_coupled_state_is_solved_without_a_copy():
    # every index coupled: the block is the state itself, so a caller's state costs its
    # copy and the boolean zero pattern, one eighth of a float64 state, and nothing more
    rng = np.random.default_rng(8)
    g = rng.standard_normal((256, 256))
    m = g @ g.T
    m /= np.trace(m)
    tracemalloc.start()
    try:
        DensityMatrix((256,), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * m.nbytes


@pytest.mark.parametrize("seed", range(6))
def test_named_coupled_block_gives_the_pattern_path_eigenvalues(seed):
    # an adopted state that names its coupled block builds no zero pattern, and its
    # eigenvalues are those the pattern finds, bit for bit; an empty block reads the diagonal
    rng = np.random.default_rng(seed)
    m = _permuted_block_state(rng, [3, 1, 2, 1], 2, complex_entries=seed % 2 == 1)
    off = m != 0
    np.fill_diagonal(off, False)
    coupled = np.flatnonzero(off.any(axis=0))
    assert len(coupled) == 5
    adopted = DensityMatrix._adopt((len(m),), m.copy(), coupled)
    npt.assert_array_equal(adopted.eigenvalues, DensityMatrix((len(m),), m).eigenvalues)
    diagonal = np.diag(np.diag(m))
    npt.assert_array_equal(DensityMatrix._adopt((len(m),), diagonal, coupled[:0]).eigenvalues,
                           np.sort(np.diag(m).real))


def test_density_rejects_oversized():
    # the cap is checked before the entries are read, so any array will do
    with pytest.raises(CapacityError):
        DensityMatrix((2,) * 13, np.eye(2) / 2)


def test_public_constructor_copies_the_callers_array():
    arr = np.diag([0.25, 0.75])
    rho = DensityMatrix((2,), arr)
    assert arr.flags.writeable and not rho.entries.flags.writeable
    arr[0, 0] = 0.5
    npt.assert_array_equal(rho.entries, np.diag([0.25, 0.75]))
    npt.assert_array_equal(rho.eigenvalues, [0.25, 0.75])


def test_internal_constructions_adopt_read_only_entries():
    rho = werner_density(WernerParams(2, 3, 0.4))
    for state in (rho, partial_trace(rho, {1, 2}), tensor_product(rho, basis_projector(2, 0))):
        assert not state.entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state.entries[0, 0] = 1.0


def test_public_checks_fire_in_order():
    # the stacked check reads eigenvalues only: Hermiticity is checked where a caller's array
    # comes in, and the witness stacks are Hermitian by construction (test_oracle)
    member = _off_hermitian(_with_lowest_eigenvalue(np.random.default_rng(1), 0.2))
    off = [[0.5, 0.1], [0.3, 0.5]]
    for dims, entries in (((3,), member), ((2,), off)):
        with pytest.raises(ValidationError, match="^matrix is not Hermitian within tolerance$"):
            DensityMatrix(dims, entries)
    with pytest.raises(ValidationError, match="^matrix is not Hermitian"):
        DensityMatrix((2,), np.multiply(off, 3))  # before the trace
    with pytest.raises(ValidationError, match="expected a 3x3 matrix"):
        DensityMatrix((3,), off)  # the shape before Hermiticity


def test_adopted_entries_keep_the_shape_trace_and_psd_checks():
    # the package adopts only arrays that are Hermitian by construction, so Hermiticity is
    # checked by the public constructor alone (test_public_checks_fire_in_order)
    with pytest.raises(ValidationError, match="trace is"):
        DensityMatrix._adopt((2,), np.eye(2))
    with pytest.raises(ValidationError, match="positive semidefinite"):
        DensityMatrix._adopt((2,), np.diag([1.5, -0.5]))
    with pytest.raises(ValidationError, match="expected a 2x2 matrix"):
        DensityMatrix._adopt((2,), np.eye(3) / 3)
    coherent = DensityMatrix._adopt((2,), np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex))
    assert coherent.entries.dtype == np.float64 and coherent.entries.flags.c_contiguous


@pytest.mark.parametrize("bad, later", [(1.5, 2.0), (math.nan, 1.5), (math.inf, math.nan)])
def test_checked_stack_quotes_the_first_failing_trace(bad, later):
    # the traces of a stack are checked as one array; the message quotes the first member
    # that fails, nan refused like any trace off 1
    stack = np.stack([np.eye(2) / 2] * 6).reshape(2, 3, 2, 2)
    npt.assert_array_equal(quantum._checked_eigenvalues(stack), np.full((2, 3, 2), 0.5))
    stack[0, 2] = np.diag([bad - 0.5, 0.5])
    stack[1, 1] = np.diag([later - 0.5, 0.5])
    for first, ordered in ((bad, stack), (later, stack[::-1])):
        message = re.escape(f"trace is {complex(first)!r}, expected 1")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            quantum._checked_eigenvalues(ordered)


# -- tensor_product ------------------------------------------------------

def test_tensor_product_maximally_mixed():
    half = DensityMatrix((2,), np.eye(2, dtype=complex) / 2)
    prod = tensor_product(half, half)
    assert prod.dims == (2, 2)
    npt.assert_allclose(prod.entries, np.eye(4) / 4, atol=1e-15)


def test_tensor_product_basis_states():
    prod = tensor_product(basis_projector(2, 0), basis_projector(2, 1))
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |01><01|
    npt.assert_allclose(prod.entries, expected, atol=1e-15)


def test_tensor_product_random_invariants():
    rng = np.random.default_rng(1)
    prod = tensor_product(random_density(rng, (2,)), random_density(rng, (3,)))
    assert prod.dims == (2, 3)  # constructor revalidates trace/PSD/hermiticity


def test_tensor_product_capacity(monkeypatch):
    # refused before the 8192-sided product is built
    with pytest.raises(CapacityError):
        tensor_product(DensityMatrix((64,), np.eye(64) / 64),
                       DensityMatrix((128,), np.eye(128) / 128))
    monkeypatch.setattr(quantum, "DENSE_DIM_CAP", 8)
    rng = np.random.default_rng(2)
    at_cap = tensor_product(random_density(rng, (2,)), random_density(rng, (4,)))
    assert at_cap.dims == (2, 4)
    with pytest.raises(CapacityError):
        tensor_product(at_cap, DensityMatrix((2,), np.eye(2) / 2))


# -- partial_trace -------------------------------------------------------

def test_partial_trace_recovers_factor():
    rng = np.random.default_rng(3)
    rho = random_density(rng, (2,))
    sigma = random_density(rng, (3,))
    prod = tensor_product(rho, sigma)
    npt.assert_allclose(partial_trace(prod, {0}).entries, rho.entries, atol=1e-12)
    npt.assert_allclose(partial_trace(prod, {1}).entries, sigma.entries, atol=1e-12)


def test_partial_trace_ghz_single_party():
    psi = ghz_vector(2, 3)
    rho = DensityMatrix((2, 2, 2), np.outer(psi, psi).astype(complex))
    reduced = partial_trace(rho, {2})
    npt.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_random_invariants():
    rng = np.random.default_rng(4)
    rho = random_density(rng, (2, 2, 2))
    reduced = partial_trace(rho, {1, 2})
    assert reduced.dims == (2, 2)
    assert abs(np.trace(reduced.entries) - 1.0) < 1e-12


def test_partial_trace_middle_subsystem():
    rng = np.random.default_rng(5)
    rho = random_density(rng, (2,))
    sigma = random_density(rng, (3,))
    tau = random_density(rng, (2,))
    prod = tensor_product(tensor_product(rho, sigma), tau)
    npt.assert_allclose(partial_trace(prod, {1}).entries, sigma.entries, atol=1e-12)


@given(dims=st.lists(st.integers(2, 3), min_size=1, max_size=3),
       other=st.lists(st.integers(2, 3), min_size=1, max_size=2), seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_partial_trace_and_tensor_product_stay_hermitian(dims, other, seed):
    # both adopt their results unchecked: from checked complex states they must pass the check
    rng = np.random.default_rng(seed)
    rho, sigma = random_density(rng, dims), random_density(rng, other)
    assert np.iscomplexobj(rho.entries) and np.iscomplexobj(sigma.entries)
    for size in range(1, len(dims) + 1):
        for keep in itertools.combinations(range(len(dims)), size):
            quantum._check_hermitian(partial_trace(rho, keep).entries)
    quantum._check_hermitian(tensor_product(rho, sigma).entries)
    quantum._check_hermitian(tensor_product(sigma, rho).entries)


def test_partial_trace_adopts_a_marginal_the_public_check_would_refuse():
    # the public constructor lets each mirrored pair differ by up to HERMITIAN_TOL; a partial
    # trace sums as many such pairs as the traced dimension, here 8, and adopts the result
    skew = np.triu(np.full((16, 16), 0.45e-12), 1)
    rho = DensityMatrix((2, 8), np.eye(16) / 16 + skew - skew.T)  # each pair 0.9e-12 apart
    marginal = partial_trace(rho, {0})
    asymmetry = abs(marginal.entries[0, 1] - marginal.entries[1, 0])
    assert quantum.HERMITIAN_TOL < asymmetry == pytest.approx(8 * 0.9e-12)
    with pytest.raises(ValidationError, match="not Hermitian"):
        DensityMatrix((2,), marginal.entries)


@pytest.mark.parametrize("dims", [(2.5, 2), (2, math.nan)])
def test_density_refuses_non_integral_dims(dims):
    with pytest.raises(ValidationError, match="must be an integer"):
        DensityMatrix(dims, np.eye(4) / 4)


def test_partial_trace_refuses_non_integral_index():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    with pytest.raises(ValidationError, match="must be an integer"):
        partial_trace(rho, {0.7})
    assert partial_trace(rho, {1.0}).dims == (2,)


def test_partial_trace_empty_keep():
    rng = np.random.default_rng(6)
    with pytest.raises(ValidationError):
        partial_trace(random_density(rng, (2, 2)), set())


# -- spectrum_of ---------------------------------------------------------

def test_spectrum_maximally_mixed():
    d = 5
    rho = DensityMatrix((d,), np.eye(d, dtype=complex) / d)
    assert spectrum_of(rho).levels == ((1 / d, d),)


def test_spectrum_pure_state():
    spec = spectrum_of(basis_projector(4, 2))
    assert spec.levels[0][0] == pytest.approx(1.0, abs=1e-12)
    assert spec.levels[0][1] == 1
    assert spec.levels[1][1] == 3
    assert spec.levels[1][0] == pytest.approx(0.0, abs=1e-12)


def test_spectrum_werner_paper_values():
    spec = spectrum_of(werner_density(WernerParams(2, 3, 0.4)))
    assert len(spec.levels) == 2
    (top, tm), (bulk, bm) = spec.levels
    assert (tm, bm) == (1, 7)
    assert top == pytest.approx(0.475, abs=1e-12)
    assert bulk == pytest.approx(0.075, abs=1e-12)


def test_eigenvalues_kept_from_validation_of_real_state(monkeypatch):
    seen = record_eigvalsh(monkeypatch)
    rho = werner_density(WernerParams(3, 3, 0.37))
    spec = spectrum_of(rho)
    assert len(seen) == 1 and not np.iscomplexobj(seen[0])
    monkeypatch.undo()
    npt.assert_allclose(rho.eigenvalues, np.linalg.eigvalsh(rho.entries),
                        rtol=0, atol=1e-14)
    assert not rho.eigenvalues.flags.writeable
    assert spec.total_multiplicity == 27


def test_complex_state_takes_complex_solver(monkeypatch):
    seen = record_eigvalsh(monkeypatch)
    rho = random_density(np.random.default_rng(7), (4,))
    spec = spectrum_of(rho)
    assert len(seen) == 1 and np.iscomplexobj(seen[0]) and seen[0].imag.any()
    monkeypatch.undo()
    direct = np.linalg.eigvalsh(rho.entries)[::-1]
    assert [mult for _, mult in spec.levels] == [1, 1, 1, 1]
    npt.assert_allclose([value for value, _ in spec.levels], direct,
                        rtol=0, atol=1e-14)


def test_entries_real_unless_some_imaginary_part_is_nonzero(monkeypatch):
    seen = record_eigvalsh(monkeypatch)
    # a coherence, so that the state reaches the solver
    coherent = DensityMatrix((2,), np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex))
    assert coherent.entries.dtype == np.float64 and coherent.entries.nbytes == 2 * 2 * 8
    assert len(seen) == 1 and seen[0].dtype == np.float64
    rho = random_density(np.random.default_rng(7), (4,))
    assert rho.entries.dtype == np.complex128


def diagonal_levels(values):
    """Levels of the diagonal state ``values``, whose eigenvalues are its
    diagonal entries exactly."""
    return spectrum_of(DensityMatrix((len(values),), np.diag(values))).levels


def test_merge_levels_folds_degenerate_values():
    from qtsallis.quantum import SPECTRUM_MERGE_SCALE
    # side 4, largest eigenvalue 0.5: levels up to this far apart are one level
    tol = SPECTRUM_MERGE_SCALE * 4 * np.finfo(float).eps * 0.5
    merged = diagonal_levels([0.5, 0.5 - tol, 0.0, 0.0])
    assert merged == ((pytest.approx(0.5, abs=tol), 2), (0.0, 2))
    # weighted mean keeps the total weight exact
    assert merged[0][0] == 0.5 - tol / 2
    assert len(diagonal_levels([0.5, 0.5 - 2 * tol, 0.0, 0.0])) == 3
    # the rule scales with the side: the same spacing folds among more levels
    assert len(diagonal_levels([0.5, 0.5 - 2 * tol] + [0.0] * 6)) == 2


def test_fold_builds_the_spectrum_that_validation_would():
    """Folded eigenvalues skip the checks of Spectrum, whose clamp, sort and
    trace check would leave them unchanged, bit for bit."""
    rng = np.random.default_rng(3)
    for dims in ((2,), (2, 2), (3, 3), (2, 2, 2)):
        folded = spectrum_of(random_density(rng, dims))
        assert folded.levels == Spectrum(folded.levels).levels
    ghz = spectrum_of(DensityMatrix((2, 2), np.outer(ghz_vector(2, 2), ghz_vector(2, 2))))
    assert ghz == Spectrum(ghz.levels)
    assert diagonal_levels([-2e-15, -1e-15, 1.0]) == ((1.0, 1), (0.0, 2))
    assert diagonal_levels([-5e-11, 1 + 5e-11]) == ((1.0, 1), (0.0, 1))


def test_exact_diagonal_entries_are_kept_however_small():
    # isolated diagonal entries are eigenvalues with no solver error: an entry of 1e-17 is a
    # level, which weighs a lot at small q, not noise to be taken for 0
    rho = DensityMatrix((3,), np.diag([0.5, 0.5, 1e-17]))
    assert rho.eigenvalues.tolist() == [1e-17, 0.5, 0.5]
    assert spectrum_of(rho).levels == ((0.5, 2), (1e-17, 1))
    exact = quantum_tsallis(Spectrum(((0.5, 2), (1e-17, 1))), 0.1)
    assert quantum_tsallis(spectrum_of(rho), 0.1) == exact
    assert exact == pytest.approx((1 - 2 * 0.5 ** 0.1 - 1e-17 ** 0.1) / (0.1 - 1), rel=1e-15)


def test_folded_spectrum_keeps_the_trace_of_tiny_exact_entries():
    # 63 entries of 1e-13, each below SPECTRUM_MERGE_SCALE * side * eps at side 64: exact, so
    # kept, and the unchecked spectrum has the trace that the constructor of Spectrum checks
    levels = diagonal_levels([1.0 - 63e-13] + [1e-13] * 63)
    assert [mult for _, mult in levels] == [1, 63]
    assert levels[1][0] == pytest.approx(1e-13, rel=1e-15)
    assert Spectrum(levels).levels == levels


def test_solved_block_zeros_are_zero_beside_exact_entries():
    # a coupled block that is a pure state beside an isolated entry of 1e-17: the block's
    # eigenvalues within the solver's error of 0 are 0, the isolated entry keeps its value
    m = np.zeros((4, 4))
    m[:3, :3] = 1.0 / 3.0
    m[3, 3] = 1e-17
    rho = DensityMatrix((4,), m)
    assert rho.eigenvalues[:3].tolist() == [0.0, 0.0, 1e-17]
    assert rho.eigenvalues[3] == pytest.approx(1.0, abs=1e-15)
    # a small eigenvalue above that error stays as the solver returns it
    c, s = math.cos(0.3), math.sin(0.3)
    rotation = np.array([[c, -s], [s, c]])
    block = rotation @ np.diag([1e-12, 1.0 - 1e-12]) @ rotation.T
    solved = quantum._solved(block)
    npt.assert_array_equal(solved, np.linalg.eigvalsh(block))
    assert solved[0] == pytest.approx(1e-12, abs=1e-15)


def test_spectrum_validation():
    with pytest.raises(ValidationError):
        Spectrum(((0.5, 1), (0.5, 0)))       # zero multiplicity
    with pytest.raises(ValidationError):
        Spectrum(((0.9, 1),))                # weighted sum != 1
    with pytest.raises(ValidationError):
        Spectrum(((1.5, 1), (-0.5, 1)))      # out of range
    spec = Spectrum(((-5e-11, 1), (1.0, 1)))  # tiny negative clamps to 0
    assert spec.levels[-1][0] == 0.0


@pytest.mark.parametrize("levels,message", [
    (((math.nan, 1),), "eigenvalue nan lies outside"),
    (((0.5, 1), (math.nan, 1)), "eigenvalue nan lies outside"),
    (((math.inf, 1),), "eigenvalue inf lies outside"),
    (((0.25, 4.9),), "^multiplicity must be an integer, got 4.9$"),
    (((0.25, math.nan),), "^multiplicity must be an integer, got nan$"),
    (((0.5, math.inf), (0.0, 1)), "^multiplicity must be an integer, got inf$"),
], ids=["nan", "nan-second", "inf", "fractional-multiplicity", "nan-multiplicity",
        "inf-multiplicity"])
def test_spectrum_refuses_non_finite_values_and_fractional_multiplicities(levels, message):
    # a nan eigenvalue passed every check, 4.9 became 4, and a nan multiplicity
    # raised Python's own ValueError
    with pytest.raises(ValidationError, match=message):
        Spectrum(levels)
    assert Spectrum(((0.25, 4.0),)).levels == ((0.25, 4),)
    assert type(Spectrum(((0.25, np.int64(4)),)).levels[0][1]) is int


@pytest.mark.parametrize("levels", [
    ((0.5, 10**400),),
    ((0.5, 1e300),),
    ((1.0, 1), (0.0, 2**63)),
    ((1.0, 1), (0.0, 10**400)),
], ids=["10**400", "1e300", "2**63", "zero-level-10**400"])
def test_spectrum_refuses_a_multiplicity_above_the_cap(levels):
    # 10**400 escaped as Python's OverflowError, and 2**63 was accepted
    cap = 2**63 - 1
    with pytest.raises(ValidationError, match=f"^multiplicity exceeds the cap of {cap}$"):
        Spectrum(levels)
    assert werner.MULTIPLICITY_CAP == _index.MULTIPLICITY_CAP == cap
    assert Spectrum(((0.5, 1), (0.5 / cap, cap))).levels[1][1] == cap  # the cap itself passes


# -- the log q-trace kernel ----------------------------------------------

def log_q_trace(spectrum, q):
    """ln sum m v**q of a spectrum by the shared kernel, in the branch that
    its total multiplicity picks."""
    return _log_trace(spectrum.levels, q, _far(q, math.log(spectrum.total_multiplicity)))


def test_q_trace_direct():
    assert log_q_trace(Spectrum(((0.5, 2),)), 2.0) == pytest.approx(math.log(0.5), abs=1e-15)


def test_q_trace_normalization_at_one():
    # at q = 1 the kernel gives the von Neumann entropy in place of
    # ln Tr rho = 0; next to it, ln Tr rho**q = ln(1 + (1 - q) S_q) keeps
    # the sign of 1 - q and lies within |q - 1| ln 5 (8 ulps) of 0
    rng = np.random.default_rng(8)
    for _ in range(10):
        spec = spectrum_of(random_density(rng, (5,)))
        for far in (False, True):
            assert _log_trace(spec.levels, 1.0, far) == pytest.approx(
                float(mp_tsallis(spec.levels, 1.0)), rel=1e-15, abs=0)
        for q in (1.0 - 1e-15, 1.0 + 1e-15):
            value = log_q_trace(spec, q)
            assert 0.0 < value / (1.0 - q) <= math.log(5), (q, value)
            assert math.expm1(value) / (1.0 - q) == pytest.approx(
                float(mp_tsallis(spec.levels, q)), rel=1e-15, abs=0)


def test_q_trace_dominant_level_asymptote():
    spec = Spectrum(((0.475, 1), (0.075, 7)))
    assert log_q_trace(spec, 100.0) == pytest.approx(100 * math.log(0.475), rel=1e-6)


def test_q_trace_extreme_order_is_finite():
    spec = Spectrum(((0.475, 1), (0.075, 7)))
    value = log_q_trace(spec, 1e6)
    assert math.isfinite(value)
    assert value == pytest.approx(1e6 * math.log(0.475), rel=1e-9)


#: Largest |_log_traces - _log_trace| / max(1, |value|) allowed: relative
#: above 1, absolute below, as the ln of a sum between 1 and 16 rounds at
#: an absolute eps however small the value.  numpy sums in another order
#: than the scalar kernel (and than math.fsum); the worst seen was 1.1e-15,
#: in the far branch, over 200 000 random rows and orders and 20 000
#: hypothesis examples steered towards the largest deviation.
LOG_TRACES_TOL = 4e-15


@st.composite
def eigenvalue_stacks(draw):
    """1 to 3 ascending rows of one side from 1 to 16, each summing to 1:
    normalized positive weights among exact zeros and subnormal entries."""
    side = draw(st.integers(1, 16))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        live = draw(st.integers(1, side))
        weights = draw(st.lists(st.floats(1e-300, 1.0), min_size=live, max_size=live))
        total = math.fsum(weights)
        rest = draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-310]),
                             min_size=side - live, max_size=side - live))
        rows.append(sorted([w / total for w in weights] + rest))
    return np.array(rows)


#: Orders log-uniform in (1e-3, 1e6], the limit point and either side of it.
witness_orders = st.one_of(
    st.floats(math.log(1e-3), math.log(1e6), exclude_min=True).map(
        lambda t: min(math.exp(t), 1e6)),
    st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12]))


@given(eigenvalue_stacks(), witness_orders)
@example(np.array([[0.0, 5e-324, 0.25, 0.75]]), 0.01)  # expm1 overflows: its fallback
@example(np.array([[0.0, 0.0, 0.5, 0.5], [0.0, 0.25, 0.25, 0.5]]), 1.0)  # zeros at the limit
@example(np.array([[0.0, 1e-310, 1e-310, 1.0]]), 1e6)  # one live term at the largest order
@settings(deadline=None, max_examples=300)
def test_log_traces_match_the_scalar_kernel_row_by_row(stack, q):
    """The stacked kernel of the witness against :func:`_log_trace` on (v, 1)
    levels, in both branches and at the limit point, on the rows as drawn
    and padded with exact zeros to side 16 as the witness pads them.  The
    near branch is compared wherever it is well conditioned, ln sum v**q
    >= -1 (always at q <= 1, where its terms are nonnegative).  Beyond
    that its log1p meets a sum next to -1, and :func:`_far` sends no such
    row there: it picks the near branch only where (q - 1) ln(side) <= 1,
    so that sum v**q >= 1/e on every row of that side or less."""

    def scalar(row, far):
        return _log_trace([(v, 1) for v in reversed(row)], q, far)

    conditioned = [scalar(row, True) >= -1.0 for row in stack.tolist()]
    for far, rows in ((True, stack), (False, stack[conditioned])):
        traces = quantum._log_traces(quantum._logged(rows), q, far)
        padded = quantum._log_traces(
            quantum._logged(np.pad(rows, ((0, 0), (0, 16 - rows.shape[1])))), q, far)
        assert traces.shape == padded.shape == (len(rows),)
        for row, value, padded_value in zip(rows.tolist(), traces.tolist(), padded.tolist()):
            expected = scalar(row, far)
            for got in (value, padded_value):
                assert abs(got - expected) <= LOG_TRACES_TOL * max(1.0, abs(expected)), \
                    (row, q, far, got, expected)
            assert abs(padded_value - value) <= LOG_TRACES_TOL * max(1.0, abs(value)), \
                (row, q, far, padded_value, value)



#: Gaps of log q-traces: overflowing expm1 either way, ordinary, tiny and
#: exactly zero of either sign.
ENTROPY_GAPS = [800.0, -800.0, 709.0, 710.0, -3.5, -1e-300, -0.0, 0.0, 1e-300, 0.25, 2.0]


@pytest.mark.parametrize("q", [0.5, 2.0, 100.0, 1.0, 1.0 + 5e-10, 1.0 - 1e-12, 1.0 + 1e-12])
def test_entropies_from_gaps_match_the_scalar_step(q):
    """The witness's array step against :func:`_entropy_from_gap`, element by
    element: an overflowing expm1 gives an infinity with the sign of 1 - q
    and no warning, zeros keep their sign, the limit point passes the gap
    through, and every other value is within two ulps of the scalar's, since
    numpy's expm1 is not the C library's."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = quantum._entropies_from_gaps(np.array(ENTROPY_GAPS), q).tolist()
    for gap, value in zip(ENTROPY_GAPS, values):
        expected = _entropy_from_gap(gap, q)
        if q == 1.0 or not math.isfinite(expected) or expected == 0.0:
            assert value.hex() == expected.hex(), (gap, value, expected)
        else:
            assert abs(value - expected) <= 4.5e-16 * abs(expected), (gap, value, expected)
    if q != 1.0:
        assert values[0] == math.copysign(math.inf, 1.0 - q)
        assert values[1] == -1.0 / (1.0 - q)


# -- quantum_tsallis -----------------------------------------------------

@pytest.mark.parametrize("q", [0.5, 2.0, 5.0])
def test_quantum_tsallis_maximally_mixed(q):
    d = 7
    spec = Spectrum(((1 / d, d),))
    expected = (d ** (1 - q) - 1) / (1 - q)
    assert quantum_tsallis(spec, q) == pytest.approx(expected, abs=1e-12)


def test_quantum_tsallis_pure_state_zero():
    spec = Spectrum(((1.0, 1), (0.0, 3)))
    for q in (0.5, 1.0, 2.0, 100.0):
        assert quantum_tsallis(spec, q) == pytest.approx(0.0, abs=1e-15)


def test_quantum_tsallis_direct_value():
    spec = Spectrum(((0.475, 1), (0.075, 7)))
    assert quantum_tsallis(spec, 2) == pytest.approx(0.735, abs=1e-12)


def test_quantum_tsallis_von_neumann_limit():
    spec = Spectrum(((0.7, 1), (0.3, 1)))
    expected = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3))
    assert quantum_tsallis(spec, 1.0) == pytest.approx(expected, abs=1e-15)
    near = mp_tsallis(spec.levels, 1.0 + 1e-10)
    assert quantum_tsallis(spec, 1.0 + 1e-10) == pytest.approx(float(near), rel=1e-15, abs=0)


@pytest.mark.parametrize("q", [1.0 - 1e-6, 1.0 + 1e-6, 1.0 - 1e-8, 1.0 + 1e-8])
def test_dense_entropies_next_to_one_match_mpmath(q):
    rng = np.random.default_rng(12)
    for _ in range(200):
        spec = spectrum_of(random_density(rng, (int(rng.integers(2, 17)),)))
        reference = mp_tsallis(spec.levels, q)
        assert abs(quantum_tsallis(spec, q) - reference) <= 1e-12 * abs(reference)
        rho = random_density(rng, (int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        joint, marginal = spectrum_of(rho), spectrum_of(partial_trace(rho, {0}))
        with mpmath.workdps(50):
            s_marginal = mp_tsallis(marginal.levels, q)
            reference = ((mp_tsallis(joint.levels, q) - s_marginal)
                         / (1 + (1 - mpmath.mpf(q)) * s_marginal))
        value = quantum_conditional(joint, marginal, q)
        assert abs(value - reference) <= 1e-12 * abs(reference)


def test_subnormal_level_at_small_order_matches_mpmath():
    # next to q = 1 in |q - 1| ln 2, but expm1((q - 1) ln 5e-324) overflows
    spec = Spectrum(((1.0, 1), (5e-324, 1)))
    reference = mp_tsallis(spec.levels, 0.01)
    with mpmath.workdps(50):
        log_trace = mp_log_trace(spec.levels, 0.01)
    assert abs(quantum_tsallis(spec, 0.01) - reference) <= 1e-15 * reference
    assert abs(tsallis_entropy([1.0, 5e-324], 0.01) - reference) <= 1e-15 * reference
    assert abs(log_q_trace(spec, 0.01) - log_trace) <= 1e-15 * log_trace


# -- quantum_conditional -------------------------------------------------

def test_conditional_product_state_pseudoadditive():
    rng = np.random.default_rng(9)
    rho = random_density(rng, (2,))
    sigma = random_density(rng, (3,))
    joint = spectrum_of(tensor_product(rho, sigma))
    marginal = spectrum_of(rho)
    for q in (0.5, 1.0, 2.0, 5.0):
        assert quantum_conditional(joint, marginal, q) == pytest.approx(
            quantum_tsallis(spectrum_of(sigma), q), abs=1e-10)


def test_conditional_pure_ghz_value():
    joint = Spectrum(((1.0, 1),))
    marginal = Spectrum(((0.5, 2),))
    assert quantum_conditional(joint, marginal, 2) == pytest.approx(-1.0, abs=1e-15)


def test_conditional_ghz_always_negative():
    for levels, parties in ((2, 2), (2, 3), (3, 2), (4, 2), (3, 3)):
        psi = ghz_vector(levels, parties)
        rho = DensityMatrix((levels,) * parties, np.outer(psi, psi).astype(complex))
        joint = spectrum_of(rho)
        marginal = spectrum_of(partial_trace(rho, range(1, parties)))
        for q in (0.3, 0.9, 1.0, 1.1, 2.0, 10.0, 100.0):
            assert quantum_conditional(joint, marginal, q) < 0.0


def test_pseudoadditivity_matches_composition():
    rng = np.random.default_rng(10)
    for _ in range(10):
        rho = random_density(rng, (2,))
        sigma = random_density(rng, (3,))
        joint = spectrum_of(tensor_product(rho, sigma))
        for q in (0.5, 1.0, 2.0, 5.0):
            total = quantum_tsallis(joint, q)
            composed = compose_pseudoadditive(
                quantum_tsallis(spectrum_of(rho), q),
                quantum_tsallis(spectrum_of(sigma), q), q)
            assert total == pytest.approx(composed, abs=1e-10)


# -- separable states ----------------------------------------------------

def conditional_given_first(rho, q):
    """S_q(B|A) of a two-subsystem state, marginal by partial trace."""
    return quantum_conditional(spectrum_of(rho), spectrum_of(partial_trace(rho, {0})), q)


def test_separable_conditional_product_term():
    rng = np.random.default_rng(11)
    rho, sigma = random_density(rng, (3,)), random_density(rng, (2,))
    product = tensor_product(rho, sigma)
    for q in (0.5, 1.0, 2.0, 10.0):
        assert conditional_given_first(product, q) == pytest.approx(
            quantum_tsallis(spectrum_of(sigma), q), abs=1e-12)


def test_separable_conditional_classical_mixture_is_zero():
    # (|00><00| + |11><11|) / 2
    rho = DensityMatrix((2, 2), np.diag([0.5, 0.0, 0.0, 0.5]))
    for q in (0.5, 1.0, 2.0, 100.0):
        assert conditional_given_first(rho, q) == pytest.approx(0.0, abs=1e-15)


def test_separable_mixtures_have_nonnegative_conditional():
    rng = np.random.default_rng(12)
    for _ in range(25):
        state, marginal = random_separable(rng, int(rng.integers(2, 5)),
                                           int(rng.integers(2, 5)), int(rng.integers(1, 7)))
        npt.assert_allclose(partial_trace(state, {0}).entries, marginal.entries,
                            rtol=0, atol=1e-15)
        for q in (0.5, 1.0, 3.0, 10.0, 100.0):
            assert conditional_given_first(state, q) >= -1e-12
