"""Dense-matrix brute-force verification.

Builds the dense family members (here, and only here) and their
marginals explicitly, each marginal traced from the one before, computes
spectra and entropies numerically, and certifies every closed form at
small scale.  The random separable witness builds its mixtures one trial
at a time but checks and eigendecomposes them as stacks, one per
(d_A, d_B) shape, and takes their log q-traces a stack at a time, once
per shape and order.  Verification results are data, not exceptions: each
comparison becomes a row in a report that serializes to JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._index import Spectrum, _as_index, _conditionals, _count, _entropy_from_gap, _far
from .errors import ValidationError
from .quantum import (DensityMatrix, _checked_eigenvalues, _log_traces, _refuse_above_cap,
                      _trace_out, partial_trace, spectrum_of)
from .werner import (WernerParams, conditional_entropy_block, joint_spectrum,
                     marginal_spectrum)

#: Per-level eigenvalue and per-entropy agreement bound for closed forms.
AGREEMENT_TOL = 1e-10
#: Identity bound for the structural check of the explicit marginal form.
STRUCTURE_TOL = 1e-12
#: Witness values below this count as a nonnegativity violation.
NONNEG_FLOOR = -1e-12

#: Entropy orders exercised by the random separable witness.
WITNESS_ORDERS = (0.5, 2.0, 10.0, 100.0)


def _deviation(a: float, b: float) -> float:
    """Disagreement scaled to value magnitude.

    Equals the absolute deviation whenever both values have magnitude at
    most 1 (all eigenvalues, most entropies); beyond that it is relative,
    since double precision cannot hold an absolute 1e-10 on quantities of
    magnitude 1e5 whose own spacing is coarser than that.
    """
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class Comparison:
    """One closed-form-versus-oracle comparison.

    ``abs_dev`` holds the magnitude-scaled deviation of :func:`_deviation`.
    """

    case: str
    quantity: str
    closed_form: float
    oracle: float
    abs_dev: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "quantity": self.quantity,
            "closed_form": self.closed_form,
            "oracle": self.oracle,
            "abs_dev": self.abs_dev,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Sorted collection of comparisons; failing rows make it failing."""

    comparisons: tuple[Comparison, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.comparisons, key=lambda c: (c.case, c.quantity)))
        object.__setattr__(self, "comparisons", ordered)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.comparisons)

    @property
    def max_abs_dev(self) -> float:
        return max((c.abs_dev for c in self.comparisons), default=0.0)

    def to_json_obj(self) -> list[dict]:
        return [c.to_dict() for c in self.comparisons]


def _ghz_indices(levels: int, parties: int) -> np.ndarray:
    """Flat indices of the all-equal multi-indices (k, k, ..., k)."""
    step = (levels ** parties - 1) // (levels - 1)  # 1 + N + ... + N**(parties-1)
    return np.arange(levels) * step


def werner_density(params: WernerParams) -> DensityMatrix:
    """Dense matrix of the family member: uniform background of weight
    (1 - x) plus the GHZ projector of weight x, which is x/N on every entry
    of the all-equal block.  Cross-check scale only: a member above
    ``DENSE_DIM_CAP`` is refused before anything is allocated.  The state
    adopts the matrix built here without a copy, and each marginal of
    :func:`verify_family` is traced from the one before, so certifying a
    member allocates at most about 1.5 times the member's own bytes."""
    dim = params.total_dim
    _refuse_above_cap(dim)
    entries = np.zeros((dim, dim))
    np.fill_diagonal(entries, (1.0 - params.mixing) / dim)
    ghz = _ghz_indices(params.levels, params.parties)
    entries[np.ix_(ghz, ghz)] += params.mixing / params.levels
    return DensityMatrix._adopt((params.levels,) * params.parties, entries)


def _marginal_of(state: DensityMatrix, params: WernerParams, kept: int) -> DensityMatrix:
    """Partial trace of a family member, or of one of its marginals, over
    all but its last ``kept`` parties, cross-checked against the explicit
    decohered form of the marginal: the uniform background plus x/N on each
    all-equal diagonal entry.  Tracing out one party of the (kept + 1)-party
    marginal gives the kept-party marginal of the member itself."""
    parties = len(state.dims)
    marginal = partial_trace(state, range(parties - kept, parties))
    reduced_dim = params.levels ** kept
    direct = ((1.0 - params.mixing) / reduced_dim) * np.eye(reduced_dim)
    spikes = _ghz_indices(params.levels, kept)
    direct[spikes, spikes] += params.mixing / params.levels
    direct -= marginal.entries
    drift = float(np.max(np.abs(direct, out=direct)))
    if drift > STRUCTURE_TOL:
        raise ValidationError(
            f"partial trace deviates from the explicit marginal form by {drift}")
    return marginal


def _spectrum_rows(case: str, label: str, closed: Spectrum,
                   oracle: Spectrum) -> list[Comparison]:
    if len(closed.levels) != len(oracle.levels):
        return [Comparison(case, f"{label}.level_count",
                           float(len(closed.levels)), float(len(oracle.levels)),
                           float(abs(len(closed.levels) - len(oracle.levels))), False)]
    rows = []
    for idx, ((cv, cm), (ov, om)) in enumerate(zip(closed.levels, oracle.levels)):
        dev = _deviation(cv, ov)
        rows.append(Comparison(
            case, f"{label}[level={idx}].eigenvalue", cv, ov, dev, dev <= AGREEMENT_TOL))
        rows.append(Comparison(
            case, f"{label}[level={idx}].multiplicity",
            float(cm), float(om), float(abs(cm - om)), cm == om))
    return rows


def verify_family(params_grid, q_grid) -> VerificationReport:
    """Certify the closed-form spectra and conditional entropies against
    dense eigendecompositions over a grid of family members and orders.

    For every family member: the joint spectrum and each marginal spectrum
    (all block sizes) are compared level by level.  The (n - 1)-party
    marginal is traced from the joint state and each smaller one from the
    marginal before it, one party at a time, so the joint is released after
    the first trace; each is checked against its explicit form
    (:func:`_marginal_of`).  For every order q, each block conditional
    entropy (from the closed-form log q-traces) is compared against the
    ratio form that ``quantum_conditional`` evaluates on the oracle
    spectra, with the joint's log q-trace taken once for all block sizes
    (:func:`qtsallis._index._conditionals`).  All comparisons use
    ``AGREEMENT_TOL`` on the magnitude-scaled deviation of
    :func:`_deviation`.
    """
    rows: list[Comparison] = []
    for params in params_grid:
        case = f"N={params.levels},n={params.parties},x={params.mixing:g}"
        state = werner_density(params)
        oracle_joint = spectrum_of(state)
        rows.extend(_spectrum_rows(case, "joint_spectrum",
                                   joint_spectrum(params), oracle_joint))
        oracle_marginals = {}
        for m in range(params.parties - 1, 0, -1):
            state = _marginal_of(state, params, m)
            oracle_marginals[m] = spectrum_of(state)
            rows.extend(_spectrum_rows(case, f"marginal_spectrum[m={m}]",
                                       marginal_spectrum(params, m),
                                       oracle_marginals[m]))
        blocks = range(1, params.parties)
        log_count = math.log(oracle_joint.total_multiplicity)
        for q in q_grid:
            oracle_values = _conditionals(
                oracle_joint.levels, [oracle_marginals[k].levels for k in blocks],
                _as_index(q), log_count)
            for k, oracle_value in zip(blocks, oracle_values):
                closed = conditional_entropy_block(params, k, q)
                dev = _deviation(closed, oracle_value)
                rows.append(Comparison(
                    case, f"conditional_entropy_block[k={k},q={q:g}]",
                    closed, oracle_value, dev, dev <= AGREEMENT_TOL))
    return VerificationReport(tuple(rows))


def _random_states(rng, count: int, dim: int) -> np.ndarray:
    """``count`` real full-rank states G G^T / tr(G G^T), G standard normal."""
    g = rng.standard_normal((count, dim, dim))
    gram = g @ g.transpose(0, 2, 1)
    return gram / np.trace(gram, axis1=1, axis2=2)[:, None, None]


def _witness_rows(cases, joint: np.ndarray, closed: np.ndarray,
                  traced: np.ndarray) -> list[Comparison]:
    """S_q(B|A) of each trial of one shape at each of ``WITNESS_ORDERS``,
    given the ``closed`` A marginal Sigma w rho_A against the ``traced`` one
    (oracle), and its sign.  ``joint``, ``closed`` and ``traced`` are the
    stacks of checked eigenvalue rows of those states, one row per case;
    each takes one log q-trace per order (:func:`qtsallis.quantum._log_traces`),
    all three in the branch of the joint's side."""
    log_count = math.log(joint.shape[-1])
    rows = []
    for q in WITNESS_ORDERS:
        qi = _as_index(q)
        order, far = None if qi.is_limit_point else q, _far(q, log_count)
        joint_traces = _log_traces(joint, order, far)
        gaps = zip((joint_traces - _log_traces(closed, order, far)).tolist(),
                   (joint_traces - _log_traces(traced, order, far)).tolist())
        for case, (closed_gap, traced_gap) in zip(cases, gaps):
            closed_value = _entropy_from_gap(closed_gap, qi)
            oracle_value = _entropy_from_gap(traced_gap, qi)
            dev = _deviation(closed_value, oracle_value)
            rows.append(Comparison(
                case, f"separable_conditional[q={q:g}]",
                closed_value, oracle_value, dev, dev <= AGREEMENT_TOL))
            rows.append(Comparison(
                case, f"nonnegative[q={q:g}]",
                closed_value, 0.0, max(0.0, -closed_value), closed_value >= NONNEG_FLOOR))
    return rows


def verify_separable_witness(trials: int, seed: int) -> VerificationReport:
    """Random separable-state witness suite, deterministic for a given seed.

    Each trial mixes 1 to 6 products of real full-rank local states (see
    :func:`_random_states`; they do not commute across terms) on d_A, d_B
    in [2, 4], rho_AB = sum_l w_l rho_A^l (x) rho_B^l, with uniform weights
    normalized to sum 1.  S_q(B|A) from the marginal sum_l w_l rho_A^l must
    match the one from the partial trace (``AGREEMENT_TOL``) and be
    nonnegative (``NONNEG_FLOOR``): a separable state's spectrum is
    majorized by its marginal's (Nielsen & Kempe, PRL 86, 5184 (2001)).
    The joints, their closed marginals and the joints' partial traces of
    each of the nine shapes (d_A, d_B) form one stack apiece, checked and
    eigendecomposed in one call (:func:`qtsallis.quantum._checked_eigenvalues`).
    Each stack of eigenvalue rows then takes one numpy log q-trace per
    order, unfolded (:func:`_witness_rows`), so the values can differ by a
    few ulps from ``quantum_conditional`` on each trial's spectra.
    """
    trials, seed = _count(trials, "trial count"), _count(seed, "seed")
    if trials < 1:
        raise ValidationError("need at least one trial")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    shapes: dict[tuple[int, int], list[tuple]] = {}
    for trial in range(trials):
        dim_a = int(rng.integers(2, 5))
        dim_b = int(rng.integers(2, 5))
        terms = int(rng.integers(1, 7))
        weights = rng.uniform(size=terms)
        weights /= weights.sum()
        local_a = _random_states(rng, terms, dim_a)
        local_b = _random_states(rng, terms, dim_b)
        joint = np.einsum("l,lac,lbd->abcd", weights, local_a, local_b)
        closed = np.dot(weights, local_a.reshape(terms, -1)).reshape(dim_a, dim_a)
        shapes.setdefault((dim_a, dim_b), []).append((
            f"trial={trial},dims={dim_a}x{dim_b},terms={terms}",
            joint.reshape(dim_a * dim_b, -1), closed))
    rows: list[Comparison] = []
    for dims, group in shapes.items():
        cases, joints, closed = zip(*group)
        joints = np.stack(joints)
        rows.extend(_witness_rows(cases, *(
            _checked_eigenvalues(stack)
            for stack in (joints, np.stack(closed), _trace_out(joints, dims, [0])))))
    return VerificationReport(tuple(rows))


def default_family_grid(max_dim: int = 4096) -> list[WernerParams]:
    """Standard verification grid: N in {2, 3}, n in {2, 3, 4}, x from 0 to
    1 in steps of 0.1, filtered to total dimension at most ``max_dim``."""
    grid = []
    for levels in (2, 3):
        for parties in (2, 3, 4):
            if levels ** parties > max_dim:
                continue
            for tenths in range(11):
                grid.append(WernerParams(levels, parties, tenths / 10.0))
    return grid


def default_order_grid() -> tuple[float, ...]:
    """Standard verification orders, straddling the q = 1 limit point."""
    return (0.5, 1.0, 2.0, 5.0, 20.0)
