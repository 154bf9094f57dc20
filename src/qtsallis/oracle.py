"""Dense-matrix brute-force verification.

Builds the dense family members (here, and only here) and their
marginals explicitly, each marginal traced from the one before, computes
spectra and entropies numerically, and certifies every closed form at
small scale.  The random separable witness draws its trials one at a
time and does the rest per (d_A, d_B) shape: one Gram product per local
side, one ``einsum`` for the joints of a shape, one checked
eigendecomposition per stack, one log q-trace per stack and order, and
values, deviations and verdicts as arrays.  Verification results are
data, not exceptions: each comparison becomes a row (a named tuple) in a
report that serializes to JSON.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat
from operator import attrgetter

import numpy as np

from ._index import Spectrum, _branch, _conditionals, _count, _Frozen, _order
from .errors import ValidationError
from .quantum import (DensityMatrix, _checked_eigenvalues, _entropies_from_gaps, _log_traces,
                      _logged, _refuse_above_cap, _trace_out, partial_trace, spectrum_of)
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
#: Most product terms in a witness mixture.
_MAX_TERMS = 6


def _deviation(a: float, b: float) -> float:
    """Disagreement scaled to value magnitude.

    Equals the absolute deviation whenever both values have magnitude at
    most 1 (all eigenvalues, most entropies); beyond that it is relative,
    since double precision cannot hold an absolute 1e-10 on quantities of
    magnitude 1e5 whose own spacing is coarser than that.
    """
    return abs(a - b) / max(1.0, abs(a), abs(b))


class Comparison(namedtuple("Comparison", "case quantity closed_form oracle abs_dev passed")):
    """One closed-form-versus-oracle comparison: an immutable named tuple,
    since the witness builds eight per trial.

    ``abs_dev`` holds the magnitude-scaled deviation of :func:`_deviation`.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "quantity": self.quantity,
            "closed_form": self.closed_form,
            "oracle": self.oracle,
            "abs_dev": self.abs_dev,
            "pass": self.passed,
        }


class VerificationReport(_Frozen):
    """Sorted collection of comparisons; failing rows make it failing."""

    __slots__ = ("comparisons",)

    def __init__(self, comparisons: tuple[Comparison, ...]) -> None:
        object.__setattr__(self, "comparisons",
                           tuple(sorted(comparisons, key=attrgetter("case", "quantity"))))

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
    adopts the matrix built here, symmetric by construction, without a copy
    or a Hermitian check, and each marginal of :func:`verify_family` is
    traced from the one before, so certifying a member allocates at most
    about 1.5 times the member's own bytes."""
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
    orders = [_order(q) for q in q_grid]
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
        for q in orders:
            oracle_values = _conditionals(
                oracle_joint.levels, [oracle_marginals[k].levels for k in blocks], q, log_count)
            for k, oracle_value in zip(blocks, oracle_values):
                closed = conditional_entropy_block(params, k, q)
                dev = _deviation(closed, oracle_value)
                rows.append(Comparison(
                    case, f"conditional_entropy_block[k={k},q={q:g}]",
                    closed, oracle_value, dev, dev <= AGREEMENT_TOL))
    return VerificationReport(tuple(rows))


def _random_states(raw: list[np.ndarray]) -> np.ndarray:
    """Real full-rank states G G^T / tr(G G^T) of the standard normal G of
    each (count, d, d) array of ``raw``, one stack for all of them, in one
    batched product."""
    g = np.concatenate(raw)
    gram = g @ g.transpose(0, 2, 1)
    return gram / np.trace(gram, axis1=1, axis2=2)[:, None, None]


def _witness_rows(cases, joint: np.ndarray, closed: np.ndarray,
                  traced: np.ndarray) -> list[Comparison]:
    """S_q(B|A) of each trial of one shape at each of ``WITNESS_ORDERS``,
    given the ``closed`` A marginal Sigma w rho_A against the ``traced`` one
    (oracle), and its sign.  ``joint``, ``closed`` and ``traced`` are the
    stacks of checked eigenvalue rows of those states, one row per case.
    Each stack is clipped and logged once (:func:`qtsallis.quantum._logged`,
    the two marginal stacks together); then per order the joints take one
    log q-trace (:func:`qtsallis.quantum._log_traces`) and the marginals
    one, all in the branch of the joint's side.  Values, deviations
    and verdicts are arrays, one per order and quantity, and each label is
    built once per order."""
    log_count = math.log(joint.shape[-1])
    joint, marginals = _logged(joint), _logged(np.stack((closed, traced)))
    rows = []
    for q in WITNESS_ORDERS:
        order, far = _branch(q, log_count)
        values, oracle = _entropies_from_gaps(
            _log_traces(joint, order, far) - _log_traces(marginals, order, far), order)
        scale = np.maximum(np.maximum(np.abs(values), np.abs(oracle)), 1.0)
        devs = np.abs(values - oracle) / scale  # _deviation, row by row
        closed_values = values.tolist()
        rows += map(Comparison._make, zip(
            cases, repeat(f"separable_conditional[q={q:g}]"), closed_values,
            oracle.tolist(), devs.tolist(), (devs <= AGREEMENT_TOL).tolist()))
        rows += map(Comparison._make, zip(
            cases, repeat(f"nonnegative[q={q:g}]"), closed_values, repeat(0.0),
            np.maximum(-values, 0.0).tolist(), (values >= NONNEG_FLOOR).tolist()))
    return rows


def verify_separable_witness(trials: int, seed: int) -> VerificationReport:
    """Random separable-state witness suite, deterministic for a given seed.

    Each trial mixes 1 to ``_MAX_TERMS`` products of real full-rank local
    states (see :func:`_random_states`; they do not commute across terms)
    on d_A, d_B in [2, 4], rho_AB = sum_l w_l rho_A^l (x) rho_B^l, with
    uniform weights normalized to sum 1.  S_q(B|A) from the marginal
    sum_l w_l rho_A^l must match the one from the partial trace
    (``AGREEMENT_TOL``) and be nonnegative (``NONNEG_FLOOR``): a separable
    state's spectrum is majorized by its marginal's (Nielsen & Kempe,
    PRL 86, 5184 (2001)).

    Trials are drawn one at a time, in a fixed order, and built per shape.
    The local states of each side d come from one batched Gram of all its
    draws.  The joints of each of the nine shapes (d_A, d_B) come from one
    ``einsum`` over the trials' terms, padded to ``_MAX_TERMS`` with zero
    weights, which add exact zeros; each closed marginal is one ``np.dot``
    of its weights.  The joints, closed marginals and the joints' partial
    traces of a shape form one stack apiece, checked for trace and
    positivity and eigendecomposed in one call
    (:func:`qtsallis.quantum._checked_eigenvalues`), with the same
    eigenvalues, bit for bit, as each trial's states built alone.  The
    stacks are Hermitian by construction and skip that check, which
    ``test_witness_stacks_pass_the_hermitian_check`` runs on every member
    in its place.  The eigenvalue rows then take numpy log q-traces, a
    stack at a time per order, unfolded (:func:`_witness_rows`), so the
    values can differ by a few ulps from ``quantum_conditional`` on each
    trial's spectra.
    """
    trials, seed = _count(trials, "trial count"), _count(seed, "seed")
    if trials < 1:
        raise ValidationError("need at least one trial")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    raw: dict[int, list[np.ndarray]] = {2: [], 3: [], 4: []}
    drawn = dict.fromkeys(raw, 0)  # local states drawn so far, per side
    shapes: dict[tuple[int, int], list[tuple]] = {}
    for trial in range(trials):
        dim_a = int(rng.integers(2, 5))
        dim_b = int(rng.integers(2, 5))
        terms = int(rng.integers(1, _MAX_TERMS + 1))
        weights = rng.uniform(size=terms)
        weights /= weights.sum()
        starts = []
        for dim in (dim_a, dim_b):
            raw[dim].append(rng.standard_normal((terms, dim, dim)))
            starts.append(drawn[dim])
            drawn[dim] += terms
        shapes.setdefault((dim_a, dim_b), []).append((
            f"trial={trial},dims={dim_a}x{dim_b},terms={terms}", terms, weights, *starts))
    local = {dim: _random_states(parts) for dim, parts in raw.items() if parts}
    rows: list[Comparison] = []
    slots = np.arange(_MAX_TERMS)
    for (dim_a, dim_b), group in shapes.items():
        cases, terms, weights, starts_a, starts_b = zip(*group)
        used = slots < np.array(terms)[:, None]
        padded = np.zeros(used.shape)
        padded[used] = np.concatenate(weights)
        unused_to_first = np.where(used, slots, 0)  # a term at zero weight adds exact zeros
        joints = np.einsum(
            "tl,tlac,tlbd->tabcd", padded,
            local[dim_a][np.array(starts_a)[:, None] + unused_to_first],
            local[dim_b][np.array(starts_b)[:, None] + unused_to_first],
        ).reshape(len(cases), dim_a * dim_b, -1)
        side_a = local[dim_a].reshape(-1, dim_a * dim_a)
        closed = np.stack([np.dot(w, side_a[start:start + len(w)])
                           for w, start in zip(weights, starts_a)]).reshape(-1, dim_a, dim_a)
        rows.extend(_witness_rows(cases, *(
            _checked_eigenvalues(stack)
            for stack in (joints, closed, _trace_out(joints, (dim_a, dim_b), [0])))))
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
