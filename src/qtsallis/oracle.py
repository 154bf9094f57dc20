"""Dense-matrix brute-force verification.

Builds the dense family members (here, and only here) and certifies every
closed form against them at small scale (:func:`verify_family`); the random
separable witness checks S_q(B|A) of separable states for nonnegativity and
for agreement between a closed marginal and the partial trace
(:func:`verify_separable_witness`).  Results are data, not exceptions: each
comparison is a row (a named tuple) in a report that serializes to JSON.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat
from operator import attrgetter

import numpy as np

from ._index import (PSD_FLOOR, TRACE_TOL, Spectrum, _branch, _count, _entropy_from_gap,
                     _Frozen, _log_trace, _order)
from .errors import ValidationError
from .quantum import (DensityMatrix, _checked_eigenvalues, _entropies_from_gaps, _log_traces,
                      _logged, _refuse_above_cap, _trace_out)
from .werner import WernerParams, _prepared_gap, joint_spectrum, marginal_spectrum

#: Per-level eigenvalue and per-entropy agreement bound for closed forms.
AGREEMENT_TOL = 1e-10
#: Diagonal bound of the structural check of the explicit marginal form,
#: whose off-diagonal entries must be exactly 0.
STRUCTURE_TOL = 1e-12
#: Witness values below this count as a nonnegativity violation.
NONNEG_FLOOR = -1e-12

#: Entropy orders exercised by the random separable witness.
WITNESS_ORDERS = (0.5, 2.0, 10.0, 100.0)
#: Most product terms in a witness mixture.
_MAX_TERMS = 6
#: Largest local dimension d_A, d_B of a witness trial.
_MAX_SIDE = 4


def _deviation(a: float, b: float) -> float:
    """Disagreement scaled to value magnitude.

    Equals the absolute deviation whenever both values have magnitude at
    most 1 (all eigenvalues, most entropies); beyond that it is relative,
    since double precision cannot hold an absolute 1e-10 on quantities of
    magnitude 1e5 whose own spacing is coarser than that.  Equal values
    deviate by 0, equal infinities included (both sides overflow to -inf
    at the largest orders); opposite infinities, or an infinite value
    against a finite one, give nan, which fails every bound.
    """
    if a == b:
        return 0.0
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
    """Collection of comparisons sorted by (case, quantity); failing rows
    make it failing.  The constructor sorts the rows it is given; the
    separable witness, which builds its rows already in that order, hands
    them over unsorted (:meth:`_adopt`)."""

    __slots__ = ("comparisons",)

    def __init__(self, comparisons: tuple[Comparison, ...]) -> None:
        object.__setattr__(self, "comparisons",
                           tuple(sorted(comparisons, key=attrgetter("case", "quantity"))))

    @classmethod
    def _adopt(cls, comparisons: tuple[Comparison, ...]) -> VerificationReport:
        """The report of a tuple of rows already in (case, quantity) order,
        taken as it is, without the constructor's sort;
        ``test_witness_rows_come_in_report_order`` asserts that the witness
        rows are."""
        report = object.__new__(cls)
        object.__setattr__(report, "comparisons", comparisons)
        return report

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.comparisons)

    @property
    def max_abs_dev(self) -> float:
        """The largest row deviation, 0 for no rows, and nan if any row's is nan."""
        devs = [c.abs_dev for c in self.comparisons]
        return math.nan if any(map(math.isnan, devs)) else max(devs, default=0.0)

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
    or a Hermitian check, and with the GHZ indices as its coupled block,
    the only entries off the diagonal that it sets, so its eigenvalues take
    one N x N ``eigvalsh`` and no zero pattern: building and checking a
    member allocates about its own bytes and no more.  Only its
    (n - 1)-party marginal is a matrix (:func:`_marginal_diagonals`), of
    1/N**2 of its bytes, so certifying a member allocates at most about
    1.25 times the member's own bytes."""
    dim = params.total_dim
    _refuse_above_cap(dim)
    entries = np.zeros((dim, dim))
    np.fill_diagonal(entries, (1.0 - params.mixing) / dim)
    ghz = _ghz_indices(params.levels, params.parties)
    entries[np.ix_(ghz, ghz)] += params.mixing / params.levels
    return DensityMatrix._adopt((params.levels,) * params.parties, entries, ghz)


def _drift(diagonal: np.ndarray, params: WernerParams, kept: int) -> np.float64:
    """Largest distance of the diagonal of a kept-party marginal of a family
    member from its explicit decohered form: the uniform background
    (1 - x)/N**kept plus x/N on each all-equal entry; nan if an entry is."""
    expected = np.full(len(diagonal), (1.0 - params.mixing) / len(diagonal))
    expected[_ghz_indices(params.levels, kept)] += params.mixing / params.levels
    return np.max(np.abs(expected - diagonal))


def _refuse_drift(drift) -> None:
    """Refuse a marginal that deviates from its explicit form by ``drift``."""
    raise ValidationError(
        f"partial trace deviates from the explicit marginal form by {float(drift)}")


def _checked_diagonal(diagonal: np.ndarray, params: WernerParams, kept: int) -> np.ndarray:
    """The diagonal of an exactly diagonal kept-party marginal, once it has
    passed the checks of an adopted state: within ``STRUCTURE_TOL`` of its
    explicit form entry by entry (:func:`_drift`, nan refused), then the
    trace and positivity checks of
    :func:`qtsallis.quantum._checked_eigenvalues`, with the same messages:
    a sum within ``TRACE_TOL`` of 1 and a smallest entry at least
    ``PSD_FLOOR``, since the entries of a diagonal matrix are its
    eigenvalues."""
    drift = _drift(diagonal, params, kept)
    if not drift <= STRUCTURE_TOL:
        _refuse_drift(drift)
    trace = diagonal.sum()
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise ValidationError(f"trace is {complex(trace)!r}, expected 1")
    lowest = float(diagonal.min())
    if not lowest >= PSD_FLOOR:
        raise ValidationError(f"smallest eigenvalue {lowest} violates positive semidefiniteness")
    return diagonal


def _leading_trace(diagonal: np.ndarray, levels: int) -> np.ndarray:
    """Diagonal of the partial trace over the leading party of an exactly
    diagonal matrix with this ``diagonal``: its sum over that party, in the
    order in which :func:`qtsallis.quantum._trace_out` sums it, so bit for
    bit the diagonal of the dense trace, whose other entries are exact zeros."""
    return diagonal.reshape(levels, -1).sum(axis=0)


def _marginal_diagonals(state: DensityMatrix, params: WernerParams) -> list[np.ndarray]:
    """The diagonals of a family member's marginals on its last m = n - 1,
    ..., 1 parties, each checked (:func:`_checked_diagonal`).

    Only the (n - 1)-party marginal is a matrix: the partial trace of
    ``state`` over its first party (:func:`qtsallis.quantum._trace_out`),
    whose every off-diagonal entry must be exactly 0, as tracing out a party
    of a member leaves it.  A coherence, nan included, is refused with the
    largest off-diagonal magnitude joining the drift of :func:`_drift`.
    The partial trace of an exactly diagonal matrix is exactly diagonal, so
    each smaller marginal is taken on its diagonal alone, from the one
    before (:func:`_leading_trace`): no (N**m)**2 matrix is built for m
    below n - 1, and none is adopted as a :class:`DensityMatrix`."""
    levels, parties = params.levels, params.parties
    entries = _trace_out(state.entries, state.dims, range(1, parties))
    diagonal = entries.diagonal().copy()  # the dense marginal is released on return
    if np.count_nonzero(entries) > np.count_nonzero(diagonal):  # a coherence; nan counts
        off_diagonal = np.abs(entries)
        np.fill_diagonal(off_diagonal, 0.0)
        _refuse_drift(np.maximum(_drift(diagonal, params, parties - 1), np.max(off_diagonal)))
    diagonals = [_checked_diagonal(diagonal, params, parties - 1)]
    for kept in range(parties - 2, 0, -1):
        diagonals.append(_checked_diagonal(_leading_trace(diagonals[-1], levels), params, kept))
    return diagonals


def _row(case: str, quantity: str, closed: float, oracle: float) -> Comparison:
    """The row of one closed value against the oracle's, passing within
    ``AGREEMENT_TOL`` of :func:`_deviation`."""
    dev = _deviation(closed, oracle)
    return Comparison(case, quantity, closed, oracle, dev, dev <= AGREEMENT_TOL)


def _spectrum_rows(case: str, label: str, closed: Spectrum, eigenvalues: np.ndarray,
                   rows: list[Comparison]) -> list[tuple[float, int]]:
    """Cut ascending ``eigenvalues``, largest first, into blocks of the
    ``closed`` multiplicities, sliced at their running sums (the last block
    takes whatever is left); append to ``rows`` each level's eigenvalue
    against its block mean, clamped to [0, 1], and multiplicity against the
    count of block entries within ``AGREEMENT_TOL`` of it; return the (mean,
    multiplicity) levels.  A mean keeps its block's trace, noise included."""
    descending = eigenvalues[::-1]
    last = len(closed.levels) - 1
    levels, start = [], 0
    for idx, (value, mult) in enumerate(closed.levels):
        block = descending[start:start + mult if idx < last else None]
        start += mult
        mean = min(max(math.fsum(block.tolist()) / mult, 0.0), 1.0)
        count = int(np.count_nonzero(np.abs(block - value) <= AGREEMENT_TOL))
        rows.append(_row(case, f"{label}[level={idx}].eigenvalue", value, mean))
        rows.append(Comparison(
            case, f"{label}[level={idx}].multiplicity",
            float(mult), float(count), float(abs(mult - count)), mult == count))
        levels.append((mean, mult))
    return levels


def verify_family(params_grid, q_grid) -> VerificationReport:
    """Certify the closed-form spectra and conditional entropies against
    dense eigenvalues over a grid of family members and orders.

    Per member, the joint's eigenvalues and each marginal's (all kept party
    counts, :func:`_marginal_diagonals`) are cut by the closed
    multiplicities and compared level by level (:func:`_spectrum_rows`).
    Per order q and conditioned party count k, the closed conditional
    entropy, from the gap of :func:`qtsallis.werner._prepared_gap`, is
    compared with the ratio form on the oracle's levels, in the branch of
    the joint's side; where both overflow to an infinity, a
    ``log_trace_gap`` row compares the finite gaps too.  Every row passes
    within ``AGREEMENT_TOL`` of :func:`_deviation`.
    """
    orders = [_order(q) for q in q_grid]
    rows: list[Comparison] = []
    for params in params_grid:
        levels, parties, x = params.levels, params.parties, params.mixing
        case = f"N={levels},n={parties},x={x:g}"
        state = werner_density(params)
        joint = _spectrum_rows(case, "joint_spectrum", joint_spectrum(params),
                               state.eigenvalues, rows)
        diagonals = _marginal_diagonals(state, params)
        del state  # the joint is released before the next member is built
        marginals = []  # by kept parties m = n - 1, ..., 1
        for m, diagonal in zip(range(parties - 1, 0, -1), diagonals):
            marginals.append(_spectrum_rows(case, f"marginal_spectrum[m={m}]",
                                            marginal_spectrum(params, m), np.sort(diagonal), rows))
        log_count = math.log(params.total_dim)
        for q in orders:
            order, far = _branch(q, log_count)
            joint_trace = _log_trace(joint, order, far)
            for k, marginal in enumerate(reversed(marginals), 1):
                gap = joint_trace - _log_trace(marginal, order, far)
                oracle_value = _entropy_from_gap(gap, order)
                closed_gap = _prepared_gap(levels, parties, k, q)(x)
                closed = _entropy_from_gap(closed_gap, order)
                rows.append(_row(case, f"conditional_entropy_block[k={k},q={q:g}]",
                                 closed, oracle_value))
                if math.isinf(closed) and math.isinf(oracle_value):
                    rows.append(_row(case, f"log_trace_gap[k={k},q={q:g}]", closed_gap, gap))
    return VerificationReport(tuple(rows))


def _random_states(g: np.ndarray) -> np.ndarray:
    """Real full-rank states G G^T / tr(G G^T), one per standard normal G of
    the (count, d, d) stack ``g``, in one batched product.  G^T is taken as
    a contiguous copy: against the strided view ``matmul`` leaves BLAS for
    its own loop, about twice as slow, for bit-identical Grams."""
    gram = g @ np.ascontiguousarray(g.transpose(0, 2, 1))
    return gram / np.trace(gram, axis1=1, axis2=2)[:, None, None]


def _mixtures(weights: np.ndarray, local_a: np.ndarray,
              local_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The joints sum_l w_l rho_A^l (x) rho_B^l, a (count, d_A d_B, d_A d_B)
    stack, and the closed marginals sum_l w_l rho_A^l, a (count, d_A, d_A)
    stack, of the (count, terms) ``weights`` and the (count, terms, d, d)
    local states of each side.  The A states, weighted and flattened to
    (count, terms, d_A^2), give the closed marginals as their sum over
    terms and, seen as (count, d_A^2, terms), the joints in one batched
    ``matmul`` with the B states flattened to (count, terms, d_B^2); the
    (a c, b d) products are then put in (a b, c d) order.  A term of zero
    weight adds exact zeros, and a stack of one trial gives that trial's
    states bit for bit."""
    count, terms, dim_a, _ = local_a.shape
    dim_b = local_b.shape[-1]
    weighted = local_a.reshape(count, terms, -1) * weights[:, :, None]
    products = weighted.transpose(0, 2, 1) @ local_b.reshape(count, terms, -1)
    joints = products.reshape(count, dim_a, dim_a, dim_b, dim_b).transpose(0, 1, 3, 2, 4)
    return (joints.reshape(count, dim_a * dim_b, -1),
            weighted.sum(axis=1).reshape(count, dim_a, dim_a))


#: The two witness quantities of each order, as they head its row labels.
_WITNESS_KINDS = ("nonnegative", "separable_conditional")


def _witness_rows(cases, log_counts: np.ndarray, joint: np.ndarray,
                  marginals: np.ndarray) -> tuple[Comparison, ...]:
    """S_q(B|A) of every trial at each of ``WITNESS_ORDERS``, given the
    closed A marginal Sigma w rho_A against the traced one (oracle), and its
    sign, as the rows of a report in report order.

    ``joint`` (trials, 16) and ``marginals`` (2, trials, 4) hold each
    trial's checked eigenvalue rows: its joint, and its closed and traced
    marginals, padded with exact zeros, which weigh nothing in any branch.
    Each array is clipped and logged once (:func:`qtsallis.quantum._logged`).
    Per order, each trial takes the branch of its joint's side
    exp(``log_counts``), by :func:`qtsallis._index._branch` itself on the
    whole array, and each branch that occurs takes one log q-trace
    (:func:`qtsallis.quantum._log_traces`) of the joints and one of the
    marginals: only q = 0.5 splits, with joints of side 4 and 6 near q = 1.
    Values, deviations and verdicts are (kind, order, trial) arrays, put
    into report order, cases by label and quantities by their sorted
    labels, in one index each; each row is then built once in that order.
    Padded sums associate differently from the unpadded rows, so a value
    can differ from a stack's own log q-traces by an ulp or so.
    """
    joint, marginals = _logged(joint), _logged(marginals)
    gaps = np.empty((len(WITNESS_ORDERS), *marginals[0].shape[:-1]))
    for gap, q in zip(gaps, WITNESS_ORDERS):
        order, far = _branch(q, log_counts)
        if far.all() or not far.any():
            groups = [(bool(far[0]), slice(None))]
        else:
            groups = [(True, far), (False, ~far)]
        for branch, group in groups:
            gap[:, group] = (
                _log_traces(tuple(part[group] for part in joint), order, branch)
                - _log_traces(tuple(part[:, group] for part in marginals), order, branch))
        gap[:] = _entropies_from_gaps(gap, order)
    values, oracle = gaps[:, 0], gaps[:, 1]
    with np.errstate(invalid="ignore"):  # _deviation, element by element: nan fails
        devs = np.where(values == oracle, 0.0, np.abs(values - oracle) / np.maximum(
            np.maximum(np.abs(values), np.abs(oracle)), 1.0))
    columns = (  # (kind, order, trial), kinds as in _WITNESS_KINDS
        np.stack((values, values)),
        np.stack((np.zeros_like(values), oracle)),
        np.stack((np.maximum(-values, 0.0), devs)),
        np.stack((values >= NONNEG_FLOOR, devs <= AGREEMENT_TOL)))
    labels = [f"{kind}[q={q:g}]" for kind in _WITNESS_KINDS for q in WITNESS_ORDERS]
    quantities = sorted(range(len(labels)), key=labels.__getitem__)  # q=100 before q=10
    trials = sorted(range(len(cases)), key=cases.__getitem__)
    picked = np.ix_(trials, quantities)
    fields = [column.reshape(len(labels), -1).T[picked].ravel().tolist() for column in columns]
    labels = [labels[i] for i in quantities]
    # tuple.__new__ is Comparison._make without its length check: zip gives six fields
    return tuple(map(tuple.__new__, repeat(Comparison), zip(
        [cases[t] for t in trials for _ in labels], labels * len(trials), *fields)))


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

    The draws take no loop over trials.  The plan takes three: the shapes
    (d_A, d_B), the term counts and a row of ``_MAX_TERMS`` uniform weights
    per trial, zeroed beyond its term count and normalized.  Then, shape
    by shape in order of first appearance, each side draws the normal G
    of ``_MAX_TERMS`` local states per trial of the shape in one call and
    turns them into states in one batched Gram (:func:`_random_states`).
    The joints of each of the nine shapes come from one batched ``matmul``
    over the padded weights, and their closed marginals from the same
    weighted A states (:func:`_mixtures`); a slot beyond a trial's term
    count has zero weight and adds exact zeros.  The
    joints, closed marginals and the joints' partial traces of a shape form
    one stack apiece, checked for trace and positivity and eigendecomposed
    in one call (:func:`qtsallis.quantum._checked_eigenvalues`), with the
    same eigenvalues, bit for bit, as each trial's states built alone.  The
    stacks are Hermitian by construction and skip that check, which
    ``test_witness_stacks_pass_the_hermitian_check`` runs on every member
    in its place.  Each shape writes its eigenvalue rows into two arrays
    over all trials, padded with exact zeros, and the rest runs on the
    whole batch at once (:func:`_witness_rows`): at most two log q-traces
    per order and branch, and the rows built once, already in report
    order, which the report adopts unsorted
    (:meth:`VerificationReport._adopt`).  Numpy sums the padded rows, so
    the values can differ by a few ulps from ``quantum_conditional`` on
    each trial's spectra.
    """
    trials, seed = _count(trials, "trial count"), _count(seed, "seed")
    if trials < 1:
        raise ValidationError("need at least one trial")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, _MAX_SIDE + 1, size=(trials, 2))
    terms = rng.integers(1, _MAX_TERMS + 1, size=trials)
    weights = rng.uniform(size=(trials, _MAX_TERMS))
    weights[np.arange(_MAX_TERMS) >= terms[:, None]] = 0.0  # a zero-weight term adds exact zeros
    weights /= weights.sum(axis=1, keepdims=True)
    shapes = dims.tolist()
    cases = [f"trial={trial},dims={dim_a}x{dim_b},terms={used}"
             for trial, ((dim_a, dim_b), used) in enumerate(zip(shapes, terms.tolist()))]
    joint_rows = np.zeros((trials, _MAX_SIDE ** 2))  # exact zeros beyond each trial's side
    marginal_rows = np.zeros((2, trials, _MAX_SIDE))  # closed, traced
    log_counts = np.empty(trials)
    for dim_a, dim_b in dict.fromkeys(map(tuple, shapes)):  # in order of first appearance
        members = np.flatnonzero((dims[:, 0] == dim_a) & (dims[:, 1] == dim_b))
        count = len(members)
        local_a, local_b = (
            _random_states(rng.standard_normal((count * _MAX_TERMS, dim, dim)))
            .reshape(count, _MAX_TERMS, dim, dim) for dim in (dim_a, dim_b))
        joints, closed = _mixtures(weights[members], local_a, local_b)
        joint_rows[members, :dim_a * dim_b] = _checked_eigenvalues(joints)
        marginal_rows[0, members, :dim_a] = _checked_eigenvalues(closed)
        marginal_rows[1, members, :dim_a] = _checked_eigenvalues(
            _trace_out(joints, (dim_a, dim_b), [0]))
        log_counts[members] = math.log(dim_a * dim_b)
    return VerificationReport._adopt(_witness_rows(cases, log_counts, joint_rows, marginal_rows))


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
