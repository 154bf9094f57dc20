"""Gap evaluations per threshold over a fixed sample of the whole domain.

    python tests/solver_budget.py [count]

Draws ``count`` queries (default 5000) from ``random.Random(7)``: N in
[2, 16], n in [2, n_max] with N**n < 2**63, k in [1, n - 1] and q
log-uniform in [0.05, 1e6].  Prints the median, the 90th percentile and
the largest number of gap evaluations that ``threshold_for_q`` makes, and
the largest number of distinct Python functions that one query enters
(its footprint).  Exits with status 1 if the median is above
``MEDIAN_BUDGET``, the largest count above ``WORST_BUDGET`` or the
largest footprint above ``FOOTPRINT_BUDGET``.  The tier-1 tests run the
first 500 queries of the same sample.
"""

import math
import random
import statistics
import sys
from pathlib import Path
from unittest import mock

# the checkout's own package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qtsallis import solver, threshold_for_q  # noqa: E402
from qtsallis._index import _Frozen  # noqa: E402

#: Largest median and largest single count of gap evaluations allowed.
MEDIAN_BUDGET, WORST_BUDGET = 4, 20
#: Most distinct Python functions one query may enter.
FOOTPRINT_BUDGET = 14


def domain_queries(count, seed=7):
    """``count`` queries (N, n, k, q) over the whole domain."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        levels = rng.randint(2, 16)
        most = 2
        while levels ** (most + 1) < 2**63:
            most += 1
        parties = rng.randint(2, most)
        k = rng.randint(1, parties - 1)
        q = math.exp(rng.uniform(math.log(0.05), math.log(1e6)))
        queries.append((levels, parties, k, q))
    return queries


def counted_threshold(levels, parties, k, q):
    """``threshold_for_q`` and the (x, gap) pairs of every gap evaluation
    it makes, recorded on the gap that the solver prepares."""
    evaluations = []
    prepare = solver._prepared_gap

    def recording(levels, parties, k, q):
        gap = prepare(levels, parties, k, q)

        def recorded(x):
            value = gap(x)
            evaluations.append((x, value))
            return value

        return recorded

    with mock.patch.object(solver, "_prepared_gap", recording):
        point = threshold_for_q(levels, parties, q, conditioned_parties=k)
    return point, evaluations


def footprint(levels, parties, k, q):
    """The distinct Python functions that one ``threshold_for_q`` query
    enters, as a set of (file, first line, name) keys, and the number of
    ``_Frozen`` records it builds (their ``__init__`` calls)."""
    entered, records = set(), 0

    def profile(frame, event, arg):
        nonlocal records
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))
            if code.co_name == "__init__" and isinstance(frame.f_locals.get("self"), _Frozen):
                records += 1

    sys.setprofile(profile)
    try:
        threshold_for_q(levels, parties, q, conditioned_parties=k)
    finally:
        sys.setprofile(None)
    return entered, records


def main(argv):
    count = int(argv[0]) if argv else 5000
    queries = domain_queries(count)
    counts = sorted(len(counted_threshold(*query)[1]) for query in queries)
    median, worst = statistics.median(counts), counts[-1]
    widest = max(len(footprint(*query)[0]) for query in queries)
    print(f"{count} queries: gap evaluations median {median}, "
          f"p90 {counts[int(0.9 * count)]}, max {worst}; "
          f"at most {widest} distinct functions per query")
    if median > MEDIAN_BUDGET or worst > WORST_BUDGET or widest > FOOTPRINT_BUDGET:
        print(f"over budget: median {MEDIAN_BUDGET}, max {WORST_BUDGET}, "
              f"functions {FOOTPRINT_BUDGET}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
