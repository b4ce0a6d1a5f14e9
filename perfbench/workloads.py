"""Pinned workload plans for the benchmark.

Every workload is a fixed list of (claim id, range overrides).  Each range a
claim reads is written out here, so a later change to a claim's default
range changes neither the workload nor its recorded digests.  The ranges are
about a third of the library's defaults (LEM-2.3 lower still), so that one
iteration takes about a second on a 2-core machine and a 20-second run
collects some twenty samples.  Whole-second slowdowns of a shared machine
then move single samples, not the median; see ``perfbench/run.py``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

B_SET = [-4, -3, -2, -1, 1, 2, 3, 4]
C_SET = [-4, -3, -2, -1, 0, 1, 2, 3, 4]
_BC = {"b_set": B_SET, "c_set": C_SET}
_PRIMES = {"prime_lo": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    plan: tuple[tuple[str, dict], ...]
    pooled: bool = False  # run at jobs = nproc through one shared pool

    def jobs(self) -> int:
        return nproc_jobs() if self.pooled else 1


def nproc_jobs() -> int:
    """Worker count for pooled runs: the usable CPUs, at least 2 so the
    pool path is exercised even on a single-CPU machine."""
    return max(2, len(os.sched_getaffinity(0)))


# [n]_q-divisibility: nearly all time is Poly arithmetic.
QDIV = (
    ("LEM-2.3", {"n_max": 14, "qexp_a_max": 2, "qexp_b_max": 2}),
    ("MUT-LEM-2.3", {"n_max": 20}),
)

# Cold O(n^2) sequence tables and the running accumulators over them.
TABLES = (
    ("THM-1.1.i", {"n_max": 1000}),
    ("CONJ-5.1.a", {"n_max": 1000}),
    ("THM-1.2", {"n_max": 667}),
    ("REC-W", {"n_max": 667}),
    ("COR-1.1.ab", {"n_max": 333}),
    ("COR-1.1.c", {"n_max": 200}),
    ("COR-1.1.d", {"n_max": 200}),
    ("ID-1.8", {"n_max": 333}),
)

# Many points over 72 small (b, c)-keyed tables: checker-bound.
GRID = (
    ("THM-1.3.a", {"n_max": 33, **_BC}),
    ("THM-1.3.b", {"n_max": 33, **_BC}),
    ("THM-1.3.c", {"n_max": 33, **_BC}),
    ("THM-1.3.d", {"n_max": 33, **_BC}),
    ("LEM-3.1.a", {"n_max": 33, **_BC}),
    ("LEM-3.1.b", {"n_max": 33, **_BC}),
    ("LEM-4.1", {"n_max": 33, **_BC}),
    ("EQ-4.11", {"n_max": 33, **_BC}),
    ("REM-2.1", {"n_max": 20, **_BC}),
    ("LEM-2.1.b", {"n_max": 5, **_BC}),
    ("LEM-2.4", {"prime_hi": 333, **_PRIMES}),
    ("EQ-2.8", {"n_max": 33}),
    ("EQ-3.4", {"n_max": 33}),
)

# Every claim of ``SUITES["all"]``, in suite order, through the process pool.
SUITE_ALL = (
    ("THM-1.1.i", {"n_max": 66}),
    ("THM-1.1.ii", {"prime_hi": 333, **_PRIMES}),
    ("THM-1.2", {"n_max": 66}),
    ("THM-1.3.a", {"n_max": 33, **_BC}),
    ("THM-1.3.b", {"n_max": 33, **_BC}),
    ("THM-1.3.c", {"n_max": 33, **_BC}),
    ("THM-1.3.d", {"n_max": 33, **_BC}),
    ("COR-1.1.ab", {"n_max": 66}),
    ("COR-1.1.c", {"n_max": 66}),
    ("COR-1.1.d", {"n_max": 66}),
    ("LEM-2.1.a", {"n_max": 16}),
    ("LEM-2.1.b", {"n_max": 5, **_BC}),
    ("LEM-2.2", {"n_max": 66}),
    ("LEM-2.3", {"n_max": 12, "qexp_a_max": 2, "qexp_b_max": 2}),
    ("LEM-2.4", {"prime_hi": 333, **_PRIMES}),
    ("LEM-3.1.a", {"n_max": 33, **_BC}),
    ("LEM-3.1.b", {"n_max": 33, **_BC}),
    ("LEM-3.2", {"n_max": 33}),
    ("LEM-3.3", {"n_max": 33}),
    ("LEM-3.4", {"n_max": 26, "qexp_a_max": 3, "qexp_b_max": 3}),
    ("LEM-4.1", {"n_max": 33, **_BC}),
    ("LEM-4.2", {"n_max": 33}),
    ("LEM-4.3", {"n_max": 66}),
    ("LEM-4.4.a", {"n_max": 33}),
    ("LEM-4.4.b", {"n_max": 33}),
    ("LEM-4.5", {"n_max": 20}),
    ("LEM-4.6", {"n_max": 16}),
    ("ID-1.8", {"n_max": 66}),
    ("ID-2.3", {"n_max": 16}),
    ("REM-2.1", {"n_max": 20, **_BC}),
    ("EQ-2.8", {"n_max": 33}),
    ("EQ-2.11", {"n_max": 66}),
    ("EQ-3.partial", {"n_max": 20}),
    ("EQ-3.4", {"n_max": 33}),
    ("EQ-4.2", {"n_max": 20}),
    ("EQ-4.10", {"n_max": 20}),
    ("EQ-4.11", {"n_max": 33, **_BC}),
    ("EQ-4.12", {"n_max": 20}),
    ("EQ-4.13", {"n_max": 16}),
    ("REC-w", {"n_max": 16}),
    ("REC-W", {"n_max": 333}),
    ("CONJ-5.1.a", {"n_max": 66}),
    ("CONJ-5.1.b", {"prime_hi": 166, **_PRIMES}),
    ("REM-5.1", {"prime_hi": 166, **_PRIMES}),
    ("CONJ-5.2.abc", {"n_max": 13, "h_max": 3, "m_max": 3}),
    ("CONJ-5.3.ab", {"n_max": 13, "h_max": 3, "m_max": 3}),
)

WORKLOADS = {
    w.name: w for w in (
        Workload("qdiv", QDIV),
        Workload("tables", TABLES),
        Workload("grid", GRID),
        Workload("suite-all", SUITE_ALL, pooled=True),
    )
}

# Claims whose correct report is a counterexample (recorded like any other).
EXPECTED_COUNTEREXAMPLES = frozenset({"CONJ-5.1.b", "MUT-LEM-2.3"})
