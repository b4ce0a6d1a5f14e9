"""Claim verification engine: ordered, optionally parallel point evaluation
with deterministic report assembly, plus the named claim suites.

Parallel execution sends contiguous slices of the ordered point list to a
process pool and reassembles results in input order, so a report's content
is identical for any worker count.  ``run_claims`` runs any list of claims,
a suite's included, through at most one pool.  ``stop_on_first`` stops the
evaluation at the first counterexample: each chunk ends at its first one,
chunks not yet started when the ordered stream reaches it are cancelled,
and no later claim runs.
"""
from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor

from .claims import CLAIMS, Claim, Skip
from .reports import ParamRange, VerificationReport


class UnknownClaim(LookupError):
    pass


class UnknownSuite(LookupError):
    pass


# each suite lists its claims in registration order; "all" is the four in turn
SUITES: dict[str, tuple[str, ...]] = {
    suite: tuple(claim.id for claim in CLAIMS.values() if claim.suite == suite)
    for suite in ("theorems", "lemmas", "identities", "conjectures")}
SUITES["all"] = tuple(itertools.chain.from_iterable(SUITES.values()))

_TABLE_CAP = 20


def get_claim(claim_id: str) -> Claim:
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise UnknownClaim(f"unknown claim id {claim_id!r}")
    return claim


def effective_range(claim: Claim, overrides: dict | None = None, *,
                    deep: bool = False) -> ParamRange:
    rng = claim.deep_range if (deep and claim.deep_range is not None) else claim.default_range
    if overrides:
        rng = rng.override(**overrides)
    rng.validate()
    return rng


def _label(claim: Claim, point) -> dict:
    if isinstance(point, dict):
        return point
    if not isinstance(point, tuple):
        point = (point,)
    return dict(zip(claim.grid.names, point))


def _range_echo(rng: ParamRange, keys: tuple[str, ...]) -> dict:
    out = {}
    for key in keys:
        value = getattr(rng, key)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _eval_chunk(claim_id: str, points: list, stop_on_first: bool = False) -> list:
    """Check the given points of a claim in order (worker entry), ending
    after the first counterexample when ``stop_on_first`` is set."""
    claim = CLAIMS[claim_id]
    out = []
    for point in points:
        if isinstance(point, Skip):
            out.append(("skip", point.point, point.reason))
        else:
            kind, *rest = claim.check(point)
            out.append((kind, point, *rest))
            if stop_on_first and kind == "fail":
                break
    return out


def verify_claim(claim_id: str, overrides: dict | None = None, *,
                 deep: bool = False, stop_on_first: bool = False, jobs: int = 1,
                 executor: ProcessPoolExecutor | None = None) -> VerificationReport:
    """Evaluate one claim over its (possibly overridden) parameter range."""
    claim = get_claim(claim_id)
    rng = effective_range(claim, overrides, deep=deep)
    start = time.perf_counter()

    points = list(claim.grid.points(rng))
    if jobs > 1 and len(points) > 8:
        results = _run_parallel(claim.id, points, jobs, executor, stop_on_first)
    else:
        results = (res for res in _eval_chunk(claim.id, points, stop_on_first))

    checked = 0
    counterexamples = []
    skipped = []
    table = []
    for res in results:
        if res[0] == "skip":
            skipped.append([_label(claim, res[1]), res[2]])
            continue
        checked += 1
        if res[0] == "ok":
            if res[2] is not None and len(table) < _TABLE_CAP:
                table.append([_label(claim, res[1]), res[2]])
        else:
            counterexamples.append({"params": _label(claim, res[1]),
                                    "lhs": res[2], "rhs": res[3]})
            if stop_on_first:
                break
    results.close()  # both are generators; closing _run_parallel's cancels unstarted chunks

    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if counterexamples:
        status = "counterexample"
    elif checked > 0:
        status = "verified"
    else:
        status = "skipped"
    params = {
        "range": _range_echo(rng, claim.grid.keys),
        "checked": checked,
        "skipped": skipped,
    }
    if claim.notes is not None:
        params["notes"] = dict(claim.notes)
    return VerificationReport(claim=claim.id, params=params, status=status,
                              counterexamples=counterexamples, table=table,
                              elapsed_ms=elapsed_ms)


def _run_parallel(claim_id: str, points: list, jobs: int,
                  executor: ProcessPoolExecutor | None, stop_on_first: bool):
    chunk = max(1, -(-len(points) // (jobs * 4)))
    own = executor is None
    pool = executor or ProcessPoolExecutor(max_workers=jobs)
    futures = []
    try:
        futures = [pool.submit(_eval_chunk, claim_id, points[lo:lo + chunk], stop_on_first)
                   for lo in range(0, len(points), chunk)]
        for fut in futures:
            yield from fut.result()
    finally:
        for fut in futures:  # a no-op for chunks done; the rest are not needed
            fut.cancel()
        if own:
            pool.shutdown()


def suite_claims(suite: str) -> tuple[str, ...]:
    claim_ids = SUITES.get(suite)
    if not claim_ids:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return claim_ids


def run_claims(claim_ids, overrides: dict | None = None, *, deep: bool = False,
               stop_on_first: bool = False, jobs: int = 1) -> list[VerificationReport]:
    """Verify claims in the order given, through at most one process pool.

    Every id is resolved before any claim runs, and a repeated id runs once,
    where it first occurs.  With ``stop_on_first``, evaluation stops after
    the first claim that produces a counterexample (that claim itself also
    stops early).
    """
    claims = [get_claim(claim_id) for claim_id in dict.fromkeys(claim_ids)]
    executor = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    reports = []
    try:
        for claim in claims:
            reports.append(verify_claim(claim.id, overrides, deep=deep,
                                        stop_on_first=stop_on_first, jobs=jobs,
                                        executor=executor))
            if stop_on_first and reports[-1].status == "counterexample":
                break
    finally:
        if executor is not None:
            executor.shutdown()
    return reports


def run_suite(suite: str, overrides: dict | None = None, *, deep: bool = False,
              stop_on_first: bool = False, jobs: int = 1) -> list[VerificationReport]:
    """Run a named suite; reports come back in suite order."""
    return run_claims(suite_claims(suite), overrides, deep=deep,
                      stop_on_first=stop_on_first, jobs=jobs)
