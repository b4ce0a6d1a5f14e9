"""Claim verification engine: ordered, optionally parallel point evaluation
with deterministic report assembly, plus the named claim suites.

A block of consecutive points is checked by ``_eval_chunk``, which returns
its part of the report: the checked count, the skips, the table rows and
the counterexamples.  A serial run is one part.  A parallel one cuts the
points into ``4·jobs`` contiguous blocks, deals them back and forth to one
task per worker (``_deal``), so that blocks ``i`` and ``4·jobs − 1 − i``
(``b`` and ``−b`` on a symmetric ``b``-set) share a task, and each task
checks its blocks in turn (``_eval_blocks``).  The parts are joined in
block order, so a report's content is identical for any worker count.
``run_claims`` runs any list of claims, a suite's included, and owns the
only pool.  ``stop_on_first`` stops the evaluation at the first
counterexample.  In a pooled run every task starts at once, and each stops
at its own first counterexample.  The join drops the parts after the first
block with one, and no later claim runs.
"""
from __future__ import annotations

import itertools
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from .claims import CLAIMS, _OK, Claim, Skip
from .reports import ParamRange, VerificationReport


class UnknownClaim(LookupError):
    pass


class UnknownSuite(LookupError):
    pass


class _WorkerTraceback(Exception):
    """The traceback text of an exception raised in a pool worker; it is the
    cause of that exception when the parent re-raises it."""


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
    rng = claim.deep_range if deep else claim.default_range
    if overrides:
        rng = rng.override(**overrides)
    rng.validate()
    return rng


def _label(claim: Claim, point) -> dict:
    if not isinstance(point, tuple):
        point = (point,)
    return dict(zip(claim.grid.names, point))


def _range_echo(rng: ParamRange, keys: tuple[str, ...]) -> dict:
    out = {}
    for key in keys:
        value = getattr(rng, key)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _eval_chunk(claim_id: str, points: list, stop_on_first: bool = False) -> tuple:
    """Check the given points of a claim in order (worker entry) and return
    their part of the report: ``(checked, skipped, table, counterexamples)``,
    the table cut at ``_TABLE_CAP``.  With ``stop_on_first`` the part ends
    at its first counterexample."""
    claim = CLAIMS[claim_id]
    check = claim.check
    checked, skipped, table, counterexamples = 0, [], [], []
    for point in points:
        if isinstance(point, Skip):
            skipped.append([point.point, point.reason])
            continue
        result = check(point)
        checked += 1
        if result is _OK:  # the shared verified result: no table row, no witness
            continue
        if result[0] == "ok":
            if result[1] is not None and len(table) < _TABLE_CAP:
                table.append([_label(claim, point), result[1]])
        else:
            counterexamples.append({"params": _label(claim, point),
                                    "lhs": result[1], "rhs": result[2]})
            if stop_on_first:
                break
    return checked, skipped, table, counterexamples


def _join(parts, stop_on_first: bool) -> tuple:
    """Join the parts of consecutive slices of the points, in order, into
    one; with ``stop_on_first``, after the first part with a counterexample."""
    checked, skipped, table, counterexamples = 0, [], [], []
    for part in parts:
        checked += part[0]
        skipped += part[1]
        table += part[2]
        counterexamples += part[3]
        if stop_on_first and counterexamples:
            break
    return checked, skipped, table[:_TABLE_CAP], counterexamples


def _eval_blocks(claim_id: str, blocks: list, stop_on_first: bool = False) -> tuple:
    """Check blocks of a claim's points in order (one pool task) and return
    ``(parts, error)``: the part of each block checked, then ``None`` or, for
    a block that raised, ``(exception, traceback text)``.  The task stops at
    a block that raises, and with ``stop_on_first`` after a block with a
    counterexample."""
    parts = []
    for block in blocks:
        try:
            part = _eval_chunk(claim_id, block, stop_on_first)
        except Exception as exc:
            return parts, (exc, traceback.format_exc())
        parts.append(part)
        if stop_on_first and part[3]:
            break
    return parts, None


def _deal(i: int, tasks: int) -> int:
    """The task of block ``i``: position ``i mod tasks`` in even rounds of
    ``tasks`` blocks, and ``tasks − 1`` minus it in odd rounds."""
    r, w = divmod(i, tasks)
    return tasks - 1 - w if r % 2 else w


def _block_parts(futures):
    """Yield the parts of the blocks in order: block ``i`` is entry
    ``i // len(futures)`` of task ``_deal(i, len(futures))``.  A block that
    raised in its task raises here, when the join reaches it."""
    for i in itertools.count():
        parts, error = futures[_deal(i, len(futures))].result()
        k = i // len(futures)
        if k < len(parts):
            yield parts[k]
        elif error is not None:
            exc, text = error
            raise exc from _WorkerTraceback(text)
        else:  # past the last block: a round deals each task at most one block
            return


def verify_claim(claim_id: str, overrides: dict | None = None, *,
                 deep: bool = False, stop_on_first: bool = False, jobs: int = 1,
                 executor: ProcessPoolExecutor | None = None) -> VerificationReport:
    """Evaluate one claim over its (possibly overridden) parameter range.

    With ``jobs > 1`` a claim of more than 8 points is cut into ``4·jobs``
    contiguous blocks, and ``executor`` gets one task per worker, each with
    one block of every round of ``jobs``, dealt back and forth by ``_deal``;
    without an executor, ``run_claims`` starts the pool.  With
    ``stop_on_first`` each task stops at its own first counterexample, and
    the join drops the parts after the first one.  A block that raises is
    re-raised only when the join reaches it, so a pooled run raises exactly
    when the serial run does.
    """
    if jobs > 1 and executor is None:
        return run_claims([claim_id], overrides, deep=deep, stop_on_first=stop_on_first,
                          jobs=jobs)[0]
    claim = get_claim(claim_id)
    rng = effective_range(claim, overrides, deep=deep)
    start = time.perf_counter()

    points = list(claim.grid.points(rng))
    if jobs > 1 and len(points) > 8:
        size = -(-len(points) // (jobs * 4))
        blocks = [points[lo:lo + size] for lo in range(0, len(points), size)]
        tasks = min(jobs, len(blocks))
        dealt = [[b for i, b in enumerate(blocks) if _deal(i, tasks) == w] for w in range(tasks)]
        parts = _block_parts([executor.submit(_eval_blocks, claim.id, task, stop_on_first)
                              for task in dealt])
    else:
        parts = [_eval_chunk(claim.id, points, stop_on_first)]
    checked, skipped, table, counterexamples = _join(parts, stop_on_first)

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
    finally:  # tasks not started when a claim stops or raises are not needed
        if executor is not None:
            executor.shutdown(cancel_futures=True)
    return reports


def run_suite(suite: str, overrides: dict | None = None, *, deep: bool = False,
              stop_on_first: bool = False, jobs: int = 1) -> list[VerificationReport]:
    """Run a named suite; reports come back in suite order."""
    return run_claims(suite_claims(suite), overrides, deep=deep,
                      stop_on_first=stop_on_first, jobs=jobs)
