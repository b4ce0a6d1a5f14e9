"""Outside-in tracing for the benchmark's traced runs.

``Tracer`` wraps public functions of ``motzkinlab``'s modules from outside
(sequences, polynomials, claims, verify, reports), records one span per call
in memory and restores every wrapped function on exit.  Nothing in the
library is edited; the wrappers exist only while ``Tracer.installed()`` is
active.

``ChunkTimingExecutor`` is a process pool whose futures carry the worker
pid, start and end of every chunk it ran, for the engine metrics.

All times are ``time.monotonic()``, which on Linux is CLOCK_MONOTONIC and
so comparable across the benchmark's processes.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import statistics
import time
from collections import Counter, defaultdict
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from fractions import Fraction

# sequences functions that have no prefix table behind them; they are traced
# but left out of ``sequences.hit_ratio``
_UNCACHED_SEQUENCES = frozenset({"binomial", "narayana", "w_coeff"})
_POLY_METHODS = ("__mul__", "__rmul__", "__add__", "__pow__", "div_rem", "exact_div")
_MUL_SPANS = ("polynomials.Poly.__mul__", "polynomials.Poly.__rmul__")


def ping(pause_s: float) -> int:
    """Pool warm-up task: the worker's pid."""
    time.sleep(pause_s)
    return os.getpid()


def timed_call(module: str, qualname: str, args: tuple, kwargs: dict):
    """Worker-side wrapper: run ``module.qualname(*args, **kwargs)`` and
    return its result with (pid, start, end).  The function travels by name,
    so a traced wrapper in the parent is never pickled."""
    fn = importlib.import_module(module)
    for part in qualname.split("."):
        fn = getattr(fn, part)
    start = time.monotonic()
    out = fn(*args, **kwargs)
    return out, os.getpid(), start, time.monotonic()


class ChunkTimingExecutor(ProcessPoolExecutor):
    """Process pool that records (trace_id, pid, start, end) per task.

    Futures returned by ``submit`` resolve to the task's unchanged result.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records: list[tuple[str | None, int, float, float]] = []
        self.trace_id: str | None = None

    def submit(self, fn, /, *args, **kwargs):
        fn = inspect.unwrap(fn)
        inner = super().submit(timed_call, fn.__module__, fn.__qualname__, args, kwargs)
        outer: Future = Future()
        trace_id = self.trace_id

        def relay(done: Future) -> None:
            exc = done.exception()
            if exc is not None:
                outer.set_exception(exc)
                return
            out, pid, start, end = done.result()
            self.records.append((trace_id, pid, start, end))
            outer.set_result(out)

        inner.add_done_callback(relay)
        return outer


class Tracer:
    """In-memory span recorder over wrapped library functions.

    A span is (name, start, end, parent index or -1, trace id); the trace id
    is the claim being verified.  Self time is accumulated on the fly as a
    span's duration minus the time covered by its child spans.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.trace_id: str | None = None
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self._saved_claims: dict | None = None
        self._seq_high: dict = {}

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                calls[name] += 1
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                spans[frame[0]] = (name, start, end, parent, self.trace_id)

        return traced

    def _patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def install(self) -> None:
        from motzkinlab import claims, polynomials, reports, sequences, verify

        for attr, fn in list(vars(sequences).items()):
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == sequences.__name__):
                hook = None if attr in _UNCACHED_SEQUENCES else self._seq_hook(attr)
                self._patch(sequences, attr, f"sequences.{attr}", hook)
        mul_hook = self._mul_hook(polynomials)
        for attr in _POLY_METHODS:
            hook = mul_hook if attr in ("__mul__", "__rmul__") else None
            self._patch(polynomials.Poly, attr, f"polynomials.Poly.{attr}", hook)
        # claims imports these by name, so both bindings are wrapped
        for module in (polynomials, claims):
            for attr in ("q_binomial", "q_integer"):
                self._patch(module, attr, f"polynomials.{attr}")
        self._patch(claims._Acc, "at", "claims._Acc.at")
        self._patch(verify, "verify_claim", "verify.verify_claim")
        self._patch(verify, "_eval_chunk", "verify._eval_chunk")
        self._patch(reports, "reports_to_json", "reports.reports_to_json")
        self._saved_claims = dict(claims.CLAIMS)
        for claim_id, claim in self._saved_claims.items():
            claims.CLAIMS[claim_id] = dataclasses.replace(
                claim, check=self.wrap("claims.check", claim.check))

    def uninstall(self) -> None:
        from motzkinlab import claims

        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self._saved_claims is not None:
            claims.CLAIMS.update(self._saved_claims)
            self._saved_claims = None

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _seq_hook(self, fn_name: str):
        high, counts = self._seq_high, self.counts

        def hook(args):
            if not args:
                return
            key = (fn_name, args[1:])
            counts["seq_table_calls"] += 1
            if args[0] <= high.get(key, -1):
                counts["seq_hits"] += 1
            else:
                high[key] = args[0]

        return hook

    def _mul_hook(self, polynomials):
        poly_type = polynomials.Poly
        kron_min = getattr(polynomials, "_KRON_MIN", None)
        counts = self.counts

        def hook(args):
            a, b = args[0].coeffs, args[1]
            if isinstance(b, poly_type):
                b = b.coeffs
                counts["mul_coeff_products"] += len(a) * len(b)
                counts["poly_products"] += 1
                if (kron_min is not None and len(a) >= kron_min and len(b) >= kron_min
                        and all(type(c) is int for c in a)
                        and all(type(c) is int for c in b)):
                    counts["kron_products"] += 1
            elif isinstance(b, (int, Fraction)) and b:
                counts["mul_coeff_products"] += len(a)

        return hook

    # -- summaries --------------------------------------------------------

    def layer_metrics(self, start: float, end: float, pool_records, jobs: int) -> dict:
        """Per-layer metrics of one traced interval [start, end].

        ``pool_records`` are (trace_id, pid, start, end) chunk records from a
        ``ChunkTimingExecutor``; they count as child spans of the
        ``verify.verify_claim`` span with the same trace id.
        """
        S, C, K = self.self_s, self.calls, self.counts
        wall = end - start
        seq_names = [n for n in C if n.startswith("sequences.")]
        inproc = [s for s in self.spans if s[0] == "verify._eval_chunk"]
        by_claim = defaultdict(list)
        for trace_id, _pid, c0, c1 in pool_records:
            by_claim[trace_id].append((c0, c1))
        pooled_cover = 0.0
        roots = 0.0
        for name, s0, s1, parent, trace_id in self.spans:
            if parent == -1:
                roots += s1 - s0
            if name == "verify.verify_claim":
                pooled_cover += _union_within(by_claim.get(trace_id, ()), s0, s1)
        inproc_busy = sum(s[2] - s[1] for s in inproc)
        busy = Counter()
        for _tid, pid, c0, c1 in pool_records:
            busy[pid] += c1 - c0
        if busy:
            imbalance = max(busy.values()) / statistics.mean(busy.values())
            idle = 1.0 - sum(busy.values()) / (jobs * wall)
        else:  # serial: the one "worker" is this process
            imbalance = 1.0
            idle = 1.0 - inproc_busy / wall
        products = K["poly_products"]
        return {
            "polynomials.mul_calls": sum(C[n] for n in _MUL_SPANS),
            "polynomials.mul_self_s": sum(S[n] for n in _MUL_SPANS),
            "polynomials.mul_coeff_products": K["mul_coeff_products"],
            "polynomials.kron_frac": K["kron_products"] / products if products else 0.0,
            "polynomials.add_self_s": S["polynomials.Poly.__add__"],
            "polynomials.div_rem_self_s": S["polynomials.Poly.div_rem"],
            "polynomials.q_binomial_self_s": S["polynomials.q_binomial"],
            "sequences.calls": sum(C[n] for n in seq_names),
            "sequences.self_s": sum(S[n] for n in seq_names),
            "sequences.hit_ratio": (K["seq_hits"] / K["seq_table_calls"]
                                    if K["seq_table_calls"] else 0.0),
            "claims.check_calls": C["claims.check"],
            "claims.check_self_s": S["claims.check"],
            "claims.acc_calls": C["claims._Acc.at"],
            "claims.acc_self_s": S["claims._Acc.at"],
            "verify.engine_self_s": (S["verify.verify_claim"] - pooled_cover
                                     + S["verify._eval_chunk"]),
            "verify.chunks": len(inproc) + len(pool_records),
            "verify.chunk_busy_s": inproc_busy + sum(busy.values()),
            "verify.chunk_imbalance": imbalance,
            "verify.pool_idle_frac": idle,
            "reports.render_s": sum(s[2] - s[1] for s in self.spans
                                    if s[0] == "reports.reports_to_json"),
            "trace.other_s": wall - roots,
        }

    def dump(self, start: float, pool_records) -> dict:
        """Spans and chunk records with times relative to ``start``."""
        return {
            "fields": ["name", "start_s", "end_s", "parent", "trace_id"],
            "spans": [(n, s0 - start, s1 - start, p, t) for n, s0, s1, p, t in self.spans],
            "pool_chunks": [{"trace_id": t, "pid": pid, "start_s": c0 - start,
                             "end_s": c1 - start} for t, pid, c0, c1 in pool_records],
        }


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
