"""One benchmark iteration in a fresh interpreter.

Started by ``perfbench/run.py``; prints one JSON object on stdout.  Set-up
(interpreter start, ``import motzkinlab`` and, for pooled workloads, one
answer from every pool worker) is timed from the parent's spawn timestamp.
The timed interval runs from the first claim call to the rendered report.
Right before and after it, the kernels of ``perfbench/reference.py`` are
timed where the work runs: in this process, or in every pool worker.  Each
claim's report is then hashed with ``elapsed_ms`` dropped and compared with
the recorded digest.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_library():
    """Import motzkinlab from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import motzkinlab

    if Path(motzkinlab.__file__).resolve().parent.parent != src:
        raise ImportError(f"motzkinlab imported from {motzkinlab.__file__}, not {src}")
    return motzkinlab


def report_digest(report) -> str:
    from motzkinlab.reports import reports_to_json

    text = reports_to_json([report], include_elapsed=False)
    return hashlib.sha256(text.encode()).hexdigest()


def warm_pool(executor, jobs: int) -> None:
    """Submit pings until every worker has answered once."""
    from tracer import ping

    seen: set[int] = set()
    pause = 0.0
    while len(seen) < jobs:
        for fut in [executor.submit(ping, pause) for _ in range(jobs)]:
            seen.add(fut.result())
        pause = 0.02


def measure_reference(executor, jobs: int) -> tuple[float, dict[int, tuple[float, float]]]:
    """Reference seconds where the work runs: in this process (serial) or
    the mean over the pool's workers, each having answered at least once.

    For a pool, also returns each worker's CPU seconds at the start of its
    first reference task and at the end of its last one.
    """
    from reference import reference_s, worker_reference

    if executor is None:
        return reference_s(), {}
    refs: dict[int, float] = {}
    cpu: dict[int, tuple[float, float]] = {}
    while len(refs) < jobs:
        for fut in [executor.submit(worker_reference) for _ in range(jobs)]:
            pid, c0, ref, c1 = fut.result()
            refs.setdefault(pid, ref)
            first, last = cpu.get(pid, (c0, c1))
            cpu[pid] = (min(first, c0), max(last, c1))
    return statistics.mean(refs.values()), cpu


def run_plan(plan, jobs, executor, tracer):
    """Verify each planned claim; an exception is recorded, not raised."""
    from motzkinlab import verify

    from tracer import ChunkTimingExecutor

    reports, errors = [], {}
    for claim_id, overrides in plan:
        if tracer is not None:
            tracer.trace_id = claim_id
        if isinstance(executor, ChunkTimingExecutor):
            executor.trace_id = claim_id
        try:
            reports.append(verify.verify_claim(claim_id, overrides, jobs=jobs,
                                               executor=executor))
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            errors[claim_id] = f"{type(exc).__name__}: {exc}"
    return reports, errors


def run_iteration(workload, *, jobs: int, traced: bool, t_spawn: float,
                  expected: dict[str, str], spans_out: Path | None = None) -> dict:
    import_library()
    from motzkinlab import reports as reports_mod

    from tracer import ChunkTimingExecutor, Tracer

    executor = None
    if jobs > 1:
        executor = (ChunkTimingExecutor if traced else ProcessPoolExecutor)(max_workers=jobs)
        warm_pool(executor, jobs)
    setup_s = time.monotonic() - t_spawn

    tracer = Tracer() if traced else None
    try:
        ref_before, cpu_before = measure_reference(executor, jobs)
        if traced and executor is not None:
            executor.records.clear()  # drop the warm-up and reference tasks
        cpu0 = time.process_time()
        with tracer.installed() if traced else nullcontext():
            t0 = time.monotonic()
            reports, errors = run_plan(workload.plan, jobs, executor, tracer)
            text = reports_mod.reports_to_json(reports)
            t1 = time.monotonic()
        cpu_s = time.process_time() - cpu0
        records = list(executor.records) if traced and executor is not None else []
        ref_after, cpu_after = measure_reference(executor, jobs)
    finally:
        if executor is not None:
            executor.shutdown()
    # worker CPU between the two reference rounds: the timed interval's chunks
    cpu_s += sum(cpu_after[pid][0] - cpu_before[pid][1] for pid in cpu_after)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    failures = dict(errors)
    claims = {}
    for report in reports:
        digest = report_digest(report)
        claims[report.claim] = {"status": report.status, "digest": digest,
                                "elapsed_s": report.elapsed_ms / 1000.0}
        if digest != expected.get(report.claim):
            failures[report.claim] = f"report digest {digest[:12]} differs from the recorded one"
    out = {
        "setup_s": setup_s,
        "reference_s": (ref_before + ref_after) / 2.0,
        "wall_s": t1 - t0,
        "cpu_s": cpu_s,
        "points": sum(r.params.get("checked", 0) for r in reports),
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": len(workload.plan),
        "failures": failures,
        "claims": claims,
    }
    if traced:
        layers = tracer.layer_metrics(t0, t1, records, jobs)
        layers["reports.json_bytes"] = len(text.encode())
        out["layers"] = layers
        pooled = {}
        for trace_id, _pid, c0, c1 in records:
            pooled[trace_id] = pooled.get(trace_id, 0.0) + (c1 - c0)
        out["pooled_busy_s"] = pooled
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            spans_out.write_text(json.dumps(tracer.dump(t0, records)))
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--t-spawn-ns", type=int, required=True,
                   help="time.monotonic_ns() taken by the parent just before spawning")
    p.add_argument("--jobs", type=int, help="override the workload's worker count")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out", type=Path)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    digests = json.loads((HERE / "digests.json").read_text())
    out = run_iteration(workload, jobs=args.jobs or workload.jobs(), traced=args.trace,
                        t_spawn=args.t_spawn_ns / 1e9,
                        expected=digests["workloads"][args.workload],
                        spans_out=args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
