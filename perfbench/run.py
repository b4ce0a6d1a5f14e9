"""motzkinlab benchmark: timed, digest-checked workload runs.

    python3 perfbench/run.py --workload qdiv --seed 1 --seconds 20 --trace 0

Workloads (pinned claim grids, see ``perfbench/workloads.py``):
  qdiv       LEM-2.3 and MUT-LEM-2.3, serial: Poly arithmetic.
  tables     cold O(n^2) sequence tables and accumulators, serial.
  grid       the (b, c)-grid claims, serial: checkers and warm lookups.
  suite-all  every claim of ``suite all`` through one pool, jobs = nproc.

For ``--seconds`` seconds the workload is run again and again, each time in
a fresh interpreter (``perfbench/child.py``), so every table starts cold.
Each iteration's reports are hashed with ``elapsed_ms`` dropped and compared
with ``perfbench/digests.json``; a differing or raising claim counts as
failed.  ``--trace 0`` reports the end-to-end metrics (medians over the
iterations).  ``--trace 1`` alternates untraced and traced iterations,
reports the per-layer metrics (medians over the traced ones) and then runs
the layer probes of ``perfbench/probes.py`` once.

The end-to-end times (``wall_s``, ``cpu_s``, ``setup_s`` and so
``points_per_s``) are in reference seconds: each iteration's seconds times
``REF_S`` over the time the kernels of ``perfbench/reference.py`` took
around the workload, where it ran (the iteration's process, or the mean over
its pool workers).  That takes out the shared machine's swings in speed,
which last longer than a run.  The raw seconds are in the detail line.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  The line before it holds the details: the machine, each
metric's median, highest percentile with at least ten samples beyond it and
sample count, the samples, ``failed_frac`` and the failures.  Traced runs
write their last iteration's spans to ``perfbench/out/``.

The seed drives only the probe operands: the workload grids are fixed, so
that their reports can be checked against one recorded digest each.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from reference import REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E = ("wall_s", "cpu_s", "points_per_s", "peak_rss_mb", "setup_s")


class ChildFailed(RuntimeError):
    pass


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
    }


def spawn(script: str, args: list[str]) -> dict:
    """Run a perfbench script in a fresh interpreter; return its JSON output."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0:
        raise ChildFailed(f"{script} {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def iteration(workload: str, *, traced: bool = False, jobs: int | None = None) -> dict:
    args = ["--workload", workload]
    if traced:
        args += ["--trace", "--spans-out", str(OUT / f"spans-{workload}.json")]
    if jobs is not None:
        args += ["--jobs", str(jobs)]
    return spawn("child.py", args + ["--t-spawn-ns", str(time.monotonic_ns())])


def summary(values: list[float]) -> dict:
    """Median, highest percentile with at least ten samples beyond it, count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 11:
        i = n - 11  # ordered[i] has exactly ten samples above it
        out[f"p{100 * (i + 1) // n}"] = ordered[i]
    return out


def scaled(it: dict, key: str) -> float:
    """An iteration's seconds in reference seconds."""
    return it[key] * REF_S / it["reference_s"]


def e2e_samples(it: dict) -> dict:
    wall_s = scaled(it, "wall_s")
    return {
        "wall_s": wall_s,
        "cpu_s": scaled(it, "cpu_s"),
        "points_per_s": it["points"] / wall_s,
        "peak_rss_mb": it["peak_rss_mb"],
        "setup_s": scaled(it, "setup_s"),
    }


def collect(workload: str, seconds: float, traced: bool) -> tuple[list, list]:
    """Untraced (and, with ``traced``, traced) iterations for ``seconds``."""
    plain, tr = [], []
    start = time.monotonic()
    while time.monotonic() - start < seconds or not plain:
        plain.append(iteration(workload))
        if traced:
            tr.append(iteration(workload, traced=True))
    return plain, tr


def layer_metrics(workload: str, plain: list, traced: list, seed: int,
                  failures: dict) -> tuple[dict, int]:
    """Per-layer metrics: medians over traced iterations, trace overhead,
    work inflation against a serial run (pooled workloads) and probes."""
    names = traced[0]["layers"].keys()
    metrics = {k: statistics.median(it["layers"][k] for it in traced) for k in names}
    metrics["trace.overhead_frac"] = (statistics.median(scaled(it, "wall_s") for it in traced)
                                      / statistics.median(scaled(it, "wall_s") for it in plain)
                                      - 1.0)
    attempted = 0
    if WORKLOADS[workload].pooled:
        serial = iteration(workload, jobs=1)
        attempted += serial["attempted"]
        failures.update({f"serial {k}": v for k, v in serial["failures"].items()})
        parallel = plain[0]["claims"]
        for claim_id, rec in serial["claims"].items():
            if parallel.get(claim_id, {}).get("digest") != rec["digest"]:
                failures[f"serial {claim_id}"] = "serial report differs from the pooled one"
        ratios = []
        for it in traced:
            busy = it["pooled_busy_s"]
            ratios.append(sum(busy.values())
                          / sum(serial["claims"][c]["elapsed_s"] for c in busy))
        metrics["verify.work_inflation"] = statistics.median(ratios)
    else:
        metrics["verify.work_inflation"] = 1.0  # jobs = 1: no pool, nothing inflates
    probes = spawn("probes.py", ["--seed", str(seed)])
    metrics.update(probes["metrics"])
    attempted += probes["attempted"]
    failures.update({f"probe {k}": v for k, v in probes["failures"].items()})
    return metrics, attempted


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "motzkinlab").is_dir():
        print(f"error: no motzkinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    mach = machine()
    try:
        plain, traced = collect(args.workload, args.seconds, bool(args.trace))
        iterations = plain + traced
        failures = {}
        for i, it in enumerate(iterations):
            failures.update({f"iteration {i} {k}": v for k, v in it["failures"].items()})
        attempted = sum(it["attempted"] for it in iterations)
        samples = [e2e_samples(it) for it in plain]
        stats = {k: summary([s[k] for s in samples]) for k in E2E}
        if args.trace:
            metrics, extra = layer_metrics(args.workload, plain, traced, args.seed, failures)
            attempted += extra
        else:
            metrics = {k: stats[k]["median"] for k in E2E}
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if metrics.keys() != units.keys():
        print(f"error: metrics {sorted(metrics.keys() ^ units.keys())} are not both "
              "measured and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    failed = len(failures)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": mach, "iterations": len(iterations), "stats": stats,
              "samples": {k: [s[k] for s in samples] for k in E2E},
              "raw_samples": {k: [it[k] for it in plain]
                              for k in ("wall_s", "cpu_s", "setup_s", "reference_s")},
              "failed_frac": failed / attempted, "failures": failures}
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
