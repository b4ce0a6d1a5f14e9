"""Self-tests of the benchmark: the digest gate and the tracer.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from child import import_library, report_digest, run_iteration  # noqa: E402
from reference import REF_S  # noqa: E402
from run import e2e_samples  # noqa: E402
from tracer import ChunkTimingExecutor, Tracer  # noqa: E402
from workloads import Workload  # noqa: E402

import_library()
from motzkinlab import claims, polynomials, reports, sequences, verify  # noqa: E402

SMALL = Workload("small", (("MUT-LEM-2.3", {"n_max": 6}), ("THM-1.1.i", {"n_max": 30})))


def digests_of(workload: Workload) -> dict[str, str]:
    return {cid: report_digest(verify.verify_claim(cid, ov)) for cid, ov in workload.plan}


def run_small(expected, jobs: int = 1, traced: bool = False) -> dict:
    return run_iteration(SMALL, jobs=jobs, traced=traced, t_spawn=time.monotonic(),
                         expected=expected)


def test_unaltered_reports_pass_the_gate():
    out = run_small(digests_of(SMALL))
    assert out["failures"] == {}
    assert out["attempted"] == 2
    assert out["claims"]["MUT-LEM-2.3"]["status"] == "counterexample"
    assert out["reference_s"] > 0.0


def test_end_to_end_times_are_in_reference_seconds():
    it = {"wall_s": 3.0, "cpu_s": 2.0, "setup_s": 0.5, "reference_s": 2 * REF_S,
          "points": 30, "peak_rss_mb": 20.0}
    assert e2e_samples(it) == {"wall_s": 1.5, "cpu_s": 1.0, "points_per_s": 20.0,
                               "peak_rss_mb": 20.0, "setup_s": 0.25}


def test_changed_witness_counts_as_failed(monkeypatch):
    expected = digests_of(SMALL)
    original = verify.verify_claim

    def altered(claim_id, *args, **kwargs):
        report = original(claim_id, *args, **kwargs)
        if report.counterexamples:
            report.counterexamples[0]["lhs"] += " "
        return report

    monkeypatch.setattr(verify, "verify_claim", altered)
    out = run_small(expected)
    assert list(out["failures"]) == ["MUT-LEM-2.3"]


def test_raising_claim_counts_as_failed(monkeypatch):
    expected = digests_of(SMALL)

    def broken(claim_id, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "verify_claim", broken)
    out = run_small(expected)
    assert set(out["failures"]) == {"MUT-LEM-2.3", "THM-1.1.i"}


def wrapped_bindings() -> dict:
    """Every binding the tracer replaces, by (owner, attribute)."""
    out = {}
    for attr, fn in vars(sequences).items():
        if callable(fn) and not attr.startswith("_"):
            out[(sequences, attr)] = fn
    for attr in ("__mul__", "__rmul__", "__add__", "__pow__", "div_rem", "exact_div"):
        out[(polynomials.Poly, attr)] = polynomials.Poly.__dict__[attr]
    for module in (polynomials, claims):
        for attr in ("q_binomial", "q_integer"):
            out[(module, attr)] = getattr(module, attr)
    out[(claims._Acc, "at")] = claims._Acc.__dict__["at"]
    out[(verify, "verify_claim")] = verify.verify_claim
    out[(verify, "_eval_chunk")] = verify._eval_chunk
    out[(reports, "reports_to_json")] = reports.reports_to_json
    return out


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_restores_every_wrapped_function():
    before = wrapped_bindings()
    claims_before = dict(claims.CLAIMS)
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert current(polynomials.Poly, "__mul__") is not before[(polynomials.Poly, "__mul__")]
            assert current(claims, "q_binomial") is not before[(claims, "q_binomial")]
            assert claims.CLAIMS["LEM-2.3"] is not claims_before["LEM-2.3"]
            1 / 0
    for (owner, attr), fn in before.items():
        assert current(owner, attr) is fn, attr
    assert claims.CLAIMS == claims_before
    assert all(claims.CLAIMS[k] is v for k, v in claims_before.items())


def test_traced_run_passes_the_gate_and_records_spans():
    out = run_small(digests_of(SMALL), traced=True)
    assert out["failures"] == {}
    layers = out["layers"]
    assert layers["claims.check_calls"] == 6 + 30
    assert layers["polynomials.mul_calls"] > 0
    assert layers["verify.chunks"] == 2
    assert layers["claims.acc_calls"] == 30


def test_pooled_traced_run_matches_serial_and_times_chunks():
    expected = digests_of(SMALL)
    out = run_small(expected, jobs=2, traced=True)
    assert out["failures"] == {}
    # THM-1.1.i (30 points) goes through the pool; MUT-LEM-2.3 (6) stays in-process
    assert set(out["pooled_busy_s"]) == {"THM-1.1.i"}
    assert out["reference_s"] > 0.0 and out["cpu_s"] > 0.0
    assert out["layers"]["verify.chunks"] > 2


def test_chunk_executor_returns_unchanged_results():
    with ChunkTimingExecutor(max_workers=2) as pool:
        pool.trace_id = "x"
        assert pool.submit(divmod, 17, 5).result() == (3, 2)
        assert [(tid, len(rec)) for tid, *rec in pool.records] == [("x", 3)]
