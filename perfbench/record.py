"""Record the canonical digests the benchmark checks against.

    python3 perfbench/record.py

Runs every workload serially (jobs = 1) and every probed table fill once,
checks that each claim reports ``verified`` (or ``counterexample`` where that
is the documented outcome), and writes ``perfbench/digests.json``.  Run it
only when a change is meant to alter a report; the benchmark's correctness
gate is the comparison against this file.
"""
from __future__ import annotations

import json
import sys

from child import HERE, import_library, report_digest
from probes import table_fills, values_digest
from workloads import EXPECTED_COUNTEREXAMPLES, WORKLOADS


def main() -> int:
    import_library()
    from motzkinlab import sequences, verify

    out = {"workloads": {}, "probes": {}}
    for name, workload in WORKLOADS.items():
        digests = out["workloads"][name] = {}
        for claim_id, overrides in workload.plan:
            report = verify.verify_claim(claim_id, overrides)
            want = "counterexample" if claim_id in EXPECTED_COUNTEREXAMPLES else "verified"
            if report.status != want:
                print(f"{name}: {claim_id} is {report.status}, expected {want}", file=sys.stderr)
                return 1
            digests[claim_id] = report_digest(report)
        print(f"{name}: {len(digests)} claims recorded", file=sys.stderr)
    for table, n, _cold_s, values in table_fills(sequences):
        out["probes"][f"{table}.n{n}"] = values_digest(values)
    (HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
