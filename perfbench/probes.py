"""Layer probes: single-layer timings outside the workloads.

Run once per traced benchmark invocation, in a fresh interpreter:

    python3 perfbench/probes.py --seed 1

Prints one JSON object: {"metrics": {...}, "attempted": n, "failures": {...}}.
Every cold table fill starts from ``sequences._reset_caches()``; every
q-binomial row build from ``polynomials._reset_caches()``.  Random operands
come from ``random.Random(seed)``.  Table fills are checked against recorded
digests, products and quotients against independent identities.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import statistics
import sys
import time

from child import HERE, import_library

# Cold-fill sizes per table.  The 2000-entry fills of the (3, 2) families
# take about 10 s each and little Schroder about 170 s on a 2-core machine,
# and Motzkin to 4000 about 22 s, so those are probed at smaller sizes.
TABLE_SIZES = {
    "motzkin": (500, 2000),
    "central_trinomial": (500, 2000),
    "motzkin_analog_w": (500, 2000),
    "delannoy": (500, 2000),
    "schroder_little": (500, 700),
    "gen_trinomial_b3_c2": (500, 1000),
    "gen_motzkin_b3_c2": (500, 1000),
}
MUL_LENGTHS = (32, 49, 50, 64, 256)  # both sides of polynomials._KRON_MIN = 50
QBINOM_ROWS = (50, 100)
EXACT_DIV_N = (20, 40)
WARM_LOOKUPS = 2000


def tables(seq):
    """name -> (prefix fill of 0..n, single lookup, smallest index)."""
    return {
        "motzkin": (seq.motzkin_values, seq.motzkin, 0),
        "central_trinomial": (seq.central_trinomial_values, seq.central_trinomial, 0),
        "motzkin_analog_w": (seq.motzkin_analog_w_values, seq.motzkin_analog_w, 0),
        "delannoy": (seq.delannoy_values, seq.delannoy, 0),
        "schroder_little": (seq.schroder_little_values, seq.schroder_little, 1),
        "gen_trinomial_b3_c2": (lambda n: seq.gen_trinomial_values(n, 3, 2),
                                lambda n: seq.gen_trinomial(n, 3, 2), 0),
        "gen_motzkin_b3_c2": (lambda n: seq.gen_motzkin_values(n, 3, 2),
                              lambda n: seq.gen_motzkin(n, 3, 2), 0),
    }


def values_digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


def per_call_s(fn, args_list, batches: int = 5, min_batch_s: float = 0.04) -> float:
    """Median over batches of the mean time per call of fn(*args).

    A batch makes as many passes over ``args_list`` as keep it at least
    ``min_batch_s`` long, judged from one timed pass.
    """
    start = time.monotonic()
    for args in args_list:
        fn(*args)
    passes = max(1, math.ceil(min_batch_s / max(time.monotonic() - start, 1e-9)))
    times = []
    for _ in range(batches):
        start = time.monotonic()
        for _ in range(passes):
            for args in args_list:
                fn(*args)
        times.append((time.monotonic() - start) / (passes * len(args_list)))
    return statistics.median(times)


def random_poly(poly_type, rng: random.Random, length: int, bits: int = 64):
    coeffs = [rng.randint(-(1 << bits), 1 << bits) for _ in range(length)]
    coeffs[-1] = coeffs[-1] or 1
    return poly_type(coeffs)


def table_fills(seq):
    """Yield (name, n, cold seconds, values) for each probed cold fill."""
    for name, (fill, _lookup, _lo) in tables(seq).items():
        for n in TABLE_SIZES[name]:
            seq._reset_caches()
            start = time.monotonic()
            values = fill(n)
            yield name, n, time.monotonic() - start, values


def run_probes(seed: int, expected: dict[str, str]) -> dict:
    import_library()
    from motzkinlab import polynomials as poly
    from motzkinlab import sequences as seq

    rng = random.Random(seed)
    metrics, failures, attempted = {}, {}, 0

    def check(label: str, ok: bool) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures[label] = "probe result differs from its reference"

    lookups = tables(seq)
    for name, n, cold_s, values in table_fills(seq):
        metrics[f"sequences.cold_s.{name}.n{n}"] = cold_s
        check(f"{name}.n{n}", values_digest(values) == expected.get(f"{name}.n{n}"))
        if n == TABLE_SIZES[name][-1]:
            _fill, lookup, lo = lookups[name]
            idx = [(rng.randint(lo, n),) for _ in range(WARM_LOOKUPS)]
            metrics[f"sequences.warm_us.{name}"] = per_call_s(lookup, idx) * 1e6

    for length in MUL_LENGTHS:
        a = random_poly(poly.Poly, rng, length)
        b = random_poly(poly.Poly, rng, length)
        check(f"mul.len{length}", (a * b)(3) == a(3) * b(3))
        metrics[f"polynomials.mul_us.len{length}"] = per_call_s(a.__mul__, [(b,)]) * 1e6

    for n in QBINOM_ROWS:
        k = rng.randint(0, n)
        poly._reset_caches()
        start = time.monotonic()
        row_entry = poly.q_binomial(n, k)
        metrics[f"polynomials.qbinom_rows_s.n{n}"] = time.monotonic() - start
        check(f"qbinom.n{n}", row_entry(1) == math.comb(n, k))

    for n in EXACT_DIV_N:
        divisor = poly.q_integer(n)
        quotient = random_poly(poly.Poly, rng, 10 * n)
        dividend = divisor * quotient
        check(f"exact_div.n{n}", dividend.exact_div(divisor) == quotient)
        metrics[f"polynomials.exact_div_ms.n{n}"] = per_call_s(
            dividend.exact_div, [(divisor,)]) * 1e3

    return {"metrics": metrics, "attempted": attempted, "failures": failures}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    digests = json.loads((HERE / "digests.json").read_text())
    print(json.dumps(run_probes(args.seed, digests["probes"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
