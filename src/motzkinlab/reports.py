"""Parameter ranges, verification reports, and their JSON/CSV/human renderings.

The JSON schema per report is fixed: claim, params, status, counterexamples,
table, elapsed_ms, in that order.  ``params`` carries the effective range,
the number of checked points, skipped points with reasons, and any
claim-specific notes, so a report describes its own run.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields, replace


class InvalidRange(ValueError):
    pass


DEFAULT_B_SET = tuple(b for b in range(-4, 5) if b != 0)
DEFAULT_C_SET = tuple(range(-4, 5))


@dataclass(frozen=True)
class ParamRange:
    """Parameter bounds for a claim run.

    Fields not relevant to a claim are ignored by it; each claim's grid
    filters out parameter points that violate its side conditions.
    """

    n_max: int = 200
    prime_lo: int = 2
    prime_hi: int = 1000
    b_set: tuple[int, ...] = DEFAULT_B_SET
    c_set: tuple[int, ...] = DEFAULT_C_SET
    h_max: int = 3
    m_max: int = 3
    qexp_a_max: int = 2
    qexp_b_max: int = 2

    def validate(self) -> None:
        if self.n_max < 0:
            raise InvalidRange("n_max must be >= 0")
        if self.prime_lo < 2 or self.prime_hi < 2:
            raise InvalidRange("prime bounds must be >= 2")
        if self.prime_lo > self.prime_hi:
            raise InvalidRange(f"prime_lo {self.prime_lo} exceeds prime_hi {self.prime_hi}")
        if self.prime_hi > 10 ** 7:  # the prime sieve allocates prime_hi + 1 bytes
            raise InvalidRange(f"prime_hi {self.prime_hi} exceeds 10**7")
        if self.h_max < 1 or self.m_max < 1:
            raise InvalidRange("h_max and m_max must be >= 1")
        if self.qexp_a_max < 0 or self.qexp_b_max < 0:
            raise InvalidRange("exponent bounds must be >= 0")
        if not self.b_set or not self.c_set:
            raise InvalidRange("b_set and c_set must be nonempty")

    def override(self, **kwargs) -> "ParamRange":
        """Copy with the given fields replaced (tuples coerced)."""
        clean = {}
        names = {f.name for f in fields(self)}
        for key, value in kwargs.items():
            if key not in names:
                raise InvalidRange(f"unknown range field {key!r}")
            if key in ("b_set", "c_set"):
                value = tuple(value)
            clean[key] = value
        return replace(self, **clean)


@dataclass
class VerificationReport:
    """Outcome of checking one claim over a parameter range."""

    claim: str
    params: dict
    status: str  # "verified" | "counterexample" | "skipped"
    counterexamples: list = field(default_factory=list)
    table: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "claim": self.claim,
            "params": self.params,
            "status": self.status,
            "counterexamples": self.counterexamples,
            "table": self.table,
        }
        out["elapsed_ms"] = round(self.elapsed_ms, 3) if include_elapsed else None
        return out


# An integer prints in decimal up to 4300 digits, the interpreter's default limit on
# int-to-str conversion, and in exact hex from 10**4300 on, whatever the limit is set to.
_DECIMAL_BOUND = 10 ** 4300
# Decimal is converted 600 digits at a time: the lowest limit Python allows is 640.
_CHUNK_DIGITS = 600
_CHUNK = 10 ** _CHUNK_DIGITS


def _digits(x: int) -> str:
    """x in decimal when abs(x) < 10**4300, else in exact hex, at any digit limit."""
    if not -_DECIMAL_BOUND < x < _DECIMAL_BOUND:
        return hex(x)
    sign, rest, chunks = "-" if x < 0 else "", abs(x), []
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    return sign + str(rest) + "".join(reversed(chunks))


def reports_to_json(reports: list[VerificationReport], *, include_elapsed: bool = True) -> str:
    return json.dumps(
        [r.to_json_dict(include_elapsed=include_elapsed) for r in reports],
        indent=2,
    )


_CSV_COLUMNS = ("claim", "param", "status", "lhs", "rhs", "witness")


def reports_to_csv(reports: list[VerificationReport]) -> str:
    """Flatten reports: one row per counterexample, skipped point, and table
    entry, plus a summary row per claim."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_COLUMNS)
    for r in reports:
        for ce in r.counterexamples:
            writer.writerow([r.claim, json.dumps(ce["params"]), "counterexample",
                             ce["lhs"], ce["rhs"], ""])
        for point, reason in r.params.get("skipped", []):
            writer.writerow([r.claim, json.dumps(point), "skipped", "", "", reason])
        for point, value in r.table:
            writer.writerow([r.claim, json.dumps(point), "ok", "", "", str(value)])
        writer.writerow([r.claim, "", r.status, "", "",
                         f"checked={r.params.get('checked', 0)}"])
    return buf.getvalue()


def format_report_human(report: VerificationReport) -> str:
    """Multi-line human rendering; golden tables are aligned."""
    lines = []
    checked = report.params.get("checked", 0)
    n_skip = len(report.params.get("skipped", []))
    head = f"{report.claim:<16} {report.status:<14} checked={checked}"
    if n_skip:
        head += f" skipped={n_skip}"
    head += f"  [{report.elapsed_ms:.1f} ms]"
    lines.append(head)
    notes = report.params.get("notes")
    if notes:
        for key, value in notes.items():
            lines.append(f"    note: {key} = {value}")
    for point, reason in report.params.get("skipped", [])[:8]:
        lines.append(f"    skipped {point}: {reason}")
    if report.table:
        width = max(len(str(v)) for _, v in report.table)
        for point, value in report.table:
            lines.append(f"    {_point_str(point):<12} {str(value):>{width}}")
    for ce in report.counterexamples[:10]:
        lines.append(f"    COUNTEREXAMPLE at {ce['params']}:")
        lines.append(f"        lhs = {ce['lhs']}")
        lines.append(f"        rhs = {ce['rhs']}")
    extra = len(report.counterexamples) - 10
    if extra > 0:
        lines.append(f"    ... and {extra} more counterexamples")
    return "\n".join(lines)


def _point_str(point: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in point.items())
