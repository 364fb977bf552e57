"""Dichotomy classifier: given a verified congruence on a*Z + b, decide from
the enumerated representations D*f^2 in the progression whether a Hecke-type
condition at some prime p | a explains it, or whether the class numbers of the
occurring fundamental discriminants are themselves divisible by ell.

The verdict is evidence-bounded: rows are enumerated only up to n_max.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from math import gcd

from .arith import (
    factorize,
    fundamental_decomposition,
    is_fundamental,
    kronecker,
    ord_p,
    p_part,
)
from .congruence import verify_congruence
from .hurwitz import HurwitzTable

__all__ = [
    "DichotomyCase",
    "PrimeLocalData",
    "RepresentationRow",
    "AssumptionReport",
    "HeckeWitness",
    "DichotomyReport",
    "check_assumptions",
    "enumerate_representations",
    "hecke_condition",
    "classify",
    "report_to_json",
]


class DichotomyCase(Enum):
    FUNDAMENTAL_DIVISIBILITY = "fundamental_divisibility"
    HECKE_CONDITION = "hecke_condition"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PrimeLocalData:
    """Local data of a row at a prime p | a."""

    f_p: int
    kronecker: int
    hecke_residue: int | None


@dataclass(frozen=True)
class RepresentationRow:
    """n = D*f^2 in the progression, -D fundamental, with local data per p | a."""

    n: int
    D: int
    f: int
    per_prime: dict[int, PrimeLocalData]


@dataclass(frozen=True)
class AssumptionReport:
    """ord_p(a/gcd(a,b)) >= 1 for odd p | a, and >= 2 at p = 2 when a is even."""

    per_prime: dict[int, tuple[int, int, bool]]  # p -> (ord, required, ok)

    @property
    def ok(self) -> bool:
        return all(v[2] for v in self.per_prime.values())


@dataclass(frozen=True)
class HeckeWitness:
    p: int
    kronecker: int
    f_p: int


@dataclass(frozen=True)
class DichotomyReport:
    ell: int
    a: int
    b: int
    n_max: int
    case: DichotomyCase
    witness: HeckeWitness | None
    assumption_check: AssumptionReport
    evidence: list[RepresentationRow]
    h_values: list[tuple[int, int]]  # (D, h(-D) mod ell) over fundamental rows D > 4
    prime_power_congruence: tuple[int, int, bool] | None  # (a_p, b mod a_p, verified)


def hecke_condition(D: int, f: int, p: int, ell: int) -> int:
    """(sigma1(f_p) - (-D|p) * sigma1(f_p/p)) mod ell, where f_p is the p-part
    of f.  For p not dividing f the local factor is empty and the neutral
    residue 1 is returned, so such primes never witness the condition."""
    if not is_fundamental(D):
        raise ValueError(f"-{D} is not a fundamental discriminant")
    fp = p_part(f, p)
    return _hecke_residue(fp, kronecker(-D, p), p, ell)


def _hecke_residue(fp: int, kr: int, p: int, ell: int) -> int:
    """hecke_condition's residue from f_p = p^e and kr = (-D|p), with
    sigma1(p^e) = (p^(e+1) - 1) / (p - 1) in closed form."""
    if fp == 1:
        return 1 % ell
    return ((fp * p - 1) // (p - 1) - kr * ((fp - 1) // (p - 1))) % ell


def check_assumptions(a: int, b: int) -> AssumptionReport:
    """Valuation hypotheses on a/gcd(a,b) per prime divisor of a."""
    quotient = a // gcd(a, b)
    report = {}
    for p, _ in factorize(a).factors:
        required = 2 if p == 2 else 1
        e = ord_p(quotient, p)
        report[p] = (e, required, e >= required)
    return AssumptionReport(report)


def enumerate_representations(
    a: int, b: int, n_max: int, ell: int | None = None
) -> list[RepresentationRow]:
    """All n <= n_max in a*Z + b with -n a discriminant, decomposed as D*f^2
    with -D fundamental; rows sorted by n.  Local Hecke residues are filled in
    when ell is given."""
    primes = [p for p, _ in factorize(a).factors]
    rows = []
    start = b if b else a
    for n in range(start, n_max + 1, a):
        if n % 4 in (1, 2):
            continue
        dec = fundamental_decomposition(n)
        per_prime = {}
        for p in primes:
            fp = p_part(dec.f, p)
            kr = kronecker(-dec.D, p)
            # dec.D is fundamental by construction, so hecke_condition's check is skipped
            residue = _hecke_residue(fp, kr, p, ell) if ell else None
            per_prime[p] = PrimeLocalData(fp, kr, residue)
        rows.append(RepresentationRow(n, dec.D, dec.f, per_prime))
    return rows


def classify(
    ell: int, a: int, b: int, n_max: int, table: HurwitzTable
) -> DichotomyReport:
    """Classify a verified congruence into the Hecke-condition case or the
    fundamental-divisibility case on the evidence up to n_max.

    Requires the congruence to verify and the valuation assumptions to hold.
    For a Hecke witness p the local data (f_p, kronecker) must be constant
    across all rows; a violation would contradict the uniqueness property and
    is raised as an error.  The implied congruence on the p-part progression
    a_p*Z + (b mod a_p) is re-verified and recorded.
    """
    ok, counterexample = verify_congruence(ell, a, b, n_max, table)
    if not ok:
        raise ValueError(
            f"H({a}n+{b}) is not == 0 (mod {ell}) up to {n_max}: fails at {counterexample}"
        )
    assumptions = check_assumptions(a, b)
    if not assumptions.ok:
        bad = [p for p, v in assumptions.per_prime.items() if not v[2]]
        raise ValueError(f"valuation assumptions fail at primes {bad}")
    rows = enumerate_representations(a, b, n_max, ell)
    h_values = []
    inv12 = pow(12, -1, ell)
    for row in rows:
        if row.D > 4:
            h_values.append((row.D, table.twelve_h(row.D) * inv12 % ell))
    if not rows:
        return DichotomyReport(
            ell, a, b, n_max, DichotomyCase.INCONCLUSIVE, None, assumptions,
            rows, h_values, None,
        )
    witness = None
    for p, _ in factorize(a).factors:
        if all(row.per_prime[p].hecke_residue == 0 for row in rows):
            locals_seen = {(row.per_prime[p].f_p, row.per_prime[p].kronecker) for row in rows}
            if len(locals_seen) != 1:
                raise ArithmeticError(
                    f"Hecke witness p={p} has non-constant local data {sorted(locals_seen)}; "
                    "this contradicts the uniqueness property and indicates a bug"
                )
            fp, kr = locals_seen.pop()
            witness = HeckeWitness(p, kr, fp)
            break
    if witness is not None:
        a_p = p_part(a, witness.p)
        pp_ok, _ = verify_congruence(ell, a_p, b % a_p, n_max, table)
        return DichotomyReport(
            ell, a, b, n_max, DichotomyCase.HECKE_CONDITION, witness, assumptions,
            rows, h_values, (a_p, b % a_p, pp_ok),
        )
    if h_values and all(residue == 0 for _, residue in h_values):
        return DichotomyReport(
            ell, a, b, n_max, DichotomyCase.FUNDAMENTAL_DIVISIBILITY, None,
            assumptions, rows, h_values, None,
        )
    return DichotomyReport(
        ell, a, b, n_max, DichotomyCase.INCONCLUSIVE, None, assumptions,
        rows, h_values, None,
    )


def report_to_json(report: DichotomyReport, max_rows: int | None = 20) -> str:
    """Stable-key-order JSON; evidence rows are truncated to max_rows unless None."""
    rows = report.evidence if max_rows is None else report.evidence[:max_rows]
    payload = {
        "ell": report.ell,
        "a": report.a,
        "b": report.b,
        "n_max": report.n_max,
        "case": report.case.value,
        "witness": None
        if report.witness is None
        else {
            "p": report.witness.p,
            "kronecker": report.witness.kronecker,
            "f_p": report.witness.f_p,
        },
        "assumptions": {
            str(p): {"ord": v[0], "required": v[1], "ok": v[2]}
            for p, v in sorted(report.assumption_check.per_prime.items())
        },
        "prime_power_congruence": None
        if report.prime_power_congruence is None
        else {
            "a_p": report.prime_power_congruence[0],
            "b": report.prime_power_congruence[1],
            "verified": report.prime_power_congruence[2],
        },
        "rows_total": len(report.evidence),
        "rows": [
            {
                "n": row.n,
                "D": row.D,
                "f": row.f,
                "local": {
                    str(p): {
                        "f_p": d.f_p,
                        "kronecker": d.kronecker,
                        "hecke_residue": d.hecke_residue,
                    }
                    for p, d in sorted(row.per_prime.items())
                },
            }
            for row in rows
        ],
        "h_values_nonzero": sum(1 for _, r in report.h_values if r != 0),
        "h_values_total": len(report.h_values),
    }
    return json.dumps(payload)
