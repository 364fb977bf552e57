"""Dichotomy classifier: given a verified congruence on a*Z + b, decide from
the enumerated representations D*f^2 in the progression whether a Hecke-type
condition at some prime p | a explains it, or whether the class numbers of the
occurring fundamental discriminants are themselves divisible by ell.

The representations are computed as int64 numpy columns over the whole
progression, and the classifier decides on those columns.  The evidence a
caller sees is a lazy read-only sequence over them: a RepresentationRow is
built only when it is indexed, sliced or iterated.

The verdict is evidence-bounded: rows are enumerated only up to n_max.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from math import isqrt

import numpy as np

from .arith import (
    check_fundamental,
    factorize,
    hecke_factor,
    kronecker,
    p_part,
    primes_up_to,
)
from .congruence import ord_bound_report, verify_congruence
from .hurwitz import HurwitzTable

__all__ = [
    "DichotomyCase",
    "PrimeLocalData",
    "RepresentationRow",
    "AssumptionReport",
    "HeckeWitness",
    "DichotomyReport",
    "check_assumptions",
    "check_max_rows",
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


@dataclass(frozen=True, eq=False)
class DichotomyReport:
    """classify's verdict with what it rests on.  evidence holds the rows of
    enumerate_representations as a lazy read-only sequence over columns: its
    len() is the row count, and rows are built only when indexed, sliced or
    iterated.  h_values is one int64 array of shape (k, 2).  A report holds
    arrays, so two reports are not compared by value."""

    ell: int
    a: int
    b: int
    n_max: int
    case: DichotomyCase
    witness: HeckeWitness | None
    assumption_check: AssumptionReport
    evidence: Sequence[RepresentationRow]
    h_values: np.ndarray  # int64 rows (D, h(-D) mod ell) over fundamental rows D > 4, in row order
    prime_power_congruence: tuple[int, int, bool] | None  # (a_p, b mod a_p, verified)


def hecke_condition(D: int, f: int, p: int, ell: int) -> int:
    """(sigma1(f_p) - (-D|p) * sigma1(f_p/p)) mod ell, where f_p is the p-part
    of f.  For p not dividing f the local factor is empty and the neutral
    residue 1 is returned, so such primes never witness the condition."""
    check_fundamental(D)
    return hecke_factor(p_part(f, p), kronecker(-D, p), p) % ell


def check_assumptions(a: int, b: int) -> AssumptionReport:
    """Valuation hypotheses on a/gcd(a,b) per prime divisor of a."""
    report = {}
    for p, e in ord_bound_report(a, b).orders.items():
        required = 2 if p == 2 else 1
        report[p] = (e, required, e >= required)
    return AssumptionReport(report)


class _Representations(Sequence):
    """Rows of enumerate_representations as int64 columns n, D, f, with
    local[p] = (f_p, kronecker, hecke_residue) per p | a; hecke_residue is
    None when no ell was given."""

    def __init__(self, n, D, f, local):
        self.n, self.D, self.f, self.local = n, D, f, local

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._rows(i)
        i = range(len(self))[i]
        return self._rows(slice(i, i + 1))[0]

    def _rows(self, sel: slice) -> list[RepresentationRow]:
        local = {
            p: zip(fp[sel].tolist(), kr[sel].tolist(), repeat(None) if res is None else res[sel].tolist())
            for p, (fp, kr, res) in self.local.items()
        }
        return [
            RepresentationRow(n, D, f, {p: PrimeLocalData(*next(data)) for p, data in local.items()})
            for n, D, f in zip(self.n[sel].tolist(), self.D[sel].tolist(), self.f[sel].tolist())
        ]


def enumerate_representations(
    a: int, b: int, n_max: int, ell: int | None = None
) -> Sequence[RepresentationRow]:
    """All n <= n_max in a*Z + b with -n a discriminant, decomposed as D*f^2
    with -D fundamental; rows sorted by n.  Local Hecke residues are filled in
    when ell is given.

    The rows are a lazy read-only sequence over int64 columns computed for the
    whole progression at once; a RepresentationRow is built only when the
    sequence is indexed, sliced or iterated.
    """
    primes = [p for p, _ in factorize(a)]
    start = b if b else a
    if start < 1:  # values n <= 0 are no discriminants: the first with n == 0, 3 (mod 4) is an error
        for n in range(start, min(n_max, 0) + 1, a):
            if n % 4 in (0, 3):
                raise ValueError(f"-{n} is not a discriminant")
        start += (a - start) // a * a
    n = start + a * np.arange(max(0, (n_max - start) // a + 1), dtype=np.int64)
    # n = s * f^2 with s squarefree: divide out p^2 for every p <= sqrt(n_max)
    s, f = n.copy(), np.ones_like(n)
    for p in primes_up_to(isqrt(max(n_max, 0))):
        q = p * p
        if a % p:
            # p^(2j) | start + a*k is one residue class of k mod p^(2j)
            step = q
            while step <= n_max:
                k0 = -start * pow(a, -1, step) % step
                s[k0::step] //= q
                f[k0::step] *= p
                step *= q
        elif start % p == 0:
            at = np.flatnonzero(s % q == 0)
            while at.size:
                s[at] //= q
                f[at] *= p
                at = at[s[at] % q == 0]
    r = n % 4
    keep = (r == 0) | (r == 3)
    n, s, f = n[keep], s[keep], f[keep]
    # -s is fundamental when s == 3 (mod 4); otherwise s == 1, 2 (mod 4), -4s is, and f is even
    odd = s % 4 == 3
    D = np.where(odd, s, 4 * s)
    f = np.where(odd, f, f // 2)
    local = {}
    for p in primes:
        fp = np.ones_like(f)
        at = np.flatnonzero(f % p == 0)
        while at.size:
            fp[at] *= p
            at = at[f[at] % (fp[at] * p) == 0]
        # (-D|p) depends on -D mod 8 at p = 2 and on -D mod p at odd p, so it is
        # evaluated once per residue that occurs
        period = 8 if p == 2 else p
        seen, at = np.unique(-D % period, return_inverse=True)
        kr = np.array([kronecker(r, p) for r in seen.tolist()], dtype=np.int64)[at]
        residue = None
        if ell:
            # f_p > 1 forces p^2 <= f_p * p <= f^2 <= n_max, so no product overflows
            residue = np.full_like(f, 1 % ell)
            at = np.flatnonzero(fp > 1)
            residue[at] = hecke_factor(fp[at], kr[at], p) % ell
        local[p] = (fp, kr, residue)
    return _Representations(n, D, f, local)


def classify(
    ell: int, a: int, b: int, n_max: int, table: HurwitzTable
) -> DichotomyReport:
    """Classify a verified congruence into the Hecke-condition case or the
    fundamental-divisibility case on the evidence up to n_max.

    Requires the congruence to verify and the valuation assumptions to hold.
    For a Hecke witness p the local data (f_p, kronecker) must be constant
    across all rows; a violation would contradict the uniqueness property and
    is raised as an error.  The implied congruence on the p-part progression
    a_p*Z + (b mod a_p) is recorded: re-verified when a_p < a, and the
    congruence's own verdict when a_p == a.
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
    fundamental = rows.D[rows.D > 4]
    # every row n has 0 < 12H(n) == 0 (mod ell), so ell <= max 12H < 2^20: the product
    # wraps in int32 but not in int64
    residues = table.values[fundamental].astype(np.int64) * pow(12, -1, ell) % ell
    h_values = np.column_stack((fundamental, residues))
    case, witness, prime_power = DichotomyCase.INCONCLUSIVE, None, None
    if residues.size and not residues.any():
        case = DichotomyCase.FUNDAMENTAL_DIVISIBILITY
    # a Hecke witness takes precedence; with no rows the columns are empty and there is none
    for p, (fp, kr, residue) in rows.local.items() if rows else ():
        if residue.any():
            continue
        if (fp != fp[0]).any() or (kr != kr[0]).any():
            locals_seen = sorted(set(zip(fp.tolist(), kr.tolist())))
            raise ArithmeticError(
                f"Hecke witness p={p} has non-constant local data {locals_seen}; "
                "this contradicts the uniqueness property and indicates a bug"
            )
        a_p = p_part(a, p)
        pp_ok = ok if a_p == a else verify_congruence(ell, a_p, b % a_p, n_max, table)[0]
        case = DichotomyCase.HECKE_CONDITION
        witness, prime_power = HeckeWitness(p, int(kr[0]), int(fp[0])), (a_p, b % a_p, pp_ok)
        break
    return DichotomyReport(ell, a, b, n_max, case, witness, assumptions, rows, h_values, prime_power)


def check_max_rows(max_rows: int | None) -> None:
    """Raise ValueError for a negative max_rows, which a slice would read from
    the end; None stands for every row."""
    if max_rows is not None and max_rows < 0:
        raise ValueError("max_rows must be >= 0")


def report_to_json(report: DichotomyReport, max_rows: int | None = 20) -> str:
    """Stable-key-order JSON; evidence rows are truncated to max_rows unless None."""
    check_max_rows(max_rows)
    rows = report.evidence[:max_rows]
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
        "h_values_nonzero": int(np.count_nonzero(report.h_values[:, 1])),
        "h_values_total": len(report.h_values),
    }
    return json.dumps(payload)
