"""Verification, search, and certification of Ramanujan-type congruences
H(a*n + b) == 0 (mod ell), plus the square-class, maximality-bound, and
divisibility property checks.

Certificates are heuristic: they record the finite range n_max_checked that
was verified and never claim a proof.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from math import gcd

import numpy as np

from .arith import check_ell, factorize, is_prime, ord_p, sqrt_mod
from .hurwitz import HurwitzTable

__all__ = [
    "HolomorphicClass",
    "ArithmeticProgression",
    "CongruenceCertificate",
    "OrdBoundReport",
    "check_progression",
    "check_search_range",
    "check_u_max",
    "verify_congruence",
    "classify_progression",
    "search",
    "square_class_check",
    "square_class_witness",
    "ord_bound_report",
    "certificate_to_json",
]


class HolomorphicClass(Enum):
    HOLOMORPHIC = "holomorphic"
    NONHOLOMORPHIC = "nonholomorphic"


def check_progression(a: int, b: int) -> None:
    """Raise ValueError unless a >= 1 and b is the canonical residue 0 <= b < a."""
    if a < 1 or not 0 <= b < a:
        raise ValueError(f"need a >= 1 and 0 <= b < a, got ({a}, {b})")


def check_search_range(a_max: int, n_max: int) -> None:
    """Raise ValueError unless a_max >= 1, as a_max < 1 would scan nothing,
    and n_max >= 100 * a_max, so every progression has 100 values checked."""
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    if n_max < 100 * a_max:
        raise ValueError("need n_max >= 100 * a_max for a meaningful search")


def check_u_max(u_max: int) -> None:
    """Raise ValueError unless u_max >= 1, as u_max < 1 would check no u and
    pass vacuously."""
    if u_max < 1:
        raise ValueError("u_max must be >= 1")


@dataclass(frozen=True)
class ArithmeticProgression:
    """The progression a*Z + b with the canonical residue 0 <= b < a."""

    a: int
    b: int

    def __post_init__(self):
        check_progression(self.a, self.b)


@dataclass(frozen=True)
class CongruenceCertificate:
    ell: int
    progression: ArithmeticProgression
    n_max_checked: int
    holomorphic_class: HolomorphicClass
    maximal_up_to_check: bool


def verify_congruence(
    ell: int, a: int, b: int, n_max: int, table: HurwitzTable
) -> tuple[bool, int | None]:
    """Check 12*H(a*n + b) == 0 (mod ell) for every n >= 0 with a*n + b <= n_max.

    Returns (True, None) on success, else (False, least failing value a*n+b).
    """
    check_ell(ell)
    check_progression(a, b)
    table.check_covers(n_max)
    vals = table.values[b : n_max + 1 : a]
    bad = np.nonzero(vals % _modulus(ell))[0]
    if bad.size:
        return False, b + a * int(bad[0])
    return True, None


def classify_progression(a: int, b: int) -> HolomorphicClass:
    """Non-holomorphic iff -b is a square modulo a."""
    if sqrt_mod(-b, a):
        return HolomorphicClass.NONHOLOMORPHIC
    return HolomorphicClass.HOLOMORPHIC


def _has_discriminant_support(a: int, b: np.ndarray) -> np.ndarray:
    """For each residue in b, whether a*Z + b contains any value D with
    -D == 0 or 1 (mod 4).

    Progressions without such values have H identically zero on them and
    verify vacuously; the search excludes them.  Such a progression never
    covers a supported one either: 4 | a/q and b' == 1, 2 (mod 4) force
    4 | a and b == b' (mod 4) on every child (a, b) of (a/q, b').
    """
    return (a % 4 != 0) | (b % 4 == 0) | (b % 4 == 3)


_SCREEN_ROWS = 64
_MASK_CHUNK = 1 << 20  # entries of the table reduced mod ell at a time by search


def _modulus(ell: int) -> int:
    """A modulus that fits int32 table values and divides the same ones as
    ell: every |12*H(D)| < 2^31 - 1, so an ell beyond that divides only 0,
    as 2^31 - 1 does."""
    return min(ell, 2**31 - 1)


def _passing_residues(nz_any: np.ndarray, a: int) -> list[int]:
    """Residues b mod a with discriminant support whose progression
    b, b + a, ... has no True entry.

    One reshaped prefix of _SCREEN_ROWS rows rules out most residues in a
    single call; only the supported survivors are scanned along the whole
    progression.
    """
    rows = min(_SCREEN_ROWS, nz_any.size // a)
    hit = nz_any[: rows * a].reshape(rows, a).any(axis=0)
    survivors = np.flatnonzero(~hit & _has_discriminant_support(a, np.arange(a)))
    return [b for b in survivors.tolist() if not nz_any[b::a].any()]


def search(
    ell: int, a_max: int, n_max: int, table: HurwitzTable
) -> list[CongruenceCertificate]:
    """All progressions with a <= a_max whose values up to n_max verify the
    congruence, reduced to maximal ones: a progression is dropped when some
    super-progression (a/q)*Z + (b mod a/q), q prime, also verifies.

    Only progressions that contain discriminants are scanned; those without
    (identically zero H) are never read and never reported.  The scan is
    serial.
    """
    check_ell(ell)
    check_search_range(a_max, n_max)
    table.check_covers(n_max)
    values = table.values[: n_max + 1]
    modulus = _modulus(ell)
    nz = np.empty(values.size, dtype=bool)
    # chunk by chunk, so the remainders never take a table-sized temporary
    for lo in range(0, values.size, _MASK_CHUNK):
        np.not_equal(values[lo : lo + _MASK_CHUNK] % modulus, 0, out=nz[lo : lo + _MASK_CHUNK])

    passing = {(a, b) for a in range(1, a_max + 1) for b in _passing_residues(nz, a)}

    certificates = []
    for a, b in sorted(passing):
        covered = any(
            (a // q, b % (a // q)) in passing
            for q, _ in factorize(a)
        )
        if covered:
            continue
        certificates.append(
            CongruenceCertificate(
                ell,
                ArithmeticProgression(a, b),
                n_max,
                classify_progression(a, b),
                True,
            )
        )
    return certificates


def square_class_check(
    ell: int, a: int, b: int, u_max: int, n_max: int, table: HurwitzTable
) -> tuple[bool, list[tuple[int, int]]]:
    """Verify the congruence on a*Z + b*u^2 for every u <= u_max coprime to a.

    Returns (ok, failures) where failures lists (u, least counterexample) by
    increasing u, so the base progression, u = 1, comes first.
    """
    check_u_max(u_max)
    failures = []
    for u in range(1, u_max + 1):
        if gcd(u, a) != 1:
            continue
        ok, witness = verify_congruence(ell, a, b * u * u % a, n_max, table)
        if not ok:
            failures.append((u, witness))
    return not failures, failures


def square_class_witness(m: int, a: int, b: int, p: int) -> int:
    """Smallest u coprime to a with m == b*u^2 (mod a).

    Preconditions follow the lifting argument that guarantees existence:
    p odd prime, r = ord_p(a/gcd(a,b)) >= 2, and m == b (mod a/p).
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    r = ord_p(a // gcd(a, b), p)
    if r < 2:
        raise ValueError(f"need ord_{p}(a/gcd(a,b)) >= 2, got {r}")
    if (m - b) % (a // p):
        raise ValueError(f"need m == b (mod {a // p})")
    for u in range(1, a + 1):
        if gcd(u, a) == 1 and (m - b * u * u) % a == 0:
            return u
    raise ValueError(f"no witness u exists for m={m} on {a}Z+{b} at p={p}")


@dataclass(frozen=True)
class OrdBoundReport:
    """Valuations ord_p(a / gcd(a,b)) for the primes p dividing a, flagged
    against the maximality bounds (<= 3 at p = 2, <= 1 at odd p)."""

    orders: dict[int, int]
    violations: list[int]

    @property
    def within_bounds(self) -> bool:
        return not self.violations


def ord_bound_report(a: int, b: int) -> OrdBoundReport:
    quotient = a // gcd(a, b)
    orders = {}
    violations = []
    for p, _ in factorize(a):
        e = ord_p(quotient, p)
        orders[p] = e
        if e > (3 if p == 2 else 1):
            violations.append(p)
    return OrdBoundReport(orders, violations)


def certificate_to_json(cert: CongruenceCertificate) -> str:
    """Schema: {"ell", "a", "b", "n_max", "class", "maximal"}."""
    payload = {
        "ell": cert.ell,
        "a": cert.progression.a,
        "b": cert.progression.b,
        "n_max": cert.n_max_checked,
        "class": cert.holomorphic_class.value,
        "maximal": cert.maximal_up_to_check,
    }
    return json.dumps(payload)
