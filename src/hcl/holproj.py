"""Closed-form holomorphic-projection coefficients and the subprogression
construction.

Two exact closed forms for the non-holomorphic part of the projected product
are implemented: `proj_theta_product` enumerates integer solutions of
m^2 - mt^2 = a*n (the sign-enumeration form), while `nonhol_coefficient`
evaluates the factorization double sum over a*n = d1*d2 with congruence
conditions mod a.  The two coincide on the tuples pinned in
`test_routes_agree_on_pinned_tuples` and at most distinguished indices of a
subprogression witness, but not in general: the factorization form has no
same-parity condition on d1, d2 and pins the congruences to +beta only (see
`test_routes_differ_in_general` and acceptance item A7).
`q_subset_decomposition` regroups the factorization form by subsets of the
prime divisors of a.  The square roots of -b, their subset labels and the
verdict that the split is undefined depend only on (a, b, beta), so a bounded
cache keeps them across the calls for successive n.
`exact_projection_coefficient` sums 12H(a*n - k^2) over k == +-beta (mod a)
straight from the table, which equals the product of the sieved `qseries`
Eisenstein and theta series (`test_exact_projection_matches_qseries_composition`).

All three forms read one walk over the factorizations a*n = e*f, e < f
(`_divisor_pairs`), which sums them by residue class mod a: the pair sums of
the factorization form keyed by beta_tilde, and the theta sums S keyed by
mt mod a, so that proj_theta_product at beta_tilde is its square term plus
S[beta_tilde] + S[-beta_tilde].  Callers ask for every form and every root
at the same (a, beta, a*n), so a bounded cache holds the walk and each
(a, beta mod a, a*n) is walked once.

All values are exact integers or rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from types import MappingProxyType

import numpy as np

from .arith import divisors, factorize, is_prime, next_prime_in_class, ord_p, sqrt_mod
from .hurwitz import HurwitzTable

__all__ = [
    "proj_theta_product",
    "nonhol_coefficient",
    "QSubsetDecomposition",
    "q_subset_decomposition",
    "SubprogressionWitness",
    "subprogression_conditions",
    "subprogression_construct",
    "DistinguishedPrimes",
    "find_distinguished_primes",
    "exact_projection_coefficient",
]

PRIME_SEARCH_CAP = 10**7


def _check_a_n(a: int, n: int, n_min: int) -> None:
    """The rule a >= 1 and n >= n_min of every closed form."""
    if a < 1 or n < n_min:
        raise ValueError(f"need a >= 1 and n >= {n_min}")


def _check_root(a: int, b: int, beta: int) -> None:
    """The rule that beta is a square root of -b mod a."""
    if (beta * beta + b) % a:
        raise ValueError(f"beta^2 must be == -b (mod {a})")


def proj_theta_product(a: int, beta_tilde: int, beta: int, n: int) -> int:
    """Coefficient at e(n*tau) of the normalized projection of the product of
    the completed theta component theta*_{a,beta_tilde} with theta_{a,beta}:

        -4 * ( [beta_tilde == 0 (mod a)] * sum |m|  over m != 0, m == beta (mod a), m^2 = a*n
               + sum (m^2 - mt^2)/(|m| + |mt|)  over mt != 0, m == beta, mt == beta_tilde (mod a),
                                                      m^2 - mt^2 = a*n )

    Solutions (m, mt) come from factorizations a*n = e*f, e < f, e == f
    (mod 2): m = +-(e+f)/2, mt = +-(f-e)/2, all four sign choices, filtered by
    the congruences, and each admissible one adds e.  The walk over them is
    shared (_divisor_pairs): its theta sums S, keyed by mt mod a, give the
    second sum as S[beta_tilde] + S[-beta_tilde].
    """
    _check_a_n(a, n, 0)
    an = a * n
    total = 0
    if beta_tilde % a == 0 and an > 0:
        r = isqrt(an)
        if r * r == an:
            for m in (r, -r):
                if (m - beta) % a == 0:
                    total += r
    # m^2 - mt^2 is never == 2 (mod 4)
    if an > 0 and an % 4 != 2:
        sums = _divisor_pairs(a, beta % a, an)[1]
        total += sums.get(beta_tilde % a, 0) + sums.get(-beta_tilde % a, 0)
    return -4 * total


@lru_cache(maxsize=16, typed=True)
def _divisor_pairs(
    a: int, beta: int, an: int
) -> tuple[MappingProxyType[int, int], MappingProxyType[int, int]]:
    """One walk over a*n = e*f with e < f, beta normalised mod a, returning
    (pair sums, theta sums), read-only as every caller shares them.

    Pair sums: when e + f == 2*beta (mod a), e is added under both keys
    (e - beta) mod a and (f - beta) mod a, as the ordered pairs (d1, d2) =
    (e, f) and (f, e) of the factorization form.  Then d2 == beta - beta_tilde,
    and beta^2 - beta_tilde^2 == d1*d2 == 0 (mod a) makes each key
    beta_tilde a square root of -b without solving for it.  Roots without a
    pair are absent.

    Theta sums: when e == f (mod 2), m0 = (e + f)/2 and mt0 = (f - e)/2, and
    e times the number of signs with +-m0 == beta (mod a) is added under the
    key mt0 mod a.  proj_theta_product reads the keys +-beta_tilde, which
    counts the signs of mt.

    A caller asks for every form and every root at one (a, beta, a*n): in the
    `holproj` benchmark sweep each of the 81,079 tuples is walked once, and
    the CLI's `holproj --projection` walks once.  16 entries leave room for
    callers that interleave a few.  typed=True, as in _subset_labels, so an
    entry walked for a float beta (whose keys are floats) serves no int one.
    """
    pair_sums: dict[int, int] = {}
    theta_sums: dict[int, int] = {}
    for e in divisors(an):
        f = an // e
        if e >= f:  # e == f gives mt = 0 and d1 = d2; the pairs past it repeat
            break
        if (e + f - 2 * beta) % a == 0:
            for bt in ((e - beta) % a, (f - beta) % a):
                pair_sums[bt] = pair_sums.get(bt, 0) + e
        if (e - f) % 2 == 0:
            m0, mt0 = (e + f) // 2, (f - e) // 2
            # each admissible sign pair contributes an / (|m| + |mt|) = e
            m_signs = ((m0 - beta) % a == 0) + ((m0 + beta) % a == 0)
            if m_signs:
                key = mt0 % a
                theta_sums[key] = theta_sums.get(key, 0) + e * m_signs
    return MappingProxyType(pair_sums), MappingProxyType(theta_sums)


def _check_factorization_args(a: int, b: int, beta: int, n: int) -> int:
    """The argument rule of the factorization form; returns a*n."""
    _check_a_n(a, n, 1)
    _check_root(a, b, beta)
    an = a * n
    r = isqrt(an)
    if r * r == an:
        raise ValueError(f"a*n = {an} is a perfect square")
    return an


def nonhol_coefficient(a: int, b: int, beta: int, n: int) -> int:
    """Factorization form of the projected-product coefficient at e(n*tau):

        -1/2 * sum over beta_tilde^2 == -b (mod a)
               sum over a*n = d1*d2, d1,d2 > 0,
                        d1 == beta + beta_tilde, d2 == beta - beta_tilde (mod a)
               of  d1*[d1 < d2] + d2*[d2 < d1]

    Perfect squares a*n are rejected: the strict inequalities drop d1 = d2 and
    the derivation assumes that case away.

    This is not 1/16 of the summed proj_theta_product in general: the pairs
    carry no same-parity condition and the congruences are pinned to +beta.
    The two agree on the pinned tuples and at most distinguished indices; see
    test_routes_differ_in_general and acceptance item A7.

    The shared divisor walk finds each beta_tilde from its pairs, so no
    square root of -b is solved: the total is the sum of its pair sums (see
    _divisor_pairs), read from the same cached walk as proj_theta_product
    and q_subset_decomposition at this (a, beta, a*n).
    """
    an = _check_factorization_args(a, b, beta, n)
    total = sum(_divisor_pairs(a, beta % a, an)[0].values())
    if total % 2:
        raise ArithmeticError("factorization sum must be even")
    return -(total // 2)


@dataclass(frozen=True)
class QSubsetDecomposition:
    """Per-subset split of the factorization sum over the prime divisors of a.

    contributions maps each subset Q of the primes dividing a to the inner
    factorization sum attached to the residue beta_tilde_Q which is beta at
    the primes in Q and -beta elsewhere.  total = -1/2 * sum of contributions.
    """

    a: int
    b: int
    beta: int
    n: int
    contributions: dict[frozenset, int]

    @property
    def total(self) -> int:
        s = sum(self.contributions.values())
        if s % 2:
            raise ArithmeticError("subset contributions must sum to an even value")
        return -(s // 2)


@lru_cache(maxsize=16, typed=True)
def _subset_labels(a: int, b: int, beta: int) -> tuple[tuple[int, frozenset], ...] | str:
    """Each square root beta_tilde of -b mod a with the subset of the primes of
    a at which it is == beta, or, when the subset decomposition is undefined,
    the message to raise.

    None of it depends on n, and a sweep visits each (a, b, beta) for many n
    in a row: in the `holproj` benchmark sweep 80,663 of 81,079 calls hit,
    at any maxsize from 4 to 1024.  16 leaves room for callers that
    interleave a few (a, b, beta).  The message is returned, not raised,
    because lru_cache stores no exception.  typed=True keeps 0 and 0.0 apart,
    as the message prints them verbatim.
    """
    roots = sqrt_mod(-b, a)
    prime_powers = [(p, p**e) for p, e in factorize(a)]
    for _, pe in prime_powers:
        # beta is a root mod a, so by CRT these are all the roots mod pe
        local = sorted({bt % pe for bt in roots})
        if local != sorted({beta % pe, (-beta) % pe}) or 2 * beta % pe == 0:
            return (
                f"square-root classes of -{b} mod {pe} are {local}, "
                f"not the two distinct classes +-{beta}; subset decomposition undefined"
            )
    return tuple(
        (bt, frozenset(p for p, pe in prime_powers if (bt - beta) % pe == 0)) for bt in roots
    )


def q_subset_decomposition(a: int, b: int, beta: int, n: int) -> QSubsetDecomposition:
    """Split nonhol_coefficient by subsets Q of the primes dividing a.

    Requires the square roots of -b modulo every prime power a_q to be exactly
    the two distinct classes +-beta.  The roots modulo a are then in bijection
    with the subsets, each labelled by the primes at which it is == beta.

    The roots, their subset labels and the verdict that the decomposition is
    undefined depend only on (a, b, beta) and are memoized (_subset_labels);
    each call checks its arguments first, then reads each subset's sum at its
    root from the pair sums of the shared divisor walk (_divisor_pairs), the
    same entry nonhol_coefficient reads.
    """
    an = _check_factorization_args(a, b, beta, n)
    labels = _subset_labels(a, b, beta)
    if isinstance(labels, str):
        raise ValueError(labels)
    sums = _divisor_pairs(a, beta % a, an)[0]
    contributions = {q: sums.get(bt, 0) for bt, q in labels}
    return QSubsetDecomposition(a, b, beta, n, contributions)


@dataclass(frozen=True)
class SubprogressionWitness:
    """Progression a*Z + b refining a_tilde*Z + b_tilde, with -b == beta^2 (mod a),
    every gcd(a_q, 2*beta) a proper divisor of the p-part a_q, and a prime
    p_big | a with a < p_big^2 and 0 <= 2*beta < p_big."""

    a_tilde: int
    b_tilde: int
    beta: int
    a: int
    b: int
    p_big: int


def subprogression_conditions(w: SubprogressionWitness) -> dict[str, bool]:
    """Evaluate the four defining conditions of a witness."""
    divides = w.a % w.a_tilde == 0 and (w.b - w.b_tilde) % w.a_tilde == 0
    square = (w.b + w.beta * w.beta) % w.a == 0
    proper = all(gcd(p**e, 2 * w.beta) != p**e for p, e in factorize(w.a))
    large = (
        w.a % w.p_big == 0
        and is_prime(w.p_big)
        and w.a < w.p_big**2
        and 0 <= 2 * w.beta < w.p_big
    )
    return {
        "refines_input": divides,
        "minus_b_is_square": square,
        "proper_local_gcds": proper,
        "large_prime": large,
    }


def subprogression_construct(a_tilde: int, b_tilde: int, beta: int) -> SubprogressionWitness:
    """Build a witness from (a_tilde, b_tilde, beta) with -b_tilde == beta^2 (mod a_tilde).

    Sets a' = prod over primes q | a_tilde of q^max(ord_q(a_tilde), ord_q(2*beta)+1),
    then multiplies by the first prime p > max(a', 2*beta) for which all four
    conditions verify, and takes b = -beta^2 mod a.  beta is normalized to its
    least nonnegative residue mod a_tilde first; beta == 0 (mod a_tilde) admits
    no witness (the gcd condition fails at p) and is rejected.
    """
    if a_tilde < 1:
        raise ValueError("a_tilde must be >= 1")
    beta %= a_tilde
    _check_root(a_tilde, b_tilde, beta)
    if beta == 0:
        raise ValueError(
            "beta == 0 (mod a_tilde): gcd(p, 2*beta) = p is never a proper divisor"
        )
    a_prime = 1
    for q, e in factorize(a_tilde):
        a_prime *= q ** max(e, ord_p(2 * beta, q) + 1)
    lower = max(a_prime, 2 * beta)
    p = lower
    for _ in range(64):
        p = next_prime_in_class(p, 0, 1, cap=PRIME_SEARCH_CAP)
        a = a_prime * p
        b = (-beta * beta) % a
        w = SubprogressionWitness(a_tilde, b_tilde, beta, a, b, p)
        if all(subprogression_conditions(w).values()):
            return w
    raise ValueError(f"no admissible prime found for ({a_tilde}, {b_tilde}, {beta})")


@dataclass(frozen=True)
class DistinguishedPrimes:
    """Primes attached to a witness: a'*p == 2*beta (mod a) with p > a/a', and
    p' == 1 (mod a).  When 2*beta == a' (mod a) no p is needed and p' > a/a';
    otherwise p' > p*a/a'."""

    a_prime: int
    degenerate: bool
    p: int | None
    p_prime: int


def find_distinguished_primes(
    w: SubprogressionWitness, cap: int = PRIME_SEARCH_CAP
) -> DistinguishedPrimes:
    """Smallest qualifying primes for a valid witness (deterministic)."""
    conditions = subprogression_conditions(w)
    if not all(conditions.values()):
        failed = [k for k, v in conditions.items() if not v]
        raise ValueError(f"witness fails conditions: {failed}")
    a, beta = w.a, w.beta
    a_prime = gcd(a, 2 * beta)
    if (2 * beta - a_prime) % a == 0:
        p_prime = next_prime_in_class(a // a_prime, 1, a, cap=cap)
        return DistinguishedPrimes(a_prime, True, None, p_prime)
    # a'*p == 2*beta (mod a)  <=>  p == (2*beta/a') (mod a/a')
    residue = (2 * beta // a_prime) % (a // a_prime)
    p = next_prime_in_class(a // a_prime, residue, a // a_prime, cap=cap)
    p_prime = next_prime_in_class(p * a // a_prime, 1, a, cap=cap)
    return DistinguishedPrimes(a_prime, False, p, p_prime)


def exact_projection_coefficient(
    a: int, b: int, beta: int, n: int, table: HurwitzTable
) -> Fraction:
    """Coefficient at e(n*tau) of the full projected product: the holomorphic
    part of the sieved class number series times (theta_{a,beta} + theta_{a,-beta}),
    plus 1/16 of the completed-part contributions from proj_theta_product over
    all square roots beta_tilde of -b mod a.

    The holomorphic part is the direct sum of 12H(a*n - k^2)/12 over k == beta
    and over k == -beta (mod a), k^2 <= a*n, counting k twice when
    2*beta == 0 (mod a), as the two theta series do.  As beta^2 == -b (mod a)
    puts every a*n - k^2 in the class b, it equals the coefficient of the
    q-series composition u_operator(eisenstein_hol(a*n + 1), a, b) * (thetas),
    as test_exact_projection_matches_qseries_composition checks.
    """
    _check_a_n(a, n, 0)
    _check_root(a, b, beta)
    an = a * n
    table.check_covers(an)
    r = isqrt(an)
    hol = 0
    for c in (beta, -beta):
        k = np.arange(-r + (c + r) % a, r + 1, a)
        hol += int(table.values[an - k * k].sum(dtype=np.int64))
    # even in beta: proj_theta_product's square term and m_signs both count m == +-beta
    completed = 2 * sum(proj_theta_product(a, bt, beta, n) for bt in sqrt_mod(-b, a))
    return Fraction(hol, 12) + Fraction(completed, 16)
