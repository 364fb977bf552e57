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

The three sweep forms read one walk over the factorizations a*n = e*f,
e < f (`_divisor_walk`), which sums them by residue class mod a for every
beta mod a at once: the pair sums of the factorization form keyed by
(beta, beta_tilde), and the theta sums S keyed by (beta, mt mod a), so that
proj_theta_product at beta_tilde is its square term plus S[beta_tilde] +
S[-beta_tilde].  A sweep asks for every form, every root and every beta at
the same a*n, so a bounded cache holds the walk and each (a, a*n) is walked
once.  `exact_projection_coefficient` needs one beta at one a*n, once, and
sums its theta total in its own pass over the same pairs (`_theta_total`).

Every argument is an integer, a float raising TypeError, and all values are
exact integers or rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import index
from types import MappingProxyType

import numpy as np

from .arith import PRIME_SEARCH_CAP, divisors, factorize, is_prime, next_prime_in_class, ord_p, sqrt_mod
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


def _check_a_n(a: int, n: int, n_min: int) -> None:
    """The rule of every closed form: integers a >= 1 and n >= n_min."""
    if index(a) < 1 or index(n) < n_min:
        raise ValueError(f"need a >= 1 and n >= {n_min}")


def _check_root(a: int, b: int, beta: int) -> None:
    """The rule that the integer beta is a square root of the integer -b mod a."""
    if (index(beta) ** 2 + index(b)) % index(a):
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
    shared (_divisor_walk): its theta sums S at beta, keyed by mt mod a, give
    the second sum as S[beta_tilde] + S[-beta_tilde].
    """
    _check_a_n(a, n, 0)
    beta_tilde, beta = index(beta_tilde), index(beta)
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
        sums = _divisor_walk(a, an)
        base = (a + beta % a) * a
        total += sums.get(base + beta_tilde % a, 0) + sums.get(base + -beta_tilde % a, 0)
    return -4 * total


@lru_cache(maxsize=256)
def _divisor_walk(a: int, an: int) -> MappingProxyType[int, int]:
    """One walk over a*n = e*f with e < f that sums the closed forms at every
    beta mod a, in one flat map, read-only as every caller shares it.  With
    beta and the residues bt, mt normalised mod a, its keys are

        beta*a + bt          the pair sum of the root bt at beta
        (a + beta)*a + mt    the theta sum of the key mt at beta
        2*a*a + beta         the total of the pair sums at beta

    and an absent key sums to 0.

    Pair sums: the pair counts at each beta with 2*beta == e + f (mod a).
    That is beta == (e + f) * 2^-1 for odd a; for even a it is (e + f)/2 and
    (e + f)/2 + a/2 when e + f is even, and none when it is odd.  There e is
    added under both roots (e - beta) mod a and (f - beta) mod a, as the
    ordered pairs (d1, d2) = (e, f) and (f, e) of the factorization form.
    Then d2 == beta - bt, and beta^2 - bt^2 == d1*d2 == 0 (mod a) makes each
    key bt a square root of -b without solving for it.

    Theta sums: when e == f (mod 2), m0 = (e + f)/2 and mt0 = (f - e)/2, and
    e is added under the key mt0 mod a at beta == m0 and at beta == -m0, so
    2e when m0 == -m0 (mod a): e times the number of signs with +-m0 == beta.
    proj_theta_product reads the keys +-bt, which counts the signs of mt.

    The `holproj` benchmark sweep runs a, then beta, then n <= 200, so the
    walk is reused across beta only while the cache holds one a's 200 values
    of a*n: at 256 entries each of the 5,621 (a, a*n) of its 81,079 tuples is
    walked once.
    """
    sums: dict[int, int] = {}
    inv2 = (a + 1) // 2  # 2^-1 mod an odd a
    theta_base, total_base = a * a, 2 * a * a  # the key offsets above
    for e in divisors(an):
        f = an // e
        if e >= f:  # e == f gives mt = 0 and d1 = d2; the pairs past it repeat
            break
        s = e + f
        if a % 2:
            betas = (s * inv2 % a,)
        elif s % 2:
            betas = ()
        else:
            betas = (s // 2 % a, (s // 2 + a // 2) % a)
        for beta in betas:
            for key in (beta * a + (e - beta) % a, beta * a + (f - beta) % a):
                sums[key] = sums.get(key, 0) + e
            sums[total_base + beta] = sums.get(total_base + beta, 0) + 2 * e
        if s % 2 == 0:
            m0, mt = s // 2 % a, (f - e) // 2 % a
            # each admissible sign pair contributes an / (|m| + |mt|) = e
            for beta in (m0, -m0 % a):
                key = theta_base + beta * a + mt
                sums[key] = sums.get(key, 0) + e
    return MappingProxyType(sums)


def _theta_total(a: int, beta: int, an: int) -> int:
    """The walk's theta sums at one beta, totalled over their keys, by a pass
    of its own: e * ([m0 == beta] + [m0 == -beta]) (mod a), m0 = (e + f)/2,
    summed over a*n = e*f, e < f, e == f (mod 2).

    exact_projection_coefficient needs it at one (beta, a*n), once, where the
    walk over every beta costs about 2.5 of these passes."""
    total = 0
    for e in divisors(an):
        f = an // e
        if e >= f:
            break
        if (e - f) % 2 == 0:
            m0 = (e + f) // 2
            total += e * (((m0 - beta) % a == 0) + ((m0 + beta) % a == 0))
    return total


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
    square root of -b is solved: the total is the sum of its pair sums at
    beta (see _divisor_walk), read from the same cached walk as
    proj_theta_product and q_subset_decomposition at this (a, a*n).
    """
    an = _check_factorization_args(a, b, beta, n)
    total = _divisor_walk(a, an).get(2 * a * a + beta % a, 0)
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


@lru_cache(maxsize=16)
def _subset_labels(a: int, b: int, beta: int) -> tuple[tuple[int, frozenset], ...] | str:
    """Each square root beta_tilde of -b mod a with the subset of the primes of
    a at which it is == beta, or, when the subset decomposition is undefined,
    the message to raise.

    None of it depends on n, and a sweep visits each (a, b, beta) for many n
    in a row: in the `holproj` benchmark sweep 80,663 of 81,079 calls hit,
    at any maxsize from 4 to 1024.  16 leaves room for callers that
    interleave a few (a, b, beta).  The message is returned, not raised,
    because lru_cache stores no exception.
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
    root from the pair sums at beta of the shared divisor walk
    (_divisor_walk), the same entry nonhol_coefficient reads.
    """
    an = _check_factorization_args(a, b, beta, n)
    labels = _subset_labels(a, b, beta)
    if isinstance(labels, str):
        raise ValueError(labels)
    sums, base = _divisor_walk(a, an), beta % a * a
    contributions = {q: sums.get(base + bt, 0) for bt, q in labels}
    return QSubsetDecomposition(a, b, beta, n, contributions)


@dataclass(frozen=True)
class SubprogressionWitness:
    """Progression a*Z + b refining a_tilde*Z + b_tilde, with -b == beta^2 (mod a),
    every gcd(a_q, 2*beta) a proper divisor of the p-part a_q, and a prime
    p_big | a with a < p_big^2 and 0 <= 2*beta < p_big.  Valid by construction:
    the constructor raises ValueError naming each condition that fails."""

    a_tilde: int
    b_tilde: int
    beta: int
    a: int
    b: int
    p_big: int

    def __post_init__(self) -> None:
        failed = [k for k, v in subprogression_conditions(self).items() if not v]
        if failed:
            raise ValueError(f"witness fails conditions: {failed}")


def subprogression_conditions(w: SubprogressionWitness) -> dict[str, bool]:
    """The four defining conditions of a witness, which its constructor checks.
    A modulus a_tilde, a or p_big below 1 fails its conditions; none raises."""
    divides = w.a_tilde > 0 and w.a % w.a_tilde == 0 and (w.b - w.b_tilde) % w.a_tilde == 0
    square = w.a > 0 and (w.b + w.beta * w.beta) % w.a == 0
    proper = w.a > 0 and all(gcd(p**e, 2 * w.beta) != p**e for p, e in factorize(w.a))
    large = (
        is_prime(w.p_big)
        and w.a % w.p_big == 0
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
    multiplies it by the first prime p > max(a', 2*beta), and takes
    b = -beta^2 mod a.  The four conditions hold at that p: p > a' gives
    a < p^2, p > 2*beta keeps p out of 2*beta, and every q | a_tilde divides a'
    more often than 2*beta.  The witness is valid by construction, as every
    SubprogressionWitness is.  beta is normalized to its least nonnegative
    residue mod a_tilde first; beta == 0 (mod a_tilde) admits no witness (the
    gcd condition fails at p) and is rejected.
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
    p = next_prime_in_class(max(a_prime, 2 * beta), 0, 1)
    a = a_prime * p
    return SubprogressionWitness(a_tilde, b_tilde, beta, a, (-beta * beta) % a, p)


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
    """Smallest qualifying primes for a witness, valid by construction (deterministic)."""
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
    all square roots beta_tilde of -b mod a and over +-beta.

    The holomorphic part is the direct sum of 12H(a*n - k^2)/12 over k == beta
    and over k == -beta (mod a), k^2 <= a*n, counting k twice when
    2*beta == 0 (mod a), as the two theta series do.  As beta^2 == -b (mod a)
    puts every a*n - k^2 in the class b, it equals the coefficient of the
    q-series composition u_operator(eisenstein_hol(a*n + 1), a, b) * (thetas),
    as test_exact_projection_matches_qseries_composition checks.

    The completed part needs no square roots: every key mt0 of the theta sums
    S at beta is a root (mt0^2 == m0^2 == beta^2 (mod a)), and the roots pair
    up as +-beta_tilde, so it is -sum S minus half the sum of |m| over
    m = +-sqrt(a*n) with m == beta (mod a), the square term of the root 0
    (such an m makes -b == beta^2 == a*n == 0 (mod a)).  sum S comes from
    the one-beta pass _theta_total, not from the walk over every beta.
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
    theta, square = 0, 0
    if an > 0 and an % 4 != 2:  # m^2 - mt^2 is never == 2 (mod 4)
        theta = _theta_total(a, beta, an)
    if r * r == an:
        square = r * (((r - beta) % a == 0) + ((r + beta) % a == 0))
    return Fraction(hol, 12) - Fraction(2 * theta + square, 2)
