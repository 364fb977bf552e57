"""Acceptance checklist.

Each test prints one `[A#] ... PASS/FAIL` line (run with -s to see them all;
failures carry the detail in the assertion message as well).  All asserted
values are exact; there are no tolerances.
"""

import time
from fractions import Fraction
from math import isqrt

import pytest

import oracles
from hcl.arith import factorize, is_fundamental, sqrt_mod
from hcl.congruence import (
    HolomorphicClass,
    ord_bound_report,
    search,
    square_class_check,
    verify_congruence,
)
from hcl.dichotomy import DichotomyCase, classify
from hcl.holproj import (
    nonhol_coefficient,
    proj_theta_product,
    q_subset_decomposition,
)
from hcl.hurwitz import build_table, hurwitz, hurwitz_via_formula

SIX_CONGRUENCES = [
    (5, 125, 25),
    (7, 343, 147),
    (11, 1331, 847),
    (5, 27, 9),
    (7, 125, 50),
    (11, 512, 192),
]

SEARCH_PARAMS = dict(a_max=400, n_max=2 * 10**5)


def report(tag: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{tag}] {state}{suffix}")


@pytest.fixture(scope="module")
def search_results(table_1m):
    t0 = time.monotonic()
    results = {
        ell: search(ell, SEARCH_PARAMS["a_max"], SEARCH_PARAMS["n_max"], table_1m)
        for ell in (5, 7, 11, 13)
    }
    return results, time.monotonic() - t0


def test_01_known_congruences_reproduce():
    t0 = time.monotonic()
    table = build_table(10**6)
    build_seconds = time.monotonic() - t0
    t0 = time.monotonic()
    failures = []
    for ell, a, b in SIX_CONGRUENCES:
        ok, counterexample = verify_congruence(ell, a, b, 10**6, table)
        if not ok:
            failures.append((ell, a, b, counterexample))
    check_seconds = time.monotonic() - t0
    ok = not failures and build_seconds < 60 and check_seconds < 1
    report(
        "A1 known congruences at N=10^6",
        ok,
        f"build {build_seconds:.2f}s, checks {check_seconds:.3f}s",
    )
    assert not failures, failures
    assert build_seconds < 60 and check_seconds < 1


def test_02_nonholomorphic_divisibility_property(search_results):
    results, elapsed = search_results
    violations = []
    for ell, certs in results.items():
        for cert in certs:
            if cert.holomorphic_class is not HolomorphicClass.NONHOLOMORPHIC:
                continue
            a, b = cert.progression.a, cert.progression.b
            if a % ell or b % ell:
                violations.append((ell, a, b))
    found = sum(len(c) for c in results.values())
    report(
        "A2 ell | a and ell | b on nonholomorphic certificates",
        not violations,
        f"{found} certificates over ell in (5,7,11,13), search {elapsed:.1f}s",
    )
    assert not violations, violations
    assert elapsed < 300


def test_03_square_class_property(table_1m):
    failures = []
    for ell, a, b in SIX_CONGRUENCES:
        ok, bad = square_class_check(ell, a, b, 50, 10**6, table_1m)
        if not ok:
            failures.append((ell, a, b, bad[:3]))
    report("A3 square-class closure, u <= 50, N = 10^6", not failures)
    assert not failures, failures


def test_04_valuation_bounds(search_results):
    results, _ = search_results
    violations = []
    for ell, certs in results.items():
        for cert in certs:
            r = ord_bound_report(cert.progression.a, cert.progression.b)
            if not r.within_bounds:
                violations.append((ell, cert.progression, r.orders))
    ord2 = ord_bound_report(512, 192).orders.get(2)
    ok = not violations and ord2 == 3
    report("A4 valuation bounds on maximal certificates", ok, f"ord_2(512/64) = {ord2}")
    assert not violations, violations
    assert ord2 == 3


def test_05_dichotomy_classification(table_1m):
    expected = {
        (5, 125, 25): (5, 1, 5),
        (7, 343, 147): (7, 1, 7),
        (11, 1331, 847): (11, 1, 11),
        (5, 27, 9): (3, -1, 3),
        (7, 125, 50): (5, -1, 5),
        (11, 512, 192): (2, -1, 8),
    }
    failures = []
    for (ell, a, b), want in expected.items():
        rep = classify(ell, a, b, 10**6, table_1m)
        got = (
            None
            if rep.witness is None
            else (rep.witness.p, rep.witness.kronecker, rep.witness.f_p)
        )
        if rep.case is not DichotomyCase.HECKE_CONDITION or got != want:
            failures.append((ell, a, b, rep.case, got, want))
    report("A5 dichotomy verdicts and witnesses at N=10^6", not failures)
    assert not failures, failures


def test_06_class_number_formula(table_1m):
    t0 = time.monotonic()
    mismatches = []
    for D in range(3, 2001):
        if not is_fundamental(D):
            continue
        for f in range(1, 13):
            if hurwitz_via_formula(D, f).twelve_h != table_1m.twelve_h(D * f * f):
                mismatches.append((D, f))
    elapsed = time.monotonic() - t0
    report(
        "A6 class number formula, D <= 2000, f <= 12",
        not mismatches and elapsed < 60,
        f"{elapsed:.1f}s",
    )
    assert not mismatches, mismatches[:5]
    assert elapsed < 60


def _admissible_tuples(a_limit: int):
    for a in range(1, a_limit + 1):
        roots_cache: dict[int, list[int]] = {}
        for beta in range(a):
            b = (-beta * beta) % a
            if b == 0:
                continue
            if b not in roots_cache:
                roots_cache[b] = sqrt_mod(-b, a)
            yield a, b, beta, roots_cache[b]


def test_07_projection_identities():
    mismatches = []
    q_checked = 0
    q_mismatches = []
    total = 0
    for a, b, beta, roots in _admissible_tuples(30):
        for n in range(1, 201):
            an = a * n
            if isqrt(an) ** 2 == an:
                continue
            total += 1
            nf = nonhol_coefficient(a, b, beta, n)
            sign_sum = sum(
                proj_theta_product(a, bt, beta, n) + proj_theta_product(a, bt, -beta, n)
                for bt in roots
            )
            if Fraction(sign_sum, 16) != nf:
                mismatches.append((a, b, beta, n, Fraction(sign_sum, 16), nf))
            try:
                dec = q_subset_decomposition(a, b, beta, n)
            except ValueError:
                continue
            q_checked += 1
            if dec.total != nf:
                q_mismatches.append((a, b, beta, n))
    report(
        "A7 projection identities, a <= 30, n <= 200",
        not mismatches and not q_mismatches,
        f"{total} tuples; sign-enumeration mismatches: {len(mismatches)}; "
        f"subset totals checked: {q_checked}, mismatched: {len(q_mismatches)}",
    )
    assert not q_mismatches, q_mismatches[:5]
    assert not mismatches, (
        f"{len(mismatches)} of {total} tuples differ between the sign-enumeration "
        f"and factorization forms; first cases: {mismatches[:4]}"
    )


def test_08_distinguished_coefficient_values(generic_witnesses):
    t0 = time.monotonic()
    value_failures_p = []
    value_failures_pp = []
    support_failures = []
    for w, primes in generic_witnesses:
        ap, p, pp = primes.a_prime, primes.p, primes.p_prime
        n1, n2 = ap * p, ap * p * pp
        got1 = nonhol_coefficient(w.a, w.b, w.beta, n1)
        if got1 != -w.a:
            value_failures_p.append((w, n1, got1, -w.a))
        # At a*n2 = a*a'*p*p', with a'*p == 2*beta and p' == 1 (mod a), exactly
        # four divisor pairs pass the congruences: (a'p, a*p'), (a'pp', a) and
        # their swaps.  Their minima are a'p (p' > a*p/a', so a*p' > a'p) and a,
        # so the coefficient is -(a + a'p).
        got2 = nonhol_coefficient(w.a, w.b, w.beta, n2)
        if got2 != -(w.a + ap * p):
            value_failures_pp.append((w, n2, got2, -(w.a + ap * p)))
        for n in (n1, n2):
            dec = q_subset_decomposition(w.a, w.b, w.beta, n)
            support = {q for q, v in dec.contributions.items() if v}
            full = frozenset(q for q, _ in factorize(w.a))
            if support != {frozenset(), full}:
                support_failures.append((w, n, support))
    elapsed = time.monotonic() - t0
    ok = not value_failures_p and not value_failures_pp and not support_failures
    report(
        "A8 distinguished coefficients on 50 witnesses",
        ok,
        f"-a at a'p: {50 - len(value_failures_p)}/50; "
        f"-(a+a'p) at a'pp': {50 - len(value_failures_pp)}/50; "
        f"support failures: {len(support_failures)}; {elapsed:.1f}s",
    )
    assert elapsed < 60
    assert not value_failures_p, value_failures_p[:3]
    assert not support_failures, support_failures[:3]
    assert not value_failures_pp, (
        "coefficient at a'*p*p' is not -(a + a'*p); first cases "
        f"(witness, n, got, expected): {value_failures_pp[:3]}"
    )


def test_09_enumeration_oracle_agreement():
    mismatches = [
        D
        for D in range(0, 10**4 + 1)
        if hurwitz(D).twelve_h != oracles.hurwitz_twelve_brute(D)
    ]
    report("A9 independent reduced-form oracle, D <= 10^4", not mismatches)
    assert not mismatches, mismatches[:10]
