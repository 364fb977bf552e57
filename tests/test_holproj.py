import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

import oracles
import hcl.holproj as holproj_module
from hcl.arith import divisors, sqrt_mod
from hcl.holproj import (
    SubprogressionWitness,
    exact_projection_coefficient,
    find_distinguished_primes,
    nonhol_coefficient,
    proj_theta_product,
    q_subset_decomposition,
    subprogression_conditions,
    subprogression_construct,
)
from hcl.hurwitz import build_table
from hcl.qseries import eisenstein_hol, theta_series, u_operator


# ---------------------------
# sign-enumeration form
# ---------------------------


def test_proj_theta_product_examples():
    assert proj_theta_product(1, 0, 0, 3) == -16
    assert proj_theta_product(1, 0, 0, 1) == -8
    assert proj_theta_product(1, 0, 0, 0) == 0


def test_proj_theta_product_matches_direct_scan():
    rng = random.Random(31)
    for _ in range(400):
        a = rng.randrange(1, 9)
        bt = rng.randrange(0, a)
        beta = rng.randrange(0, a)
        n = rng.randrange(0, 60)
        assert proj_theta_product(a, bt, beta, n) == oracles.proj_theta_brute(
            a, bt, beta, n
        ), (a, bt, beta, n)


def test_proj_theta_product_is_even_in_both_residues():
    # exact_projection_coefficient counts the -beta term as a second +beta term
    for a in range(1, 16):
        for bt in range(a):
            for beta in range(a):
                for n in (0, 1, 3, 4, 12, 35):
                    value = proj_theta_product(a, bt, beta, n)
                    assert value == proj_theta_product(a, bt, -beta, n), (a, bt, beta, n)
                    assert value == proj_theta_product(a, -bt, beta, n), (a, bt, beta, n)


# ---------------------------
# factorization form
# ---------------------------


def test_nonhol_examples():
    assert nonhol_coefficient(5, 4, 1, 6) == -2
    assert nonhol_coefficient(55, 54, 1, 167) == -55
    # no admissible factorization: empty sum
    assert nonhol_coefficient(5, 4, 1, 3) == 0


def test_nonhol_rejects_squares_and_bad_beta():
    with pytest.raises(ValueError):
        nonhol_coefficient(5, 4, 1, 5)  # a*n = 25
    with pytest.raises(ValueError):
        nonhol_coefficient(5, 3, 1, 6)  # 1 != -3 mod 5


def test_nonhol_matches_divisor_scan():
    rng = random.Random(32)
    checked = 0
    while checked < 300:
        a = rng.randrange(1, 13)
        beta = rng.randrange(0, a)
        b = (-beta * beta) % a
        n = rng.randrange(1, 80)
        if isqrt(a * n) ** 2 == a * n:
            continue
        assert nonhol_coefficient(a, b, beta, n) == oracles.nonhol_brute(a, b, beta, n)
        checked += 1


def test_pair_walk_matches_per_root_sums():
    # the walk keys each pair by d1 - beta and never solves bt^2 == -b; squares
    # a*n (rejected by the public forms) check that d1 = d2 adds nothing
    for a in range(1, 40):
        for beta in range(a):
            b = (-beta * beta) % a
            for n in (1, 6, a, 9 * a):
                want = oracles.factor_pair_sums_brute(a, b, beta, n)
                got = holproj_module._divisor_pairs(a, beta, a * n)[0]
                assert got == {bt: v for bt, v in want.items() if v}, (a, beta, n)
    with pytest.raises(TypeError):  # every caller at this (a, beta, a*n) shares it
        got[0] = 1


def test_shared_walk_matches_the_per_call_walks():
    # every closed form reads one cached walk per (a, beta mod a, a*n); each
    # value equals the per-call walk it replaced and the brute-force scan, at
    # every root and at unnormalised spellings of beta.  n = 0 leaves only
    # the sign enumeration, and n = 6, 30 make a*n == 2 (mod 4) at odd a
    for a in range(1, 40):
        prime_powers = [(p, p**e) for p, e in oracles.factor_brute(a)]
        for n in (0, 1, 2, 6, 7, 30, 167):
            an = a * n
            square = isqrt(an) ** 2 == an
            theta_brute, pair_brute = {}, {}
            for beta in range(a):
                b = -beta * beta % a
                roots = oracles.sqrt_mod_brute(-b, a)
                for bt in roots:
                    theta_brute[bt, beta] = oracles.proj_theta_brute(a, bt, beta, n)
                if not square:
                    pair_brute[beta] = oracles.factor_pair_sums_brute(a, b, beta, n)
            for beta in range(a):
                b = -beta * beta % a
                roots = oracles.sqrt_mod_brute(-b, a)
                for s in (beta, beta + a, -beta):
                    where = (a, b, s, n)
                    for bt in roots:
                        got = proj_theta_product(a, bt, s, n)
                        assert got == oracles.proj_theta_divisor_walk(a, bt, s, n), (where, bt)
                        assert got == theta_brute[bt, s % a], (where, bt)
                    if square:
                        for fn in (nonhol_coefficient, q_subset_decomposition):
                            with pytest.raises(ValueError):
                                fn(a, b, s, n)
                        continue
                    walk = oracles.pair_sums_by_root_walk(a, s, an)
                    brute = pair_brute[s % a]
                    assert walk == {bt: v for bt, v in brute.items() if v}, where
                    value = nonhol_coefficient(a, b, s, n)
                    assert value == -(sum(walk.values()) // 2), where
                    assert value == oracles.nonhol_brute(a, b, s, n), where
                    labels = {
                        bt: frozenset(p for p, pe in prime_powers if (bt - s) % pe == 0)
                        for bt in roots
                    }
                    if len(set(labels.values())) < len(roots) or any(
                        2 * s % pe == 0 for _, pe in prime_powers
                    ):
                        with pytest.raises(ValueError, match="subset decomposition undefined"):
                            q_subset_decomposition(a, b, s, n)
                        continue
                    got = q_subset_decomposition(a, b, s, n).contributions
                    assert got == {labels[bt]: walk.get(bt, 0) for bt in roots}, where
                    assert got == {labels[bt]: v for bt, v in brute.items()}, where


# ---------------------------
# subset decomposition
# ---------------------------


def test_q_subset_contributions_match_per_root_sums():
    for a in range(1, 60):
        prime_powers = [(p, p**e) for p, e in oracles.factor_brute(a)]
        for beta in range(a):
            b = (-beta * beta) % a
            defined = all(
                oracles.sqrt_mod_brute(-b, pe) == sorted({beta % pe, -beta % pe})
                and 2 * beta % pe
                for _, pe in prime_powers
            )
            for n in (1, 2, 7, 12, 30, 60):
                if isqrt(a * n) ** 2 == a * n:
                    continue
                if not defined:
                    with pytest.raises(ValueError, match="subset decomposition undefined"):
                        q_subset_decomposition(a, b, beta, n)
                    continue
                want = {
                    frozenset(p for p, pe in prime_powers if (bt - beta) % pe == 0): v
                    for bt, v in oracles.factor_pair_sums_brute(a, b, beta, n).items()
                }
                got = q_subset_decomposition(a, b, beta, n).contributions
                assert got == want, (a, b, beta, n)


def test_q_subset_total_matches_nonhol():
    d = q_subset_decomposition(5, 4, 1, 6)
    assert d.total == nonhol_coefficient(5, 4, 1, 6) == -2


def test_q_subset_support_example():
    d = q_subset_decomposition(55, 54, 1, 167)
    assert d.total == -55
    support = {q for q, v in d.contributions.items() if v}
    assert support == {frozenset(), frozenset({5, 11})}


def test_q_subset_prime_power_has_two_subsets():
    d = q_subset_decomposition(27, 23, 2, 31)
    assert set(d.contributions) == {frozenset(), frozenset({3})}
    assert d.total == nonhol_coefficient(27, 23, 2, 31) == -27


def test_q_subset_complement_symmetry():
    # swapping a factorization (d1, d2) -> (d2, d1) exchanges Q with its
    # complement, so complementary subsets carry equal contributions
    rng = random.Random(34)
    checked = 0
    while checked < 60:
        a = rng.choice([5, 9, 15, 21, 27, 33, 35])
        beta = rng.randrange(1, a)
        if gcd(beta, a) != 1:
            continue
        b = (-beta * beta) % a
        n = rng.randrange(1, 60)
        if isqrt(a * n) ** 2 == a * n:
            continue
        dec = q_subset_decomposition(a, b, beta, n)
        full = frozenset().union(*dec.contributions.keys())
        for q, v in dec.contributions.items():
            assert dec.contributions[full - q] == v, (a, b, beta, n, q)
        assert dec.total == nonhol_coefficient(a, b, beta, n)
        checked += 1


def test_q_subset_rejects_extra_root_classes():
    # -b = 0 mod 9 has three root classes mod 9, not just +-3
    with pytest.raises(ValueError) as exc:
        q_subset_decomposition(9, 0, 3, 2)
    assert str(exc.value) == (
        "square-root classes of -0 mod 9 are [0, 3, 6], not the two distinct classes +-3; "
        "subset decomposition undefined"
    )


def test_q_subset_rejects_beta_equal_to_minus_beta():
    # 2*beta == 0 mod 2, so +-beta is a single class there
    with pytest.raises(ValueError) as exc:
        q_subset_decomposition(10, 5, 5, 3)
    assert str(exc.value) == (
        "square-root classes of -5 mod 2 are [1], not the two distinct classes +-5; "
        "subset decomposition undefined"
    )
    # four roots mod 8 and 2*beta == 0 mod 3: 2^2 roots mod 24 in all, as many as subsets
    with pytest.raises(ValueError) as exc:
        q_subset_decomposition(24, 15, 3, 2)
    assert str(exc.value) == (
        "square-root classes of -15 mod 8 are [1, 3, 5, 7], not the two distinct classes +-3; "
        "subset decomposition undefined"
    )


# ---------------------------
# subprogression construction
# ---------------------------


def test_subprogression_example():
    w = subprogression_construct(5, 4, 1)
    assert (w.a, w.b, w.p_big) == (35, 34, 7)
    assert all(subprogression_conditions(w).values())


def test_subprogression_rejects_beta_zero():
    with pytest.raises(ValueError):
        subprogression_construct(1, 0, 0)
    with pytest.raises(ValueError):
        subprogression_construct(3, 0, 3)  # beta == 0 mod a_tilde


def test_subprogression_random_self_checks():
    rng = random.Random(33)
    checked = 0
    while checked < 200:
        a_tilde = rng.randrange(1, 25)
        beta = rng.randrange(0, 3 * a_tilde)
        if beta % max(a_tilde, 1) == 0:
            continue
        b_tilde = (-beta * beta) % a_tilde
        w = subprogression_construct(a_tilde, b_tilde, beta)
        assert all(subprogression_conditions(w).values()), (a_tilde, b_tilde, beta)
        checked += 1


def test_subprogression_takes_the_first_prime_above_a_prime_and_2beta():
    for a_tilde in range(2, 200):
        for beta in range(1, a_tilde):
            two_beta = dict(oracles.factor_brute(2 * beta))
            a_prime = 1
            for q, e in oracles.factor_brute(a_tilde):
                a_prime *= q ** max(e, two_beta.get(q, 0) + 1)
            lower = max(a_prime, 2 * beta)
            first = next(p for p in range(lower + 1, 2 * lower + 2) if oracles.factor_brute(p) == [(p, 1)])
            w = subprogression_construct(a_tilde, -beta * beta % a_tilde, beta)
            assert (w.p_big, w.a) == (first, a_prime * first), (a_tilde, beta)


def test_subprogression_rejects_wrong_square():
    with pytest.raises(ValueError):
        subprogression_construct(5, 1, 1)  # -1 != 1 mod 5


# ---------------------------
# distinguished prime selection
# ---------------------------


def test_find_primes_generic_example():
    w = SubprogressionWitness(5, 4, 1, 55, 54, 11)
    primes = find_distinguished_primes(w)
    assert primes.a_prime == 1 and not primes.degenerate
    assert primes.p == 167
    assert primes.p_prime == 9241  # smallest prime == 1 (mod 55) above 55*167


def test_find_primes_degenerate_case():
    # a_tilde = 4, beta = 1: a = 20, 2*beta = 2 = gcd(a, 2*beta)
    w = subprogression_construct(4, 3, 1)
    assert (w.a, w.b) == (20, 19)
    primes = find_distinguished_primes(w)
    assert primes.degenerate and primes.p is None
    assert primes.a_prime == 2
    assert primes.p_prime == 41  # smallest prime == 1 (mod 20) above 10


# (5, 4, 1, 55, 54, 11) satisfies all four conditions; each entry changes it to
# fail the conditions listed, and a zero modulus fails the conditions it belongs to
_INVALID_WITNESSES = {
    "refines_input": ((5, 3, 1, 55, 54, 11), ["refines_input"]),  # 54 != 3 (mod 5)
    "minus_b_is_square": ((5, 4, 1, 55, 49, 11), ["minus_b_is_square"]),  # 49 + 1^2 != 0 (mod 55)
    "proper_local_gcds": ((5, 0, 5, 55, 30, 11), ["proper_local_gcds"]),  # gcd(5, 2*5) = 5
    "large_prime": ((5, 4, 1, 55, 54, 5), ["large_prime"]),  # 55 >= 5^2
    "a_tilde_zero": ((0, 4, 1, 55, 54, 11), ["refines_input"]),
    "a_zero": ((5, 4, 1, 0, 54, 11), ["minus_b_is_square", "proper_local_gcds"]),
    "p_big_zero": ((5, 4, 1, 55, 54, 0), ["large_prime"]),
}


@pytest.mark.parametrize("condition", list(_INVALID_WITNESSES))
def test_witness_constructor_rejects_each_failed_condition(condition):
    fields, failed = _INVALID_WITNESSES[condition]
    with pytest.raises(ValueError) as error:
        SubprogressionWitness(*fields)
    assert str(error.value) == f"witness fails conditions: {failed}"


# ---------------------------
# coefficient values at the distinguished indices
# ---------------------------


def test_generic_witness_values(generic_witnesses):
    for w, primes in generic_witnesses:
        ap, p, pp = primes.a_prime, primes.p, primes.p_prime
        assert nonhol_coefficient(w.a, w.b, w.beta, ap * p) == -w.a, (w, primes)
        assert nonhol_coefficient(w.a, w.b, w.beta, ap * p * pp) == -(w.a + ap * p), (
            w,
            primes,
        )


def test_degenerate_witness_values():
    w = subprogression_construct(4, 3, 1)
    primes = find_distinguished_primes(w)
    ap, pp = primes.a_prime, primes.p_prime
    assert nonhol_coefficient(w.a, w.b, w.beta, ap) == -ap
    assert nonhol_coefficient(w.a, w.b, w.beta, ap * pp) == -(ap + w.a)


def test_subset_support_at_distinguished_indices(generic_witnesses):
    from hcl.arith import factorize

    for w, primes in generic_witnesses[:12]:
        for n in (primes.a_prime * primes.p, primes.a_prime * primes.p * primes.p_prime):
            dec = q_subset_decomposition(w.a, w.b, w.beta, n)
            support = {q for q, v in dec.contributions.items() if v}
            all_primes = frozenset(p for p, _ in factorize(w.a))
            assert support == {frozenset(), all_primes}, (w, n, support)


def test_routes_agree_on_pinned_tuples():
    # the sign-enumeration and factorization forms coincide on these inputs
    for a, b, beta, n, expect in [
        (35, 34, 1, 37, -35),
        (35, 34, 1, 37 * 1471, -(35 + 37)),
        (55, 54, 1, 167, -55),
        (28, 19, 3, 34, -28),
        (28, 19, 3, 2 * 17 * 281, -(28 + 34)),
    ]:
        assert oracles.projection_completed_by_roots(a, b, beta, n) == expect
        assert nonhol_coefficient(a, b, beta, n) == expect


def test_routes_differ_in_general():
    # The two closed forms are different functions: the factorization form
    # counts divisor pairs with no same-parity constraint and with the
    # congruences pinned to +beta only.  Pinned values:
    assert oracles.projection_completed_by_roots(5, 4, 1, 3) == -3
    assert nonhol_coefficient(5, 4, 1, 3) == 0
    assert oracles.projection_completed_by_roots(5, 4, 1, 6) == 0
    assert nonhol_coefficient(5, 4, 1, 6) == -2
    # a distinguished index where a -beta solution family splits the primes
    # of a across both divisors and only the sign enumeration sees it
    assert oracles.projection_completed_by_roots(15, 14, 1, 17) == -18
    assert nonhol_coefficient(15, 14, 1, 17) == -15


# ---------------------------
# full projected product
# ---------------------------


def test_exact_projection_classical_regression():
    table = build_table(400)
    for n in range(0, 25):
        value = exact_projection_coefficient(1, 0, 0, n, table)
        hol = 2 * sum(
            Fraction(int(table.values[n - m * m]), 12)
            for m in range(-isqrt(n) - 1, isqrt(n) + 2)
            if m * m <= n
        )
        direct = hol + Fraction(2 * oracles.proj_theta_brute(1, 0, 0, n), 16)
        assert value == direct, n


def test_exact_projection_decomposes(table_1m, generic_witnesses):
    # the full coefficient minus the completed part is the plain product of the
    # sieved class number series with the two theta series, computed here by an
    # independent double sum
    for w, primes in generic_witnesses[:6]:
        n = primes.a_prime * primes.p
        if w.a * n > table_1m.n_max:
            continue
        value = exact_projection_coefficient(w.a, w.b, w.beta, n, table_1m)
        completed = oracles.projection_completed_by_roots(w.a, w.b, w.beta, n)
        an = w.a * n
        hol = Fraction(0)
        for residue in {w.beta % w.a, (-w.beta) % w.a}:
            weight = 2 if (2 * w.beta) % w.a == 0 else 1
            m = residue
            while m * m <= an:
                if (an - m * m) % w.a == ((w.b) % w.a):
                    hol += weight * Fraction(int(table_1m.values[an - m * m]), 12)
                m += w.a
            m = residue - w.a
            while m * m <= an:
                if (an - m * m) % w.a == ((w.b) % w.a):
                    hol += weight * Fraction(int(table_1m.values[an - m * m]), 12)
                m -= w.a
        assert value == hol + completed, (w, n)


def test_exact_projection_matches_qseries_composition():
    # the direct theta sum against the sieved Eisenstein series times the two
    # theta series, built with the public q-series API
    def composition(a, b, beta, n, table):
        bound = Fraction(a * n + 1, a)
        sieved = u_operator(eisenstein_hol(a * n + 1, table), a, b)
        thetas = theta_series(a, beta, bound) + theta_series(a, -beta, bound)
        completed = oracles.projection_completed_by_roots(a, b, beta, n)
        return (sieved * thetas).coefficient(n) + completed

    small = build_table(2000)
    # 2*beta == 0 (mod a): one class, which both theta series count
    doubled = [(1, 0, 0, 7), (1, 0, 0, 30), (2, 1, 1, 11), (2, 0, 0, 13), (4, 0, 0, 5),
               (4, 0, 2, 7)]
    # a*n = k^2 with k == +-beta (mod a): the term 12H(0) = -1
    squares = [(1, 0, 0, 9), (4, 0, 2, 9), (9, 0, 3, 4), (9, 0, 3, 16), (8, 0, 4, 18),
               (4, 0, 0, 4)]
    zero = [(1, 0, 0, 0), (4, 0, 2, 0), (5, 4, 4, 0), (9, 0, 3, 0), (7, 3, 2, 0)]
    distinct = [(5, 4, 1, 6), (5, 1, 2, 17), (12, 11, 1, 40), (15, 14, 1, 17)]
    assert all((2 * beta) % a == 0 for a, _, beta, _ in doubled)
    for a, _, beta, n in squares:
        r = isqrt(a * n)
        assert r * r == a * n and ((r - beta) % a == 0 or (r + beta) % a == 0)
    for a, b, beta, n in doubled + squares + zero + distinct:
        assert (b + beta * beta) % a == 0
        value = exact_projection_coefficient(a, b, beta, n, small)
        assert value == composition(a, b, beta, n, small), (a, b, beta, n)

    table = build_table(120_000)
    for a, beta, n in [(55, 1, 2000), (53, 7, 2003), (57, 10, 1999), (58, 29, 2000), (60, 30, 2000)]:
        b = (-beta * beta) % a
        value = exact_projection_coefficient(a, b, beta, n, table)
        assert value == composition(a, b, beta, n, table), (a, b, beta, n)


def test_exact_projection_completed_part_matches_the_root_route():
    # every (a, b, beta, n) with a <= 30, beta a root of -b mod a and n <= 200:
    # the completed part read off the divisor walk, with no root solved,
    # equals the sum over the roots that it replaced
    table = build_table(30 * 200)
    count = 0
    for a in range(1, 31):
        for beta in range(a):
            b = -beta * beta % a
            for n in range(201):
                an, r = a * n, isqrt(a * n)
                hol = sum(
                    int(table.values[an - k * k])
                    for c in (beta, -beta)
                    for k in range(-r + (c + r) % a, r + 1, a)
                )
                value = exact_projection_coefficient(a, b, beta, n, table)
                completed = oracles.projection_completed_by_roots(a, b, beta, n)
                assert value == Fraction(hol, 12) + completed, (a, b, beta, n)
                count += 1
    assert count == 93_465


def test_exact_projection_constant_term():
    table = build_table(100)
    value = exact_projection_coefficient(4, 0, 0, 0, table)
    assert value == Fraction(-1, 6)  # H(0) * (theta + theta) constant term


def test_exact_projection_zero_when_factors_vanish():
    # below precision 1/5 neither the sieved series (no index == 4 mod 5)
    # nor theta_{5,4} has a term, and the completed part is empty at n = 0
    table = build_table(100)
    assert exact_projection_coefficient(5, 4, 4, 0, table) == 0


def test_exact_projection_insufficient_table():
    table = build_table(10)
    with pytest.raises(ValueError):
        exact_projection_coefficient(5, 4, 1, 100, table)


def _outcome(fn, *args):
    """fn's result, or its exception's type and message."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _clear_caches():
    divisors.cache_clear()
    holproj_module._subset_labels.cache_clear()
    holproj_module._divisor_pairs.cache_clear()


def _closed_forms(table, before_each):
    """Every closed form at every (a, beta), a < 40, b = -beta^2 mod a, on a few n.
    Each form also takes unnormalised spellings of (b, beta): the subset
    split's cache is keyed on the raw arguments, and its messages print them
    verbatim; the shared divisor walk is keyed on beta mod a, typed."""
    out = []
    for a in range(1, 40):
        for beta in range(a):
            b = -beta * beta % a
            spellings = [(b, beta), (b, beta + a), (b, -beta), (b - a, beta), (float(b), beta),
                         (b, float(beta))]
            for n in (1, 2, 7, 30, 167):
                for fn, args in [
                    *[(nonhol_coefficient, (a, sb, sbeta, n)) for sb, sbeta in spellings],
                    *[
                        (lambda *t: q_subset_decomposition(*t).contributions, (a, sb, sbeta, n))
                        for sb, sbeta in spellings
                    ],
                    *[
                        (proj_theta_product, (a, bt, sbeta, n))
                        for bt in sqrt_mod(-b, a)
                        for sbeta in (beta, beta + a, -beta, float(beta))
                    ],
                    (exact_projection_coefficient, (a, b, beta, n, table)),
                ]:
                    before_each()
                    out.append(_outcome(fn, *args))
    return out


def test_divisor_cache_changes_no_closed_form():
    table = build_table(39 * 167)
    cold = _closed_forms(table, _clear_caches)
    warm = _closed_forms(table, lambda: None)
    assert warm == cold
    # cold means every cache the closed forms read starts empty
    caches = {v.__qualname__: v for v in vars(holproj_module).values() if hasattr(v, "cache_info")}
    assert {"divisors", "_subset_labels", "_divisor_pairs"} <= caches.keys()
    _clear_caches()
    assert {name: c.cache_info().currsize for name, c in caches.items()} == dict.fromkeys(caches, 0)


def test_closed_forms_share_one_divisor_walk_per_an():
    a, n = 55, 167
    divisors.cache_clear()
    for beta in range(a):
        b = -beta * beta % a
        nonhol_coefficient(a, b, beta, n)
        _outcome(q_subset_decomposition, a, b, beta, n)  # undefined for some beta
        for bt in sqrt_mod(-b, a):
            proj_theta_product(a, bt, beta, n)
    assert divisors.cache_info().misses == 1

    # the CLI's `holproj --projection` call pattern: every form, then the
    # projection over every root, all from one walk
    table = build_table(a * n)
    holproj_module._divisor_pairs.cache_clear()
    nonhol_coefficient(a, 54, 1, n)
    q_subset_decomposition(a, 54, 1, n)
    exact_projection_coefficient(a, 54, 1, n, table)
    assert holproj_module._divisor_pairs.cache_info().misses == 1
    # and one walk per beta when the residues are swept in turn
    holproj_module._divisor_pairs.cache_clear()
    for beta in range(a):
        b = -beta * beta % a
        nonhol_coefficient(a, b, beta, n)
        _outcome(q_subset_decomposition, a, b, beta, n)
        exact_projection_coefficient(a, b, beta, n, table)
    assert holproj_module._divisor_pairs.cache_info().misses == a


def test_argument_errors_win_over_a_cached_undefined_verdict():
    holproj_module._subset_labels.cache_clear()
    assert _outcome(q_subset_decomposition, 9, 0, 3, 2) == (
        "ValueError",
        "square-root classes of -0 mod 9 are [0, 3, 6], "
        "not the two distinct classes +-3; subset decomposition undefined",
    )
    # a verdict cached for a beta that fails the argument rule
    assert isinstance(holproj_module._subset_labels(9, 0, 1), str)
    for args, message in [
        ((9, 0, 3, 4), "a*n = 36 is a perfect square"),
        ((9, 0, 3, 0), "need a >= 1 and n >= 1"),
        ((9, 0, 1, 2), "beta^2 must be == -b (mod 9)"),
    ]:
        assert _outcome(q_subset_decomposition, *args) == ("ValueError", message), args


def test_closed_forms_share_each_argument_rule():
    table = build_table(100)
    for a, n in [(0, 1), (-3, 1), (1, -1)]:
        for fn, args in [(proj_theta_product, (a, 0, 0, n)),
                         (exact_projection_coefficient, (a, 0, 0, n, table))]:
            assert _outcome(fn, *args) == ("ValueError", "need a >= 1 and n >= 0"), (fn, a, n)
    for fn, args in [(nonhol_coefficient, (9, 0, 1, 2)), (q_subset_decomposition, (9, 0, 1, 2)),
                     (exact_projection_coefficient, (9, 0, 1, 2, table))]:
        assert _outcome(fn, *args) == ("ValueError", "beta^2 must be == -b (mod 9)"), fn


def test_subprogression_construct_shares_the_root_rule():
    assert _outcome(subprogression_construct, 5, 1, 1) == ("ValueError", "beta^2 must be == -b (mod 5)")
    assert _outcome(subprogression_construct, 9, 0, 10) == ("ValueError", "beta^2 must be == -b (mod 9)")


def test_subset_labels_are_solved_once_per_a_b_beta(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return sqrt_mod(*args)

    monkeypatch.setattr(holproj_module, "sqrt_mod", counted)
    for a, b, beta, defined in [(55, 54, 1, True), (9, 0, 3, False)]:
        holproj_module._subset_labels.cache_clear()
        calls.clear()
        outcomes = [_outcome(q_subset_decomposition, a, b, beta, n) for n in range(1, 201)]
        assert calls == [(-b, a)], (a, b, beta)
        assert any(isinstance(o, holproj_module.QSubsetDecomposition) for o in outcomes) == defined

    want = dict(q_subset_decomposition(55, 54, 1, 2).contributions)
    q_subset_decomposition(55, 54, 1, 2).contributions[frozenset()] += 1000
    assert q_subset_decomposition(55, 54, 1, 2).contributions == want
